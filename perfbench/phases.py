"""One phase of the benchmark, run in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/phases.py '<json spec>'

The spec names the phase (``ingest``, ``serve`` or ``query``), its
input size (``full``, ``light`` or ``tiny``), the seed, whether the work
is time-boxed (``timed``) or a fixed amount (``fixed``), whether to
trace, and a scratch directory.

The phase sets itself up and prints ``ready``.  Then it reads commands
from standard input: ``go <seconds>`` runs one segment of work (a timed
phase for about that long, a fixed phase its whole fixed amount) and
prints ``done``; ``end`` makes it print one JSON object -- its
end-to-end metrics, operation counts, measured input properties and,
when traced, the span tallies -- and exit.  The runner interleaves the
segments of the three phases, so each phase samples the whole run.

Every phase checks its answers outside the timed region; a wrong
answer counts as a failed operation.

Every timing except ``gen.late_p99_ms`` is reported at the reference
speed.  The CPU speed a shared machine gives a process drifts by 20%
over minutes and halves for minutes at a time, and it moves a fixed
pure-Python reference loop (``_reference_loop``, no ``repro`` code)
about as much as it moves the library.  So each timed unit of work runs
between timings of the reference loop and is reported as
``seconds * REF_S / reference`` (``scaled``, with the fastest of the
timings around the unit): the time it would take on a machine where
the reference loop takes ``REF_S``.  A change to the library moves the
unit's time and not the reference, so it moves the metric by the same
share.  The serve phase times the reference loop the way the service
runs its work, on a worker thread handed over from the event loop
(``reference_request``), because its latencies are mostly such
hand-overs.  The report gives each phase's median reference timing.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The reference loop's time at the reference speed, in seconds: about
# its time on the two-core machine the benchmark was tuned on.
REF_S = 0.0054


def _reference_loop() -> None:
    """Fixed work of the kind the library does: exact fractions, dict
    inserts, a sort."""
    table = {}
    for i in range(1, 400):
        f = Fraction(i * 7919 % 1009 + 1, i * 104729 % 997 + 1)
        g = f * f - f / 3
        table[(i % 37, g)] = g + f
    sorted(table, key=lambda k: (k[1], k[0]))


def reference_s() -> float:
    """The fastest of three runs of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, *refs: float) -> float:
    """*seconds* of work timed between the reference timings *refs*, at
    the reference speed.  The fastest of them is the speed the machine
    offered: a reference timing can only be slowed by noise."""
    return seconds * REF_S / min(refs)


_reference_loop()  # the first run in a fresh interpreter is slow
_REF0 = reference_s()
_T0 = time.perf_counter()

import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import selectors  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
import sys  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import repro  # noqa: E402
from repro import (  # noqa: E402
    InvariantPipeline,
    OverloadError,
    QueryService,
    ReproError,
    SegmentStore,
)
from repro.errors import TimeoutError as RequestTimeout  # noqa: E402
from repro.logic import compiled as logic_compiled  # noqa: E402

# Importing the library is part of every user's set-up cost.
IMPORT_S = scaled(time.perf_counter() - _T0, _REF0, reference_s())

import inputs  # noqa: E402
import spans  # noqa: E402

SIZES = {
    "ingest": inputs.INGEST_SIZES,
    "serve": inputs.SERVE_SIZES,
    "query": inputs.QUERY_SIZES,
}

# Serve set-ups repeated in a full-size timed run; setup_s is their
# median.
SERVE_SETUP_REPS = 3
# Share of each serve segment given to the closed loop; the open loop,
# whose per-kind medians need the samples, gets the rest.
CLOSED_SHARE = 0.2

# Round-based metrics report the median over rounds of each unit's
# scaled time, and capacity the median closed-loop window.  Latency
# percentiles pool every open-loop request, each scaled by the
# reference timings around its segment's open loop.


def _hash(value) -> str:
    return repro.canonical_hash(value)


def _p(samples, q) -> float:
    """The q-quantile (nearest rank) of *samples*."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.iterdir() if p.is_file())


class Phase:
    """Shared bookkeeping: operation counts, set-up samples, tracer."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.seed = spec["seed"]
        self.size = SIZES[spec["phase"]][spec["size"]]
        self.tmp = Path(spec["tmp"])
        self.fixed = spec["mode"] == "fixed"
        # The phase's time over all its segments.
        self.budget = spec["seconds"]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.setups: list[float] = []
        self.refs: list[float] = []
        self.work_s = 0.0
        self.tracer = spans.Tracer() if spec["trace"] else None

    def ref(self) -> float:
        """Time the reference loop now."""
        self.refs.append(reference_s())
        return self.refs[-1]

    def timed(self, work, before: float) -> tuple:
        """Run *work()* right after the reference timing *before* and
        time the reference loop again.  Returns the result, the wall
        seconds, the seconds at the reference speed, and the new
        reference timing (the *before* of a unit that follows at once)."""
        t0 = perf_counter()
        out = work()
        wall = perf_counter() - t0
        after = self.ref()
        return out, wall, scaled(wall, before, after), after

    def rounds(self, seconds: float):
        """Rounds of one segment: a timed segment repeats while another
        round fits in *seconds*, a fixed one does exactly one.  Every
        segment does at least one."""
        started = perf_counter()
        n = 0
        while n == 0 or (
            not self.fixed and (perf_counter() - started) * (n + 1) / n <= seconds
        ):
            yield n
            n += 1

    def start_work(self) -> None:
        if self.tracer is not None:
            self.tracer.install()

    def stop_work(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def result(self, metrics: dict, properties: dict) -> dict:
        return {
            "size": self.spec["size"],
            "traced": self.tracer is not None,
            "metrics": metrics,
            "import_s": IMPORT_S,
            "setup_s": statistics.median(self.setups),
            "ref_s": statistics.median(self.refs),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "work_s": self.work_s,
            "properties": properties,
            "layers": self.tracer.tallies() if self.tracer is not None else None,
        }


# -- ingest ------------------------------------------------------------------


class Ingest:
    """Rounds of: make a corpus, bulk-load it batch by batch into a
    fresh store with the default serial pipeline, close (seal) the
    store.  Each batch load and the seal is a timed unit."""

    def __init__(self, ph: Phase):
        self.ph = ph
        self.bytes_per, self.dup_share, self.grid_share = [], [], []
        # Unit (batch index or "seal") -> its scaled seconds per round.
        self.units: dict[object, list[float]] = {}
        self.round = 0
        self.instances = 0

    def segment(self, seconds: float) -> None:
        ph = self.ph
        for _ in ph.rounds(seconds):
            root = ph.tmp / f"ingest-{self.round}"
            (batches, store), _, setup_s, ref = ph.timed(
                lambda: (
                    inputs.ingest_batches(ph.seed, self.round, ph.size),
                    SegmentStore(root, sync="seal"),
                ),
                ph.ref(),
            )
            ph.setups.append(setup_s)

            ph.start_work()
            loaded = 0
            for i, batch in enumerate(batches):
                n, wall, unit_s, ref = ph.timed(lambda: store.bulk_load(batch), ref)
                loaded += n
                ph.work_s += wall
                self.units.setdefault(i, []).append(unit_s)
            _, wall, unit_s, ref = ph.timed(store.close, ref)
            ph.work_s += wall
            self.units.setdefault("seal", []).append(unit_s)
            ph.stop_work()

            corpus = [inst for batch in batches for inst in batch]
            distinct = {repro.instance_key(inst): inst for inst in corpus}
            self.instances = len(corpus)
            ph.attempted += len(corpus)
            if loaded != len(corpus) or not _check_ingest(ph, root, distinct):
                ph.wrong += 1
                ph.failed += 1
            self.bytes_per.append(_store_bytes(root) / len(distinct))
            self.dup_share.append(1 - len(distinct) / len(corpus))
            self.grid_share.append(len(ph.size.grids) / len(corpus))
            shutil.rmtree(root)
            self.round += 1

    def finish(self) -> dict:
        ph = self.ph
        round_s = sum(statistics.median(times) for times in self.units.values())
        return ph.result(
            {
                "ingest.inst_per_s": self.instances / round_s,
                "ingest.bytes_per_inst": statistics.median(self.bytes_per),
            },
            {
                "ingest.rounds": self.round,
                "ingest.instances_per_round": self.instances,
                "ingest.grid_sizes": list(ph.size.grids),
                "ingest.duplicate_share": statistics.median(self.dup_share),
                "ingest.grid_share": statistics.median(self.grid_share),
                "ingest.sync_policy": "seal",
            },
        )


def _check_ingest(ph: Phase, root: Path, distinct: dict) -> bool:
    """One record per distinct instance, and a seeded sample of stored
    invariants equal to ``canonical_hash(invariant(inst))`` computed
    directly (a few small instances per round, to keep the check cheap;
    every round's keys are new, so the rounds check different records)."""
    rng = random.Random(ph.seed)
    small = sorted(k for k, inst in distinct.items() if len(inst) <= 40)
    sample = rng.sample(small, min(3, len(small)))
    with SegmentStore(root) as store:
        if len(store) != len(distinct):
            return False
        return all(
            _hash(store.get(key)) == _hash(repro.invariant(distinct[key]))
            for key in sample
        )


# -- serve -------------------------------------------------------------------


class Served:
    """The serving session: a store-backed QueryService over the
    working set, and the expected answer of every request it can get."""

    def __init__(self, ph: Phase):
        self.ph = ph
        n = ph.size.instances
        self.names = [f"w{i:03d}" for i in range(n)]
        # Expected answers, computed directly on a separate copy of the
        # geometry before anything is timed.
        working = inputs.small_instances(ph.seed, n)
        self.keys = [repro.instance_key(inst) for inst in working]
        self.queries: dict[str, list] = {}
        self.want_cells: dict[tuple, bool] = {}
        for name, inst in zip(self.names, working):
            kept = []
            for sentence in inputs.cell_queries(inst):
                try:
                    want = repro.evaluate_cells(sentence, inst)
                except ReproError:
                    continue  # beyond the engine's budget: never asked
                self.want_cells[(name, len(kept))] = want
                kept.append(sentence)
            self.queries[name] = kept
        self.invariants = {
            n: repro.invariant(i) for n, i in zip(self.names, working)
        }
        self.want_hash = {n: _hash(t) for n, t in self.invariants.items()}
        self.want_fresh = ""
        self.fresh: dict[int, object] = {}

    def prepare_fresh(self, *plans) -> None:
        """The geometry of every fresh write in *plans*, and its expected
        invariant.  Fresh instances are one shape at new places (see
        ``inputs.fresh_instance``), so one canonical hash answers them
        all; computing it directly for a seeded sample confirms that."""
        for plan in plans:
            for op in plan:
                if op[0] == "fresh":
                    self.fresh[op[1]] = inputs.fresh_instance(self.ph.seed, op[1])
        rng = random.Random(self.ph.seed)
        sample = rng.sample(sorted(self.fresh), min(8, len(self.fresh)))
        hashes = {_hash(repro.invariant(self.fresh[j])) for j in sample}
        if len(hashes) != 1:
            raise RuntimeError("fresh instances of one shape have different invariants")
        self.want_fresh = hashes.pop()

    def open(self, tag: int) -> None:
        """Set up the service."""
        working = inputs.small_instances(self.ph.seed, len(self.names))
        self.store = SegmentStore(self.ph.tmp / f"serve-{tag}")
        self.store.bulk_load(working)
        self.pipeline = InvariantPipeline(
            cache_size=self.ph.size.cache_size, store=self.store
        )
        self.svc = QueryService(pipeline=self.pipeline, store=self.store)
        for name, key in zip(self.names, self.keys):
            self.svc.register_from_store(name, key)

    def close(self) -> None:
        self.svc.close()
        self.pipeline.close()
        self.store.close()
        shutil.rmtree(self.store.root)

    async def request(self, op):
        kind = op[0]
        svc = self.svc
        if kind == "cells":
            answer = await svc.ask_cells(op[1], self.queries[op[1]][op[2]])
        elif kind == "invariant":
            answer = await svc.invariant_of(op[1])
        elif kind == "equivalent":
            answer = await svc.equivalent(op[1], op[2])
        else:
            name = f"fresh{op[1]}"
            svc.register(name, self.fresh[op[1]])
            answer = await svc.invariant_of(name)
        return answer.value

    def correct(self, op, value) -> bool:
        kind = op[0]
        if kind == "cells":
            return value == self.want_cells[(op[1], op[2])]
        if kind == "invariant":
            return _hash(value) == self.want_hash[op[1]]
        if kind == "equivalent":
            a, b = op[1], op[2]
            return value == (
                a == b or repro.are_isomorphic(self.invariants[a], self.invariants[b])
            )
        return _hash(value) == self.want_fresh


async def _one(served: Served, op, t_start: float, log: list) -> None:
    try:
        value = await served.request(op)
        status = "ok"
    except OverloadError:
        value, status = None, "shed"
    except RequestTimeout:
        value, status = None, "timeout"
    except ReproError:
        value, status = None, "error"
    log.append((op, value, status, perf_counter() - t_start))


async def reference_request(pool: ThreadPoolExecutor) -> float:
    """The fastest of three runs of the reference loop on *pool*, each
    timed from the event loop, in seconds."""
    loop = asyncio.get_running_loop()
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        await loop.run_in_executor(pool, _reference_loop)
        best = min(best, perf_counter() - t0)
    return best


async def closed_loop(served: Served, plan, clients: int):
    """*clients* callers, each sending its next request when its last
    one is answered, until the plan runs out.  Returns the log and the
    seconds taken."""
    log: list = []
    ops = iter(plan)

    async def client():
        for op in ops:
            await _one(served, op, perf_counter(), log)

    t0 = perf_counter()
    await asyncio.gather(*(client() for _ in range(clients)))
    return log, perf_counter() - t0


async def open_loop(served: Served, plan, rate: float):
    """One request every 1/rate seconds whether or not earlier ones
    were answered; each is timed from when it was due."""
    log: list = []
    late: list[float] = []
    tasks = []
    t0 = perf_counter()
    for i, op in enumerate(plan):
        due = t0 + i / rate
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, perf_counter() - due))
        tasks.append(asyncio.create_task(_one(served, op, due, log)))
    await asyncio.gather(*tasks)
    return log, late


class Serve:
    """One serving session over the whole run.  Each segment spends
    ``CLOSED_SHARE`` of its time in the closed loop and the rest in the
    open loop; the plans continue from one segment to the next.  All
    timings of a segment are scaled by the fastest of the reference
    timings before, between and after its two loops."""

    def __init__(self, ph: Phase):
        self.ph = ph
        size = ph.size
        self.served = served = Served(ph)
        counts = {n: len(q) for n, q in served.queries.items()}
        self.clients = os.cpu_count() or 1
        if ph.fixed:
            n_closed, n_open = size.fixed_requests
        else:
            n_closed = int(inputs.CLOSED_RATE_RPS * ph.budget * CLOSED_SHARE) + 1
            n_open = int(inputs.OPEN_RATE_RPS * ph.budget) + 1
        warm_plan = [
            op
            for op in inputs.traffic(1, served.names, counts, 200, 0)
            if op[0] != "fresh"
        ]
        closed_plan = inputs.traffic(2, served.names, counts, n_closed, 0)
        open_plan = inputs.traffic(3, served.names, counts, n_open, n_closed)
        served.prepare_fresh(closed_plan, open_plan)
        self.closed_ops, self.open_ops = iter(closed_plan), iter(open_plan)

        reps = SERVE_SETUP_REPS if ph.spec["size"] == "full" and not ph.fixed else 1
        for tag in range(reps):
            _, _, setup_s, _ = ph.timed(lambda: served.open(tag), ph.ref())
            ph.setups.append(setup_s)
            if tag < reps - 1:
                served.close()
        logic_compiled.clear_universe_cache()
        # select() sleeps to the microsecond; the default epoll loop
        # rounds every sleep up to a whole millisecond, which made the
        # open-loop generator late by 0.7 ms at the median.
        self.loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.loop.run_until_complete(closed_loop(served, warm_plan, self.clients))
        self.before = self._counters()
        self.closed_log: list = []
        self.open_log: list = []
        self.late: list[float] = []
        self.segment_rps: list[float] = []
        # The p99 is taken per turn and reported as the median turn: a
        # turn whose slowdown the reference timings missed would
        # otherwise fill the pooled tail.
        self.segment_p99: list[float] = []

    def _ref(self) -> float:
        """Time the reference loop as the service runs its work: on a
        worker thread, handed over from the event loop and back."""
        self.ph.refs.append(self.loop.run_until_complete(reference_request(self.pool)))
        return self.ph.refs[-1]

    def _counters(self) -> tuple:
        universe = logic_compiled.universe_cache()
        cache = self.served.pipeline.cache
        return (universe.hits, universe.misses, cache.hits, cache.misses, cache.store_hits)

    def segment(self, seconds: float) -> None:
        ph, served = self.ph, self.served
        if ph.fixed:
            n_closed, n_open = ph.size.fixed_requests
        else:
            t_closed = seconds * CLOSED_SHARE
            n_closed = int(inputs.CLOSED_RATE_RPS * t_closed)
            n_open = max(1, int(inputs.OPEN_RATE_RPS * (seconds - t_closed)))
        closed_plan = list(islice(self.closed_ops, n_closed))
        open_plan = list(islice(self.open_ops, n_open))
        refs = [self._ref()]
        ph.start_work()
        closed_log, closed_s = self.loop.run_until_complete(
            closed_loop(served, closed_plan, self.clients)
        )
        refs.append(self._ref())
        open_log, late = self.loop.run_until_complete(
            open_loop(served, open_plan, inputs.OPEN_RATE_RPS)
        )
        refs.append(self._ref())
        ph.stop_work()
        # The open loop is paced, so only the closed loop's time says how
        # long the work took.
        ph.work_s += closed_s
        # Capacity counts successful answers only: a shed returns at
        # once and would otherwise raise it.
        answered = sum(status == "ok" for _op, _value, status, _s in closed_log)
        self.segment_rps.append(answered / scaled(closed_s, *refs))
        self.closed_log += closed_log
        open_log = [
            (op, value, status, scaled(s, *refs)) for op, value, status, s in open_log
        ]
        self.open_log += open_log
        self.segment_p99.append(
            _p([s for _op, _value, status, s in open_log if status == "ok"], 0.99)
        )
        self.late += late

    def finish(self) -> dict:
        ph, served = self.ph, self.served
        delta = [a - b for a, b in zip(self._counters(), self.before)]
        served.close()
        self.pool.shutdown()
        self.loop.close()

        by_kind: dict[str, list[float]] = {}
        latencies = []
        failures: dict[str, int] = {}
        ops = self.closed_log + self.open_log
        for op, value, status, _seconds in ops:
            ph.attempted += 1
            if status == "ok" and not served.correct(op, value):
                status = "wrong"
            if status != "ok":
                failures[status] = failures.get(status, 0) + 1
                ph.failed += 1
                ph.wrong += status == "wrong"
        for op, _value, status, seconds in self.open_log:
            if status == "ok":
                latencies.append(seconds * 1e3)
                by_kind.setdefault(op[0], []).append(seconds * 1e3)
        u_hits, u_misses, c_hits, c_misses, store_hits = delta
        return ph.result(
            {
                "serve.p50_ms": _p(latencies, 0.50),
                "serve.cells_p50_ms": _p(by_kind["cells"], 0.50),
                "serve.lookup_p50_ms": _p(by_kind["invariant"], 0.50),
                "serve.equivalent_p50_ms": _p(by_kind["equivalent"], 0.50),
            },
            {
                # Measured and reported, but not end-to-end metrics: ten
                # runs of the same code spread by up to 0.2-0.3 of their
                # median on a shared machine, past any usable bound.
                "serve.capacity_rps": statistics.median(self.segment_rps),
                "serve.p99_ms": statistics.median(self.segment_p99) * 1e3,
                "serve.fresh_p50_ms": _p(by_kind["fresh"], 0.50),
                "serve.working_set": ph.size.instances,
                "serve.pipeline_cache_size": ph.size.cache_size,
                "serve.clients": self.clients,
                "serve.open_rate_rps": inputs.OPEN_RATE_RPS,
                "serve.closed_requests": len(self.closed_log),
                "serve.open_samples": {k: len(v) for k, v in sorted(by_kind.items())},
                "serve.universe_hit_frac": u_hits / max(1, u_hits + u_misses),
                "serve.store_served_frac": store_hits / max(1, c_hits + c_misses),
                "serve.write_frac": sum(op[0] == "fresh" for op, *_ in ops) / len(ops),
                "serve.failures": failures,
                "gen.late_p99_ms": _p(self.late, 0.99) * 1e3,
            },
        )


# -- query -------------------------------------------------------------------


class Query:
    """Rounds of one cold pass (cleared universe cache, new
    translations) and one warm pass over the paper's sentences."""

    def __init__(self, ph: Phase):
        self.ph = ph
        self.colds: list[float] = []
        self.warms: list[float] = []

    def segment(self, seconds: float) -> None:
        ph = self.ph
        for _ in ph.rounds(seconds):
            logic_compiled.clear_universe_cache()
            cases, _, setup_s, ref = ph.timed(
                lambda: inputs.query_round(ph.seed * 1000 + len(self.colds), ph.size),
                ph.ref(),
            )
            ph.setups.append(setup_s)
            answers = []
            ph.start_work()
            for passes in (self.colds, self.warms):
                out, wall, pass_s, ref = ph.timed(
                    lambda: [repro.evaluate_cells(case[2], case[1]) for case in cases],
                    ref,
                )
                answers += out
                ph.work_s += wall
                passes.append(pass_s)
            ph.stop_work()
            wants = [case[3] for case in cases] * 2
            ph.attempted += len(wants)
            bad = sum(a != w for a, w in zip(answers, wants))
            ph.failed += bad
            ph.wrong += bad

    def finish(self) -> dict:
        return self.ph.result(
            {
                "query.cold_s": statistics.median(self.colds),
                "query.warm_s": statistics.median(self.warms),
            },
            {
                "query.rounds": len(self.colds),
                "query.cases": list(self.ph.size.cases),
            },
        )


def _say(word: str) -> None:
    print(word, flush=True)


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    ph = Phase(spec)
    phase = {"ingest": Ingest, "serve": Serve, "query": Query}[spec["phase"]](ph)
    _say("ready")
    for line in sys.stdin:
        command = line.split()
        if command[0] != "go":
            break
        phase.segment(float(command[1]))
        _say("done")
    _say(json.dumps(phase.finish()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
