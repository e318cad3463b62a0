"""Service load test — closed- and open-loop traffic over the query
service.

A mixed read/compute workload (figure instances + a generated corpus ×
a cell/equivalence/invariant query mix, duplicate-heavy by
construction) is driven through :class:`repro.service.QueryService`
three ways:

* **closed loop** — K clients, each issuing its next request the
  moment the previous one answers: measures capacity (throughput at
  saturation) without coordinated omission;
* **open loop** — requests arrive on a fixed schedule regardless of
  completions: measures latency under offered load, with overload
  surfacing as shed requests rather than silent queueing;
* **burst** — a whole duplicate wave issued in one scheduling batch:
  the worst-case fan-in that coalescing exists for (one compute, N
  answers).

Every row records p50/p99/mean latency, throughput, per-status counts,
the coalescing hit-rate (from the ``service.*`` counter family), and —
because every request's expected answer is precomputed directly
against the engines — a ``wrong_answers`` count that must be zero.  A
separate pass replays the pipeline-backed endpoints across both
pipeline backends (serial/processes) and must also be bit-identical.

A second pass — the **distinct-lookup sweep** — drives invariant
lookups of pairwise-distinct instances through one service, in a
closed loop of 8 clients.  The cold loop (first touch of every
instance: each lookup is a miss, and the misses that arrive while a
``compute_batch`` runs ride the next one) runs on a serial and on a
2-worker ``processes`` pipeline, ``SWEEP_RUNS`` fresh services each,
alternating which pipeline goes first; every run is recorded and the
median is reported.  The process pool is started before the clock.
Then a warm closed loop re-asks the corpus on the last service; every
warm lookup is an inline hit of the pipeline cache's memory tier, and
the sweep asserts that the warm loop made zero computes.

Run as a pytest module (``pytest benchmarks/bench_service.py``) or as
a script::

    PYTHONPATH=src python benchmarks/bench_service.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_service.py --smoke  # CI smoke

The full sweep writes ``BENCH_service.json`` at the repo root; the
smoke writes its JSON to a temporary directory unless ``--out`` is
given.  Smoke mode asserts a >0 coalescing hit-rate on the duplicate-heavy workload, zero
computes over the warm distinct-lookup loop, and zero wrong answers
everywhere (the full sweep asserts the same, over more traffic).
"""

import argparse
import asyncio
import json
import resource
import statistics
import tempfile
import time
from collections import Counter, deque
from pathlib import Path

from repro import (
    OverloadError,
    QueryService,
    Rect,
    ReproError,
    RetryPolicy,
    SpatialInstance,
    canonical_hash,
    invariant,
    topologically_equivalent,
)
from repro import errors as repro_errors
from repro.datasets import fig_1a, fig_1b, overlap_chain
from repro.instrument import counter_delta, counter_snapshot
from repro.logic import evaluate_cells, parse
from repro.logic.compiled import clear_universe_cache
from repro.pipeline import BACKENDS, InvariantPipeline

LENS = SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
APART = SpatialInstance({"A": Rect(0, 0, 1, 1), "B": Rect(3, 3, 4, 4)})
NESTED = SpatialInstance({"A": Rect(0, 0, 8, 8), "B": Rect(2, 2, 5, 5)})

CORPUS = {
    "lens": LENS,
    "apart": APART,
    "nested": NESTED,
    "fig_1a": fig_1a(),
    "fig_1b": fig_1b(),
    "chain": overlap_chain(3),
}

GENERIC_QUERIES = [
    "exists name a, b . not (a = b) and overlap(a, b)",
    "exists name a . exists r . subset(r, a)",
    "forall name a . connect(a, a)",
]

AB_QUERIES = [
    "exists r . subset(r, A) and subset(r, B)",
    "overlap(A, B)",
    "meet(A, B)",
]
AB_NAMES = ("lens", "apart", "nested")

EQ_PAIRS = [("lens", "apart"), ("lens", "nested"), ("apart", "nested")]

def _percentile(samples, q):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _retry():
    return RetryPolicy(sleep=lambda s: None)


def build_jobs(repeat: int):
    """The mixed workload: (kind, args, expected) triples, with every
    distinct request repeated *repeat* times (duplicate-heavy — the
    shape coalescing and the invariant cache exist for)."""
    jobs = []
    for q in GENERIC_QUERIES:
        for name, inst in CORPUS.items():
            jobs.append(("cells", (name, q), evaluate_cells(parse(q), inst)))
    for q in AB_QUERIES:
        for name in AB_NAMES:
            jobs.append(
                ("cells", (name, q), evaluate_cells(parse(q), CORPUS[name]))
            )
    for a, b in EQ_PAIRS:
        jobs.append(
            (
                "equivalent",
                (a, b),
                topologically_equivalent(CORPUS[a], CORPUS[b]),
            )
        )
    for name in AB_NAMES:
        jobs.append(
            ("invariant", (name,), canonical_hash(invariant(CORPUS[name])))
        )
    ordered = []
    for job in jobs:
        ordered.extend([job] * repeat)  # duplicates adjacent → in flight
    return ordered


def make_service(**kw):
    kw.setdefault("max_inflight", 4)
    kw.setdefault("max_queue", 64)
    svc = QueryService(**kw)
    for name, inst in CORPUS.items():
        svc.register(name, inst)
    return svc


async def dispatch(svc, kind, args, timeout=None):
    if kind == "cells":
        return await svc.ask_cells(*args, timeout=timeout)
    if kind == "equivalent":
        return await svc.equivalent(*args, timeout=timeout)
    if kind == "invariant":
        return await svc.invariant_of(*args, timeout=timeout)
    raise ValueError(kind)


def _check(kind, expected, value):
    if kind == "invariant":
        return canonical_hash(value) == expected
    return value == expected


class Recorder:
    """Per-request latency/status/correctness tally for one row."""

    def __init__(self):
        self.latencies = []
        self.statuses = Counter()
        self.wrong = 0

    async def request(self, svc, job, timeout=None):
        kind, args, expected = job
        t0 = time.perf_counter()
        try:
            answer = await dispatch(svc, kind, args, timeout=timeout)
        except OverloadError:
            self.statuses["shed"] += 1
        except repro_errors.TimeoutError:
            self.statuses["timeout"] += 1
        except ReproError:
            self.statuses["error"] += 1
        else:
            self.latencies.append(time.perf_counter() - t0)
            self.statuses["ok"] += 1
            if not _check(kind, expected, answer.value):
                self.wrong += 1

    def row(self, mode, elapsed, delta, **extra):
        total = sum(self.statuses.values())
        requests = delta.get("service.requests", 0)
        return {
            "mode": mode,
            **extra,
            "requests": total,
            "statuses": dict(self.statuses),
            "wrong_answers": self.wrong,
            "p50_ms": _percentile(self.latencies, 0.50) * 1e3,
            "p99_ms": _percentile(self.latencies, 0.99) * 1e3,
            "mean_ms": (
                sum(self.latencies) / len(self.latencies) * 1e3
                if self.latencies
                else 0.0
            ),
            "throughput_rps": total / elapsed if elapsed > 0 else 0.0,
            "coalesce_hit_rate": (
                delta.get("service.coalesced", 0) / requests
                if requests
                else 0.0
            ),
            "computes": delta.get("service.computes", 0),
            "peak_rss_kib": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss,
        }


def run_closed_loop(jobs, clients):
    """K clients, back-to-back requests from a shared queue."""
    rec = Recorder()

    async def main():
        async with make_service() as svc:
            queue = deque(jobs)

            async def client():
                while True:
                    try:
                        job = queue.popleft()
                    except IndexError:
                        return
                    await rec.request(svc, job)

            before = counter_snapshot()
            t0 = time.perf_counter()
            await asyncio.gather(*[client() for _ in range(clients)])
            elapsed = time.perf_counter() - t0
            delta = counter_delta(before, counter_snapshot())
            return rec.row("closed", elapsed, delta, clients=clients)

    return asyncio.run(main())


def run_open_loop(jobs, rate):
    """Fixed arrival schedule at *rate* requests/second; overload sheds."""
    rec = Recorder()
    interval = 1.0 / rate

    async def main():
        async with make_service() as svc:
            before = counter_snapshot()
            t0 = time.perf_counter()
            tasks = []
            for job in jobs:
                tasks.append(
                    asyncio.ensure_future(rec.request(svc, job, timeout=10.0))
                )
                await asyncio.sleep(interval)
            await asyncio.gather(*tasks)
            elapsed = time.perf_counter() - t0
            delta = counter_delta(before, counter_snapshot())
            return rec.row("open", elapsed, delta, offered_rps=rate)

    return asyncio.run(main())


def run_burst(job, n):
    """One wave of n identical requests in a single scheduling batch:
    deterministically one compute, n-1 coalesced answers."""
    rec = Recorder()

    async def main():
        async with make_service() as svc:
            before = counter_snapshot()
            t0 = time.perf_counter()
            await asyncio.gather(
                *[rec.request(svc, job) for _ in range(n)]
            )
            elapsed = time.perf_counter() - t0
            delta = counter_delta(before, counter_snapshot())
            return rec.row("open", elapsed, delta, burst=n)

    return asyncio.run(main())


def run_backend_check():
    """Pipeline-backed endpoints across both backends: every
    answer bit-identical to direct evaluation."""
    reference_inv = {
        n: canonical_hash(invariant(CORPUS[n])) for n in AB_NAMES
    }
    rows = []
    for backend in BACKENDS:

        async def main():
            pipe = InvariantPipeline(
                backend=backend, workers=2, retry=_retry()
            )
            try:
                async with make_service(pipeline=pipe) as svc:
                    wrong = 0
                    for n in AB_NAMES:
                        got = (await svc.invariant_of(n)).value
                        if canonical_hash(got) != reference_inv[n]:
                            wrong += 1
                    for a, b in EQ_PAIRS:
                        got = (await svc.equivalent(a, b)).value
                        want = topologically_equivalent(
                            CORPUS[a], CORPUS[b]
                        )
                        if got != want:
                            wrong += 1
                    return {
                        "backend": backend,
                        "requests": len(AB_NAMES) + len(EQ_PAIRS),
                        "wrong_answers": wrong,
                    }
            finally:
                pipe.close()

        rows.append(asyncio.run(main()))
    return rows


# -- distinct-lookup sweep ----------------------------------------------------

#: Cold runs per pipeline; the row reports their median.
SWEEP_RUNS = 5
SWEEP_CLIENTS = 8
SWEEP_PIPELINES = {
    "serial": lambda: InvariantPipeline(),
    "processes-2": lambda: InvariantPipeline(backend="processes", workers=2),
}

_DISTINCT_SHAPES = [
    lambda x: {"A": Rect(x, 0, x + 4, 4), "B": Rect(x + 2, 2, x + 6, 6)},
    lambda x: {"A": Rect(x, 0, x + 1, 1), "B": Rect(x + 3, 3, x + 4, 4)},
    lambda x: {"A": Rect(x, 0, x + 8, 8), "B": Rect(x + 2, 2, x + 5, 5)},
]


def make_distinct_corpus(n):
    """*n* instances with pairwise-distinct ``instance_key``s: every
    first lookup is a cache miss, and no two of them coalesce."""
    return {
        f"d{i:03d}": SpatialInstance(_DISTINCT_SHAPES[i % 3](i * 16))
        for i in range(n)
    }


def _start_pool(pipeline):
    """Start a ``processes`` pipeline's workers on two throwaway
    instances, so the cold loop measures serving, not process start."""
    if pipeline.backend == "processes":
        pipeline.compute_batch(
            [SpatialInstance(_DISTINCT_SHAPES[0](-16 * (i + 1))) for i in (0, 1)]
        )


async def _closed_loop(svc, rec, jobs, clients):
    """*clients* clients sending *jobs* back to back; returns the
    seconds taken and the ``service.*`` counter delta."""
    queue = deque(jobs)

    async def client():
        while queue:
            await rec.request(svc, queue.popleft())

    before = counter_snapshot()
    t0 = time.perf_counter()
    await asyncio.gather(*[client() for _ in range(clients)])
    elapsed = time.perf_counter() - t0
    return elapsed, counter_delta(before, counter_snapshot())


def run_distinct_loops(pipeline_name, corpus, expected, rounds=0):
    """One fresh service on a *pipeline_name* pipeline: the cold closed
    loop over *corpus*, then (when *rounds* > 0) a warm closed loop of
    *rounds* passes.  Returns the cold row and the warm row (or None)."""
    jobs = [("invariant", (name,), expected[name]) for name in corpus]
    cold, warm = Recorder(), Recorder()

    async def main():
        pipe = SWEEP_PIPELINES[pipeline_name]()
        try:
            _start_pool(pipe)
            async with make_service(pipeline=pipe, max_queue=64) as svc:
                for name, inst in corpus.items():
                    svc.register(name, inst)
                elapsed, delta = await _closed_loop(
                    svc, cold, jobs, SWEEP_CLIENTS
                )
                cold_row = cold.row(
                    "closed",
                    elapsed,
                    delta,
                    phase="cold",
                    pipeline=pipeline_name,
                    clients=SWEEP_CLIENTS,
                    seconds=elapsed,
                )
                warm_row = None
                if rounds:
                    elapsed, delta = await _closed_loop(
                        svc, warm, jobs * rounds, SWEEP_CLIENTS
                    )
                    warm_row = warm.row(
                        "closed",
                        elapsed,
                        delta,
                        phase="warm",
                        pipeline=pipeline_name,
                        clients=SWEEP_CLIENTS,
                        seconds=elapsed,
                    )
                return cold_row, warm_row
        finally:
            pipe.close()

    return asyncio.run(main())


def run_distinct_sweep(smoke=False):
    """The one-service distinct-lookup sweep.  Returns ``(rows, gates)``;
    the caller asserts ``gates['passed']``."""
    n = 24 if smoke else 48
    rounds = 25 if smoke else 100
    corpus = make_distinct_corpus(n)
    expected = {
        name: canonical_hash(invariant(inst))
        for name, inst in corpus.items()
    }
    names = list(SWEEP_PIPELINES)
    runs = {name: [] for name in names}
    warm_row = None
    for i in range(SWEEP_RUNS):
        order = names if i % 2 == 0 else names[::-1]
        for j, name in enumerate(order):
            last = i == SWEEP_RUNS - 1 and j == len(order) - 1
            cold_row, maybe_warm = run_distinct_loops(
                name, corpus, expected, rounds=rounds if last else 0
            )
            runs[name].append(cold_row)
            warm_row = maybe_warm or warm_row
    rows = [
        {
            "phase": "cold",
            "pipeline": name,
            "clients": SWEEP_CLIENTS,
            "lookups": n,
            "median_s": statistics.median(r["seconds"] for r in runs[name]),
            "runs_s": [r["seconds"] for r in runs[name]],
            "wrong_answers": sum(r["wrong_answers"] for r in runs[name]),
            "runs": runs[name],
        }
        for name in names
    ]
    rows.append(warm_row)
    wrong = sum(r["wrong_answers"] for r in rows)
    gates = {
        "wrong_answers": wrong,
        "warm_computes": warm_row["computes"],
        "warm_requests": warm_row["requests"],
    }
    gates["passed"] = wrong == 0 and warm_row["computes"] == 0
    return rows, gates


def _print_sweep(rows, gates):
    for row in rows:
        if row["phase"] == "cold":
            runs = " ".join(f"{s:.3f}" for s in row["runs_s"])
            print(
                f"cold {row['pipeline']:>11}: {row['lookups']} distinct "
                f"lookups, {row['clients']} clients, median "
                f"{row['median_s']:.3f} s (runs {runs}), "
                f"{row['wrong_answers']} wrong"
            )
        else:
            print(
                f"warm {row['pipeline']:>11}: {row['requests']} lookups in "
                f"{row['seconds'] * 1e3:.1f} ms, {row['computes']} computes, "
                f"{row['wrong_answers']} wrong"
            )
    print(
        f"sweep gates: {gates['wrong_answers']} wrong answers, "
        f"{gates['warm_computes']} computes over the warm loop -> "
        f"{'PASS' if gates['passed'] else 'FAIL'}"
    )


def _print_rows(rows):
    print(
        f"{'mode':>7} {'load':>12} {'req':>5} {'ok':>5} {'shed':>5} "
        f"{'p50':>8} {'p99':>8} {'rps':>8} {'coalesce':>9} {'wrong':>6}"
    )
    for row in rows:
        load = (
            f"{row.get('clients', '')}c"
            if "clients" in row
            else f"{row.get('offered_rps', '')}rps"
            if "offered_rps" in row
            else f"{row.get('burst', '')}burst"
        )
        print(
            f"{row['mode']:>7} {load:>12} {row['requests']:>5} "
            f"{row['statuses'].get('ok', 0):>5} "
            f"{row['statuses'].get('shed', 0):>5} "
            f"{row['p50_ms']:>7.2f}m {row['p99_ms']:>7.2f}m "
            f"{row['throughput_rps']:>8.0f} "
            f"{row['coalesce_hit_rate']:>8.1%} {row['wrong_answers']:>6}"
        )


# -- pytest entry points ------------------------------------------------------


def test_served_answers_bit_identical_under_load():
    """A small closed loop plus the two-backend replay: zero wrong
    answers anywhere."""
    clear_universe_cache()
    row = run_closed_loop(build_jobs(repeat=2), clients=4)
    assert row["wrong_answers"] == 0
    assert row["statuses"].get("ok", 0) == row["requests"]
    for backend_row in run_backend_check():
        assert backend_row["wrong_answers"] == 0, backend_row


def test_burst_coalesces():
    """A duplicate burst is served by a single compute."""
    clear_universe_cache()
    job = ("cells", ("lens", AB_QUERIES[0]), True)
    row = run_burst(job, 16)
    assert row["wrong_answers"] == 0
    assert row["computes"] == 1
    assert row["coalesce_hit_rate"] > 0.9


def test_distinct_lookups_bit_identical():
    """A small cold and warm closed loop over the distinct-instance
    corpus on one service: zero wrong answers, and the warm loop
    computes nothing."""
    corpus = make_distinct_corpus(12)
    expected = {
        name: canonical_hash(invariant(inst))
        for name, inst in corpus.items()
    }
    cold_row, warm_row = run_distinct_loops(
        "serial", corpus, expected, rounds=4
    )
    for row in (cold_row, warm_row):
        assert row["wrong_answers"] == 0, row
        assert row["statuses"].get("ok", 0) == row["requests"], row
    assert warm_row["computes"] == 0, warm_row


# -- CLI ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sweep for CI (same assertions, less traffic)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=(
            "where the load test writes its rows (default: "
            "BENCH_service.json at the repo root; a temporary directory "
            "under --smoke)"
        ),
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (
            Path(tempfile.mkdtemp(prefix="bench-service-"))
            if args.smoke
            else Path(__file__).resolve().parent.parent
        ) / "BENCH_service.json"

    clear_universe_cache()
    burst_job = ("cells", ("lens", AB_QUERIES[0]), True)
    if args.smoke:
        jobs = build_jobs(repeat=2)
        closed_rows = [run_closed_loop(jobs, clients=4)]
        open_rows = [run_open_loop(jobs, rate=300), run_burst(burst_job, 16)]
    else:
        jobs = build_jobs(repeat=4)
        closed_rows = [
            run_closed_loop(jobs, clients=c) for c in (1, 4, 16)
        ]
        open_rows = [
            run_open_loop(jobs, rate=r) for r in (100, 400)
        ] + [run_burst(burst_job, 64)]
    backend_rows = run_backend_check()
    sweep_rows, sweep_gates = run_distinct_sweep(smoke=args.smoke)

    rows = closed_rows + open_rows
    _print_rows(rows)
    for row in backend_rows:
        print(
            f"backend {row['backend']}: {row['requests']} requests, "
            f"{row['wrong_answers']} wrong"
        )
    _print_sweep(sweep_rows, sweep_gates)

    payload = {
        "benchmark": "service_load",
        "workload": "figures + generated corpus x cell/equivalence/"
        "invariant mix, duplicate-heavy",
        "smoke": args.smoke,
        "closed_loop_rows": closed_rows,
        "open_loop_rows": open_rows,
        "backend_rows": backend_rows,
        "distinct_sweep": {
            "workload": "invariant lookups of pairwise-distinct "
            f"instances, {SWEEP_CLIENTS} clients; cold rows are the "
            f"median of {SWEEP_RUNS} alternating runs per pipeline",
            "rows": sweep_rows,
            "gates": sweep_gates,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    wrong = (
        sum(r["wrong_answers"] for r in rows)
        + sum(r["wrong_answers"] for r in backend_rows)
        + sweep_gates["wrong_answers"]
    )
    assert wrong == 0, f"{wrong} wrong answers served"
    duplicate_heavy = max(rows, key=lambda r: r["coalesce_hit_rate"])
    assert duplicate_heavy["coalesce_hit_rate"] > 0, (
        "no coalescing on the duplicate-heavy workload"
    )
    assert sweep_gates["passed"], f"sweep gates failed: {sweep_gates}"
    best = duplicate_heavy["coalesce_hit_rate"]
    print(
        f"zero wrong answers across {len(rows)} load rows, "
        f"{len(backend_rows)} backends, and the distinct-lookup sweep; "
        f"peak coalescing {best:.0%} -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
