"""Batch pipeline — cold vs. warm vs. parallel invariant computation.

The experiment behind the pipeline's existence: on a 100-instance mixed
corpus, content-addressed caching must make a warm batch at least 5x
faster than a cold serial one (in practice it is orders of magnitude:
warm lookups are hash computations), and on a multi-core machine the
process backend must beat cold serial.  Equivalence grouping must agree
with pairwise ``topologically_equivalent`` while running far fewer
isomorphism searches than the quadratic pairwise schedule would.

Run as a pytest benchmark (``pytest benchmarks/bench_pipeline.py``) or
as a script::

    PYTHONPATH=src python benchmarks/bench_pipeline.py           # perf
    PYTHONPATH=src python benchmarks/bench_pipeline.py --chaos   # + chaos
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke   # CI

The script measures the resilience machinery's cold-path overhead
(pipeline batch vs a raw ``invariant()`` loop), the per-task codec
round trip of the zero-copy shared-memory dispatch against a JSON
string per task, and, with ``--chaos``, sweeps seeded schedules of
worker and segment-store faults (:meth:`repro.faults.FaultPlan.seeded`)
through a store-backed pipeline, asserting that every non-failed key's
invariant is bit-identical to the fault-free reference and that a
fresh pipeline over the (possibly torn or bit-flipped) store heals to
correct answers.  The full run writes ``BENCH_pipeline.json`` at the
repo root.
"""

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro import tracing
from repro.datasets import mixed_corpus
from repro.faults import STORE_POINTS, WORKER_POINTS, FaultPlan, inject
from repro.invariant import (
    canonical_hash,
    instance_key,
    invariant,
    topologically_equivalent,
)
from repro.io import (
    instance_from_buffer,
    instance_from_json,
    instance_to_buffer,
    instance_to_json,
)
from repro.pipeline import InvariantPipeline, RetryPolicy
from repro.pipeline.shm import ShmBatch
from repro.store import SegmentStore

CORPUS_N = 100
SEED = 1
CHAOS_SEEDS = 6
CHAOS_FAULTS_PER_SEED = 6
OVERHEAD_CEILING = 0.05  # resilient cold path within 5% of a raw loop
TRACING_OFF_CEILING = 0.02  # uninstalled tracing within 2% of a batch
DISPATCH_DROP_FLOOR = 2.0  # arrays round trip >= 2x cheaper than JSON


def _corpus():
    return mixed_corpus(CORPUS_N, seed=SEED)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_warm_cache_at_least_5x(bench):
    """Acceptance: warm-cache batch >= 5x faster than cold serial."""
    corpus = _corpus()
    pipe = InvariantPipeline(backend="serial")
    cold_result, cold = _timed(lambda: pipe.compute_batch(corpus))
    warm_result, warm = _timed(lambda: pipe.compute_batch(corpus))
    print(
        f"\ncold serial: {cold:.3f}s, warm: {warm:.4f}s "
        f"({cold / warm:.0f}x), hit rate {pipe.stats.hit_rate():.0%}"
    )
    print(pipe.stats.summary())
    assert all(a == b for a, b in zip(cold_result, warm_result))
    assert cold >= 5 * warm, (
        f"warm cache not 5x faster: cold={cold:.3f}s warm={warm:.3f}s"
    )
    # The headline number the harness records is the warm batch.
    bench(pipe.compute_batch, corpus)


def test_parallel_cold_beats_serial_cold(bench):
    """Acceptance (multi-core): process-parallel cold beats serial cold
    with >= 4 workers.  On fewer than 4 cores the comparison is
    meaningless (pure-Python work cannot speed up), so the assertion is
    skipped and the timings are only recorded."""
    corpus = _corpus()
    serial_result, serial = _timed(
        lambda: InvariantPipeline(backend="serial").compute_batch(corpus)
    )
    parallel_pipe = InvariantPipeline(backend="processes", workers=4)
    parallel_result, parallel = _timed(
        lambda: parallel_pipe.compute_batch(corpus)
    )
    print(
        f"\ncold serial: {serial:.3f}s, cold parallel (4 procs): "
        f"{parallel:.3f}s on {os.cpu_count()} cores"
    )
    assert all(a == b for a, b in zip(serial_result, parallel_result))
    if (os.cpu_count() or 1) >= 4:
        assert parallel < serial, (
            f"parallel cold not faster: serial={serial:.3f}s "
            f"parallel={parallel:.3f}s"
        )
    else:
        pytest.skip(
            f"only {os.cpu_count()} core(s): parallel speedup "
            "not observable; timings recorded above"
        )


def test_bucketed_equivalence_matches_pairwise(bench):
    """Hash bucketing finds exactly the pairwise-equivalence classes,
    with far fewer isomorphism searches than the quadratic schedule."""
    corpus = mixed_corpus(24, seed=7)
    pipe = InvariantPipeline()
    groups = bench(pipe.equivalence_groups, corpus)
    # Reconstruct the partition pairwise (the slow, obviously-correct way).
    group_of = {}
    for g, members in enumerate(groups):
        for i in members:
            group_of[i] = g
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            same = group_of[i] == group_of[j]
            assert same == topologically_equivalent(corpus[i], corpus[j])
    searches = pipe.stats.isomorphism_calls
    quadratic = len(corpus) * (len(corpus) - 1) // 2
    print(
        f"\n{len(groups)} classes over {len(corpus)} instances: "
        f"{searches} bucket-local searches vs {quadratic} pairwise"
    )
    assert searches < quadratic


# -- resilience overhead and chaos -------------------------------------------


def measure_overhead(corpus, rounds=3):
    """Best-of-*rounds* cold times: raw ``invariant()`` loop vs a cold
    pipeline batch (keying + cache + resilient mapper on top of the
    same computation).  The relative overhead is the price of the
    fault-tolerance machinery on the hot path.

    The corpus is deduplicated by content key first — the pipeline
    computes duplicate geometries once, which would otherwise let it
    *beat* the raw loop and hide the machinery's cost."""
    seen = set()
    unique = []
    for inst in corpus:
        key = instance_key(inst)
        if key not in seen:
            seen.add(key)
            unique.append(inst)
    corpus = unique
    raw_s = pipe_s = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        raw = [invariant(inst) for inst in corpus]
        raw_s = min(raw_s, time.perf_counter() - t0)
        pipe = InvariantPipeline(backend="serial")
        t0 = time.perf_counter()
        batch = pipe.compute_batch(corpus)
        pipe_s = min(pipe_s, time.perf_counter() - t0)
        assert all(a == b for a, b in zip(raw, batch))
    return {
        "raw_loop_seconds": raw_s,
        "pipeline_cold_seconds": pipe_s,
        "relative_overhead": pipe_s / raw_s - 1.0,
    }


def measure_dispatch(corpus, rounds=3):
    """Per-task dispatch cost: zero-copy arrays vs the JSON seed path.

    Both sides measure the full round trip a process-pool task pays for
    its payload — encode in the parent, stage for transfer, decode in
    the worker.  The JSON path is ``instance_to_json`` →
    ``instance_from_json`` (the string itself is pickled through the
    pool pipe); the arrays path is ``instance_to_buffer`` → one
    ``ShmBatch`` segment for the whole batch → ``instance_from_buffer``
    on a zero-copy shared-memory window (only a ``(name, offset, size)``
    descriptor crosses the pipe).  Instances the columnar codec cannot
    carry (non-closed-form regions) are excluded — the pipeline falls
    back to JSON for those per instance.
    """
    encodable = [
        inst for inst in corpus if instance_to_buffer(inst) is not None
    ]
    n = len(encodable)
    json_payload = sum(
        len(instance_to_json(inst).encode("utf-8")) for inst in encodable
    )
    arrays_payload = sum(
        len(instance_to_buffer(inst)) for inst in encodable
    )

    json_s = arrays_s = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        decoded_json = [
            instance_from_json(instance_to_json(inst))
            for inst in encodable
        ]
        json_s = min(json_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        blobs = {
            str(i): instance_to_buffer(inst)
            for i, inst in enumerate(encodable)
        }
        with ShmBatch.create(blobs) as batch:
            decoded_arrays = []
            for i in range(n):
                _name, off, size = batch.descriptor(str(i))
                decoded_arrays.append(
                    instance_from_buffer(batch.shm.buf[off : off + size])
                )
        arrays_s = min(arrays_s, time.perf_counter() - t0)
    keys = [instance_key(inst) for inst in encodable]
    assert [instance_key(inst) for inst in decoded_json] == keys
    assert [instance_key(inst) for inst in decoded_arrays] == keys
    return {
        "tasks": n,
        "excluded_json_fallbacks": len(corpus) - n,
        "json_payload_bytes": json_payload,
        "arrays_payload_bytes": arrays_payload,
        "json_seconds_per_task": json_s / n,
        "arrays_seconds_per_task": arrays_s / n,
        "per_task_overhead_drop": json_s / arrays_s,
    }


def test_arrays_dispatch_cheaper_per_task():
    """Acceptance: the shared-memory columnar dispatch costs at least
    2x less per task than the JSON seed path, at a smaller payload."""
    corpus = mixed_corpus(48, seed=SEED)
    row = measure_dispatch(corpus)
    print(
        f"\ndispatch round trip over {row['tasks']} tasks: "
        f"json {row['json_seconds_per_task'] * 1e6:.0f}us/task "
        f"({row['json_payload_bytes']}B), arrays "
        f"{row['arrays_seconds_per_task'] * 1e6:.0f}us/task "
        f"({row['arrays_payload_bytes']}B) -> "
        f"{row['per_task_overhead_drop']:.1f}x drop"
    )
    assert row["tasks"] > 0
    assert row["per_task_overhead_drop"] >= DISPATCH_DROP_FLOOR, (
        f"arrays dispatch only {row['per_task_overhead_drop']:.2f}x "
        f"cheaper per task (floor {DISPATCH_DROP_FLOOR}x)"
    )


def measure_tracing_off_overhead(corpus, calls=200_000):
    """The tracing-off price of the instrumented call sites.

    With no tracer installed ``tracing.span()`` returns a shared no-op
    context manager after one truthiness check; the worst it can cost
    a batch is (per-call no-op price) x (span entries per batch).
    Measuring the product directly would drown in run-to-run noise —
    the expected overhead is ~0.1% — so each factor is measured on its
    own: the per-call price by a tight no-op loop, the entry count by
    counting spans in a traced run of the same corpus (every span is
    one ``span()`` entry), the denominator by an untraced cold
    batch."""
    t0 = time.perf_counter()
    for _ in range(calls):
        with tracing.span("bench.noop"):
            pass
    per_call = (time.perf_counter() - t0) / calls

    with tracing.tracing() as tracer:
        InvariantPipeline(backend="serial").compute_batch(corpus)
    entries = len(tracer.finish())

    untraced = InvariantPipeline(backend="serial")
    _, batch_seconds = _timed(lambda: untraced.compute_batch(corpus))
    return {
        "noop_stage_seconds_per_call": per_call,
        "stage_entries_per_batch": entries,
        "untraced_batch_seconds": batch_seconds,
        "relative_overhead": per_call * entries / batch_seconds,
    }


def export_trace(corpus, path):
    """Trace a process-backend batch and write the Chrome trace artifact.

    Asserts the acceptance criterion directly: the exported trace must
    contain spans recorded inside worker interpreters (pid differs from
    the parent's), re-parented under the submitting ``task`` spans."""
    with InvariantPipeline(backend="processes", workers=2) as pipe:
        with tracing.tracing(capture_counters=True) as tracer:
            pipe.compute_batch(corpus)
    trace = tracer.finish()
    tasks = trace.find("task")
    worker_spans = [
        child
        for task in tasks
        for child in task.children
        if child.pid != os.getpid()
    ]
    assert tasks, "traced batch produced no task spans"
    assert worker_spans, "no worker-recorded spans re-parented under tasks"
    trace.save(path, fmt="chrome")
    return {
        "spans": len(trace),
        "task_spans": len(tasks),
        "worker_spans": len(worker_spans),
        "path": str(path),
    }


def test_tracing_off_overhead_under_ceiling(bench):
    """Acceptance: the uninstalled tracing layer costs a batch < 2%."""
    corpus = mixed_corpus(12, seed=SEED)
    row = measure_tracing_off_overhead(corpus, calls=50_000)
    print(
        f"\nno-op span: {row['noop_stage_seconds_per_call'] * 1e9:.0f}ns"
        f" x {row['stage_entries_per_batch']} entries over "
        f"{row['untraced_batch_seconds']:.3f}s batch "
        f"= {row['relative_overhead']:.3%} tracing-off overhead"
    )
    assert row["relative_overhead"] < TRACING_OFF_CEILING
    bench(measure_tracing_off_overhead, corpus, 10_000)


def test_traced_batch_exports_worker_spans(bench, tmp_path):
    """Acceptance: a traced processes-backend batch over the mixed
    corpus exports a Chrome trace containing worker-recorded spans
    re-parented under their submitting tasks."""
    corpus = mixed_corpus(8, seed=SEED)
    row = bench(export_trace, corpus, tmp_path / "trace.json")
    print(f"\n{row}")
    events = json.loads((tmp_path / "trace.json").read_text())
    assert events["traceEvents"], "empty Chrome trace"


def run_chaos(corpus, seeds, hang_seconds=0.02):
    """The chaos sweep: for each seed, a pseudo-random schedule of
    worker and segment-store faults is injected into a threaded
    pipeline over a segment store, twice — the second run over the
    reopened store, which serves whatever the first persisted.  Every
    ok outcome must be bit-identical to the fault-free reference, every
    failure must be a structured ComputeError, and a fault-free
    pipeline over the same store must then heal to correct answers."""
    from repro.errors import ComputeError

    keys = [instance_key(inst) for inst in corpus]
    reference = {
        key: canonical_hash(invariant(inst))
        for key, inst in zip(keys, corpus)
    }
    rows = []
    for seed in range(seeds):
        plan = FaultPlan.seeded(
            seed,
            keys,
            points=WORKER_POINTS + STORE_POINTS,
            faults=CHAOS_FAULTS_PER_SEED,
            max_times=2,
            hang_seconds=hang_seconds,
        )
        row = {
            "seed": seed,
            "failed_keys": 0,
            "retries": 0,
            "timeouts": 0,
            "store_write_failures": 0,
        }
        with tempfile.TemporaryDirectory() as root:
            for _ in range(2):
                with inject(plan):
                    with SegmentStore(root) as store, InvariantPipeline(
                        backend="threads",
                        workers=4,
                        store=store,
                        retry=RetryPolicy(
                            max_attempts=3, backoff_base=0.005, seed=seed
                        ),
                        task_timeout=5.0,
                    ) as pipe:
                        result = pipe.compute_batch(
                            corpus, on_error="collect"
                        )
                wrong = sum(
                    1
                    for out in result
                    if out.ok
                    and canonical_hash(out.value) != reference[out.key]
                )
                assert wrong == 0, (
                    f"seed {seed}: {wrong} bit-different invariants"
                )
                for out in result.failures():
                    assert isinstance(out.error, ComputeError)
                    assert out.error.key == out.key
                row["failed_keys"] += len(result.failures())
                row["retries"] += pipe.stats.retries
                row["timeouts"] += pipe.stats.timeouts
                row["store_write_failures"] += pipe.stats.store_write_failures
            # Healing: checksums turn any torn or bit-flipped record
            # into recomputation, never into a wrong answer.
            with SegmentStore(root) as store, InvariantPipeline(
                store=store
            ) as fresh:
                healed = fresh.compute_batch(corpus)
            assert [canonical_hash(t) for t in healed] == [
                reference[k] for k in keys
            ], f"seed {seed}: the faulted store produced wrong invariants"
            row["store_hits_on_heal"] = fresh.stats.store_hits
        row["fired"] = dict(plan.fired)
        rows.append(row)
    return rows


def test_chaos_sweep_is_correct_or_structured(bench):
    """Acceptance: seeded fault schedules never produce a wrong
    invariant, and the segment store heals after corruption."""
    corpus = mixed_corpus(12, seed=3)
    rows = run_chaos(corpus, seeds=3)
    fired = sum(sum(r["fired"].values()) for r in rows)
    print(f"\n{len(rows)} chaos seeds, {fired} faults fired: {rows}")
    assert fired > 0, "seeded schedules fired nothing; chaos vacuous"
    bench(run_chaos, corpus, 1)


# -- CLI --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small corpus, no thresholds, no JSON (CI harness check)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="also sweep seeded fault-injection schedules",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=CHAOS_SEEDS,
        help="how many chaos schedules to sweep",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_pipeline.json",
        help="where the full run writes its measurements",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "TRACE_pipeline.json",
        help="where the Chrome trace artifact is written",
    )
    args = parser.parse_args(argv)

    corpus = mixed_corpus(24 if args.smoke else CORPUS_N, seed=SEED)
    overhead = measure_overhead(corpus, rounds=1 if args.smoke else 3)
    print(
        f"cold raw loop: {overhead['raw_loop_seconds']:.3f}s, "
        f"cold pipeline: {overhead['pipeline_cold_seconds']:.3f}s "
        f"({overhead['relative_overhead']:+.1%} overhead)"
    )

    tracing_off = measure_tracing_off_overhead(
        corpus, calls=50_000 if args.smoke else 200_000
    )
    print(
        f"tracing off: {tracing_off['noop_stage_seconds_per_call'] * 1e9:.0f}"
        f"ns/no-op span x {tracing_off['stage_entries_per_batch']} entries "
        f"= {tracing_off['relative_overhead']:.3%} of the untraced batch"
    )
    # The tracing layer must be free when unused — asserted even in the
    # smoke run, where the factored measurement stays noise-immune.
    assert tracing_off["relative_overhead"] < TRACING_OFF_CEILING, (
        f"tracing-off overhead {tracing_off['relative_overhead']:.2%} over "
        f"the {TRACING_OFF_CEILING:.0%} ceiling"
    )

    dispatch = measure_dispatch(corpus, rounds=1 if args.smoke else 3)
    print(
        f"dispatch round trip: json "
        f"{dispatch['json_seconds_per_task'] * 1e6:.0f}us/task "
        f"({dispatch['json_payload_bytes']}B), arrays "
        f"{dispatch['arrays_seconds_per_task'] * 1e6:.0f}us/task "
        f"({dispatch['arrays_payload_bytes']}B): "
        f"{dispatch['per_task_overhead_drop']:.1f}x per-task drop "
        f"over {dispatch['tasks']} tasks"
    )
    assert dispatch["per_task_overhead_drop"] >= DISPATCH_DROP_FLOOR, (
        f"arrays dispatch only {dispatch['per_task_overhead_drop']:.2f}x "
        f"cheaper per task (floor {DISPATCH_DROP_FLOOR}x)"
    )
    trace_row = export_trace(
        mixed_corpus(8 if args.smoke else 24, seed=SEED), args.trace_out
    )
    print(
        f"traced processes batch: {trace_row['spans']} spans, "
        f"{trace_row['worker_spans']} worker-recorded under "
        f"{trace_row['task_spans']} tasks -> {trace_row['path']}"
    )

    payload = {
        "benchmark": "pipeline_resilience",
        "workload": "datasets.mixed_corpus",
        "corpus_n": len(corpus),
        "overhead": overhead,
        "overhead_ceiling": OVERHEAD_CEILING,
        "dispatch": dispatch,
        "dispatch_drop_floor": DISPATCH_DROP_FLOOR,
        "tracing_off": tracing_off,
        "tracing_off_ceiling": TRACING_OFF_CEILING,
        "trace_artifact": trace_row,
    }

    if args.chaos:
        chaos_corpus = mixed_corpus(12 if args.smoke else 24, seed=3)
        seeds = min(args.seeds, 2) if args.smoke else args.seeds
        rows = run_chaos(chaos_corpus, seeds=seeds)
        fired = sum(sum(r["fired"].values()) for r in rows)
        failed = sum(r["failed_keys"] for r in rows)
        print(
            f"chaos: {len(rows)} seeds, {fired} faults fired, "
            f"{failed} structured failures, 0 wrong invariants"
        )
        payload["chaos"] = {
            "corpus_n": len(chaos_corpus),
            "faults_per_seed": CHAOS_FAULTS_PER_SEED,
            "rows": rows,
        }

    if args.smoke:
        print("smoke run completed")
        return 0

    assert overhead["relative_overhead"] < OVERHEAD_CEILING, (
        f"resilient cold path {overhead['relative_overhead']:+.1%} over "
        f"the raw loop (ceiling {OVERHEAD_CEILING:.0%})"
    )
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
