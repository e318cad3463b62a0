"""Tracing layer — capture overhead and artifact sizes per backend.

What does observing a batch cost, and how big is what you get?  For
each backend the same cold corpus is computed untraced and traced
(under ``tracing.tracing(capture_counters=True)``, which also captures
per-span counter deltas, inside workers too).  One batch is a few tens
of milliseconds, so a single pair of runs is noise; each backend runs
an untimed warmup of both modes (pool start, first-touch memoization)
and then ``RUNS`` alternating untraced/traced pairs on a cleared cache,
and the relative slowdown is taken between the two medians.  The run
also records the span count and the byte sizes of both exporters
(nested JSON and Chrome ``trace_event``).  Tracing *on* is allowed a
generous ceiling — it exists for diagnosis runs, not steady state —
while the tracing-*off* budget lives in ``bench_pipeline.py`` next to
the resilience overhead.

Run as a pytest benchmark (``pytest benchmarks/bench_trace.py``) or as
a script::

    PYTHONPATH=src python benchmarks/bench_trace.py           # perf
    PYTHONPATH=src python benchmarks/bench_trace.py --smoke   # CI

Both modes assert the ceiling; the full run writes ``BENCH_trace.json``
at the repo root.
"""

import argparse
import json
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

from repro import tracing
from repro.datasets import mixed_corpus
from repro.invariant import canonical_hash
from repro.pipeline import BACKENDS, InvariantPipeline

CORPUS_N = 40
SEED = 9
WORKERS = 2
RUNS = 5
# Traced batches re-serialize every worker's span forest and diff
# counter snapshots around every span; on the process backend that adds
# pickling on top.  Diagnosis runs tolerate a 2x slowdown.
TRACED_CEILING = 1.0


def _cold_batch(pipe, corpus, traced):
    """One cold batch on *pipe*: (hashes, seconds, trace or None)."""
    pipe.cache.clear()
    scope = (
        tracing.tracing(capture_counters=True) if traced else nullcontext()
    )
    t0 = time.perf_counter()
    with scope as tracer:
        result = pipe.compute_batch(corpus)
    seconds = time.perf_counter() - t0
    trace = tracer.finish() if traced else None
    return [canonical_hash(t) for t in result], seconds, trace


def measure_backend(backend, corpus, runs=RUNS):
    """Median untraced vs traced cold batch on *backend*, plus artifact
    sizes of the last traced run."""
    times = {False: [], True: []}
    with InvariantPipeline(backend=backend, workers=WORKERS) as pipe:
        off_hashes, _, _ = _cold_batch(pipe, corpus, False)
        _cold_batch(pipe, corpus, True)
        for i in range(runs):
            for traced in (False, True) if i % 2 == 0 else (True, False):
                hashes, seconds, trace = _cold_batch(pipe, corpus, traced)
                assert hashes == off_hashes, (
                    f"{backend}: tracing changed the results"
                )
                times[traced].append(seconds)
                if trace is not None:
                    sample = trace
    off_s = statistics.median(times[False])
    on_s = statistics.median(times[True])
    return {
        "backend": backend,
        "runs": runs,
        "untraced_seconds": off_s,
        "traced_seconds": on_s,
        "untraced_runs": times[False],
        "traced_runs": times[True],
        "relative_overhead": on_s / off_s - 1.0,
        "spans": len(sample),
        "task_spans": len(sample.find("task")),
        "nested_json_bytes": len(sample.to_json(indent=None)),
        "chrome_json_bytes": len(json.dumps(sample.to_chrome())),
    }


def run_suite(corpus):
    return [measure_backend(backend, corpus) for backend in BACKENDS]


def _report(row):
    return (
        f"{row['backend']}: {row['untraced_seconds']:.3f}s -> "
        f"{row['traced_seconds']:.3f}s traced "
        f"({row['relative_overhead']:+.1%}, medians of {row['runs']}), "
        f"{row['spans']} spans, nested {row['nested_json_bytes']}B / "
        f"chrome {row['chrome_json_bytes']}B"
    )


def check_ceiling(rows):
    for row in rows:
        assert row["relative_overhead"] < TRACED_CEILING, (
            f"{row['backend']}: traced batch "
            f"{row['relative_overhead']:+.1%} over the "
            f"{TRACED_CEILING:.0%} ceiling"
        )


def test_traced_batches_stay_within_budget(bench):
    """Acceptance: tracing a batch costs well under the diagnosis-run
    ceiling on every backend, and both exporters produce non-trivial
    artifacts sized roughly linearly in the span count."""
    corpus = mixed_corpus(10, seed=SEED)
    rows = run_suite(corpus)
    for row in rows:
        print("\n" + _report(row))
        assert row["spans"] > len(corpus)  # more spans than instances
        assert row["nested_json_bytes"] > 100 * row["task_spans"]
        assert row["chrome_json_bytes"] > 100 * row["task_spans"]
    check_ceiling(rows)
    bench(measure_backend, "serial", corpus, 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small corpus, no JSON (CI harness check; ceiling enforced)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_trace.json",
        help="where the full run writes its measurements",
    )
    args = parser.parse_args(argv)

    corpus = mixed_corpus(10 if args.smoke else CORPUS_N, seed=SEED)
    rows = run_suite(corpus)
    for row in rows:
        print(_report(row))
    check_ceiling(rows)

    if args.smoke:
        print("smoke run completed")
        return 0

    payload = {
        "benchmark": "tracing_overhead",
        "workload": "datasets.mixed_corpus",
        "corpus_n": len(corpus),
        "workers": WORKERS,
        "runs": RUNS,
        "traced_ceiling": TRACED_CEILING,
        "backends": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
