"""Arrangement scaling — the vectorized geometry kernel vs the seed kernel.

The first scaling curve of the repo: k x k staggered-square grids
(``datasets.generators.grid_instance``) swept over k, reporting the
planarize / subdivision / labeling / reduce stage times of a cold build,
the warm (cache-hit) lookup time through the pipeline, the batched
filter's statistics, peak RSS, and the SoA complex's memory footprint.
Each row also builds the same instance through the seed kernel
(all-pairs planarizer, exact predicates, unindexed labeling) and asserts
the canonical hash of the resulting invariant is **bit-identical** — the
vectorized path must never buy speed with a different answer.

Acceptance thresholds (enforced in full *and* smoke mode):

* on the largest grid, the numpy-batched x-interval sweep must be at
  least 10x faster than the seed all-pairs kernel;
* the float filter must answer at least 90% of predicate calls on the
  non-degenerate corpora;
* the batched bbox prescreen must fire on every row
  (``kernel.intersect_bbox_reject > 0`` — this counter was dead before
  the batched sweep wired it).

Run as a pytest benchmark (``pytest benchmarks/bench_arrangement.py``)
or as a script::

    PYTHONPATH=src python benchmarks/bench_arrangement.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_arrangement.py --smoke  # CI smoke

Both modes write the scaling curve to ``BENCH_arrangement.json`` (the
smoke payload is marked ``"mode": "smoke"`` and shrinks the sweep to two
grids, one of them past the seed kernel's practical range).
"""

import argparse
import json
import resource
import time
from pathlib import Path

from repro import tracing
from repro.arrangement.builder import planarize, planarize_allpairs
from repro.arrangement.complex import build_complex, build_complex_reference
from repro.datasets import grid_instance, overlap_chain
from repro.geometry.fastkernel import counters, exact_mode
from repro.invariant import TopologicalInvariant, canonical_hash
from repro.pipeline import InvariantPipeline

GRID_KS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
SMOKE_KS = (4, 18)
SPEEDUP_FLOOR = 10.0
FILTER_FLOOR = 0.90
AB_ROUNDS = 3

STAGES = (
    "arrangement.planarize",
    "arrangement.subdivision",
    "arrangement.labeling",
    "arrangement.reduce",
)


def _boundary_segments(instance):
    segments = []
    for _name, region in instance.items():
        segments.extend(region.boundary_segments())
    return segments


def _cold_build(instance):
    """Per-stage seconds of one cold fast-kernel build, plus the complex:
    each stage span's total duration, children included."""
    with tracing.tracing() as tracer:
        cx = build_complex(instance)
    rollup = tracer.finish().self_times()
    return {name: rollup[name]["seconds"] for name in STAGES}, cx


def _planarize_ab(segments, rounds=AB_ROUNDS):
    """Best-of-*rounds* seconds for the batched sweep and the seed
    all-pairs planarizer (the latter with the float filter disabled,
    i.e. the full seed kernel), plus the outputs for the equality
    check."""
    sweep_s = allpairs_s = float("inf")
    sweep_out = allpairs_out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        sweep_out = planarize(segments)
        sweep_s = min(sweep_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        with exact_mode():
            allpairs_out = planarize_allpairs(segments)
        allpairs_s = min(allpairs_s, time.perf_counter() - t0)
    return sweep_s, allpairs_s, sweep_out, allpairs_out


def run_sweep(ks):
    """The scaling experiment: one row of measurements per grid size."""
    rows = []
    for k in ks:
        instance = grid_instance(k)
        segments = _boundary_segments(instance)

        counters.reset()
        cold, cx = _cold_build(instance)
        filter_rate = counters.filter_hit_rate()
        kernel = counters.snapshot()
        assert kernel["kernel.intersect_bbox_reject"] > 0, (
            f"batched bbox prescreen never fired on grid k={k}"
        )

        fast_hash = canonical_hash(TopologicalInvariant.from_complex(cx))
        seed_cx = build_complex_reference(instance)
        seed_hash = canonical_hash(TopologicalInvariant.from_complex(seed_cx))
        assert fast_hash == seed_hash, (
            f"fast and seed kernels disagree on grid k={k}"
        )

        sweep_s, allpairs_s, sweep_out, allpairs_out = _planarize_ab(
            segments
        )
        assert sweep_out == allpairs_out, (
            f"sweep and all-pairs disagree on grid k={k}"
        )

        pipe = InvariantPipeline()
        pipe.compute(instance)  # cold: fills the cache
        t0 = time.perf_counter()
        pipe.compute(instance)
        warm_s = time.perf_counter() - t0

        soa_nbytes = cx.arrays.nbytes()
        rows.append(
            {
                "k": k,
                "regions": len(instance),
                "segments": len(segments),
                "pieces": len(sweep_out),
                "cells": cx.arrays.n_cells,
                "cold_stage_seconds": cold,
                "warm_lookup_seconds": warm_s,
                "planarize_sweep_seconds": sweep_s,
                "planarize_allpairs_seconds": allpairs_s,
                "planarize_speedup": allpairs_s / sweep_s,
                "filter_hit_rate": filter_rate,
                "kernel_counters": kernel,
                "canonical_hash": fast_hash,
                "hash_matches_seed": fast_hash == seed_hash,
                "soa_nbytes": soa_nbytes,
                "bytes_per_cell": soa_nbytes / cx.arrays.n_cells,
                "peak_rss_kib": resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss,
            }
        )
    return rows


def _print_rows(rows):
    header = (
        f"{'k':>3} {'segs':>5} {'pieces':>6} {'planarize':>10} "
        f"{'labeling':>9} {'total cold':>10} {'warm':>9} "
        f"{'sweep/allpairs':>14} {'filter':>7} {'B/cell':>7} "
        f"{'rss MiB':>8}"
    )
    print(header)
    for row in rows:
        cold = row["cold_stage_seconds"]
        total = sum(cold.values())
        print(
            f"{row['k']:>3} {row['segments']:>5} {row['pieces']:>6} "
            f"{cold['arrangement.planarize']:>9.3f}s "
            f"{cold['arrangement.labeling']:>8.3f}s "
            f"{total:>9.3f}s {row['warm_lookup_seconds']:>8.4f}s "
            f"{row['planarize_speedup']:>13.1f}x "
            f"{row['filter_hit_rate']:>6.0%} "
            f"{row['bytes_per_cell']:>6.0f} "
            f"{row['peak_rss_kib'] / 1024:>7.1f}"
        )


def _check_thresholds(rows):
    largest = rows[-1]
    assert largest["planarize_speedup"] >= SPEEDUP_FLOOR, (
        f"planarize speedup {largest['planarize_speedup']:.1f}x below "
        f"{SPEEDUP_FLOOR}x on k={largest['k']}"
    )
    assert all(r["filter_hit_rate"] >= FILTER_FLOOR for r in rows), (
        "filter hit rate below threshold in the sweep"
    )
    assert all(r["hash_matches_seed"] for r in rows), (
        "canonical hash diverged from the seed kernel"
    )


# -- pytest entry points ----------------------------------------------------


def test_sweep_beats_allpairs_on_largest_grid(bench):
    """Acceptance: >= 10x planarize speedup on the largest grid."""
    segments = _boundary_segments(grid_instance(GRID_KS[-1]))
    sweep_s, allpairs_s, sweep_out, allpairs_out = _planarize_ab(segments)
    assert sweep_out == allpairs_out
    print(
        f"\nk={GRID_KS[-1]}: sweep {sweep_s:.3f}s vs all-pairs "
        f"{allpairs_s:.3f}s ({allpairs_s / sweep_s:.1f}x)"
    )
    assert allpairs_s >= SPEEDUP_FLOOR * sweep_s, (
        f"sweep not {SPEEDUP_FLOOR}x faster: sweep={sweep_s:.3f}s "
        f"allpairs={allpairs_s:.3f}s"
    )
    bench(planarize, segments)


def test_filter_hit_rate_on_nondegenerate_corpora():
    """Acceptance: the float filter answers >= 90% of predicate calls
    on corpora whose intersections are proper crossings and vertex
    contacts (no shared support lines)."""
    for name, instance in (
        ("grid_instance(8)", grid_instance(8)),
        ("overlap_chain(24)", overlap_chain(24)),
    ):
        counters.reset()
        build_complex(instance)
        rate = counters.filter_hit_rate()
        print(f"\n{name}: filter hit rate {rate:.1%}  {counters!r}")
        assert rate >= FILTER_FLOOR, (
            f"{name}: filter hit rate {rate:.1%} below "
            f"{FILTER_FLOOR:.0%}"
        )


def test_scaling_rows_complete(bench):
    """The sweep harness itself: every row carries all stages, the
    bbox prescreen fired, the hash matched the seed kernel, and the
    memory accounting is sane."""
    rows = run_sweep((2, 4))
    for row in rows:
        assert set(row["cold_stage_seconds"]) == set(STAGES)
        assert sum(row["cold_stage_seconds"].values()) > 0.0
        assert row["filter_hit_rate"] >= FILTER_FLOOR
        assert row["kernel_counters"]["kernel.intersect_bbox_reject"] > 0
        assert row["hash_matches_seed"]
        assert row["soa_nbytes"] > 0
        assert row["peak_rss_kib"] > 0
    bench(build_complex, grid_instance(4))


# -- CLI --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two-grid sweep with full thresholds (CI acceptance check)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_arrangement.json",
        help="where the sweep writes its scaling curve",
    )
    args = parser.parse_args(argv)

    ks = SMOKE_KS if args.smoke else GRID_KS
    rows = run_sweep(ks)
    _print_rows(rows)
    _check_thresholds(rows)

    largest = rows[-1]
    payload = {
        "benchmark": "arrangement_scaling",
        "workload": "datasets.generators.grid_instance",
        "mode": "smoke" if args.smoke else "full",
        "speedup_floor": SPEEDUP_FLOOR,
        "filter_floor": FILTER_FLOOR,
        "rows": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"largest grid k={largest['k']}: "
        f"{largest['planarize_speedup']:.1f}x planarize speedup, "
        f"{largest['filter_hit_rate']:.0%} filter hit rate, "
        f"hashes match seed -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
