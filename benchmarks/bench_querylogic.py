"""Query-logic scaling — the compiled bitset engine vs the seed evaluators.

The scaling curve of the compiled query subsystem
(:mod:`repro.logic.compiled`): the Example 4.1/4.2 figure queries and a
generated overlap-chain corpus are swept over cell-complex refinement
depth, and the Theorem 5.8 rectangle queries (depth 1 and 2, plus a
nested ∃∀ sentence) are run through the rectangle and translated point
logics.  Every row evaluates the query three ways —

* the seed reference evaluator (frozenset cell sets, tree-walking),
* the compiled engine cold (universe enumeration + mask compilation),
* the compiled engine warm (universe served from the content-addressed
  cache, memo tables fresh) —

and asserts the three answers are bit-identical, so the benchmark run
doubles as an equivalence check.  Acceptance thresholds:

* on the largest cell configuration (refinement 1, ``max_faces=4``) the
  warm compiled evaluation of the triple-intersection rows must be at
  least 5x faster than the reference evaluator;
* the nested rectangle sentence must also clear 5x (measured ~500x: the
  reference enumerates O(n^2 m^2) candidate boxes per quantifier while
  the compiled engine memoizes on order types).

The connectivity rows (∀∀∃ bodies whose inner quantifier re-runs per
outer pair) are reported but not thresholded — their warm speedup is a
constant factor (~2-3x), which is honest data about where memoization
does not collapse the work.

Run as a pytest benchmark (``pytest benchmarks/bench_querylogic.py``)
or as a script::

    PYTHONPATH=src python benchmarks/bench_querylogic.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_querylogic.py --smoke  # CI smoke

Both modes write ``BENCH_querylogic.json`` at the repo root (CI uploads
the smoke artifact); only the full sweep enforces the thresholds.
"""

import argparse
import json
import time
from pathlib import Path

from repro.datasets import fig_1a, fig_1b, fig_1c, fig_1d, overlap_chain
from repro.logic import (
    clear_universe_cache,
    connected_intersection_query,
    evaluate_cells,
    evaluate_cells_reference,
    evaluate_point,
    evaluate_point_reference,
    evaluate_rect,
    evaluate_rect_reference,
    parse,
    rect_to_point,
    triple_intersection_query,
)
from repro.logic.compiled import counters
from repro.regions import Rect, SpatialInstance

# (refinement, max_faces): refinement 1 without a face cap exceeds the
# enumeration budget, so the deeper configs bound the disc regions.
CELL_CONFIGS = ((0, None), (1, 3), (1, 4))
SMOKE_CELL_CONFIGS = ((0, None),)
SPEEDUP_FLOOR = 5.0

# label, instance factory, query factory, expected answer.
CELL_WORKLOADS = (
    ("fig_1a/triple", fig_1a, triple_intersection_query, True),
    ("fig_1b/triple", fig_1b, triple_intersection_query, False),
    ("fig_1c/connected", fig_1c, connected_intersection_query, True),
    ("fig_1d/connected", fig_1d, connected_intersection_query, False),
    (
        "chain4/triple",
        lambda: overlap_chain(4),
        lambda: triple_intersection_query("R000", "R001", "R002"),
        False,
    ),
    (
        "chain4/connected",
        lambda: overlap_chain(4),
        lambda: connected_intersection_query("R000", "R001"),
        True,
    ),
)

RECT_WORKLOADS = (
    SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)}),
    SpatialInstance({"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 7, 2)}),
    SpatialInstance({"A": Rect(0, 0, 9, 9), "B": Rect(2, 2, 4, 4)}),
)

# (label, quantifier depth, concrete syntax).
RECT_QUERIES = (
    ("subset-both", 1, "exists r . subset(r, A) and subset(r, B)"),
    ("avoids", 1, "exists r . subset(r, A) and not connect(r, B)"),
    (
        "disjoint-pair",
        2,
        "exists r, s . subset(r, A) and subset(s, B) and disjoint(r, s)",
    ),
)
SMOKE_RECT_QUERIES = (RECT_QUERIES[1],)

NESTED_RECT_QUERY = "exists r . forall s . subset(s, r) -> connect(s, A)"
NESTED_RECT_INSTANCE = SpatialInstance({"A": Rect(0, 0, 2, 2)})


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def run_cell_sweep(configs, workloads=CELL_WORKLOADS):
    """One row per (config, workload): reference vs cold vs warm."""
    rows = []
    for refinement, max_faces in configs:
        for label, make_instance, make_query, expected in workloads:
            instance = make_instance()
            query = make_query()
            clear_universe_cache()
            counters.reset()
            ref_s, want = _timed(
                evaluate_cells_reference,
                query,
                instance,
                refinement=refinement,
                max_faces=max_faces,
            )
            cold_s, got_cold = _timed(
                evaluate_cells,
                query,
                instance,
                refinement=refinement,
                max_faces=max_faces,
            )
            universe = counters.snapshot()["query.regions_enumerated"]
            warm_s, got_warm = _timed(
                evaluate_cells,
                query,
                instance,
                refinement=refinement,
                max_faces=max_faces,
            )
            assert want == got_cold == got_warm == expected, (
                label,
                refinement,
                max_faces,
            )
            rows.append(
                {
                    "workload": label,
                    "refinement": refinement,
                    "max_faces": max_faces,
                    "answer": want,
                    "universe_regions": universe,
                    "reference_seconds": ref_s,
                    "compiled_cold_seconds": cold_s,
                    "compiled_warm_seconds": warm_s,
                    "warm_speedup": ref_s / warm_s,
                    "query_counters": counters.snapshot(),
                }
            )
    return rows


def run_rect_sweep(queries, include_nested=True):
    """Rectangle queries through all four evaluators (rect and the
    Theorem 5.8 point translation, reference and compiled), summed over
    the workloads; plus the nested ∃∀ sentence on a small instance."""
    rows = []
    for label, depth, text in queries:
        query = parse(text)
        translated = rect_to_point(query)
        rect_ref = rect_comp = point_ref = point_comp = 0.0
        for instance in RECT_WORKLOADS:
            s, a = _timed(evaluate_rect_reference, query, instance)
            rect_ref += s
            s, b = _timed(evaluate_rect, query, instance)
            rect_comp += s
            s, c = _timed(evaluate_point_reference, translated, instance)
            point_ref += s
            s, d = _timed(evaluate_point, translated, instance)
            point_comp += s
            assert a == b == c == d, (label, instance)
        rows.append(
            {
                "workload": f"rect/{label}",
                "depth": depth,
                "rect_reference_seconds": rect_ref,
                "rect_compiled_seconds": rect_comp,
                "rect_speedup": rect_ref / rect_comp,
                "point_reference_seconds": point_ref,
                "point_compiled_seconds": point_comp,
                "point_speedup": point_ref / point_comp,
            }
        )
    if include_nested:
        query = parse(NESTED_RECT_QUERY)
        ref_s, want = _timed(
            evaluate_rect_reference, query, NESTED_RECT_INSTANCE
        )
        comp_s, got = _timed(
            evaluate_rect, query, NESTED_RECT_INSTANCE
        )
        assert want == got is True
        rows.append(
            {
                "workload": "rect/nested-exists-forall",
                "depth": 2,
                "rect_reference_seconds": ref_s,
                "rect_compiled_seconds": comp_s,
                "rect_speedup": ref_s / comp_s,
            }
        )
    return rows


def _print_cell_rows(rows):
    print(
        f"{'workload':>18} {'r':>2} {'mf':>3} {'cells':>6} {'ans':>5} "
        f"{'reference':>10} {'cold':>9} {'warm':>9} {'speedup':>9}"
    )
    for row in rows:
        mf = row["max_faces"]
        print(
            f"{row['workload']:>18} {row['refinement']:>2} "
            f"{'-' if mf is None else mf:>3} "
            f"{row['universe_regions']:>6} {str(row['answer']):>5} "
            f"{row['reference_seconds']:>9.3f}s "
            f"{row['compiled_cold_seconds']:>8.3f}s "
            f"{row['compiled_warm_seconds']:>8.4f}s "
            f"{row['warm_speedup']:>8.1f}x"
        )


def _print_rect_rows(rows):
    print(
        f"{'workload':>26} {'depth':>5} {'rect ref':>9} {'rect comp':>10} "
        f"{'point ref':>10} {'point comp':>11}"
    )
    for row in rows:
        pr = row.get("point_reference_seconds")
        pc = row.get("point_compiled_seconds")
        print(
            f"{row['workload']:>26} {row['depth']:>5} "
            f"{row['rect_reference_seconds']:>8.3f}s "
            f"{row['rect_compiled_seconds']:>9.4f}s "
            f"{'-' if pr is None else f'{pr:8.3f}s':>10} "
            f"{'-' if pc is None else f'{pc:9.4f}s':>11}"
        )


def _triple_rows(rows, refinement, max_faces):
    return [
        r
        for r in rows
        if r["refinement"] == refinement
        and r["max_faces"] == max_faces
        and r["workload"].endswith("/triple")
    ]


# -- pytest entry points ----------------------------------------------------


def test_engines_bit_identical_on_figures(bench):
    """Every figure/corpus row agrees across reference, cold, warm (the
    sweep asserts per row); bench a warm compiled evaluation."""
    rows = run_cell_sweep(SMOKE_CELL_CONFIGS)
    assert len(rows) == len(CELL_WORKLOADS)
    instance = fig_1a()
    query = triple_intersection_query()
    evaluate_cells(query, instance)  # warm the universe cache
    bench(evaluate_cells, query, instance)


def test_warm_speedup_on_largest_configuration():
    """Acceptance: >= 5x warm speedup on the largest configuration
    (refinement 1, max_faces 4, triple-intersection rows)."""
    triples = tuple(
        w for w in CELL_WORKLOADS if w[0].endswith("/triple")
    )
    rows = run_cell_sweep(((1, 4),), workloads=triples)
    for row in rows:
        print(
            f"\n{row['workload']}: reference "
            f"{row['reference_seconds']:.3f}s vs warm "
            f"{row['compiled_warm_seconds']:.4f}s "
            f"({row['warm_speedup']:.0f}x)"
        )
        assert row["warm_speedup"] >= SPEEDUP_FLOOR, row
    assert rows


def test_rect_and_point_engines_agree(bench):
    """The four-way evaluator agreement on the fastest Theorem 5.8
    query; bench the compiled rect evaluation."""
    rows = run_rect_sweep(SMOKE_RECT_QUERIES, include_nested=False)
    assert rows[0]["rect_speedup"] > 1.0
    query = parse(SMOKE_RECT_QUERIES[0][2])
    bench(evaluate_rect, query, RECT_WORKLOADS[1])


# -- CLI --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sweep, no thresholds (CI harness check)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_querylogic.json",
        help="where the sweep writes its scaling curve",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        cell_rows = run_cell_sweep(SMOKE_CELL_CONFIGS)
        rect_rows = run_rect_sweep(SMOKE_RECT_QUERIES, include_nested=False)
    else:
        cell_rows = run_cell_sweep(CELL_CONFIGS)
        rect_rows = run_rect_sweep(RECT_QUERIES)
    _print_cell_rows(cell_rows)
    print()
    _print_rect_rows(rect_rows)

    payload = {
        "benchmark": "querylogic_scaling",
        "workload": "figure queries + overlap_chain corpus + "
        "Theorem 5.8 rectangle queries",
        "smoke": args.smoke,
        "speedup_floor": SPEEDUP_FLOOR,
        "cell_rows": cell_rows,
        "rect_rows": rect_rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    if args.smoke:
        print(f"smoke sweep completed -> {args.out}")
        return 0

    largest = _triple_rows(cell_rows, *CELL_CONFIGS[-1])
    assert largest, "largest configuration produced no triple rows"
    for row in largest:
        assert row["warm_speedup"] >= SPEEDUP_FLOOR, (
            f"{row['workload']}: warm speedup "
            f"{row['warm_speedup']:.1f}x below {SPEEDUP_FLOOR}x"
        )
    nested = rect_rows[-1]
    assert nested["rect_speedup"] >= SPEEDUP_FLOOR, (
        f"nested rect speedup {nested['rect_speedup']:.1f}x below "
        f"{SPEEDUP_FLOOR}x"
    )
    floor = min(r["warm_speedup"] for r in largest)
    print(
        f"largest configuration r={CELL_CONFIGS[-1][0]} "
        f"mf={CELL_CONFIGS[-1][1]}: triple rows >= {floor:.0f}x warm "
        f"speedup; nested rect {nested['rect_speedup']:.0f}x -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
