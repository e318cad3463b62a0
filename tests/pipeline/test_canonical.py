"""Canonical forms, instance keys, and the hashability of
``TopologicalInvariant`` (regression: the dataclass-generated hash used
to raise ``TypeError`` on the labels dict)."""

import tracemalloc
from fractions import Fraction

import pytest

from repro import Point, Poly, Rect, SpatialInstance, invariant
from repro.datasets import (
    fig_1a,
    fig_1b,
    fig_1c,
    fig_1d,
    fig_6_courtyard,
    fig_7a,
    fig_7a_mirrored,
    fig_7b_adjacent,
    fig_7b_interleaved,
)
from repro.invariant import canonical_form, canonical_hash, instance_key
from repro.invariant.canonical import _canonical_cycle, _frac


def _relabeled(t):
    mapping = {c: f"z{i}" for i, c in enumerate(sorted(t.all_cells()))}
    return t.relabeled(mapping)


class TestInstanceKey:
    def test_same_geometry_same_key(self):
        a = SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
        b = SpatialInstance({"B": Rect(2, 2, 6, 6), "A": Rect(0, 0, 4, 4)})
        assert instance_key(a) == instance_key(b)

    def test_polygon_rotation_and_reversal_stable(self):
        tri = [Point(0, 0), Point(4, 0), Point(0, 4)]
        rotated = tri[1:] + tri[:1]
        reversed_ = tri[::-1]
        keys = {
            instance_key(SpatialInstance({"A": Poly(vs)}))
            for vs in (tri, rotated, reversed_)
        }
        assert len(keys) == 1

    def test_different_geometry_different_key(self):
        a = SpatialInstance({"A": Rect(0, 0, 4, 4)})
        b = SpatialInstance({"A": Rect(0, 0, 4, 5)})
        assert instance_key(a) != instance_key(b)

    def test_name_matters(self):
        a = SpatialInstance({"A": Rect(0, 0, 4, 4)})
        b = SpatialInstance({"B": Rect(0, 0, 4, 4)})
        assert instance_key(a) != instance_key(b)


def _least_cycle_reference(points):
    """Every rotation of both windings, the least kept."""
    coords = [(p.x, p.y) for p in points]
    rotations = [
        seq[i:] + seq[:i] for seq in (coords, coords[::-1]) for i in range(len(seq))
    ]
    return tuple((_frac(x), _frac(y)) for x, y in min(rotations))


def _distinct_denominator_cycle(n):
    """*n* points whose coordinates all have distinct denominators of
    about 30 bits; the least point is the first."""
    return [
        Point(i + Fraction(1, (1 << 30) + 2 * i + 1), Fraction(i % 7, (1 << 29) + 2 * i + 1))
        for i in range(n)
    ]


class TestCanonicalCycle:
    def test_matches_every_rotation_reference(self):
        points = _distinct_denominator_cycle(60)
        points = points[17:] + points[:17]
        assert _canonical_cycle(points) == _least_cycle_reference(points)
        assert _canonical_cycle(points[::-1]) == _least_cycle_reference(points)

    def test_least_point_repeated(self):
        """A cycle through its least point twice: both rotations that
        start there, in both windings, are compared."""
        p, a, b, c = (Point(0, 0), Point(3, 1), Point(1, 2), Point(2, 5))
        for cycle in ([p, a, p, b, c], [p, b, c, p, a], [a, p, c, b, p]):
            want = _least_cycle_reference(cycle)
            assert _canonical_cycle(cycle) == want
            assert _canonical_cycle(cycle[2:] + cycle[:2]) == want

    def test_many_vertices_with_distinct_denominators(self):
        """2,000 vertices whose 4,000 coordinates have distinct 30-bit
        denominators.  The key keeps each point's own fractions and the
        search holds a few lists of the points (under 1 MiB traced);
        integer images over one common denominator take tens of
        thousands of bits each, over 30 MiB for this cycle."""
        points = _distinct_denominator_cycle(2000)
        shifted = points[1234:] + points[:1234]
        tracemalloc.start()
        try:
            got = _canonical_cycle(shifted[::-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == tuple((_frac(p.x), _frac(p.y)) for p in points)
        assert _canonical_cycle(points) == got
        assert peak < 8 << 20, f"peak {peak / (1 << 20):.1f} MiB"


class TestCanonicalForm:
    def test_relabeling_invariant(self):
        t = invariant(fig_1c())
        assert canonical_form(_relabeled(t)) == canonical_form(t)

    def test_chirality_separates(self):
        """Fig. 7(a): same graph, different orientation — the canonical
        form must not collapse the two."""
        ta = invariant(fig_7a())
        tb = invariant(fig_7a_mirrored())
        assert canonical_form(ta) != canonical_form(tb)
        assert canonical_hash(ta) != canonical_hash(tb)

    def test_cyclic_order_separates(self):
        """Fig. 7(b): adjacent vs interleaved petal orders."""
        ta = invariant(fig_7b_adjacent())
        tb = invariant(fig_7b_interleaved())
        assert canonical_hash(ta) != canonical_hash(tb)

    @pytest.mark.parametrize(
        "make_a, make_b",
        [(fig_1a, fig_1b), (fig_1c, fig_1d)],
    )
    def test_figure_1_pairs_separate(self, make_a, make_b):
        assert canonical_hash(invariant(make_a())) != canonical_hash(
            invariant(make_b())
        )

    def test_hash_matches_form(self):
        t = invariant(fig_6_courtyard())
        assert canonical_hash(t) == canonical_hash(_relabeled(t))


class TestInvariantHashability:
    def test_hash_does_not_raise(self):
        """Regression: frozen-dataclass hash over the labels dict used to
        raise TypeError; invariants must be usable as dict keys."""
        t = invariant(fig_1c())
        assert isinstance(hash(t), int)

    def test_relabeled_equal_and_same_hash(self):
        t = invariant(fig_1c())
        t2 = _relabeled(t)
        assert t == t2
        assert hash(t) == hash(t2)

    def test_set_deduplicates_isomorphic(self):
        t = invariant(fig_1c())
        assert len({t, _relabeled(t), invariant(fig_1c())}) == 1

    def test_non_isomorphic_unequal(self):
        assert invariant(fig_1c()) != invariant(fig_1d())
        assert invariant(fig_7a()) != invariant(fig_7a_mirrored())

    def test_not_equal_to_other_types(self):
        t = invariant(fig_1c())
        assert t != "not an invariant"
        assert (t == 42) is False

    def test_dict_key_roundtrip(self):
        t = invariant(fig_1c())
        table = {t: "lens"}
        assert table[_relabeled(t)] == "lens"


class TestAutomorphismSearch:
    def test_large_structure_within_recursion_limit(self):
        # 1,250 cells: one stack frame per cell used to raise
        # RecursionError; the identity must be found.
        from repro.datasets import grid_instance
        from repro.invariant.canonical import _Search

        search = _Search(invariant(grid_instance(7)).core)
        colors, _shared = search.partition({})
        assert search.n == 1250
        assert search.automorphic(colors, colors)
