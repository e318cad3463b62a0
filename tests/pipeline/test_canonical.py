"""Canonical forms, instance keys, and the hashability of
``TopologicalInvariant`` (regression: the dataclass-generated hash used
to raise ``TypeError`` on the labels dict)."""

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
        from repro.invariant.canonical import _Flat, _has_automorphism

        flat = _Flat(invariant(grid_instance(7)))
        colors = flat.refine({})
        assert flat.n == 1250
        assert _has_automorphism(flat, colors, colors)
