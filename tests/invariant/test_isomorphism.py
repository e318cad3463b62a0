"""Tests for invariant isomorphism = H-equivalence (Theorem 3.4)."""

from repro.datasets.figures import (
    fig_1a,
    fig_1b,
    fig_1c,
    fig_1d,
    fig_7a,
    fig_7a_mirrored,
    fig_7b_adjacent,
    fig_7b_interleaved,
)
from repro.geometry import Point
from repro.invariant import (
    are_isomorphic,
    find_isomorphism,
    invariant,
    topologically_equivalent,
    verify_isomorphism,
)
from repro.regions import AlgRegion, Poly, Rect, SpatialInstance


class TestPositivePairs:
    def test_square_triangle_circle_all_homeomorphic(self):
        square = SpatialInstance({"A": Rect(0, 0, 2, 2)})
        triangle = SpatialInstance(
            {"A": Poly((Point(0, 0), Point(9, 0), Point(0, 9)))}
        )
        circle = SpatialInstance({"A": AlgRegion.circle(5, 5, 2, n=14)})
        assert topologically_equivalent(square, triangle)
        assert topologically_equivalent(triangle, circle)

    def test_overlap_scale_invariant(self):
        small = SpatialInstance(
            {"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)}
        )
        large = SpatialInstance(
            {"A": Rect(0, 0, 400, 400), "B": Rect(399, 399, 800, 800)}
        )
        assert topologically_equivalent(small, large)

    def test_reflection_is_homeomorphism(self):
        inst = fig_7b_adjacent()
        mirrored = inst.map_regions(
            lambda _n, r: Poly(
                tuple(
                    Point(-p.x, p.y)
                    for p in r.boundary_polygon().vertices
                )
            )
        )
        assert topologically_equivalent(inst, mirrored)

    def test_mapping_is_verified(self):
        t1 = invariant(fig_1c())
        t2 = invariant(
            SpatialInstance(
                {
                    "A": AlgRegion.circle(0, 0, 2, n=16),
                    "B": AlgRegion.circle(2, 0, 2, n=16),
                }
            )
        )
        m = find_isomorphism(t1, t2)
        assert m is not None
        assert verify_isomorphism(t1, t2, m)


class TestNegativePairs:
    def test_fig1_ab(self):
        assert not topologically_equivalent(fig_1a(), fig_1b())

    def test_fig1_cd(self):
        assert not topologically_equivalent(fig_1c(), fig_1d())

    def test_overlap_vs_disjoint_vs_nested(self):
        overlap = fig_1c()
        disjoint = SpatialInstance(
            {"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 7, 2)}
        )
        nested = SpatialInstance(
            {"A": Rect(0, 0, 9, 9), "B": Rect(1, 1, 2, 2)}
        )
        assert not topologically_equivalent(overlap, disjoint)
        assert not topologically_equivalent(disjoint, nested)
        assert not topologically_equivalent(overlap, nested)

    def test_different_names_not_equivalent(self):
        a = SpatialInstance({"A": Rect(0, 0, 1, 1)})
        b = SpatialInstance({"B": Rect(0, 0, 1, 1)})
        assert not topologically_equivalent(a, b)

    def test_swapped_names_matter(self):
        nested1 = SpatialInstance(
            {"A": Rect(0, 0, 9, 9), "B": Rect(1, 1, 2, 2)}
        )
        nested2 = SpatialInstance(
            {"B": Rect(0, 0, 9, 9), "A": Rect(1, 1, 2, 2)}
        )
        assert not topologically_equivalent(nested1, nested2)


class TestOrientationRelation:
    """Figure 7: the graph G_I alone does not determine the topology; the
    orientation relation O does."""

    def test_7a_graphs_isomorphic(self):
        t1, t2 = invariant(fig_7a()), invariant(fig_7a_mirrored())
        assert find_isomorphism(t1, t2, use_orientation=False) is not None

    def test_7a_invariants_differ(self):
        t1, t2 = invariant(fig_7a()), invariant(fig_7a_mirrored())
        assert find_isomorphism(t1, t2) is None

    def test_7b_graphs_isomorphic(self):
        t1 = invariant(fig_7b_adjacent())
        t2 = invariant(fig_7b_interleaved())
        assert find_isomorphism(t1, t2, use_orientation=False) is not None

    def test_7b_invariants_differ(self):
        t1 = invariant(fig_7b_adjacent())
        t2 = invariant(fig_7b_interleaved())
        assert find_isomorphism(t1, t2) is None

    def test_global_reflection_allowed(self):
        """Mirroring *every* component is a homeomorphism."""
        from repro.datasets.figures import _petal_flower

        both = SpatialInstance()
        for n, r in _petal_flower(("A", "B", "C"), 0, True).items():
            both.add(n, r)
        for n, r in _petal_flower(("D", "E", "F"), 20, True).items():
            both.add(n, r)
        assert topologically_equivalent(fig_7a(), both)


class TestExteriorFace:
    """Figure 6: the exterior face marker is essential."""

    def _courtyard_swap(self):
        from repro.datasets.figures import fig_6_courtyard

        t = invariant(fig_6_courtyard())
        # Find the bounded all-exterior face (the courtyard).
        courtyard = next(
            f
            for f in t.faces
            if f != t.exterior_face and set(t.labels[f]) == {"e"}
        )
        import dataclasses

        swapped = dataclasses.replace(t, exterior_face=courtyard)
        return t, swapped

    def test_swapped_exterior_not_isomorphic(self):
        t, swapped = self._courtyard_swap()
        assert find_isomorphism(t, swapped) is None

    def test_swapped_exterior_isomorphic_without_marker(self):
        t, swapped = self._courtyard_swap()
        assert (
            find_isomorphism(t, swapped, use_exterior=False) is not None
        )


class TestRelabeledSelfIsomorphism:
    def test_all_figures_self_isomorphic_after_relabeling(self):
        from repro.datasets.figures import all_figures

        for name, inst in all_figures().items():
            t = invariant(inst)
            mapping = {
                c: f"x{i}" for i, c in enumerate(sorted(t.all_cells()))
            }
            assert are_isomorphic(t, t.relabeled(mapping)), name


class TestLargeInvariants:
    """``grid_instance(7)`` has 1,250 cells, more than the interpreter's
    default recursion limit: the backtracking search keeps an explicit
    stack, so every entry point answers instead of raising
    ``RecursionError``."""

    @staticmethod
    def _grid_and_copy():
        from repro.datasets import grid_instance
        from repro.transforms import AffineMap

        grid = grid_instance(7)
        return grid, AffineMap.translation(5, 3).apply_to_instance(grid)

    def test_are_isomorphic(self):
        grid, moved = self._grid_and_copy()
        t1, t2 = invariant(grid), invariant(moved)
        assert len(t1.all_cells()) == 1250
        mapping = find_isomorphism(t1, t2)
        assert mapping is not None and verify_isomorphism(t1, t2, mapping)
        assert are_isomorphic(t1, t2)

    def test_topologically_equivalent(self):
        assert topologically_equivalent(*self._grid_and_copy())

    def test_equivalence_groups(self):
        from repro.pipeline import InvariantPipeline

        groups = InvariantPipeline().equivalence_groups(
            list(self._grid_and_copy())
        )
        assert groups == [[0, 1]]
