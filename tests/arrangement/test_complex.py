"""Tests for the reduced cell complex (the paper's maximal cell complex)."""

import pytest

from repro.arrangement import Subdivision, build_complex, planarize
from repro.datasets import fig_6_courtyard, fig_7a, grid_instance
from repro.errors import ArrangementError
from repro.geometry import Point
from repro.regions import (
    AlgRegion,
    Poly,
    Rect,
    RectUnion,
    SpatialInstance,
)


def overlapping_pair():
    return SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})


class TestDegenerateSingleRegion:
    """The paper's degenerate case: one region gives no vertices, one
    (free loop) edge, and two faces."""

    def test_counts(self):
        cx = build_complex(SpatialInstance({"A": Rect(0, 0, 2, 2)}))
        assert cx.counts() == (0, 1, 2)

    def test_free_loop_has_no_endpoints(self):
        cx = build_complex(SpatialInstance({"A": Rect(0, 0, 2, 2)}))
        (edge,) = cx.edges
        assert cx.endpoints[edge.id] == ()

    def test_labels(self):
        cx = build_complex(SpatialInstance({"A": Rect(0, 0, 2, 2)}))
        (edge,) = cx.edges
        assert edge.label == ("b",)
        labels = {f.label for f in cx.faces}
        assert labels == {("o",), ("e",)}

    def test_circle_same_structure(self):
        cx = build_complex(
            SpatialInstance({"A": AlgRegion.circle(0, 0, 5, n=20)})
        )
        assert cx.counts() == (0, 1, 2)

    def test_empty_instance_rejected(self):
        with pytest.raises(ArrangementError):
            build_complex(SpatialInstance())


class TestExampleThreeOne:
    """Example 3.1 of the paper: two overlapping discs give two vertices,
    four edges, four faces, and 16 orientation tuples."""

    def test_counts(self):
        assert build_complex(overlapping_pair()).counts() == (2, 4, 4)

    def test_vertex_labels_are_boundary_boundary(self):
        cx = build_complex(overlapping_pair())
        for v in cx.vertices:
            assert v.label == ("b", "b")

    def test_edge_labels(self):
        cx = build_complex(overlapping_pair())
        labels = sorted(e.label for e in cx.edges)
        assert labels == [
            ("b", "e"),
            ("b", "o"),
            ("e", "b"),
            ("o", "b"),
        ]

    def test_face_labels(self):
        cx = build_complex(overlapping_pair())
        labels = sorted(f.label for f in cx.faces)
        assert labels == [
            ("e", "e"),
            ("e", "o"),
            ("o", "e"),
            ("o", "o"),
        ]

    def test_exterior_face_label(self):
        cx = build_complex(overlapping_pair())
        assert cx.label(cx.exterior_face) == ("e", "e")

    def test_orientation_matches_example_3_3(self):
        cx = build_complex(overlapping_pair())
        # 2 vertices x 4 germs x 2 rotational senses = 16 tuples.
        assert len(cx.orientation) == 16

    def test_every_edge_connects_the_two_vertices(self):
        cx = build_complex(overlapping_pair())
        vids = {v.id for v in cx.vertices}
        for e in cx.edges:
            assert set(cx.endpoints[e.id]) == vids

    def test_each_edge_borders_two_faces(self):
        cx = build_complex(overlapping_pair())
        for e in cx.edges:
            faces = [
                b for (a, b) in cx.incidences
                if a == e.id and cx.cells[b].dim == 2
            ]
            assert len(faces) == 2

    def test_circles_give_isomorphic_counts(self):
        inst = SpatialInstance(
            {
                "A": AlgRegion.circle(0, 0, 2, n=16),
                "B": AlgRegion.circle(2, 0, 2, n=16),
            }
        )
        assert build_complex(inst).counts() == (2, 4, 4)


class TestNestingAndDisjoint:
    def test_disjoint(self):
        cx = build_complex(
            SpatialInstance({"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 7, 2)})
        )
        assert cx.counts() == (0, 2, 3)
        assert sorted(f.label for f in cx.faces) == [
            ("e", "e"),
            ("e", "o"),
            ("o", "e"),
        ]

    def test_nested(self):
        cx = build_complex(
            SpatialInstance({"A": Rect(0, 0, 10, 10), "B": Rect(2, 2, 4, 4)})
        )
        assert cx.counts() == (0, 2, 3)
        assert sorted(f.label for f in cx.faces) == [
            ("e", "e"),
            ("o", "e"),
            ("o", "o"),
        ]

    def test_nested_vs_disjoint_differ_only_in_labels(self):
        nested = build_complex(
            SpatialInstance({"A": Rect(0, 0, 10, 10), "B": Rect(2, 2, 4, 4)})
        )
        disjoint = build_complex(
            SpatialInstance({"A": Rect(0, 0, 2, 2), "B": Rect(5, 0, 7, 2)})
        )
        assert nested.counts() == disjoint.counts()
        assert sorted(f.label for f in nested.faces) != sorted(
            f.label for f in disjoint.faces
        )


class TestMeetingRegions:
    def test_edge_meeting_squares(self):
        # Closed squares sharing a boundary segment: meet at an edge.
        inst = SpatialInstance(
            {"A": Rect(0, 0, 2, 2), "B": Rect(2, 0, 4, 2)}
        )
        cx = build_complex(inst)
        # Two corner vertices where boundaries diverge, the shared edge,
        # and the two outer arcs.
        assert cx.counts() == (2, 3, 3)
        shared = [e for e in cx.edges if e.label == ("b", "b")]
        assert len(shared) == 1

    def test_corner_touching_squares(self):
        inst = SpatialInstance(
            {"A": Rect(0, 0, 2, 2), "B": Rect(2, 2, 4, 4)}
        )
        cx = build_complex(inst)
        # One touch point of degree 4; two boundary loops at it.
        assert cx.counts() == (1, 2, 3)
        (v,) = cx.vertices
        assert v.label == ("b", "b")
        assert cx.vertex_points[v.id] == Point(2, 2)


class TestSlitRegion:
    def test_slit_complex(self):
        ru = RectUnion(
            [Rect(0, 0, 2, 2), Rect(2, 0, 4, 2), Rect(1, 1, 3, 2)]
        )
        cx = build_complex(SpatialInstance({"U": ru}))
        assert cx.counts() == (2, 2, 2)
        slit = [e for e in cx.edges if len(cx.endpoints[e.id]) == 2]
        assert len(slit) == 1
        # The slit borders the interior face on both sides.
        (s,) = slit
        faces = [
            b for (a, b) in cx.incidences
            if a == s.id and cx.cells[b].dim == 2
        ]
        assert len(faces) == 1
        assert cx.cells[faces[0]].label == ("o",)


class TestCachedAccessors:
    """`face_edges` / `region_interior_faces` / `cells_of_dim` are lazy
    caches over `incidences` and `cells`; they must agree with the
    direct scans they replaced."""

    def _complex(self):
        return build_complex(
            SpatialInstance(
                {
                    "A": Rect(0, 0, 4, 4),
                    "B": Rect(2, 2, 6, 6),
                    "C": Rect(10, 0, 12, 2),
                }
            )
        )

    def test_face_edges_matches_incidence_scan(self):
        cx = self._complex()
        for f in cx.faces:
            expected = sorted(
                a
                for (a, b) in cx.incidences
                if b == f.id and cx.cells[a].dim == 1
            )
            assert cx.face_edges(f.id) == expected

    def test_face_edges_unknown_face_is_empty(self):
        cx = self._complex()
        assert cx.face_edges("f999") == []

    def test_region_interior_faces_matches_label_scan(self):
        cx = self._complex()
        for name in cx.names:
            i = cx.names.index(name)
            expected = [
                c.id for c in cx.faces if c.label[i] == "o"
            ]
            assert sorted(cx.region_interior_faces(name)) == sorted(
                expected
            )
            assert cx.region_interior_faces(name)  # every region is 2d

    def test_region_interior_faces_unknown_name_raises(self):
        cx = self._complex()
        with pytest.raises(ValueError):
            cx.region_interior_faces("Z")

    def test_cells_of_dim_partitions_cells(self):
        cx = self._complex()
        by_dim = [cx.cells_of_dim(d) for d in (0, 1, 2)]
        assert sum(len(cells) for cells in by_dim) == len(cx.cells)
        for d, cells in enumerate(by_dim):
            assert all(c.dim == d for c in cells)
            assert [c.id for c in cells] == sorted(
                (c.id for c in cells)
            )

    def test_caches_are_stable_across_calls(self):
        cx = self._complex()
        assert cx.face_edges(cx.exterior_face) is cx.face_edges(
            cx.exterior_face
        )
        assert cx.region_interior_faces("A") is cx.region_interior_faces(
            "A"
        )


class TestPolygonCornersSmoothed:
    def test_polygon_and_rect_same_counts(self):
        """A triangle and a rectangle are homeomorphic: same complex."""
        tri = Poly((Point(0, 0), Point(5, 0), Point(0, 5)))
        a = build_complex(SpatialInstance({"A": tri}))
        b = build_complex(SpatialInstance({"A": Rect(0, 0, 1, 1)}))
        assert a.counts() == b.counts() == (0, 1, 2)

    def test_smoothing_keeps_sign_changes(self):
        # Two squares meeting along part of an edge: the junction points
        # must survive smoothing even though they have degree 2 geometry
        # ... (they have degree 3 in the arrangement).
        inst = SpatialInstance(
            {"A": Rect(0, 0, 2, 2), "B": Rect(2, 1, 4, 3)}
        )
        cx = build_complex(inst)
        degrees = {
            v.id: sum(
                1
                for (_r, vv, _e1, _e2) in cx.orientation
                if vv == v.id and _r == "ccw"
            )
            for v in cx.vertices
        }
        assert set(degrees.values()) <= {2, 3, 4}
        assert cx.counts()[0] == 2  # the two junction points


class TestFaceSamplesOnDemand:
    """Face samples are witnesses, not labels: a build fills them from
    its subdivision on first read, and labeling shoots sample rays only
    for regions it point-locates."""

    @staticmethod
    def _count_rays(monkeypatch) -> list:
        calls = []
        shoot = Subdivision._sample_left_of_dart

        def counting(self, d):
            calls.append(d)
            return shoot(self, d)

        monkeypatch.setattr(Subdivision, "_sample_left_of_dart", counting)
        return calls

    @pytest.mark.parametrize(
        "instance",
        [overlapping_pair(), grid_instance(3), fig_6_courtyard(), fig_7a()],
        ids=["pair", "grid3", "fig6", "fig7a"],
    )
    def test_lazy_samples_equal_eager(self, instance):
        cx = build_complex(instance)
        segments = [s for _n, r in instance.items() for s in r.boundary_segments()]
        sub = Subdivision(planarize(segments))
        order = [sub.unbounded_face_index] + [
            f.index for f in sub.faces if f.index != sub.unbounded_face_index
        ]
        assert cx.arrays.face_samples == [sub.face_sample(f) for f in order]
        # Once read, the arrays hold the list, not the subdivision.
        assert isinstance(cx.arrays._face_samples, list)

    def test_polygon_regions_shoot_no_ray(self, monkeypatch):
        calls = self._count_rays(monkeypatch)
        cx = build_complex(overlapping_pair())
        assert calls == []
        assert len(cx.face_samples) == cx.counts()[2]
        assert calls

    def test_point_located_regions_sample_faces(self, monkeypatch):
        calls = self._count_rays(monkeypatch)
        slit = RectUnion([Rect(0, 0, 2, 2), Rect(2, 0, 4, 2), Rect(1, 1, 3, 2)])
        build_complex(SpatialInstance({"U": slit, "A": Rect(5, 0, 6, 1)}))
        assert calls
