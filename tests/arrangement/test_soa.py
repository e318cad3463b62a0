"""Tests for the array-backed (SoA) cell-complex storage.

The arrays are the source of truth and the ``CellComplex`` dict /
frozenset views are derived from them, so the two representations must
tell exactly the same story; the compiled evaluator's bitset
construction, which reads the complex's ``T_I``, must come out as the
arrays say.  The complex's combinatorial arrays are its core, the
``CellArrays`` its ``T_I`` shares.
"""

import numpy as np
import pytest

from repro.arrangement import build_complex
from repro.arrangement.soa import (
    LABEL_CHARS,
    LABEL_CODES,
    SENSE_CCW,
    SENSE_CW,
    SENSES,
    dense_dims,
    dense_ids,
    label_rows,
    label_tuples,
    record_order,
)
from repro.datasets import all_figures, fig_1b, fig_7a
from repro.geometry import Point
from repro.invariant import TopologicalInvariant
from repro.logic.compiled import CompiledCellModel
from repro.regions import Poly, Rect, SpatialInstance


def overlapping_pair():
    return SpatialInstance(
        {"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)}
    )


def _model(cx):
    t = TopologicalInvariant.from_complex(cx)
    return CompiledCellModel(t, 1 << 20, 1 << 20)


class TestArraysMatchViews:
    @pytest.fixture(scope="class", params=["pair", "fig_1b", "fig_7a"])
    def cx(self, request):
        inst = {
            "pair": overlapping_pair,
            "fig_1b": fig_1b,
            "fig_7a": fig_7a,
        }[request.param]()
        return build_complex(inst)

    def test_cell_ids_and_dims(self, cx):
        core = cx.arrays.core
        assert core.cell_ids == tuple(sorted(cx.cells))
        assert core.dense
        assert core.cell_ids == dense_ids(*cx.counts())
        for i, cid in enumerate(core.cell_ids):
            assert core.dims[i] == cx.cells[cid].dim
            assert cid[0] == "vef"[core.dims[i]]

    def test_labels_round_trip(self, cx):
        core = cx.arrays.core
        for i, cid in enumerate(core.cell_ids):
            want = cx.cells[cid].label
            got = tuple(
                LABEL_CHARS[code] for code in core.labels[i].tolist()
            )
            assert got == want

    def test_incidence_rows_are_the_view_pairs(self, cx):
        core = cx.arrays.core
        ids = core.cell_ids
        from_rows = {
            (ids[a], ids[b]) for a, b in core.incidence.tolist()
        }
        assert from_rows == set(cx.incidences)
        assert core.incidence.tolist() == sorted(core.incidence.tolist())

    def test_ccw_rows_mirror_to_orientation(self, cx):
        core = cx.arrays.core
        ids = core.cell_ids
        rows = core.orientation.tolist()
        ccw = [(v, e1, e2) for s, v, e1, e2 in rows if s == SENSE_CCW]
        cw = [(v, e1, e2) for s, v, e1, e2 in rows if s == SENSE_CW]
        assert len(ccw) + len(cw) == len(rows)
        # The counterclockwise rows come first, sorted; the clockwise
        # rows are their mirrors, in the same order.
        assert rows[: len(ccw)] == [[SENSE_CCW, *t] for t in ccw]
        assert ccw == sorted(ccw)
        assert cw == [(v, e2, e1) for v, e1, e2 in ccw]
        rebuilt = {
            (SENSES[s], ids[v], ids[e1], ids[e2]) for s, v, e1, e2 in rows
        }
        assert rebuilt == set(cx.orientation)

    def test_edge_endpoints_match_view(self, cx):
        core = cx.arrays.core
        ids = core.cell_ids
        edges = [ids[i] for i in np.flatnonzero(core.dims == 1).tolist()]
        assert len(edges) == len(core.endpoints) == cx.arrays.n_edges
        for edge, (a, b) in zip(edges, core.endpoints.tolist()):
            want = cx.endpoints[edge]
            if not want:  # a free loop is listed with no endpoints
                assert (a, b) == (-2, -2)
                continue
            assert a >= 0 and b >= -1
            assert tuple(ids[v] for v in (a, b) if v >= 0) == want

    def test_exterior_face(self, cx):
        core = cx.arrays.core
        assert core.cell_ids[core.exterior] == cx.exterior_face

    def test_gidx_maps(self, cx):
        arrays = cx.arrays
        ids = arrays.core.cell_ids
        for i in range(arrays.n_vertices):
            assert ids[arrays.vertex_gidx[i]] == f"v{i}"
        for k in range(arrays.n_edges):
            assert ids[arrays.edge_gidx[k]] == f"e{k}"
        for i in range(arrays.n_faces):
            assert ids[arrays.face_gidx[i]] == f"f{i}"

    def test_vertex_xy_rounds_the_witnesses(self, cx):
        arrays = cx.arrays
        assert arrays.vertex_xy is not None
        for i, p in enumerate(arrays.vertex_points):
            assert arrays.vertex_xy[i, 0] == float(p.x)
            assert arrays.vertex_xy[i, 1] == float(p.y)

    def test_nbytes_counts_the_combinatorial_arrays(self, cx):
        arrays = cx.arrays
        core = arrays.core
        floor = (
            core.dims.nbytes
            + core.labels.nbytes
            + core.incidence.nbytes
            + core.endpoints.nbytes
            + core.orientation.nbytes
        )
        assert core.nbytes() == floor
        assert arrays.nbytes() >= floor > 0

    def test_invariant_shares_the_core(self, cx):
        assert TopologicalInvariant.from_complex(cx).core is cx.arrays.core

    def test_label_masks_match_dict_scan(self, cx):
        named = _model(cx).label_masks()
        assert tuple(named) == cx.names
        for pos, name in enumerate(cx.names):
            want = {"o": 0, "b": 0}
            for i, cid in enumerate(cx.arrays.core.cell_ids):
                char = cx.cells[cid].label[pos]
                if char in want:
                    want[char] |= 1 << i
            assert named[name].interior == want["o"]
            assert named[name].boundary == want["b"]
            assert named[name].closure == want["o"] | want["b"]


def test_label_rows_match_loop_encoding():
    """``label_rows`` encodes all labels by one translation of their
    joined entries; the per-character loop is the reference, and
    ``label_tuples`` decodes the rows back."""
    labels = [("o", "b", "e"), ("e", "e", "e"), ("o", "b", "e"), ("b", "o", "o")]
    want = np.array(
        [[LABEL_CODES[ch] for ch in label] for label in labels], dtype=np.uint8
    )
    assert np.array_equal(label_rows(labels, 3), want)
    assert label_tuples(want) == labels


@pytest.mark.parametrize(
    "labels",
    [
        [("o", "b"), ("o",)],  # wrong length
        [("o", "b"), ("o", "x")],  # unknown character
        [("o", "b"), ("ob", "e")],  # multi-character entry
        [("", "ob"), ("o", "b")],  # empty entry beside a long one
        [("o", "b"), ("o\0", "")],  # separator inside an entry
        [("o", "b"), ("é", "b")],  # non-ASCII
        [("o", "b"), ("o", 1)],  # not a string
    ],
)
def test_label_rows_report_nonstandard_labels(labels):
    assert label_rows(labels, 2) is None


def test_label_rows_of_no_names_and_no_cells():
    assert label_rows([(), ()], 0).shape == (2, 0)
    assert label_rows([], 3).shape == (0, 3)
    assert label_tuples(np.zeros((2, 0), dtype=np.uint8)) == [(), ()]


def test_label_tuples_reject_unknown_codes():
    with pytest.raises(IndexError):
        label_tuples(np.array([[0, 3]], dtype=np.uint8))


@pytest.mark.parametrize("counts", [(0, 1, 2), (1, 1, 2), (4, 6, 4), (12, 21, 11)])
def test_dense_dims_follow_dense_ids(counts):
    ids = dense_ids(*counts)
    assert ids == tuple(sorted(ids))
    assert dense_dims(*counts).tolist() == ["vef".index(c[0]) for c in ids]


def test_record_order_sorts_by_dimension_stably():
    dims = dense_dims(12, 21, 11)
    order = record_order(dims).tolist()
    ids = dense_ids(12, 21, 11)
    want = sorted(range(len(ids)), key=lambda i: ("vef".index(ids[i][0]), i))
    assert order == want
    # Each dimension's block keeps cell (= sorted-id) order.
    assert [ids[i] for i in order][:12] == sorted(f"v{i}" for i in range(12))


class TestEquality:
    def test_same_instance_builds_equal(self):
        assert build_complex(overlapping_pair()) == build_complex(
            overlapping_pair()
        )

    def test_different_instances_differ(self):
        a = build_complex(overlapping_pair())
        b = build_complex(SpatialInstance({"A": Rect(0, 0, 1, 1)}))
        assert a != b

    def test_label_change_differs(self):
        tri = Poly((Point(0, 0), Point(4, 0), Point(0, 4)))
        a = build_complex(SpatialInstance({"A": tri}))
        b = build_complex(SpatialInstance({"B": tri}))
        assert a.arrays != b.arrays
        assert a.arrays.core != b.arrays.core


class TestLabelCodes:
    def test_label_codes_cover_chars(self):
        assert sorted(LABEL_CODES.values()) == [0, 1, 2]
        for char, code in LABEL_CODES.items():
            assert LABEL_CHARS[code] == char


class TestCompiledModelPaths:
    """The bitset machinery built from a complex's ``T_I`` must be what
    the complex's arrays say, mask for mask."""

    @pytest.mark.parametrize("figure", sorted(all_figures()))
    def test_init_paths_agree(self, figure):
        cx = build_complex(all_figures()[figure])
        arrays = cx.arrays
        core = arrays.core
        model = _model(cx)
        dims = core.dims.tolist()
        up: dict[int, list[int]] = {}
        for a, b in core.incidence.tolist():
            up.setdefault(a, []).append(b)
        n = arrays.n_cells
        assert model.cell_ids == core.cell_ids
        assert model.all_cells_mask == (1 << n) - 1
        assert model.face_indices == sorted(arrays.face_gidx.tolist())
        assert model.ext_bit == 1 << core.exterior
        below: dict[int, int] = {}
        for a, b in core.incidence.tolist():
            below[b] = below.get(b, 0) | 1 << a
        assert model.closure_of_face == {
            f: 1 << f | below.get(f, 0) for f in arrays.face_gidx.tolist()
        }
        assert model.edge_entries == [
            (1 << e, sum(1 << f for f in up[e] if dims[f] == 2))
            for e in sorted(arrays.edge_gidx.tolist())
            if any(dims[f] == 2 for f in up.get(e, ()))
        ]
        assert model.vertex_entries == [
            (1 << v, sum(1 << c for c in up[v]))
            for v in sorted(arrays.vertex_gidx.tolist())
            if up.get(v)
        ]
        adjacent = {f: set() for f in arrays.face_gidx.tolist()}
        for e in arrays.edge_gidx.tolist():
            faces = sorted({f for f in up.get(e, ()) if dims[f] == 2})
            if len(faces) == 2:
                adjacent[faces[0]].add(faces[1])
                adjacent[faces[1]].add(faces[0])
        assert {k: set(v) for k, v in model.face_adj.items()} == adjacent
        neighbours = [set() for _ in range(n)]
        for a, b in core.incidence.tolist():
            neighbours[a].add(b)
            neighbours[b].add(a)
        assert [set(ns) for ns in model.cell_neighbors] == neighbours
