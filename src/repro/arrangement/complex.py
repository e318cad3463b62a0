"""The topological cell complex of a spatial instance.

This module reduces the fine subdivision (whose vertices include every
polygon corner) to the *maximal cell complex* of the paper's Section 3:
degree-2 vertices whose two incident edges carry the same sign label are
smoothed away, merging edge pieces into maximal *chains*.  What remains
are exactly the topologically meaningful cells:

* vertices — points where at least three edge-germs meet, where the sign
  class changes, or dangling tips of slits;
* edges — maximal 1-dimensional cells between such vertices.  A closed
  boundary curve with no special point on it becomes a *free loop* edge
  with no endpoints (the paper's degenerate one-region case: no vertices,
  one edge, two faces);
* faces — the faces of the subdivision, unchanged by smoothing.

The result carries the full data of the paper's invariant
``T_I = (V, E, delta, f0, l, O)``: cells with dimensions and labels, the
incidence relation E (cell contained in the closure of another), the
exterior face, and the orientation relation O (clockwise and
counterclockwise consecutive edge pairs around each vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import ArrangementError
from ..geometry import Point, Segment
from ..geometry.fastkernel import exact_mode
from ..regions import SpatialInstance
from ..tracing import span
from .builder import planarize, planarize_allpairs
from .dcel import Subdivision
from .labeling import (
    BOUNDARY,
    LabelMap,
    compute_labels,
    compute_labels_reference,
)
from .soa import ComplexArrays, label_rows, label_tuples

__all__ = [
    "Cell",
    "CellComplex",
    "build_complex",
    "build_complex_reference",
    "CW",
    "CCW",
]

CW = "cw"
CCW = "ccw"

Label = tuple[str, ...]


@dataclass(frozen=True)
class Cell:
    """A cell of the complex: id, dimension (0, 1, 2), and sign label."""

    id: str
    dim: int
    label: Label


class CellComplex:
    """The reduced cell complex of an instance, with geometry attached.

    The authoritative storage is the array-backed
    :class:`~repro.arrangement.soa.ComplexArrays` in :attr:`arrays`; the
    dict/frozenset attributes below are materialized lazily from it on
    first access, so existing callers see exactly the seed API while
    vectorized consumers (the benches) read the arrays directly.

    Attributes
    ----------
    names:
        Sorted region names; labels are tuples aligned to this order.
    cells:
        All cells, keyed by id.
    exterior_face:
        The id of the unbounded face (the paper's ``f0``).
    incidences:
        Pairs ``(a, b)`` meaning cell *a* is contained in the closure of
        cell *b* and ``dim(a) < dim(b)``.
    orientation:
        Tuples ``(CW|CCW, v, e1, e2)``: around vertex *v*, edge-germ of
        *e2* immediately follows a germ of *e1* in that rotational sense.
    endpoints:
        ``edge id -> tuple of endpoint vertex ids`` (0, 1, or 2 entries;
        loops at a vertex list it once; free loops have none).
    vertex_points / edge_polylines / face_samples:
        Geometric witnesses (not part of the abstract invariant).
    """

    def __init__(self, arrays: ComplexArrays):
        self.arrays = arrays
        self._cells: dict[str, Cell] | None = None
        self._incidences: frozenset[tuple[str, str]] | None = None
        self._orientation: frozenset[tuple[str, str, str, str]] | None = None
        self._endpoints: dict[str, tuple[str, ...]] | None = None
        self._vertex_points: dict[str, Point] | None = None
        self._edge_polylines: dict[str, list[Point]] | None = None
        self._face_samples: dict[str, Point] | None = None
        # Lazy accessor caches (derived data, excluded from equality).
        self._cells_by_dim: dict[int, list[Cell]] | None = None
        self._face_edge_map: dict[str, list[str]] | None = None
        self._interior_faces_by_name: dict[str, list[str]] | None = None

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # The views are pure functions of the arrays (and injective: every
        # array field surfaces in some view), so array equality is exactly
        # the seed dataclass's field-by-field view equality.
        if not isinstance(other, CellComplex):
            return NotImplemented
        return self.arrays == other.arrays

    __hash__ = None  # mutable, like the seed dataclass (eq without hash)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nv, ne, nf = self.counts()
        return (
            f"CellComplex(names={self.names!r}, "
            f"vertices={nv}, edges={ne}, faces={nf}, "
            f"exterior_face={self.exterior_face!r})"
        )

    # -- lazy views over the arrays ---------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self.arrays.names

    @property
    def exterior_face(self) -> str:
        return self.arrays.cell_ids[self.arrays.exterior_face]

    @property
    def cells(self) -> dict[str, Cell]:
        if self._cells is None:
            arr = self.arrays
            self._cells = {
                cid: Cell(cid, dim, label)
                for cid, dim, label in zip(
                    arr.cell_ids, arr.dims.tolist(), label_tuples(arr.labels)
                )
            }
        return self._cells

    @property
    def incidences(self) -> frozenset[tuple[str, str]]:
        if self._incidences is None:
            ids = self.arrays.cell_ids
            self._incidences = frozenset(
                (ids[a], ids[b]) for a, b in self.arrays.incidence.tolist()
            )
        return self._incidences

    @property
    def orientation(self) -> frozenset[tuple[str, str, str, str]]:
        if self._orientation is None:
            ids = self.arrays.cell_ids
            orient: set[tuple[str, str, str, str]] = set()
            for v, e1, e2 in self.arrays.ccw.tolist():
                orient.add((CCW, ids[v], ids[e1], ids[e2]))
                orient.add((CW, ids[v], ids[e2], ids[e1]))
            self._orientation = frozenset(orient)
        return self._orientation

    @property
    def endpoints(self) -> dict[str, tuple[str, ...]]:
        if self._endpoints is None:
            ids = self.arrays.cell_ids
            self._endpoints = {
                f"e{k}": tuple(ids[g] for g in row if g >= 0)
                for k, row in enumerate(self.arrays.edge_endpoints.tolist())
            }
        return self._endpoints

    @property
    def vertex_points(self) -> dict[str, Point]:
        if self._vertex_points is None:
            self._vertex_points = {
                f"v{i}": p for i, p in enumerate(self.arrays.vertex_points)
            }
        return self._vertex_points

    @property
    def edge_polylines(self) -> dict[str, list[Point]]:
        if self._edge_polylines is None:
            self._edge_polylines = {
                f"e{k}": pts
                for k, pts in enumerate(self.arrays.edge_polylines)
            }
        return self._edge_polylines

    @property
    def face_samples(self) -> dict[str, Point]:
        if self._face_samples is None:
            self._face_samples = {
                f"f{i}": p for i, p in enumerate(self.arrays.face_samples)
            }
        return self._face_samples

    # -- convenience accessors -------------------------------------------------

    def cells_of_dim(self, dim: int) -> list[Cell]:
        if self._cells_by_dim is None:
            by_dim: dict[int, list[Cell]] = {0: [], 1: [], 2: []}
            for cid in sorted(self.cells):
                cell = self.cells[cid]
                by_dim.setdefault(cell.dim, []).append(cell)
            self._cells_by_dim = by_dim
        return self._cells_by_dim.get(dim, [])

    @property
    def vertices(self) -> list[Cell]:
        return self.cells_of_dim(0)

    @property
    def edges(self) -> list[Cell]:
        return self.cells_of_dim(1)

    @property
    def faces(self) -> list[Cell]:
        return self.cells_of_dim(2)

    def counts(self) -> tuple[int, int, int]:
        """(vertex count, edge count, face count)."""
        arr = self.arrays
        return (arr.n_vertices, arr.n_edges, arr.n_faces)

    def label(self, cell_id: str) -> Label:
        return self.cells[cell_id].label

    def region_interior_faces(self, name: str) -> list[str]:
        """Face ids whose label is interior ('o') for *name*."""
        if self._interior_faces_by_name is None:
            by_name: dict[str, list[str]] = {n: [] for n in self.names}
            for c in self.faces:
                for i, n in enumerate(self.names):
                    if c.label[i] == "o":
                        by_name[n].append(c.id)
            self._interior_faces_by_name = by_name
        try:
            return self._interior_faces_by_name[name]
        except KeyError:
            # Preserve the seed behaviour for unknown names.
            raise ValueError(f"{name!r} is not in tuple") from None

    def face_edges(self, face_id: str) -> list[str]:
        """Edges on the boundary of the given face."""
        if self._face_edge_map is None:
            edge_map: dict[str, list[str]] = {f.id: [] for f in self.faces}
            for (a, b) in self.incidences:
                if self.cells[a].dim == 1 and b in edge_map:
                    edge_map[b].append(a)
            for edges in edge_map.values():
                edges.sort()
            self._face_edge_map = edge_map
        return self._face_edge_map.get(face_id, [])


def build_complex(instance: SpatialInstance) -> CellComplex:
    """Compute the reduced cell complex of *instance*.

    This is the geometric heart of the reproduction: it plays the role of
    the Kozen–Yap cell decomposition in the paper (see DESIGN.md for the
    substitution argument).  It runs the float-filtered predicates, the
    sweep planarizer, and labeling by propagation (indexed point
    location for the regions that need it).  Face samples are filled on
    first read of ``face_samples``.
    """
    return _build(instance, planarize, compute_labels)


def build_complex_reference(instance: SpatialInstance) -> CellComplex:
    """The seed path of :func:`build_complex`: the all-pairs planarizer
    and the unindexed labeling scan, with the float filter disabled.

    Kept as the oracle the library path is tested against; the
    equivalence suite asserts identical complexes on the whole figure
    corpus."""
    with exact_mode():
        return _build(instance, planarize_allpairs, compute_labels_reference)


def _build(instance: SpatialInstance, planarize_fn, labels_fn) -> CellComplex:
    if len(instance) == 0:
        raise ArrangementError("cannot build a complex for an empty instance")
    segments: list[Segment] = []
    for _name, region in instance.items():
        segments.extend(region.boundary_segments())
    with span("arrangement.planarize"):
        pieces = planarize_fn(segments)
    with span("arrangement.subdivision"):
        sub = Subdivision(pieces)
    with span("arrangement.labeling"):
        labels = labels_fn(instance, sub)
    with span("arrangement.reduce"):
        return _reduce(sub, labels)


def _reduce(sub: Subdivision, labels: LabelMap) -> CellComplex:
    n_vertices = len(sub.vertices)

    def incident_pieces(v: int) -> list[int]:
        return [d // 2 for d in sub.out_darts[v]]

    keep = [False] * n_vertices
    for v in range(n_vertices):
        deg = sub.degree(v)
        if deg != 2:
            keep[v] = True
            continue
        k1, k2 = incident_pieces(v)
        if labels.piece_labels[k1] != labels.piece_labels[k2]:
            keep[v] = True

    # -- build chains -----------------------------------------------------------
    chain_of_dart: dict[int, int] = {}
    chains: list[list[int]] = []  # each chain is a list of darts (directed)

    def walk(start_dart: int) -> list[int]:
        """Walk from a dart through smoothed vertices until a kept vertex
        (or back to the start for free loops)."""
        path = [start_dart]
        d = start_dart
        while True:
            head = sub.dart_head[d]
            if keep[head]:
                break
            ring = sub.out_darts[head]
            twin = sub.twin(d)
            nxt = ring[0] if ring[1] == twin else ring[1]
            if nxt == start_dart:
                break  # free loop closed
            path.append(nxt)
            d = nxt
        return path

    for v in range(n_vertices):
        if not keep[v]:
            continue
        for d in sub.out_darts[v]:
            if d in chain_of_dart:
                continue
            path = walk(d)
            index = len(chains)
            chains.append(path)
            for pd in path:
                chain_of_dart[pd] = index
                chain_of_dart[sub.twin(pd)] = index
    # Free loops: cycles entirely through smoothed vertices.
    for d0 in range(2 * len(sub.pieces)):
        if d0 in chain_of_dart:
            continue
        path = walk(d0)
        index = len(chains)
        chains.append(path)
        for pd in path:
            chain_of_dart[pd] = index
            chain_of_dart[sub.twin(pd)] = index

    # -- cell numbering ---------------------------------------------------------
    kept_vertices = [v for v in range(n_vertices) if keep[v]]
    nv = len(kept_vertices)
    ne = len(chains)
    vertex_local = {v: i for i, v in enumerate(kept_vertices)}
    # The unbounded face is always f0, matching the paper's notation.
    face_order = [sub.unbounded_face_index] + [
        f.index for f in sub.faces if f.index != sub.unbounded_face_index
    ]
    nf = len(face_order)
    face_local = {f: i for i, f in enumerate(face_order)}

    cell_ids = tuple(
        sorted(
            [f"v{i}" for i in range(nv)]
            + [f"e{k}" for k in range(ne)]
            + [f"f{i}" for i in range(nf)]
        )
    )
    gid = {cid: i for i, cid in enumerate(cell_ids)}
    vertex_gidx = np.array(
        [gid[f"v{i}"] for i in range(nv)], dtype=np.int32
    )
    edge_gidx = np.array([gid[f"e{k}"] for k in range(ne)], dtype=np.int32)
    face_gidx = np.array([gid[f"f{i}"] for i in range(nf)], dtype=np.int32)

    n_cells = len(cell_ids)
    n_names = len(labels.names)
    dims = np.empty(n_cells, dtype=np.int8)
    dims[vertex_gidx] = 0
    dims[edge_gidx] = 1
    dims[face_gidx] = 2
    cell_labels: list[Label] = [()] * n_cells  # by global index

    vertex_points: list[Point] = []
    for i, v in enumerate(kept_vertices):
        cell_labels[vertex_gidx[i]] = labels.vertex_labels[v]
        vertex_points.append(sub.vertices[v])

    endpoint_rows = np.full((ne, 2), -1, dtype=np.int32)
    edge_polylines: list[list[Point]] = []
    chain_faces: dict[int, set[int]] = {}
    inc: set[tuple[int, int]] = set()
    for k, path in enumerate(chains):
        first_piece = path[0] // 2
        label = labels.piece_labels[first_piece]
        for pd in path:
            if labels.piece_labels[pd // 2] != label:
                raise ArrangementError(
                    "chain crosses a sign-class change; smoothing bug"
                )
        eg = int(edge_gidx[k])
        cell_labels[eg] = label
        tail_v = sub.dart_tail[path[0]]
        head_v = sub.dart_head[path[-1]]
        eps: list[int] = []
        if keep[tail_v]:
            eps.append(int(vertex_gidx[vertex_local[tail_v]]))
        if keep[head_v] and (head_v != tail_v or not eps):
            eps.append(int(vertex_gidx[vertex_local[head_v]]))
        elif keep[head_v] and head_v == tail_v:
            pass  # loop at a vertex: single endpoint entry
        # Ascending global index equals the seed's sorted-id order.
        for col, vg in enumerate(sorted(set(eps))):
            endpoint_rows[k, col] = vg
            inc.add((vg, eg))
        pts = [sub.vertices[sub.dart_tail[d]] for d in path]
        pts.append(sub.vertices[sub.dart_head[path[-1]]])
        edge_polylines.append(pts)
        faces_here: set[int] = set()
        for pd in path:
            faces_here.add(sub.face_of_dart(pd))
            faces_here.add(sub.face_of_dart(sub.twin(pd)))
        chain_faces[k] = faces_here
        for f in faces_here:
            inc.add((eg, int(face_gidx[face_local[f]])))

    for f in sub.faces:
        cell_labels[face_gidx[face_local[f.index]]] = labels.face_labels[f.index]
    codes = label_rows(cell_labels, n_names)
    if codes is None:
        raise ArrangementError("labeling produced a non-standard label")

    for v in kept_vertices:
        faces_at_v: set[int] = set()
        for d in sub.out_darts[v]:
            faces_at_v.add(sub.face_of_dart(d))
            faces_at_v.add(sub.face_of_dart(sub.twin(d)))
        vg = int(vertex_gidx[vertex_local[v]])
        for f in faces_at_v:
            inc.add((vg, int(face_gidx[face_local[f]])))

    # -- orientation (CCW triples; the CW half is the mirror image) -------------
    ccw_set: set[tuple[int, int, int]] = set()
    for v in kept_vertices:
        ring = sub.out_darts[v]  # already CCW
        k = len(ring)
        vg = int(vertex_gidx[vertex_local[v]])
        for i in range(k):
            e1 = int(edge_gidx[chain_of_dart[ring[i]]])
            e2 = int(edge_gidx[chain_of_dart[ring[(i + 1) % k]]])
            ccw_set.add((vg, e1, e2))

    incidence = (
        np.array(sorted(inc), dtype=np.int32)
        if inc
        else np.empty((0, 2), dtype=np.int32)
    )
    ccw = (
        np.array(sorted(ccw_set), dtype=np.int32)
        if ccw_set
        else np.empty((0, 3), dtype=np.int32)
    )

    vertex_xy: np.ndarray | None = np.empty((nv, 2), dtype=np.float64)
    try:
        for i, p in enumerate(vertex_points):
            vertex_xy[i, 0] = float(p.x)
            vertex_xy[i, 1] = float(p.y)
    except OverflowError:
        vertex_xy = None

    arrays = ComplexArrays(
        names=labels.names,
        cell_ids=cell_ids,
        dims=dims,
        labels=codes,
        incidence=incidence,
        ccw=ccw,
        edge_endpoints=endpoint_rows,
        exterior_face=int(face_gidx[0]),
        vertex_gidx=vertex_gidx,
        edge_gidx=edge_gidx,
        face_gidx=face_gidx,
        vertex_xy=vertex_xy,
        vertex_points=vertex_points,
        edge_polylines=edge_polylines,
        face_samples=partial(_face_samples, sub, face_order),
    )
    return CellComplex(arrays)


def _face_samples(sub: Subdivision, face_order: list[int]) -> list[Point]:
    """Exact face samples in local face order; read on demand, since
    only witness consumers (encoders, equivalence tests) want them."""
    return [sub.face_sample(f) for f in face_order]
