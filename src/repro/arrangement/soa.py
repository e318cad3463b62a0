"""Array-backed (struct-of-arrays) storage for reduced cell complexes.

The reduced complex of Section 3 is combinatorial data — dimensions,
labels, incidences, rotation triples — that the seed stored as
string-keyed dicts and frozensets of string tuples.  This module holds
the same information as flat numpy arrays over a single global cell
numbering:

* :class:`CellArrays` is the combinatorial part, in the form the
  abstract invariant ``T_I`` keeps it.  Cells are numbered ``0..n-1`` in
  sorted-id order (``"e0" < "e1" < "e10" < … < "f0" < … < "v0" < …``),
  the numbering :class:`repro.logic.compiled.CompiledCellModel` also
  gives the cells; labels are small uint8 codes (``o=0, b=1, e=2``) in a
  dense ``(n_cells, n_names)`` matrix; incidence, endpoints and
  orientation (both senses) are int32 index rows.  The canonical hash,
  the store's record codec and the invariant's string-id views all read
  it; the label codes are shared with them.
* :class:`ComplexArrays` is one reduced complex: its core, which its
  ``T_I`` shares, and beside it the exact geometric witnesses (rational
  points) as plain lists aligned to the per-dimension local numbering,
  with a rounded ``(nv, 2)`` float coordinate array for vectorized
  consumers.

:class:`repro.arrangement.complex.CellComplex` wraps a
:class:`ComplexArrays` as lazy dict/frozenset views, so existing callers
are unchanged.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..geometry import Point

__all__ = [
    "CellArrays",
    "ComplexArrays",
    "LABEL_ASCII",
    "LABEL_CODES",
    "LABEL_CHARS",
    "label_rows",
    "label_tuples",
]

# Location codes, chosen so that sorting by code sorts o < b < e.
LABEL_CODES = {"o": 0, "b": 1, "e": 2}
LABEL_CHARS = ("o", "b", "e")

Label = tuple[str, ...]

# The ASCII byte of each label character, indexed by location code, and
# the code of each byte (255: no label character).
LABEL_ASCII = np.frombuffer(
    "".join(LABEL_CHARS).encode("ascii"), dtype=np.uint8
)
_CODE_OF_BYTE = np.full(256, 255, dtype=np.uint8)
_CODE_OF_BYTE[LABEL_ASCII] = np.arange(len(LABEL_CHARS), dtype=np.uint8)


def label_rows(labels: Sequence[Label], n_names: int) -> np.ndarray | None:
    """The ``(len(labels), n_names)`` uint8 code matrix of the labels, or
    ``None`` when some label is not standard: not *n_names* entries,
    each one of the characters ``o``, ``b``, ``e``.

    All entries are joined into one string with ``"\\0"`` between them.
    For ``N`` entries it is standard exactly when it has ``2N - 1``
    ASCII characters, ``"\\0"`` at every odd position and a label
    character at every even one; one translation of the even positions
    gives the codes.
    """
    n = len(labels)
    if any(len(label) != n_names for label in labels):
        return None
    if n == 0 or n_names == 0:
        return np.zeros((n, n_names), dtype=np.uint8)
    try:
        text = "\0".join(map("\0".join, labels))
    except TypeError:  # an entry that is not a string
        return None
    if len(text) != 2 * n * n_names - 1 or not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    codes = _CODE_OF_BYTE[raw[0::2]]
    if raw[1::2].any() or (codes == 255).any():
        return None
    return codes.reshape(n, n_names)


def label_tuples(codes: np.ndarray) -> list[Label]:
    """The label tuples of an ``(n, n_names)`` code matrix, decoded
    through one ASCII string.  A code that is no location code raises
    ``IndexError``."""
    n, m = codes.shape
    if m == 0:
        return [()] * n
    text = LABEL_ASCII[codes].tobytes().decode("ascii")
    return list(zip(*[iter(text)] * m))  # consecutive runs of m characters


# Orientation sense codes of CellArrays rows and of RTI1 records, and
# the sense of each code.
SENSE_CW = 0
SENSE_CCW = 1
SENSES = ("cw", "ccw")


def dense_ids(nv: int, ne: int, nf: int) -> tuple[str, ...]:
    """The ids ``v0…``, ``e0…``, ``f0…`` of a complex with these counts,
    in sorted order: edges, then faces, then vertices."""
    return tuple(
        sorted(
            [f"v{i}" for i in range(nv)]
            + [f"e{k}" for k in range(ne)]
            + [f"f{i}" for i in range(nf)]
        )
    )


_DENSE_BLOCK_DIMS = np.array([1, 2, 0], dtype=np.int8)


def dense_dims(nv: int, ne: int, nf: int) -> np.ndarray:
    """The dimension of each cell :func:`dense_ids` numbers: its blocks
    of edges, faces and vertices."""
    return _DENSE_BLOCK_DIMS.repeat((ne, nf, nv))


def record_order(dims: np.ndarray) -> np.ndarray:
    """The cells of a core in the order an ``RTI1`` record numbers them:
    vertices, then edges, then faces, each in cell order (a stable sort
    by dimension).  Entry *r* is the cell of record ordinal *r*."""
    return np.argsort(dims, kind="stable")


class CellArrays:
    """The combinatorial core of one ``T_I``.

    Attributes
    ----------
    names:
        Sorted region names; label columns align to this order.
    dims:
        ``(n,)`` int8 cell dimensions; cell *i* is the *i*-th cell id in
        sorted order.
    labels:
        ``(n, len(names))`` uint8 location codes; or, when some label is
        not a standard tuple (see :func:`label_rows`), the list of the
        label values themselves.
    incidence:
        ``(M, 2)`` int32 rows ``(a, b)``: cell *a* lies in the closure
        of cell *b*.
    endpoints:
        ``(ne, 2)`` int32 rows, one per edge in cell order: ``(v1, v2)``
        for two endpoints, ``(v, -1)`` for a loop at one vertex,
        ``(-2, -2)`` for an edge listed with no endpoints (a free loop)
        and ``(-1, -1)`` for an edge not listed at all.
    orientation:
        ``(R, 4)`` int32 rows ``(sense, v, e1, e2)``, *sense* one of
        :data:`SENSE_CW` and :data:`SENSE_CCW`: around *v* a germ of
        *e2* immediately follows a germ of *e1* in that sense.
    exterior:
        Index of the exterior face.
    dense:
        Whether the cell ids are those :func:`dense_ids` gives the
        counts (a built complex's or a decoded record's).  Such ids are
        made on first read when not given, and a pickle leaves them out.
    """

    __slots__ = (
        "names",
        "dims",
        "labels",
        "incidence",
        "endpoints",
        "orientation",
        "exterior",
        "dense",
        "_ids",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        dims: np.ndarray,
        labels: np.ndarray | list,
        incidence: np.ndarray,
        endpoints: np.ndarray,
        orientation: np.ndarray,
        exterior: int,
        ids: tuple[str, ...] | None = None,
        dense: bool = False,
    ):
        self.names = names
        self.dims = dims
        self.labels = labels
        self.incidence = incidence
        self.endpoints = endpoints
        self.orientation = orientation
        self.exterior = exterior
        self.dense = dense or ids is None
        self._ids = ids

    def __reduce__(self):
        return (
            CellArrays,
            (
                self.names,
                self.dims,
                self.labels,
                self.incidence,
                self.endpoints,
                self.orientation,
                self.exterior,
                None if self.dense else self._ids,
            ),
        )

    def __eq__(self, other: object) -> bool:
        """The same arrays over the same cell ids (not isomorphism)."""
        if not isinstance(other, CellArrays):
            return NotImplemented
        return (
            self.names == other.names
            and self.exterior == other.exterior
            and np.array_equal(self.dims, other.dims)
            and self.cell_ids == other.cell_ids
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.incidence, other.incidence)
            and np.array_equal(self.endpoints, other.endpoints)
            and np.array_equal(self.orientation, other.orientation)
        )

    __hash__ = None  # mutable arrays

    @property
    def n_cells(self) -> int:
        return len(self.dims)

    def counts(self) -> tuple[int, int, int]:
        """(vertex count, edge count, face count)."""
        nv, ne, nf = np.bincount(self.dims, minlength=3)[:3].tolist()
        return nv, ne, nf

    @property
    def cell_ids(self) -> tuple[str, ...]:
        if self._ids is None:
            self._ids = dense_ids(*self.counts())
        return self._ids

    def nbytes(self) -> int:
        """Bytes held by the arrays (label values excluded)."""
        arrays = (self.dims, self.incidence, self.endpoints, self.orientation)
        total = sum(a.nbytes for a in arrays)
        if isinstance(self.labels, np.ndarray):
            total += self.labels.nbytes
        return total

    def relations(self) -> dict:
        """The string-id relations of ``T_I``, by field name: the cell
        sets, the exterior face, labels, endpoints (a free loop listed
        with none), incidences and orientation."""
        ids = self.cell_ids
        cell = ids.__getitem__
        by_dim: tuple[list[str], list[str], list[str]] = ([], [], [])
        for cid, dim in zip(ids, self.dims.tolist()):
            by_dim[dim].append(cid)
        labels = self.labels
        if isinstance(labels, np.ndarray):
            labels = label_tuples(labels)
        endpoints = {}
        for edge, (a, b) in zip(by_dim[1], self.endpoints.tolist()):
            if a != -1:
                endpoints[edge] = (
                    () if a == -2 else (ids[a],) if b == -1 else (ids[a], ids[b])
                )
        a, b = self.incidence.T.tolist()
        s, v, e1, e2 = self.orientation.T.tolist()
        return {
            "vertices": frozenset(by_dim[0]),
            "edges": frozenset(by_dim[1]),
            "faces": frozenset(by_dim[2]),
            "exterior_face": ids[self.exterior],
            "labels": dict(zip(ids, labels)),
            "endpoints": endpoints,
            "incidences": frozenset(zip(map(cell, a), map(cell, b))),
            "orientation": frozenset(
                zip(
                    map(SENSES.__getitem__, s),
                    map(cell, v),
                    map(cell, e1),
                    map(cell, e2),
                )
            ),
        }


class ComplexArrays:
    """SoA storage of one reduced cell complex.

    Attributes
    ----------
    core:
        The complex's :class:`CellArrays`, which its ``T_I`` shares:
        incidence rows sorted, every edge listed in ``endpoints`` (a
        free loop as ``(-2, -2)``), the counterclockwise orientation
        rows sorted and followed by their clockwise mirrors.
    vertex_gidx / edge_gidx / face_gidx:
        Local-ordinal → cell-index maps: ``vertex_gidx[i]`` is the index
        of ``"v{i}"``, and likewise for edges and faces.
    vertex_xy:
        ``(nv, 2)`` float64 rounded vertex coordinates, or ``None`` when
        some exact coordinate overflows ``float``.
    vertex_points / edge_polylines / face_samples:
        Exact geometric witnesses, aligned to the local numberings.
        ``face_samples`` may be given as a zero-argument callable (a
        build passes one over its subdivision): it runs on first read,
        and the arrays then keep only its result.
    """

    __slots__ = (
        "core",
        "vertex_gidx",
        "edge_gidx",
        "face_gidx",
        "vertex_xy",
        "vertex_points",
        "edge_polylines",
        "_face_samples",
    )

    def __init__(
        self,
        core: CellArrays,
        vertex_gidx: np.ndarray,
        edge_gidx: np.ndarray,
        face_gidx: np.ndarray,
        vertex_xy: np.ndarray | None,
        vertex_points: list[Point],
        edge_polylines: list[list[Point]],
        face_samples: list[Point] | Callable[[], list[Point]],
    ):
        self.core = core
        self.vertex_gidx = vertex_gidx
        self.edge_gidx = edge_gidx
        self.face_gidx = face_gidx
        self.vertex_xy = vertex_xy
        self.vertex_points = vertex_points
        self.edge_polylines = edge_polylines
        self._face_samples = face_samples

    @property
    def face_samples(self) -> list[Point]:
        samples = self._face_samples
        if callable(samples):
            samples = self._face_samples = samples()
        return samples

    # -- sizes -----------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.core.n_cells

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_gidx)

    @property
    def n_edges(self) -> int:
        return len(self.edge_gidx)

    @property
    def n_faces(self) -> int:
        return len(self.face_gidx)

    def nbytes(self) -> int:
        """Bytes held by the combinatorial arrays (witnesses excluded).

        This is the number the persistent-store work needs as a
        baseline: the size of the structure that must be serialized to
        answer topological queries, not the exact rational geometry.
        """
        total = self.core.nbytes() + sum(
            a.nbytes for a in (self.vertex_gidx, self.edge_gidx, self.face_gidx)
        )
        if self.vertex_xy is not None:
            total += self.vertex_xy.nbytes
        return total

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexArrays):
            return NotImplemented
        return (
            self.core == other.core
            and self.vertex_points == other.vertex_points
            and self.edge_polylines == other.edge_polylines
            and self.face_samples == other.face_samples
        )

    __hash__ = None  # mutable arrays; mirror the seed dataclass (eq, no hash)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComplexArrays(cells={self.n_cells}, "
            f"v/e/f={self.n_vertices}/{self.n_edges}/{self.n_faces}, "
            f"inc={len(self.core.incidence)}, "
            f"ori={len(self.core.orientation)}, nbytes={self.nbytes()})"
        )
