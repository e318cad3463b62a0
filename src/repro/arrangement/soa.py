"""Array-backed (struct-of-arrays) storage for reduced cell complexes.

The reduced complex of Section 3 is combinatorial data — dimensions,
labels, incidences, rotation triples — that the seed stored as
string-keyed dicts and frozensets of string tuples.  This module holds
the same information as flat numpy arrays over a single global cell
numbering, which is what the reduction and the benchmarks' memory
accounting consume; the label codes are shared with the canonical form
and the store's record codec:

* cells are numbered ``0..n-1`` in sorted-id order (``"e0" < "e1" <
  "e10" < … < "f0" < … < "v0" < …``), the numbering
  :class:`repro.logic.compiled.CompiledCellModel` also gives the cells
  of a ``T_I``;
* labels are small uint8 codes (``o=0, b=1, e=2``) in a dense
  ``(n_cells, n_names)`` matrix;
* incidence and counterclockwise rotation are int32 index pairs/triples
  (the clockwise half of the orientation relation is the mirror image
  and is reconstructed by the view layer);
* exact geometric witnesses (rational points) ride along as plain
  lists aligned to the per-dimension local numbering, with a rounded
  ``(nv, 2)`` float coordinate array for vectorized consumers.

:class:`repro.arrangement.complex.CellComplex` wraps one of these as
lazy dict/frozenset views, so existing callers are unchanged.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..geometry import Point

__all__ = [
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
    text = LABEL_ASCII[codes].tobytes().decode("ascii")
    return [tuple(text[i * m : (i + 1) * m]) for i in range(n)]


class ComplexArrays:
    """SoA core of one reduced cell complex.

    Attributes
    ----------
    names:
        Sorted region names; label columns align to this order.
    cell_ids:
        All cell ids in sorted order — the global numbering.
    dims:
        ``(n,)`` int8 — cell dimension, aligned to ``cell_ids``.
    labels:
        ``(n, len(names))`` uint8 — location codes per cell and name.
    incidence:
        ``(M, 2)`` int32 — rows ``(a, b)``: cell *a* lies in the closure
        of cell *b*, ``dim(a) < dim(b)``; rows sorted lexicographically.
    ccw:
        ``(K, 3)`` int32 — rows ``(v, e1, e2)``: around vertex *v* a
        germ of *e2* immediately follows a germ of *e1* counterclockwise;
        rows sorted.  The CW relation is the mirrored ``(v, e2, e1)``.
    edge_endpoints:
        ``(ne, 2)`` int32 — row *k* holds the endpoint vertex indices of
        edge ``e{k}`` in ascending global order, ``-1``-padded at the
        end (loops list their vertex once; free loops are all ``-1``).
    exterior_face:
        Global index of the unbounded face.
    vertex_gidx / edge_gidx / face_gidx:
        Local-ordinal → global-index maps: ``vertex_gidx[i]`` is the
        global index of ``"v{i}"``, and likewise for edges and faces.
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
        "names",
        "cell_ids",
        "dims",
        "labels",
        "incidence",
        "ccw",
        "edge_endpoints",
        "exterior_face",
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
        names: tuple[str, ...],
        cell_ids: tuple[str, ...],
        dims: np.ndarray,
        labels: np.ndarray,
        incidence: np.ndarray,
        ccw: np.ndarray,
        edge_endpoints: np.ndarray,
        exterior_face: int,
        vertex_gidx: np.ndarray,
        edge_gidx: np.ndarray,
        face_gidx: np.ndarray,
        vertex_xy: np.ndarray | None,
        vertex_points: list[Point],
        edge_polylines: list[list[Point]],
        face_samples: list[Point] | Callable[[], list[Point]],
    ):
        self.names = names
        self.cell_ids = cell_ids
        self.dims = dims
        self.labels = labels
        self.incidence = incidence
        self.ccw = ccw
        self.edge_endpoints = edge_endpoints
        self.exterior_face = exterior_face
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
        return len(self.cell_ids)

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
        total = sum(
            getattr(self, name).nbytes
            for name in (
                "dims",
                "labels",
                "incidence",
                "ccw",
                "edge_endpoints",
                "vertex_gidx",
                "edge_gidx",
                "face_gidx",
            )
        )
        if self.vertex_xy is not None:
            total += self.vertex_xy.nbytes
        return total

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexArrays):
            return NotImplemented
        return (
            self.names == other.names
            and self.cell_ids == other.cell_ids
            and self.exterior_face == other.exterior_face
            and np.array_equal(self.dims, other.dims)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.incidence, other.incidence)
            and np.array_equal(self.ccw, other.ccw)
            and np.array_equal(self.edge_endpoints, other.edge_endpoints)
            and self.vertex_points == other.vertex_points
            and self.edge_polylines == other.edge_polylines
            and self.face_samples == other.face_samples
        )

    __hash__ = None  # mutable arrays; mirror the seed dataclass (eq, no hash)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComplexArrays(cells={self.n_cells}, "
            f"v/e/f={self.n_vertices}/{self.n_edges}/{self.n_faces}, "
            f"inc={len(self.incidence)}, ccw={len(self.ccw)}, "
            f"nbytes={self.nbytes()})"
        )
