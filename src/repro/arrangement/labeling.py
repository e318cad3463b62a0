"""Labeling of arrangement cells against a spatial instance.

Every cell of the subdivision lies inside a single *sign class* of the
instance: for each region name, the whole cell is interior ('o'),
boundary ('b'), or exterior ('e').  Labels are tuples aligned to the
*sorted* region names, which is the canonical name order used
throughout the invariant pipeline.

:func:`compute_labels` decides each region's column in one of two ways,
chosen by the region's class:

* **Propagation**, for regions whose boundary is a simple polygon
  (:class:`~repro.regions.PolygonRegion`: ``Rect``, ``Poly`` and
  ``AlgRegion``).  The pieces each boundary segment covers are found
  once, by walking the segment along the darts
  (:meth:`~repro.arrangement.dcel.Subdivision.pieces_along`); those
  pieces and their endpoints are the region's boundary cells, 'b'.  The
  faces are labeled in one traversal of face adjacency: the unbounded
  face is exterior to every region, and crossing a piece flips 'o'/'e'
  for the regions whose boundary covers it an odd number of times.
  That parity is exactly the crossing-number rule by which
  :meth:`~repro.geometry.SimplePolygon.locate` classifies a point, so
  the result is the point-location result.  Every other piece or
  vertex takes the label of an incident face: no boundary of that
  region separates them.  No sample point is computed.
* **Indexed point location**, for every other region: ``RectUnion``,
  whose boundary can carry slits (a slit has the interior on both
  sides, so crossing it flips nothing; see Li, *On the Internal
  Topological Structure of Plane Regions*), and ``RealizedRegion``.
  One exact sample point per cell decides its label (the vertex
  itself, the piece midpoint, the exact face sample from the
  subdivision).  The classification runs region-major, so per-region
  state is hoisted out of the sample loop; it rejects samples outside
  the region's bounding box with one vectorized float comparison over
  the whole sample array (sound because ``float(Fraction)`` rounding is
  monotone; float ties conservatively fall through to the exact test);
  and for segment-rich regions it consults a uniform grid over the
  boundary segments — a sample falling in a grid cell that no boundary
  segment's bbox touches shares the (cached) location of every other
  point of that cell, because a connected set disjoint from the
  boundary lies entirely in the interior or entirely in the exterior.

Both paths are exact, so the output is identical to the seed scan,
which survives as :func:`compute_labels_reference` for A/B testing.
"""

from __future__ import annotations

from math import floor

import numpy as np

from ..errors import ArrangementError
from ..geometry import BBox, Location, Point
from ..geometry.batchkernel import points_to_array
from ..regions import PolygonRegion, Region, SpatialInstance
from .dcel import Subdivision

__all__ = [
    "LabelMap",
    "compute_labels",
    "compute_labels_reference",
    "RegionIndex",
    "INTERIOR",
    "BOUNDARY",
    "EXTERIOR",
]

INTERIOR = "o"
BOUNDARY = "b"
EXTERIOR = "e"

_CODES = {
    Location.INTERIOR: INTERIOR,
    Location.BOUNDARY: BOUNDARY,
    Location.EXTERIOR: EXTERIOR,
}

Label = tuple[str, ...]

# Regions with at least this many boundary segments get a grid index;
# below it the plain classify walk is already cheap.
_GRID_MIN_SEGMENTS = 12
_GRID_MAX_SIDE = 32


class LabelMap:
    """Labels of every cell of a subdivision, over sorted region names."""

    def __init__(
        self,
        names: tuple[str, ...],
        vertex_labels: list[Label],
        piece_labels: list[Label],
        face_labels: list[Label],
    ):
        self.names = names
        self.vertex_labels = vertex_labels
        self.piece_labels = piece_labels
        self.face_labels = face_labels


class RegionIndex:
    """Exact spatial pruning for one region's ``classify``.

    Two layers, both conservative and therefore exact:

    * the region's bounding box — a point strictly outside the closure's
      bbox is EXTERIOR, full stop;
    * for segment-rich regions, a uniform grid over the bbox where each
      cell knows whether any boundary segment's bbox touches it.  Clean
      (untouched) closed cells contain no boundary point, so the whole
      cell is one location class, cached from a single ``classify`` of
      its first queried point.

    Anything else falls through to ``region.classify`` unchanged.
    """

    __slots__ = (
        "region",
        "box",
        "_nx",
        "_ny",
        "_inv_w",
        "_inv_h",
        "_dirty",
        "_clean_cache",
    )

    def __init__(self, region: Region):
        self.region = region
        self.box: BBox = region.bbox()
        self._nx = 0  # grid disabled until _build_grid
        segments = region.boundary_segments()
        if len(segments) >= _GRID_MIN_SEGMENTS:
            self._build_grid(segments)

    def _build_grid(self, segments) -> None:
        box = self.box
        if box.width == 0 or box.height == 0:
            return
        side = min(_GRID_MAX_SIDE, max(2, int(len(segments) ** 0.5) + 1))
        self._nx = self._ny = side
        self._inv_w = side / box.width
        self._inv_h = side / box.height
        dirty = bytearray(side * side)
        for seg in segments:
            x_lo, x_hi = seg.a.x, seg.b.x  # endpoints lex-sorted
            if seg.a.y <= seg.b.y:
                y_lo, y_hi = seg.a.y, seg.b.y
            else:
                y_lo, y_hi = seg.b.y, seg.a.y
            ix0 = self._clamp(floor((x_lo - box.xmin) * self._inv_w), side)
            ix1 = self._clamp(floor((x_hi - box.xmin) * self._inv_w), side)
            iy0 = self._clamp(floor((y_lo - box.ymin) * self._inv_h), side)
            iy1 = self._clamp(floor((y_hi - box.ymin) * self._inv_h), side)
            # Mark one ring beyond the bbox cells: a point on a shared
            # cell edge belongs to the closed cells on both sides, so
            # cleanliness must hold for the closed neighbourhood too.
            for ix in range(max(0, ix0 - 1), min(side, ix1 + 2)):
                row = ix * side
                for iy in range(max(0, iy0 - 1), min(side, iy1 + 2)):
                    dirty[row + iy] = 1
        self._dirty = dirty
        self._clean_cache: dict[int, Location] = {}

    @staticmethod
    def _clamp(index: int, side: int) -> int:
        if index < 0:
            return 0
        if index >= side:
            return side - 1
        return index

    def classify(self, p: Point) -> Location:
        box = self.box
        if not (
            box.xmin <= p.x <= box.xmax and box.ymin <= p.y <= box.ymax
        ):
            return Location.EXTERIOR
        if self._nx:
            cell = self._clamp(
                floor((p.x - box.xmin) * self._inv_w), self._nx
            ) * self._ny + self._clamp(
                floor((p.y - box.ymin) * self._inv_h), self._ny
            )
            if not self._dirty[cell]:
                cached = self._clean_cache.get(cell)
                if cached is None:
                    cached = self.region.classify(p)
                    self._clean_cache[cell] = cached
                return cached
        return self.region.classify(p)


def _label_at(
    instance: SpatialInstance, names: tuple[str, ...], p: Point
) -> Label:
    return tuple(_CODES[instance.ext(n).classify(p)] for n in names)


def _samples_of(subdivision: Subdivision) -> list[Point]:
    """All sample points, in vertex / piece / face order."""
    samples = list(subdivision.vertices)
    samples.extend(seg.midpoint() for seg in subdivision.pieces)
    samples.extend(
        subdivision.face_sample(f.index) for f in subdivision.faces
    )
    return samples


def _column_for(
    index: RegionIndex, samples: list[Point], pts: np.ndarray | None
) -> list[str]:
    """One region's location codes for every sample.

    When the rounded sample coordinates are available, a single pair of
    vectorized comparisons rejects every sample strictly outside the
    region's bounding box: ``float(Fraction)`` is correctly rounded and
    hence monotone, so a strict float inequality against the rounded
    bbox bound certifies the exact one — exactly the comparison
    ``RegionIndex.classify`` would answer EXTERIOR to.  Only survivors
    (including float ties, which stay conservative) reach the exact
    classifier, so the column is bit-identical to the scalar scan.
    """
    classify = index.classify
    if pts is not None:
        box = index.box
        try:
            fx0, fy0 = float(box.xmin), float(box.ymin)
            fx1, fy1 = float(box.xmax), float(box.ymax)
        except OverflowError:
            pass
        else:
            xs, ys = pts[:, 0], pts[:, 1]
            inside = ~((xs < fx0) | (xs > fx1) | (ys < fy0) | (ys > fy1))
            col = [EXTERIOR] * len(samples)
            for k in np.flatnonzero(inside).tolist():
                col[k] = _CODES[classify(samples[k])]
            return col
    return [_CODES[classify(p)] for p in samples]


def compute_labels(
    instance: SpatialInstance, subdivision: Subdivision
) -> LabelMap:
    """Label all cells of *subdivision* against *instance*: propagated
    columns for polygon-bounded regions, indexed point location for the
    rest."""
    names = tuple(sorted(instance.names()))
    regions = [instance.ext(n) for n in names]
    inside, boundary = _propagate(subdivision, regions)
    located = [
        i for i, r in enumerate(regions) if not isinstance(r, PolygonRegion)
    ]
    if located:
        samples = _samples_of(subdivision)
        pts = points_to_array(samples)
        for i in located:
            bit = 1 << i
            column = _column_for(RegionIndex(regions[i]), samples, pts)
            for k, code in enumerate(column):
                if code == INTERIOR:
                    inside[k] |= bit
                elif code == BOUNDARY:
                    boundary[k] |= bit
    labels = _labels_of_masks(len(names), inside, boundary)
    n_v = len(subdivision.vertices)
    n_p = len(subdivision.pieces)
    return LabelMap(
        names,
        labels[:n_v],
        labels[n_v : n_v + n_p],
        labels[n_v + n_p :],
    )


def _propagate(
    sub: Subdivision, regions: list[Region]
) -> tuple[list[int], list[int]]:
    """Interior and boundary bitmasks (bit *i* for ``regions[i]``) of
    every cell, in vertex / piece / face order, over the polygon-bounded
    regions; the bits of every other region are left clear."""
    n_p = len(sub.pieces)
    flips = [0] * n_p  # regions whose boundary covers the piece oddly often
    owners = [0] * n_p  # regions whose boundary covers the piece
    for i, region in enumerate(regions):
        if not isinstance(region, PolygonRegion):
            continue
        bit = 1 << i
        for seg in region.boundary_segments():
            for k in sub.pieces_along(seg):
                flips[k] ^= bit
                owners[k] |= bit

    face_of = [sub.face_of_dart(d) for d in range(2 * n_p)]
    neighbours: list[list[tuple[int, int]]] = [[] for _ in sub.faces]
    for k in range(n_p):
        left, right = face_of[2 * k], face_of[2 * k + 1]
        neighbours[left].append((right, flips[k]))
        neighbours[right].append((left, flips[k]))
    face_in: list[int] = [-1] * len(sub.faces)
    face_in[sub.unbounded_face_index] = 0
    stack = [sub.unbounded_face_index]
    while stack:
        f = stack.pop()
        here = face_in[f]
        for g, flip in neighbours[f]:
            there = here ^ flip
            if face_in[g] < 0:
                face_in[g] = there
                stack.append(g)
            elif face_in[g] != there:
                raise ArrangementError(
                    "boundary crossings disagree on a face's label"
                )

    vertex_on = [0] * len(sub.vertices)
    for k, mask in enumerate(owners):
        if mask:
            vertex_on[sub.dart_tail[2 * k]] |= mask
            vertex_on[sub.dart_head[2 * k]] |= mask
    inside = [face_in[face_of[ring[0]]] for ring in sub.out_darts]
    inside.extend(face_in[face_of[2 * k]] for k in range(n_p))
    inside.extend(face_in)
    boundary = vertex_on + owners + [0] * len(face_in)
    return inside, boundary


def _labels_of_masks(
    n_names: int, inside: list[int], boundary: list[int]
) -> list[Label]:
    """The label tuple of each cell from its interior and boundary
    masks; cells with equal masks share one tuple."""
    exterior = [EXTERIOR] * n_names
    memo: dict[tuple[int, int], Label] = {}
    out: list[Label] = []
    for pair in zip(inside, boundary):
        label = memo.get(pair)
        if label is None:
            row = exterior.copy()
            in_mask, on_mask = pair
            for mask, code in ((in_mask & ~on_mask, INTERIOR), (on_mask, BOUNDARY)):
                while mask:
                    low = mask & -mask
                    row[low.bit_length() - 1] = code
                    mask ^= low
            label = memo[pair] = tuple(row)
        out.append(label)
    return out


def compute_labels_reference(
    instance: SpatialInstance, subdivision: Subdivision
) -> LabelMap:
    """The seed sample-major scan, with no spatial pruning.

    Output-identical to :func:`compute_labels`; kept as the reference
    side of the kernel-equivalence tests.
    """
    names = tuple(sorted(instance.names()))
    vertex_labels = [
        _label_at(instance, names, p) for p in subdivision.vertices
    ]
    piece_labels = [
        _label_at(instance, names, seg.midpoint())
        for seg in subdivision.pieces
    ]
    face_labels = [
        _label_at(instance, names, subdivision.face_sample(f.index))
        for f in subdivision.faces
    ]
    return LabelMap(names, vertex_labels, piece_labels, face_labels)
