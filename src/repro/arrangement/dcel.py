"""Doubly connected edge list over planarized segments.

A :class:`Subdivision` takes interior-disjoint *pieces* (from
:func:`repro.arrangement.builder.planarize`) and derives the full planar
subdivision: darts (directed half-edges), the rotation system (CCW order
of darts around each vertex), the face cycles, the bounded faces, the
unbounded face, and the containment of connected components in faces.

The rotation system and the cycle areas are computed on integers:
vertices are ordered by exact ranks of their coordinates, each dart gets
one exact sort key from the integer difference of its endpoints
(:func:`repro.geometry.angle.direction_key`), and each cycle's doubled
area is an integer sum divided once.  Every scale is local, the product
of a dart's own denominators: one common denominator for the whole
subdivision grows with the number of distinct denominators, and with it
the cost of every product.

It also produces, on demand, an exact *sample point* strictly inside a
face by shooting a rational ray from the midpoint of a boundary piece to
the first obstacle — no epsilons, no floating point — and walks an
input segment along the darts to the pieces that cover it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from ..errors import ArrangementError
from ..geometry import Point, Segment
from ..geometry.angle import direction_key

__all__ = ["Subdivision", "Face", "locate_in_closed_walk"]

_HALF = Fraction(1, 2)


def locate_in_closed_walk(p: Point, walk: Sequence[Point]) -> str:
    """Locate *p* relative to a closed polygonal walk (repeats allowed).

    Returns ``"on"`` if *p* lies on the walk, otherwise ``"in"``/``"out"``
    by crossing-number parity.  Edges traversed twice contribute twice and
    cancel, which is the correct behaviour for walks with slits.
    """
    n = len(walk)
    for i in range(n):
        a, b = walk[i], walk[(i + 1) % n]
        if a == b:
            continue
        from ..geometry import on_segment

        if on_segment(p, a, b):
            return "on"
    crossings = 0
    for i in range(n):
        a, b = walk[i], walk[(i + 1) % n]
        if a.y == b.y:
            continue
        if min(a.y, b.y) <= p.y < max(a.y, b.y):
            t = (p.y - a.y) / (b.y - a.y)
            x_at = a.x + (b.x - a.x) * t
            if x_at < p.x:
                crossings += 1
    return "in" if crossings % 2 == 1 else "out"


@dataclass
class Face:
    """A face of the subdivision.

    ``outer_cycle`` is the index of the CCW cycle bounding the face, or
    ``None`` for the unbounded face.  ``hole_cycles`` are the indices of
    the contour cycles of components nested directly inside this face.
    """

    index: int
    outer_cycle: int | None
    hole_cycles: list[int] = field(default_factory=list)

    @property
    def is_unbounded(self) -> bool:
        return self.outer_cycle is None


class Subdivision:
    """The planar subdivision induced by interior-disjoint pieces.

    Darts are integers; dart ``2k`` runs along piece ``k`` from ``a`` to
    ``b`` (lexicographic endpoint order) and dart ``2k + 1`` is its twin.
    """

    def __init__(self, pieces: Sequence[Segment]):
        if not pieces:
            raise ArrangementError("subdivision of an empty piece set")
        self.pieces: list[Segment] = list(pieces)
        ends = [p for s in self.pieces for p in (s.a, s.b)]
        # Coordinates as exact (numerator, denominator) int pairs;
        # Fractions are normalized, so equal pairs are equal values.
        keys = [
            (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)
            for p in ends
        ]
        point_of = dict(zip(keys, ends))
        # Lexicographic point order: rank the distinct x values and the
        # distinct y values once, then sort the points by rank pairs.
        x_rank = _ranks({k[:2]: p.x for k, p in point_of.items()})
        y_rank = _ranks({k[2:]: p.y for k, p in point_of.items()})
        order = sorted(point_of, key=lambda k: (x_rank[k[:2]], y_rank[k[2:]]))
        self.vertices: list[Point] = [point_of[k] for k in order]
        self._vid: dict[tuple[int, int, int, int], int] = {
            k: i for i, k in enumerate(order)
        }
        xn, xd, yn, yd = (list(column) for column in zip(*order))

        n_darts = 2 * len(self.pieces)
        # keys run a, b, a, b, ... over the pieces: dart 2k leaves a.
        tails = [self._vid[k] for k in keys]
        self.dart_tail: list[int] = tails
        self.dart_head: list[int] = [0] * n_darts
        self.dart_head[0::2] = tails[1::2]
        self.dart_head[1::2] = tails[0::2]

        self.out_darts: list[list[int]] = [[] for _ in self.vertices]
        for d, t in enumerate(tails):
            self.out_darts[t].append(d)
        # One exact key per dart, from the integer difference of its
        # endpoints scaled by the product of their denominators (a
        # positive factor, so the direction is kept).
        angle = [
            direction_key(
                (xn[h] * xd[t] - xn[t] * xd[h]) * yd[h] * yd[t],
                (yn[h] * yd[t] - yn[t] * yd[h]) * xd[h] * xd[t],
            )
            for t, h in zip(tails, self.dart_head)
        ]
        # _next[d]: the next dart along the face left of d, which is the
        # clockwise-next dart after twin(d) in the rotation at head(d).
        self._next: list[int] = [0] * n_darts
        for darts in self.out_darts:
            darts.sort(key=angle.__getitem__)
            prev = darts[-1]
            for d in darts:
                self._next[d ^ 1] = prev
                prev = d

        self._trace_cycles(xn, xd, yn, yd)
        self._build_faces()

    # -- dart helpers ----------------------------------------------------------

    def twin(self, d: int) -> int:
        return d ^ 1

    def dart_points(self, d: int) -> tuple[Point, Point]:
        return (
            self.vertices[self.dart_tail[d]],
            self.vertices[self.dart_head[d]],
        )

    def degree(self, v: int) -> int:
        return len(self.out_darts[v])

    # -- cycles ------------------------------------------------------------------

    def _trace_cycles(
        self, xn: list[int], xd: list[int], yn: list[int], yd: list[int]
    ) -> None:
        """Face cycles and their doubled signed areas.

        A dart's cross product ``x_t y_h - y_t x_h`` is the integer
        ``n / m`` over the product ``m`` of its endpoints' denominators;
        a cycle sums these over a running least common denominator and
        divides once at the end."""
        n_darts = 2 * len(self.pieces)
        tail, head, nxt = self.dart_tail, self.dart_head, self._next
        lcm = math.lcm
        self.cycle_of_dart: list[int] = [-1] * n_darts
        self.cycles: list[list[int]] = []
        self.cycle_area2: list[Fraction] = []
        for start in range(n_darts):
            if self.cycle_of_dart[start] != -1:
                continue
            cycle_index = len(self.cycles)
            cycle: list[int] = []
            num, den = 0, 1
            d = start
            while self.cycle_of_dart[d] == -1:
                self.cycle_of_dart[d] = cycle_index
                cycle.append(d)
                t, h = tail[d], head[d]
                a, b = xd[t] * yd[h], yd[t] * xd[h]
                m = a * b
                common = lcm(den, m)
                num = num * (common // den) + (
                    xn[t] * yn[h] * b - yn[t] * xn[h] * a
                ) * (common // m)
                den = common
                d = nxt[d]
            if d != start:
                raise ArrangementError("face tracing did not close a cycle")
            self.cycles.append(cycle)
            self.cycle_area2.append(Fraction(num, den))

    def cycle_walk(self, cycle_index: int) -> list[Point]:
        """The vertex walk of a cycle (tails of its darts, in order)."""
        return [
            self.vertices[self.dart_tail[d]]
            for d in self.cycles[cycle_index]
        ]

    # -- connected components ----------------------------------------------------

    def _components(self) -> list[int]:
        parent = list(range(len(self.vertices)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for k in range(len(self.pieces)):
            a, b = self.dart_tail[2 * k], self.dart_head[2 * k]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return [find(v) for v in range(len(self.vertices))]

    # -- faces ------------------------------------------------------------------

    def _build_faces(self) -> None:
        comp = self._components()
        self.component_of_vertex = comp

        ccw_cycles = [
            i for i, a in enumerate(self.cycle_area2) if a > 0
        ]
        contour_cycles = [
            i for i, a in enumerate(self.cycle_area2) if a <= 0
        ]

        def cycle_component(i: int) -> int:
            return comp[self.dart_tail[self.cycles[i][0]]]

        # One bounded face per CCW cycle, plus the unbounded face (last).
        self.faces: list[Face] = [
            Face(index=k, outer_cycle=c) for k, c in enumerate(ccw_cycles)
        ]
        unbounded = Face(index=len(self.faces), outer_cycle=None)
        self.faces.append(unbounded)
        self.unbounded_face_index = unbounded.index
        face_of_ccw = {c: k for k, c in enumerate(ccw_cycles)}

        walks: dict[int, list[Point]] = {}

        # Assign each contour (the outside traversal of a component) to the
        # face containing that component.
        for contour in contour_cycles:
            my_comp = cycle_component(contour)
            rep = self.pieces[self.cycles[contour][0] // 2].midpoint()
            best: int | None = None
            best_area: Fraction | None = None
            for c in ccw_cycles:
                if cycle_component(c) == my_comp:
                    continue
                if c not in walks:
                    walks[c] = self.cycle_walk(c)
                if locate_in_closed_walk(rep, walks[c]) == "in":
                    area = self.cycle_area2[c]
                    if best_area is None or area < best_area:
                        best, best_area = c, area
            target = self.faces[face_of_ccw[best]] if best is not None else unbounded
            target.hole_cycles.append(contour)

        self.face_of_cycle: dict[int, int] = {}
        for face in self.faces:
            if face.outer_cycle is not None:
                self.face_of_cycle[face.outer_cycle] = face.index
            for hole in face.hole_cycles:
                self.face_of_cycle[hole] = face.index

        self._samples: dict[int, Point] = {}

    def face_of_dart(self, d: int) -> int:
        return self.face_of_cycle[self.cycle_of_dart[d]]

    def pieces_along(self, seg: Segment) -> list[int]:
        """The pieces covering *seg*, in order from ``seg.a`` to ``seg.b``.

        *seg* must be one of the segments the pieces were planarized
        from, so both its endpoints are vertices and every vertex on it
        cuts it.  The walk leaves each vertex along its forward dart
        (dart ``2k`` runs lexicographically upwards, as *seg* does) that
        continues *seg*'s line; pieces are interior-disjoint, so there
        is exactly one.
        """
        v, end = self._vertex_index(seg.a), self._vertex_index(seg.b)
        if v is None or end is None:
            raise ArrangementError(
                "segment endpoint is not a subdivision vertex"
            )
        dx, dy = seg.b.x - seg.a.x, seg.b.y - seg.a.y
        out: list[int] = []
        while v != end:
            forward = [d for d in self.out_darts[v] if not d & 1]
            if len(forward) != 1:
                p = self.vertices[v]
                forward = [
                    d for d in forward
                    if _continues(p, self.vertices[self.dart_head[d]], dx, dy)
                ]
                if len(forward) != 1:
                    raise ArrangementError(
                        "segment is not a union of subdivision pieces"
                    )
            d = forward[0]
            out.append(d >> 1)
            v = self.dart_head[d]
        return out

    def _vertex_index(self, p: Point) -> int | None:
        """The index of the vertex at *p*, or ``None``."""
        x, y = p.x, p.y
        return self._vid.get(
            (x.numerator, x.denominator, y.numerator, y.denominator)
        )

    # -- sampling ----------------------------------------------------------------

    def face_sample(self, face_index: int) -> Point:
        """An exact point strictly inside the face."""
        if face_index in self._samples:
            return self._samples[face_index]
        face = self.faces[face_index]
        if face.is_unbounded:
            xmax = max(p.x for p in self.vertices)
            ymax = max(p.y for p in self.vertices)
            sample = Point(xmax + 1, ymax + 1)
        else:
            d = self.cycles[face.outer_cycle][0]
            sample = self._sample_left_of_dart(d)
        self._samples[face_index] = sample
        return sample

    def _sample_left_of_dart(self, d: int) -> Point:
        """A point in the open face immediately left of dart *d*.

        Shoots a ray from the dart's midpoint along its left normal and
        stops halfway to the first obstacle.  Only the pieces on the
        face's own cycles (outer boundary and holes) are tested: the ray
        starts on the boundary, travels through the open face, and can
        first meet the 1-skeleton only where it leaves the face — a
        point of the face's boundary.  The minimum over those pieces
        therefore equals the minimum over all pieces exactly.
        """
        tail, head = self.dart_points(d)
        m = Point((tail.x + head.x) * _HALF, (tail.y + head.y) * _HALF)
        direction = head - tail
        normal = Point(-direction.y, direction.x)  # left of the dart
        face = self.faces[self.face_of_dart(d)]
        boundary_cycles = list(face.hole_cycles)
        if face.outer_cycle is not None:
            boundary_cycles.append(face.outer_cycle)
        candidates = {
            dd // 2 for c in boundary_cycles for dd in self.cycles[c]
        }
        t_min: Fraction | None = None
        for k in sorted(candidates):
            t = _ray_segment_param(m, normal, self.pieces[k])
            if t is not None and t > 0 and (t_min is None or t < t_min):
                t_min = t
        if t_min is None:
            raise ArrangementError(
                "sample ray escaped a bounded face; inconsistent subdivision"
            )
        return Point(m.x + normal.x * t_min * _HALF, m.y + normal.y * t_min * _HALF)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Subdivision({len(self.vertices)} vertices, "
            f"{len(self.pieces)} pieces, {len(self.faces)} faces)"
        )


def _ranks(values: dict[tuple[int, int], Fraction]) -> dict[tuple[int, int], int]:
    """The rank of each distinct value (keyed by its numerator and
    denominator) in increasing order."""
    return {k: i for i, k in enumerate(sorted(values, key=values.__getitem__))}


def _continues(p: Point, q: Point, dx: Fraction, dy: Fraction) -> bool:
    """Whether the step from *p* to a lexicographically greater *q* runs
    along direction ``(dx, dy)``."""
    if dy == 0:
        return q.y == p.y
    if dx == 0:
        return q.x == p.x
    return (q.x - p.x) * dy == (q.y - p.y) * dx


def _ray_segment_param(m: Point, n: Point, seg: Segment) -> Fraction | None:
    """Smallest positive ray parameter ``t`` with ``m + t n`` on *seg*.

    Returns ``None`` when the ray misses the segment.
    """
    p, q = seg.a, seg.b
    d = q - p
    denom = n.cross(d)
    if denom != 0:
        t = (p - m).cross(d) / denom
        u = (p - m).cross(n) / denom
        if u < 0 or u > 1:
            return None
        return t
    # Parallel: the segment lies on the ray line only if collinear.
    if (p - m).cross(n) != 0:
        return None
    nn = n.dot(n)
    tp = (p - m).dot(n) / nn
    tq = (q - m).dot(n) / nn
    candidates = [t for t in (tp, tq) if t > 0]
    return min(candidates) if candidates else None
