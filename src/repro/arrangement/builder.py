"""Planarization of a set of segments.

Given the boundary segments of all regions in an instance, this module
splits them at every mutual intersection so that the resulting *pieces*
meet only at shared endpoints.  The pieces are the edges of the fine
arrangement from which the cell complex (and ultimately the topological
invariant) is built.

Two algorithms are provided with identical output:

* :func:`planarize` (the default) — an x-interval sweep on exact
  integers.  Each segment keeps its endpoints as ints over one local
  scale, the least common multiple of its endpoint denominators, and a
  pair of segments is decided over the lcm of their two scales: never
  one denominator for the whole input, which grows with the number of
  distinct denominators.  Segments are processed in order of their left
  endpoint while an active set holds the segments whose x-interval is
  still open.  The surviving candidate pairs are classified *in bulk*
  by the vectorized float filters of
  :mod:`repro.geometry.batchkernel`: one vector op rejects every
  bbox-disjoint pair and certifies every clearly disjoint or properly
  crossing pair, so only certified crossings (one integer crossing
  each) and genuinely ambiguous pairs (contacts, T-junctions, collinear
  overlaps, near-degeneracies) reach the integer classifier
  :func:`~repro.geometry.fastkernel.classify_ints`.  Coordinates too
  large for ``float``, or :func:`~repro.geometry.fastkernel.exact_mode`,
  skip the float filter and classify every candidate pair on integers.
  Cut points are deduplicated by their reduced integer coordinates and
  ordered by exact integer keys; each output vertex becomes one
  ``Point``.  Worst-case quadratic (everything overlapping), but
  near-linear in scalar work on real corpora.
* :func:`planarize_allpairs` — the seed quadratic all-pairs method:
  exact, simple, and the reference the sweep is tested against.

Both record the same cut points per input segment, so the outputs agree
segment-for-segment: pieces are deduplicated and returned in the same
deterministic lexicographic order.  Collinear overlaps are handled by
cutting both segments at the overlap endpoints, after which identical
pieces deduplicate.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

import numpy as np

from ..geometry import Point, Segment
from ..geometry import batchkernel
from ..geometry.fastkernel import (
    APART,
    BBOX,
    CONTACT,
    MEET,
    MISS,
    OVERLAP,
    classify_ints,
    counters,
    filter_enabled,
)
from ..tracing import span

__all__ = ["planarize", "planarize_allpairs"]


def planarize(segments: Iterable[Segment]) -> list[Segment]:
    """Split *segments* into interior-disjoint pieces (x-interval sweep).

    Returns the pieces sorted lexicographically (a deterministic order
    helps reproducibility downstream).  The output satisfies:

    * every input point covered by some segment is covered by some piece;
    * two distinct pieces share at most endpoints.

    Output is identical to :func:`planarize_allpairs`: the sweep only
    prunes pairs whose bounding boxes are disjoint, which cannot
    intersect and contribute no cuts.
    """
    arr = _IntArrangement(segments)
    with span("planarize.sweep", segments=len(arr.ends)):
        arr.sweep()
    with span("planarize.pieces"):
        return arr.pieces()


class _IntArrangement:
    """The distinct input segments on integers, and the cuts found on them.

    Vertices (segment endpoints and cut points) are numbered once, keyed
    by their reduced coordinates ``(x numerator, x denominator,
    y numerator, y denominator)`` — the normalized ``Fraction`` parts, so
    equal keys are equal points.
    """

    def __init__(self, segments: Iterable[Segment]):
        self.keys: list[tuple[int, int, int, int]] = []
        self.points: list[Point | None] = []
        self.vid: dict[tuple[int, int, int, int], int] = {}
        #: Per segment: its endpoint vertex ids, lexicographically ordered.
        self.ends: list[tuple[int, int]] = []
        #: Per segment: ``(ax, ay, bx, by, scale)``, the endpoints as ints
        #: over the lcm of their denominators.
        self.coords: list[tuple[int, int, int, int, int]] = []
        seen: set[tuple[int, int]] = set()
        for seg in segments:
            a, b = seg.a, seg.b
            ka = (a.x.numerator, a.x.denominator, a.y.numerator, a.y.denominator)
            kb = (b.x.numerator, b.x.denominator, b.y.numerator, b.y.denominator)
            ends = (self._vertex(ka, a), self._vertex(kb, b))
            if ends in seen:
                continue
            seen.add(ends)
            self.ends.append(ends)
            scale = lcm(ka[1], ka[3], kb[1], kb[3])
            self.coords.append(
                (
                    ka[0] * (scale // ka[1]),
                    ka[2] * (scale // ka[3]),
                    kb[0] * (scale // kb[1]),
                    kb[2] * (scale // kb[3]),
                    scale,
                )
            )
        self.cuts: list[list[int]] = [[] for _ in self.ends]

    def _vertex(self, key: tuple[int, int, int, int], point: Point | None) -> int:
        v = self.vid.get(key)
        if v is None:
            v = self.vid[key] = len(self.keys)
            self.keys.append(key)
            self.points.append(point)
        return v

    # -- the sweep ------------------------------------------------------------

    def sweep(self) -> None:
        """Collect the candidate pairs with the x-sweep and classify them.

        Candidates are the pairs whose closed x-intervals overlap,
        decided on exact integer keys.  With the float filter on, the
        batched verdicts drop every certified-disjoint pair and hand the
        certified crossings and the ambiguous pairs to integer code;
        otherwise every candidate pair goes to the integer classifier.
        """
        x_key = _order_keys([(k[0], k[1]) for k in self.keys])
        left = [x_key[a] for a, _ in self.ends]
        order = sorted(range(len(left)), key=left.__getitem__)
        left_sorted = [left[i] for i in order]
        pair_i: list[int] = []
        pair_j: list[int] = []
        for p, (j, (_, b)) in enumerate(zip(order, map(self.ends.__getitem__, order))):
            # Segment j stays active for every later segment that starts
            # at or before its right end.
            end = bisect_right(left_sorted, x_key[b], p + 1)
            pair_i.extend(order[p + 1 : end])
            pair_j.extend([j] * (end - p - 1))
        if not pair_i:
            return
        floats = self._float_array() if filter_enabled() else None
        if floats is None:
            # Every candidate on integers; a bbox reject is a pruned pair.
            tally = self._classify_pairs(pair_i, pair_j)
            pruned, tally[BBOX] = tally[BBOX], 0
            counters.planarize_pairs_pruned += pruned
            counters.planarize_pairs_tested += len(pair_i) - pruned
            if not filter_enabled():
                counters.intersect_exact += len(pair_i) - pruned
                return
        else:
            ia = np.asarray(pair_i, dtype=np.intp)
            ja = np.asarray(pair_j, dtype=np.intp)
            verdicts = batchkernel.classify_pairs_counted(floats[ia], floats[ja])
            n_pruned = int(np.count_nonzero(verdicts == batchkernel.BBOX_REJECT))
            counters.planarize_pairs_pruned += n_pruned
            counters.planarize_pairs_tested += len(pair_i) - n_pruned
            for k in np.flatnonzero(verdicts == batchkernel.CERT_CROSS).tolist():
                self._cross(pair_i[k], pair_j[k])
            ambiguous = np.flatnonzero(verdicts == batchkernel.AMBIGUOUS).tolist()
            tally = self._classify_pairs(
                [pair_i[k] for k in ambiguous], [pair_j[k] for k in ambiguous]
            )
        # The scalar kernel's accounting of the same pairs.
        counters.intersect_bbox_reject += tally[BBOX]
        counters.intersect_fast += tally[APART] + tally[MEET]
        counters.intersect_exact += tally[CONTACT] + tally[OVERLAP] + tally[MISS]

    def _classify_pairs(self, pair_i: list[int], pair_j: list[int]) -> list[int]:
        """Classify the pairs on integers; the count of each verdict."""
        tally = [0] * 6
        for i, j in zip(pair_i, pair_j):
            tally[self._classify(i, j)] += 1
        return tally

    def _float_array(self) -> np.ndarray | None:
        """Rounded endpoint coordinates as an ``(N, 4)`` array, or
        ``None`` when one overflows ``float``.  ``n / d`` on ints is
        correctly rounded, the same value as ``float(Fraction(n, d))``."""
        try:
            fx = [xn / xd for xn, xd, _, _ in self.keys]
            fy = [yn / yd for _, _, yn, yd in self.keys]
        except OverflowError:
            return None
        return np.array(
            [(fx[a], fy[a], fx[b], fy[b]) for a, b in self.ends],
            dtype=np.float64,
        ).reshape(len(self.ends), 4)

    def _frame(self, i: int, j: int) -> tuple[int, ...]:
        """Segments *i* and *j* as ints over the lcm of their scales."""
        ax, ay, bx, by, si = self.coords[i]
        cx, cy, dx, dy, sj = self.coords[j]
        if si == sj:
            return ax, ay, bx, by, cx, cy, dx, dy, si
        scale = lcm(si, sj)
        fi, fj = scale // si, scale // sj
        return (
            ax * fi, ay * fi, bx * fi, by * fi,
            cx * fj, cy * fj, dx * fj, dy * fj,
            scale,
        )

    def _cross(self, i: int, j: int) -> None:
        """Cut both segments of a certified proper crossing."""
        ax, ay, bx, by, cx, cy, dx, dy, scale = self._frame(i, j)
        rx, ry = bx - ax, by - ay
        sx, sy = dx - cx, dy - cy
        denom = rx * sy - ry * sx
        t = (cx - ax) * sy - (cy - ay) * sx
        if denom < 0:
            denom, t = -denom, -t
        v = self._cut(ax * denom + rx * t, ay * denom + ry * t, denom * scale)
        self.cuts[i].append(v)
        self.cuts[j].append(v)

    def _classify(self, i: int, j: int) -> int:
        """Classify one pair on integers, record its cuts, return the
        verdict of :func:`~repro.geometry.fastkernel.classify_ints`."""
        *frame, scale = self._frame(i, j)
        verdict, payload = classify_ints(*frame)
        if verdict == OVERLAP:
            ends = self.ends[i] + self.ends[j]
            cut = (ends[payload[0]], ends[payload[1]])
        elif isinstance(payload, int):
            if verdict == MEET:
                return verdict  # a shared endpoint cuts neither segment
            cut = ((self.ends[i] + self.ends[j])[payload],)
        elif payload is not None:
            x, y, w = payload
            cut = (self._cut(x, y, w * scale),)
        else:
            return verdict
        self.cuts[i].extend(cut)
        self.cuts[j].extend(cut)
        return verdict

    def _cut(self, x: int, y: int, den: int) -> int:
        """The vertex id of the point ``(x / den, y / den)``, ``den > 0``."""
        g = gcd(x, den)
        h = gcd(y, den)
        return self._vertex((x // g, den // g, y // h, den // h), None)

    # -- piece assembly -------------------------------------------------------

    def pieces(self) -> list[Segment]:
        """The pieces between consecutive cuts of every segment, in
        lexicographic order, each distinct piece once.

        Vertices are ranked once in lexicographic order; a segment's
        endpoints are lexicographically ordered and its cut points lie
        on it, so sorting its cuts by rank orders them along it, and
        sorting the pieces by their endpoint ranks is the lexicographic
        order of ``(a, b)``.
        """
        keys = self.keys
        n = len(keys)
        x_key = _order_keys([(k[0], k[1]) for k in keys])
        y_key = _order_keys([(k[2], k[3]) for k in keys])
        order = sorted(range(n), key=lambda v: (x_key[v], y_key[v]))
        rank = [0] * n
        for r, v in enumerate(order):
            rank[v] = r
        found: set[int] = set()
        for (a, b), cut in zip(self.ends, self.cuts):
            ra, rb = rank[a], rank[b]
            if not cut:
                found.add(ra * n + rb)
                continue
            stops = sorted({rank[v] for v in cut}.union((ra, rb)))
            found.update(p * n + q for p, q in zip(stops, stops[1:]))
        points = self.points
        # Cut vertices become Points here, one Fraction per distinct
        # coordinate value.
        values: dict[tuple[int, int], Fraction] = {}
        for v, p in enumerate(points):
            if p is None:
                xn, xd, yn, yd = keys[v]
                x = values.get((xn, xd))
                if x is None:
                    x = values[xn, xd] = Fraction(xn, xd)
                y = values.get((yn, yd))
                if y is None:
                    y = values[yn, yd] = Fraction(yn, yd)
                points[v] = Point(x, y)
        ranked = [points[v] for v in order]
        return [
            Segment.lex_ordered(ranked[code // n], ranked[code % n])
            for code in sorted(found)
        ]


def _order_keys(values: list[tuple[int, int]]) -> list[int]:
    """Exact integer sort keys for rationals given as reduced
    ``(numerator, denominator)`` pairs.

    With ``K`` the square of the largest denominator, ``n * K // d``
    keeps the order and the equalities: two distinct values differ by at
    least ``1 / (d1 * d2) >= 1 / K``, so their scaled floors differ.
    """
    big = max((d for _, d in values), default=1)
    if big == 1:
        return [n for n, _ in values]
    k = big * big
    return [n * k // d for n, d in values]


# -- the seed all-pairs planarizer ---------------------------------------------


def _point_sort_key(p: Point):
    """Lexicographic sort key with float short-circuit.

    ``(float(x), x, float(y), y)`` orders exactly like ``(x, y)``:
    ``float(Fraction)`` is correctly rounded, hence monotone, so a
    strict float inequality decides the exact comparison, and equal
    floats defer to the exact ``Fraction`` in the next slot.  Raises
    ``OverflowError`` on coordinates too large for ``float`` — callers
    fall back to the all-exact key.
    """
    return (float(p.x), p.x, float(p.y), p.y)


def _segment_sort_key(s: Segment):
    return _point_sort_key(s.a) + _point_sort_key(s.b)


def _pieces_from_cuts(
    segs: list[Segment], cuts: list[set[Point]]
) -> list[Segment]:
    pieces: set[Segment] = set()
    for seg, cut in zip(segs, cuts):
        # Every cut point is an intersection computed *on* the segment,
        # so the containment filter of Segment.split_at reduces to
        # dropping the endpoints; lexicographic order equals the order
        # along the segment because endpoints are lex-sorted.
        interior = cut.difference(seg.endpoints())
        try:
            stops = sorted(interior, key=_point_sort_key)
        except OverflowError:
            stops = sorted(interior, key=Point.lex_key)
        stops = [seg.a, *stops, seg.b]
        pieces.update(Segment(p, q) for p, q in zip(stops, stops[1:]))
    try:
        return sorted(pieces, key=_segment_sort_key)
    except OverflowError:
        return sorted(pieces, key=lambda s: (s.a.lex_key(), s.b.lex_key()))


def _record(cuts: list[set[Point]], i: int, j: int, kind: str, payload) -> None:
    if kind == "point":
        cuts[i].add(payload)
        cuts[j].add(payload)
    elif kind == "overlap":
        lo, hi = payload
        cuts[i].update((lo, hi))
        cuts[j].update((lo, hi))


def planarize_allpairs(segments: Iterable[Segment]) -> list[Segment]:
    """Split *segments* into interior-disjoint pieces (seed all-pairs).

    The quadratic reference implementation: every pair goes through the
    exact intersection test.  Kept as the A/B baseline for the sweep —
    the kernel-equivalence tests assert both produce identical pieces.
    """
    segs: list[Segment] = list(dict.fromkeys(segments))
    cuts: list[set[Point]] = [set() for _ in segs]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            kind, payload = segs[i].intersect(segs[j])
            _record(cuts, i, j, kind, payload)
    return _pieces_from_cuts(segs, cuts)
