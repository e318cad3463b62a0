"""Exact geometric predicates over rational points.

These are the primitives every other geometric computation reduces to.
Because coordinates are :class:`fractions.Fraction`, each predicate returns
a mathematically exact answer; there is no epsilon anywhere in the kernel.
"""

from __future__ import annotations

from fractions import Fraction

from .point import Point

__all__ = [
    "orientation",
    "collinear",
    "on_segment",
    "strictly_between",
    "segments_properly_intersect",
    "segment_intersection",
]


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle *abc*.

    Returns ``+1`` if *c* lies to the left of the directed line *a→b*
    (counterclockwise turn), ``-1`` if to the right (clockwise), ``0`` if
    the three points are collinear.
    """
    cross = (b - a).cross(c - a)
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def collinear(a: Point, b: Point, c: Point) -> bool:
    """True iff the three points lie on one line."""
    return orientation(a, b, c) == 0


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff *p* lies on the closed segment *ab* (endpoints included)."""
    if not collinear(a, b, p):
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def strictly_between(p: Point, a: Point, b: Point) -> bool:
    """True iff *p* lies on the open segment *ab* (endpoints excluded)."""
    return on_segment(p, a, b) and p != a and p != b


def segments_properly_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff open segments *ab* and *cd* cross at a single interior point.

    Proper intersection excludes shared endpoints, T-junctions and overlaps.
    """
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def segment_intersection(
    a: Point, b: Point, c: Point, d: Point
) -> tuple[str, object]:
    """Classify the intersection of closed segments *ab* and *cd*.

    Returns a pair ``(kind, payload)`` where *kind* is one of:

    ``"none"``
        Disjoint segments; payload is ``None``.
    ``"point"``
        They meet in exactly one point; payload is that :class:`Point`
        (possibly an endpoint of either segment).
    ``"overlap"``
        They are collinear and share a nondegenerate subsegment; payload
        is the ``(Point, Point)`` pair of that subsegment's endpoints in
        lexicographic order.
    """
    # Disjoint bounding boxes admit no contact of any kind; the exact
    # coordinate comparisons are far cheaper than the cross products.
    if (
        max(a.x, b.x) < min(c.x, d.x)
        or max(c.x, d.x) < min(a.x, b.x)
        or max(a.y, b.y) < min(c.y, d.y)
        or max(c.y, d.y) < min(a.y, b.y)
    ):
        return ("none", None)
    r = b - a
    s = d - c
    denom = r.cross(s)
    if denom == 0:
        # Parallel.  Collinear overlap is the only possible contact.
        if orientation(a, b, c) != 0:
            return ("none", None)
        lo1, hi1 = (a, b) if a <= b else (b, a)
        lo2, hi2 = (c, d) if c <= d else (d, c)
        lo = lo1 if lo2 <= lo1 else lo2
        hi = hi1 if hi1 <= hi2 else hi2
        if hi < lo:
            return ("none", None)
        if lo == hi:
            return ("point", lo)
        return ("overlap", (lo, hi))
    t = (c - a).cross(s) / denom
    u = (c - a).cross(r) / denom
    if 0 <= t <= 1 and 0 <= u <= 1:
        return ("point", Point(a.x + r.x * t, a.y + r.y * t))
    return ("none", None)
