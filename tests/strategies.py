"""Shared hypothesis strategies: small instances of every region class.

Drawing a few regions on small integer coordinates makes shared edges,
collinear overlaps, corner contacts, nesting and disjoint components all
common.  :func:`instances` mixes ``Rect``, triangles, notched ``Poly``
hexagons, ``AlgRegion`` circles (rational points with large
denominators) and slit ``RectUnion``s.
"""

from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from repro import AlgRegion, Point, Poly, Rect, RectUnion, SpatialInstance

__all__ = ["instances", "regions"]

_small = st.integers(0, 8)


@st.composite
def _rects(draw):
    x, y = draw(_small), draw(_small)
    return Rect(x, y, x + draw(st.integers(1, 4)), y + draw(st.integers(1, 4)))


@st.composite
def _triangles(draw):
    a, b, c = (
        Point(*xy)
        for xy in draw(
            st.lists(st.tuples(_small, _small), min_size=3, max_size=3, unique=True)
        )
    )
    assume((b - a).cross(c - a) != 0)
    return Poly([a, b, c])


@st.composite
def _l_shapes(draw):
    """A rectangle with one corner notched out: a nonconvex hexagon
    whose edges lie on the same lines as nearby rectangles' edges."""
    x, y = draw(_small), draw(_small)
    w, h = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    w2, h2 = draw(st.integers(1, w - 1)), draw(st.integers(1, h - 1))
    return Poly(
        [
            Point(x, y),
            Point(x + w, y),
            Point(x + w, y + h2),
            Point(x + w2, y + h2),
            Point(x + w2, y + h),
            Point(x, y + h),
        ]
    )


@st.composite
def _circles(draw):
    return AlgRegion.circle(
        draw(_small),
        draw(_small),
        draw(st.integers(1, 4)),
        n=draw(st.sampled_from([4, 6, 8, 12])),
    )


@st.composite
def _slit_unions(draw):
    """Two side-by-side squares joined by a bridge: the shared wall
    below the bridge is a slit, with the interior on both sides."""
    x, y = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return RectUnion(
        [Rect(x, y, x + 2, y + 2), Rect(x + 2, y, x + 4, y + 2), Rect(x + 1, y + 1, x + 3, y + 2)]
    )


regions = st.one_of(_rects(), _triangles(), _l_shapes(), _circles(), _slit_unions())


@st.composite
def instances(draw, max_regions=6):
    drawn = draw(st.lists(regions, min_size=1, max_size=max_regions))
    return SpatialInstance({f"R{i}": r for i, r in enumerate(drawn)})
