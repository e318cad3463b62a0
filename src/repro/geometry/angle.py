"""Exact rotational ordering of direction vectors.

The arrangement engine needs to sort the edges leaving a vertex by angle
(the *rotation system* of the embedded graph) without ever computing an
actual angle, which would be irrational.  :func:`angle_sort_key` returns
a key that sorts directions counterclockwise starting from the positive
x-axis, using only exact rational comparisons.

The key is ``(halfplane, slope_proxy)``: *halfplane* is the class of
:func:`pseudo_angle_class` (positive x-axis, open upper half-plane,
negative x-axis, open lower half-plane), and within an open half-plane
the angle grows as ``-dx/dy`` grows, an exact rational.  The axis
classes hold one direction each and carry a constant ``0``.
:func:`direction_key` computes the same key from bare coordinates
(ints or Fractions), which is how the subdivision sorts its darts.
"""

from __future__ import annotations

from fractions import Fraction

from .point import Point

__all__ = [
    "angle_sort_key",
    "ccw_sorted",
    "direction_compare",
    "direction_key",
    "pseudo_angle_class",
]


def pseudo_angle_class(d: Point) -> int:
    """Index of the half-open "octant-free" angular class of direction *d*.

    Classes, counterclockwise: 0 = positive x-axis, 1 = open upper
    half-plane, 2 = negative x-axis, 3 = open lower half-plane.
    """
    if d.x == 0 and d.y == 0:
        raise ValueError("zero direction vector has no angle")
    if d.y == 0:
        return 0 if d.x > 0 else 2
    return 1 if d.y > 0 else 3


def direction_compare(d1: Point, d2: Point) -> int:
    """Exact three-way comparison of directions by CCW angle from +x axis.

    Returns -1, 0, or +1.  Two directions compare equal iff they are
    positive multiples of each other.
    """
    c1, c2 = pseudo_angle_class(d1), pseudo_angle_class(d2)
    if c1 != c2:
        return -1 if c1 < c2 else 1
    cross = d1.cross(d2)
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def ccw_sorted(directions: list[Point]) -> list[Point]:
    """Sort direction vectors counterclockwise from the positive x-axis."""
    return sorted(directions, key=angle_sort_key)


def angle_sort_key(d: Point) -> tuple[int, Fraction | int]:
    """A plain sort key equivalent to :func:`direction_compare`: two
    keys are equal iff the directions are positive multiples of each
    other, and otherwise order as the comparator does."""
    return direction_key(d.x, d.y)


def direction_key(dx, dy) -> tuple[int, Fraction | int]:
    """:func:`angle_sort_key` of the direction ``(dx, dy)``, given as
    exact rationals (ints or Fractions, not both zero).

    The second component is ``-dx/dy`` in the open half-planes, where
    the angle grows with it, and ``0`` on the axes; a vertical
    direction skips the division.
    """
    if dy == 0:
        if dx == 0:
            raise ValueError("zero direction vector has no angle")
        return (0, 0) if dx > 0 else (2, 0)
    return (1 if dy > 0 else 3, Fraction(-dx, dy) if dx else 0)
