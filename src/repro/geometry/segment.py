"""Line segments with exact endpoints."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GeometryError
# The filtered kernel is a drop-in exact equivalent of the seed
# predicates (see repro.geometry.fastkernel); segments are on the
# arrangement hot path, so they use it directly.
from .fastkernel import on_segment, segment_intersection
from .point import Point, midpoint

__all__ = ["Segment"]


@dataclass(frozen=True, slots=True)
class Segment:
    """A closed, nondegenerate line segment between two rational points.

    Segments are unordered for equality/hashing purposes: the constructor
    normalizes endpoints to lexicographic order, so ``Segment(a, b) ==
    Segment(b, a)``.
    """

    a: Point
    b: Point

    def __init__(self, a: Point, b: Point):
        if a == b:
            raise GeometryError(f"degenerate segment at {a!r}")
        lo, hi = sorted((a, b), key=Point.lex_key)
        object.__setattr__(self, "a", lo)
        object.__setattr__(self, "b", hi)

    @classmethod
    def lex_ordered(cls, a: Point, b: Point) -> "Segment":
        """The segment from *a* to *b*, which the caller guarantees are
        distinct and in lexicographic order: no check, no sort."""
        seg = object.__new__(cls)
        object.__setattr__(seg, "a", a)
        object.__setattr__(seg, "b", b)
        return seg

    # -- queries -------------------------------------------------------------

    @property
    def direction(self) -> Point:
        return self.b - self.a

    def midpoint(self) -> Point:
        return midpoint(self.a, self.b)

    def contains(self, p: Point) -> bool:
        """True iff *p* lies on the closed segment."""
        return on_segment(p, self.a, self.b)

    def contains_interior(self, p: Point) -> bool:
        """True iff *p* lies strictly inside the segment."""
        return self.contains(p) and p != self.a and p != self.b

    def endpoints(self) -> tuple[Point, Point]:
        return (self.a, self.b)

    def intersect(self, other: "Segment") -> tuple[str, object]:
        """Classify the intersection with *other*.

        See :func:`repro.geometry.predicates.segment_intersection`.
        """
        return segment_intersection(self.a, self.b, other.a, other.b)

    def split_at(self, points: list[Point]) -> list["Segment"]:
        """Split this segment at every given interior point.

        Points not strictly inside the segment are ignored; duplicates are
        collapsed.  Returns the resulting subsegments ordered from
        ``self.a`` to ``self.b``.
        """
        interior = sorted(
            {p for p in points if self.contains_interior(p)}, key=Point.lex_key
        )
        stops = [self.a, *interior, self.b]
        return [Segment(p, q) for p, q in zip(stops, stops[1:])]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Segment({self.a!r}, {self.b!r})"
