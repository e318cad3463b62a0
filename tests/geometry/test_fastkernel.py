"""Tests for the float-filtered exact kernel.

The filter may only ever *agree* with the exact predicates — on random
inputs, on adversarially near-degenerate inputs where the float
evaluation is meaningless, and on coordinates too large to convert to
float at all.  The counters and the ``exact_mode`` switch are covered
too, since the benchmarks rely on them.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, fastkernel
from repro.geometry import predicates as exact

coords = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)
points = st.builds(Point, coords, coords)


@st.composite
def distinct_pairs(draw, points=points):
    a = draw(points)
    b = draw(points.filter(lambda p: p != a))
    return a, b


# Large, mixed denominators: the integer classifier puts the four
# endpoints on the lcm of up to eight of them.
big_coords = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=10**9
)
big_points = st.builds(Point, big_coords, big_coords)
params = st.fractions(min_value=-2, max_value=3, max_denominator=10**6)


def _on_line(a, b, t):
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


class TestOrientationAgrees:
    @given(points, points, points)
    def test_random(self, a, b, c):
        assert fastkernel.orientation(a, b, c) == exact.orientation(
            a, b, c
        )

    @given(distinct_pairs(), st.integers(-3, 3))
    def test_exactly_collinear(self, ab, k):
        a, b = ab
        c = Point(
            a.x + (b.x - a.x) * k,
            a.y + (b.y - a.y) * k,
        )
        assert fastkernel.orientation(a, b, c) == 0

    @given(distinct_pairs(), st.sampled_from([1, -1]))
    def test_near_degenerate_below_float_resolution(self, ab, sign):
        """A perpendicular offset of 10^-40 is far below double
        precision: only the exact fallback can see it."""
        a, b = ab
        d = b - a
        eps = Fraction(sign, 10**40)
        c = Point(
            a.x + d.x - d.y * eps,
            a.y + d.y + d.x * eps,
        )
        assert fastkernel.orientation(a, b, c) == exact.orientation(
            a, b, c
        )
        assert fastkernel.orientation(a, b, c) == sign

    def test_overflowing_coordinates_fall_back(self):
        big = Fraction(10**400)
        a = Point(0, 0)
        b = Point(big, 0)
        c = Point(0, big)
        assert fastkernel.orientation(a, b, c) == 1
        assert fastkernel.orientation(a, c, b) == -1

    def test_tiny_coordinates(self):
        tiny = Fraction(1, 10**400)
        a = Point(0, 0)
        b = Point(tiny, 0)
        c = Point(0, tiny)
        assert fastkernel.orientation(a, b, c) == exact.orientation(
            a, b, c
        )


class TestOnSegmentAgrees:
    @given(points, distinct_pairs())
    def test_random(self, p, ab):
        a, b = ab
        assert fastkernel.on_segment(p, a, b) == exact.on_segment(
            p, a, b
        )

    @given(distinct_pairs(), st.fractions(min_value=-1, max_value=2, max_denominator=16))
    def test_points_on_the_support_line(self, ab, t):
        a, b = ab
        p = Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
        assert fastkernel.on_segment(p, a, b) == (0 <= t <= 1)


class TestSegmentIntersectionAgrees:
    @given(distinct_pairs(), distinct_pairs())
    def test_random(self, ab, cd):
        a, b = ab
        c, d = cd
        assert fastkernel.segment_intersection(
            a, b, c, d
        ) == exact.segment_intersection(a, b, c, d)

    @given(distinct_pairs(), points)
    def test_shared_endpoint(self, ab, d):
        """Vertex contacts take the dedicated fast path; the payload
        must still match the exact classifier exactly."""
        a, b = ab
        if d == a or d == b:
            return
        assert fastkernel.segment_intersection(
            a, b, a, d
        ) == exact.segment_intersection(a, b, a, d)
        assert fastkernel.segment_intersection(
            a, b, d, b
        ) == exact.segment_intersection(a, b, d, b)

    def test_shared_endpoint_point_contact(self):
        got = fastkernel.segment_intersection(
            Point(0, 0), Point(4, 0), Point(0, 0), Point(0, 4)
        )
        assert got == ("point", Point(0, 0))

    def test_shared_endpoint_collinear_overlap(self):
        got = fastkernel.segment_intersection(
            Point(0, 0), Point(4, 0), Point(0, 0), Point(2, 0)
        )
        assert got == ("overlap", (Point(0, 0), Point(2, 0)))

    @given(distinct_pairs())
    def test_collinear_disjoint(self, ab):
        a, b = ab
        d = b - a
        c1 = Point(b.x + 2 * d.x, b.y + 2 * d.y)
        c2 = Point(b.x + 3 * d.x, b.y + 3 * d.y)
        assert fastkernel.segment_intersection(
            a, b, c1, c2
        ) == exact.segment_intersection(a, b, c1, c2)
        assert fastkernel.segment_intersection(a, b, c1, c2) == (
            "none",
            None,
        )


class TestDegenerateMixedDenominators:
    """Contacts, T-junctions and collinear overlaps whose points carry
    large, unrelated denominators — every such pair reaches the integer
    classifier, which must give the seed kernel's values."""

    @given(distinct_pairs(big_points), params, params)
    def test_collinear(self, ab, t, u):
        a, b = ab
        c, d = _on_line(a, b, t), _on_line(a, b, u)
        if c == d:
            return
        want = exact.segment_intersection(a, b, c, d)
        assert fastkernel.segment_intersection(a, b, c, d) == want
        assert fastkernel.exact_intersection(a, b, c, d) == want
        assert fastkernel.segment_intersection(d, c, b, a) == (
            exact.segment_intersection(d, c, b, a)
        )

    @given(distinct_pairs(big_points), params, big_points)
    def test_t_junction(self, ab, t, d):
        a, b = ab
        c = _on_line(a, b, t)
        if c == d:
            return
        for args in ((a, b, c, d), (c, d, a, b), (b, a, d, c)):
            want = exact.segment_intersection(*args)
            assert fastkernel.segment_intersection(*args) == want
            assert fastkernel.exact_intersection(*args) == want

    @given(distinct_pairs(big_points), params, big_points)
    def test_shared_endpoint(self, ab, t, far):
        """A shared endpoint with a collinear (overlap or touch) or a
        turning continuation."""
        a, b = ab
        for d in (_on_line(a, b, t), far):
            if d == a:
                continue
            for args in ((a, b, a, d), (b, a, d, a), (a, b, d, b)):
                if args[2] == args[3]:
                    continue
                want = exact.segment_intersection(*args)
                assert fastkernel.segment_intersection(*args) == want
                assert fastkernel.exact_intersection(*args) == want

    @given(distinct_pairs(big_points), distinct_pairs(big_points))
    def test_random(self, ab, cd):
        args = (*ab, *cd)
        assert fastkernel.exact_intersection(
            *args
        ) == exact.segment_intersection(*args)

    def test_beyond_float_range(self):
        big = Fraction(10**400)
        a, b = Point(0, 0), Point(big, big)
        for c, d in (
            (Point(0, big), Point(big, 0)),  # crossing
            (Point(big / 2, big / 2), Point(big, 0)),  # T-junction
            (Point(big / 3, big / 3), Point(2 * big, 2 * big)),  # overlap
            (Point(big, big), Point(2 * big, big)),  # shared endpoint
        ):
            want = exact.segment_intersection(a, b, c, d)
            assert fastkernel.segment_intersection(a, b, c, d) == want
            assert fastkernel.exact_intersection(a, b, c, d) == want


class TestCountersAndModes:
    def test_filter_certifies_without_exact_calls(self):
        fastkernel.counters.reset()
        assert (
            fastkernel.orientation(Point(0, 0), Point(4, 0), Point(2, 1))
            == 1
        )
        assert fastkernel.counters.orientation_fast == 1
        assert fastkernel.counters.orientation_exact == 0

    def test_degenerate_counts_as_exact(self):
        fastkernel.counters.reset()
        assert (
            fastkernel.orientation(Point(0, 0), Point(4, 0), Point(2, 0))
            == 0
        )
        assert fastkernel.counters.orientation_fast == 0
        assert fastkernel.counters.orientation_exact == 1

    def test_exact_mode_disables_filter(self):
        fastkernel.counters.reset()
        with fastkernel.exact_mode():
            assert not fastkernel.filter_enabled()
            assert (
                fastkernel.orientation(
                    Point(0, 0), Point(4, 0), Point(2, 1)
                )
                == 1
            )
        assert fastkernel.filter_enabled()
        assert fastkernel.counters.orientation_fast == 0
        assert fastkernel.counters.orientation_exact == 1

    def test_exact_mode_restores_on_error(self):
        try:
            with fastkernel.exact_mode():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert fastkernel.filter_enabled()

    def test_hit_rate(self):
        fastkernel.counters.reset()
        assert fastkernel.counters.filter_hit_rate() == 0.0
        fastkernel.orientation(Point(0, 0), Point(4, 0), Point(2, 1))
        fastkernel.orientation(Point(0, 0), Point(4, 0), Point(2, 0))
        assert fastkernel.counters.filter_hit_rate() == 0.5

    def test_snapshot_names_are_prefixed(self):
        snap = fastkernel.counters.snapshot()
        assert set(snap) == {
            f"kernel.{name}"
            for name in (
                "orientation_fast",
                "orientation_exact",
                "intersect_fast",
                "intersect_exact",
                "intersect_bbox_reject",
                "planarize_pairs_tested",
                "planarize_pairs_pruned",
                "batch_pairs",
                "batch_certified",
                "batch_fallback",
            )
        }

    def test_bbox_reject_counted(self):
        fastkernel.counters.reset()
        got = fastkernel.segment_intersection(
            Point(0, 0), Point(1, 0), Point(5, 5), Point(6, 5)
        )
        assert got == ("none", None)
        assert fastkernel.counters.intersect_bbox_reject == 1
