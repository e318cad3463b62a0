"""Tests for the exact rotational ordering of directions."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, ccw_sorted, direction_compare, pseudo_angle_class
from repro.geometry.angle import angle_sort_key, direction_key

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=16)
nonzero_dirs = st.builds(Point, rationals, rationals).filter(
    lambda p: p.x != 0 or p.y != 0
)
# Axis directions, positive multiples of small directions, and
# directions with large denominators (the subdivision keys dart
# differences scaled by their endpoints' denominators, which run past
# 100 bits on circle chains).
positive = st.fractions(
    min_value=0, max_value=10**6, max_denominator=10**20
).filter(lambda q: q > 0)
axis_dirs = st.builds(
    lambda d, s: d * s,
    st.sampled_from([Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]),
    positive,
)
big = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**40)
big_dirs = st.builds(Point, big, big).filter(lambda p: p.x != 0 or p.y != 0)
scaled_dirs = st.builds(lambda d, s: d * s, nonzero_dirs, positive)
any_dirs = st.one_of(nonzero_dirs, axis_dirs, big_dirs, scaled_dirs)


class TestPseudoAngleClass:
    @pytest.mark.parametrize(
        "d,cls",
        [
            (Point(1, 0), 0),
            (Point(5, 0), 0),
            (Point(1, 1), 1),
            (Point(0, 1), 1),
            (Point(-1, 1), 1),
            (Point(-1, 0), 2),
            (Point(-1, -1), 3),
            (Point(0, -1), 3),
            (Point(1, -1), 3),
        ],
    )
    def test_classes(self, d, cls):
        assert pseudo_angle_class(d) == cls

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pseudo_angle_class(Point(0, 0))


class TestDirectionCompare:
    def test_ccw_order_of_axes(self):
        east, north, west, south = (
            Point(1, 0),
            Point(0, 1),
            Point(-1, 0),
            Point(0, -1),
        )
        assert direction_compare(east, north) < 0
        assert direction_compare(north, west) < 0
        assert direction_compare(west, south) < 0

    def test_scaling_is_equal(self):
        assert direction_compare(Point(1, 2), Point(2, 4)) == 0

    def test_opposite_not_equal(self):
        assert direction_compare(Point(1, 2), Point(-1, -2)) != 0

    @given(nonzero_dirs, nonzero_dirs)
    def test_antisymmetry(self, d1, d2):
        assert direction_compare(d1, d2) == -direction_compare(d2, d1)

    @given(nonzero_dirs, nonzero_dirs, nonzero_dirs)
    def test_transitivity(self, a, b, c):
        if direction_compare(a, b) <= 0 and direction_compare(b, c) <= 0:
            assert direction_compare(a, c) <= 0


class TestAngleSortKey:
    """The key is the comparator's order as a plain sort key."""

    @given(any_dirs, any_dirs)
    def test_key_order_is_comparator_order(self, d1, d2):
        k1, k2 = angle_sort_key(d1), angle_sort_key(d2)
        assert (k1 > k2) - (k1 < k2) == direction_compare(d1, d2)

    @given(any_dirs, positive)
    def test_positive_multiples_share_a_key(self, d, s):
        assert angle_sort_key(d) == angle_sort_key(d * s)
        assert direction_compare(d, d * s) == 0

    @given(st.lists(any_dirs, max_size=12))
    def test_sorting_by_key_is_sorting_by_comparator(self, dirs):
        assert sorted(dirs, key=angle_sort_key) == sorted(
            dirs, key=functools.cmp_to_key(direction_compare)
        )

    @given(
        st.integers(-(2**150), 2**150),
        st.integers(-(2**150), 2**150),
        st.integers(1, 2**40),
    )
    def test_integer_and_rational_coordinates_agree(self, dx, dy, den):
        """The subdivision keys scaled integer differences; the point
        key on the unscaled rationals must be the same."""
        if dx == 0 and dy == 0:
            with pytest.raises(ValueError):
                direction_key(dx, dy)
            return
        assert direction_key(dx, dy) == angle_sort_key(
            Point(Fraction(dx, den), Fraction(dy, den))
        )

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            angle_sort_key(Point(0, 0))


class TestCcwSorted:
    def test_eight_compass_directions(self):
        dirs = [
            Point(1, 0),
            Point(1, 1),
            Point(0, 1),
            Point(-1, 1),
            Point(-1, 0),
            Point(-1, -1),
            Point(0, -1),
            Point(1, -1),
        ]
        import random

        shuffled = dirs[:]
        random.Random(7).shuffle(shuffled)
        assert ccw_sorted(shuffled) == dirs

    @given(st.lists(nonzero_dirs, min_size=1, max_size=10))
    def test_sorted_is_permutation(self, dirs):
        result = ccw_sorted(dirs)
        assert sorted(result, key=lambda p: (p.x, p.y)) == sorted(
            dirs, key=lambda p: (p.x, p.y)
        )
