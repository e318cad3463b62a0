"""Tests for segment planarization."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.arrangement import planarize, planarize_allpairs
from repro.geometry import Point, Segment, segments_properly_intersect
from repro.geometry.fastkernel import exact_mode
from repro.regions import AlgRegion

coords = st.fractions(min_value=-20, max_value=20, max_denominator=8)
points = st.builds(Point, coords, coords)


@st.composite
def segments(draw):
    a = draw(points)
    b = draw(points.filter(lambda p: p != a))
    return Segment(a, b)


@st.composite
def _scaled_segments(draw):
    """A segment whose endpoints share one denominator up to 10^4."""
    q = draw(st.integers(1, 10**4))
    num = st.integers(-10 * q, 10 * q)
    a = Point(Fraction(draw(num), q), Fraction(draw(num), q))
    b = Point(Fraction(draw(num), q), Fraction(draw(num), q))
    if a == b:
        b = Point(b.x + 1, b.y)
    return Segment(a, b)


def _seed(segs):
    """The seed planarizer: all pairs on the ``Fraction`` predicates."""
    with exact_mode():
        return planarize_allpairs(segs)


#: Support lines (a point and a direction) for collinear draws.
_LINES = (
    (Point(0, 0), Point(1, 0)),
    (Point(0, 0), Point(0, 1)),
    (Point(0, 0), Point(1, 1)),
    (Point(Fraction(1, 3), 2), Point(2, -1)),
    (Point(-1, Fraction(5, 7)), Point(3, 2)),
)


class TestPlanarize:
    def test_disjoint_pass_through(self):
        segs = [
            Segment(Point(0, 0), Point(1, 0)),
            Segment(Point(0, 1), Point(1, 1)),
        ]
        assert sorted(planarize(segs), key=str) == sorted(segs, key=str)

    def test_crossing_split(self):
        segs = [
            Segment(Point(0, 0), Point(2, 2)),
            Segment(Point(0, 2), Point(2, 0)),
        ]
        pieces = planarize(segs)
        assert len(pieces) == 4
        assert all(
            s.contains(Point(1, 1)) for s in pieces
        )

    def test_t_junction_split(self):
        segs = [
            Segment(Point(0, 0), Point(4, 0)),
            Segment(Point(2, 0), Point(2, 2)),
        ]
        pieces = planarize(segs)
        # Horizontal split into two; vertical untouched.
        assert len(pieces) == 3

    def test_collinear_overlap_split(self):
        segs = [
            Segment(Point(0, 0), Point(3, 0)),
            Segment(Point(1, 0), Point(4, 0)),
        ]
        pieces = planarize(segs)
        assert pieces == [
            Segment(Point(0, 0), Point(1, 0)),
            Segment(Point(1, 0), Point(3, 0)),
            Segment(Point(3, 0), Point(4, 0)),
        ]

    def test_empty_input(self):
        assert planarize([]) == planarize_allpairs([]) == []

    def test_identical_segments_dedupe(self):
        s = Segment(Point(0, 0), Point(1, 1))
        assert planarize([s, s, Segment(Point(1, 1), Point(0, 0))]) == [s]

    def test_contained_overlap(self):
        segs = [
            Segment(Point(0, 0), Point(4, 0)),
            Segment(Point(1, 0), Point(2, 0)),
        ]
        pieces = planarize(segs)
        assert len(pieces) == 3

    def test_multiple_crossings_on_one_segment(self):
        base = Segment(Point(0, 0), Point(10, 0))
        crossers = [
            Segment(Point(k, -1), Point(k, 1)) for k in (2, 5, 8)
        ]
        pieces = planarize([base, *crossers])
        horizontal = [p for p in pieces if p.a.y == 0 and p.b.y == 0]
        vertical = [p for p in pieces if p.a.x == p.b.x]
        assert len(horizontal) == 4
        assert len(vertical) == 6

    @given(st.lists(segments(), min_size=1, max_size=8))
    def test_no_proper_crossings_remain(self, segs):
        pieces = planarize(segs)
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                a, b = pieces[i], pieces[j]
                assert not segments_properly_intersect(a.a, a.b, b.a, b.b)
                kind, payload = a.intersect(b)
                assert kind != "overlap"
                if kind == "point":
                    assert payload in (a.a, a.b)
                    assert payload in (b.a, b.b)

    @given(st.lists(segments(), min_size=1, max_size=6))
    def test_endpoints_preserved(self, segs):
        pieces = planarize(segs)
        piece_pts = {p for s in pieces for p in s.endpoints()}
        for s in segs:
            assert s.a in piece_pts and s.b in piece_pts

    @given(st.lists(segments(), min_size=1, max_size=6))
    def test_deterministic(self, segs):
        assert planarize(segs) == planarize(list(reversed(segs)))


class TestDegenerateInputs:
    """Degeneracies the sweep must handle exactly as the seed does."""

    def test_collinear_overlap_chain(self):
        # A chain of segments on one line, each overlapping the next.
        segs = [
            Segment(Point(2 * i, 0), Point(2 * i + 3, 0)) for i in range(6)
        ]
        pieces = planarize(segs)
        assert pieces == planarize_allpairs(segs)
        # Breakpoints at every endpoint: 0,2,3,4,5,...,13,15.
        xs = sorted({p.x for s in pieces for p in s.endpoints()})
        expected = sorted({s.a.x for s in segs} | {s.b.x for s in segs})
        assert xs == expected
        # No two pieces overlap.
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                kind, _ = pieces[i].intersect(pieces[j])
                assert kind != "overlap"

    def test_collinear_chain_with_vertical_limb(self):
        segs = [
            Segment(Point(0, 0), Point(4, 0)),
            Segment(Point(2, 0), Point(6, 0)),
            Segment(Point(3, -1), Point(3, 1)),
        ]
        assert planarize(segs) == planarize_allpairs(segs)

    def test_shared_endpoint_star(self):
        # Many segments radiating from one center: the shared endpoint
        # must not produce cuts, and opposite rays must not merge.
        center = Point(0, 0)
        tips = [
            Point(2, 0), Point(2, 2), Point(0, 2), Point(-2, 2),
            Point(-2, 0), Point(-2, -2), Point(0, -2), Point(2, -2),
        ]
        segs = [Segment(center, t) for t in tips]
        pieces = planarize(segs)
        assert pieces == planarize_allpairs(segs)
        assert sorted(pieces, key=str) == sorted(segs, key=str)

    def test_star_with_transversal(self):
        center = Point(0, 0)
        star = [
            Segment(center, Point(4, 0)),
            Segment(center, Point(0, 4)),
            Segment(center, Point(-4, 0)),
            Segment(center, Point(0, -4)),
        ]
        transversal = [Segment(Point(-1, 2), Point(5, 2))]
        segs = star + transversal
        pieces = planarize(segs)
        assert pieces == planarize_allpairs(segs)
        # The transversal crosses the vertical arm at (0, 2).
        assert Point(0, 2) in {p for s in pieces for p in s.endpoints()}

    def test_duplicate_segments_collapse(self):
        s = Segment(Point(0, 0), Point(4, 0))
        t = Segment(Point(2, -2), Point(2, 2))
        segs = [s, s, t, Segment(t.b, t.a), s]
        pieces = planarize(segs)
        assert pieces == planarize_allpairs(segs)
        assert len(pieces) == 4  # both split at (2, 0), no duplicates

    def test_fractional_near_degenerate_offsets(self):
        eps = Fraction(1, 10**30)
        segs = [
            Segment(Point(0, 0), Point(4, 0)),
            Segment(Point(0, eps), Point(4, eps)),
            Segment(Point(2, -1), Point(2, 1)),
        ]
        assert planarize(segs) == planarize_allpairs(segs)


class TestSweepMatchesAllPairs:
    """The x-interval sweep is an optimization of the all-pairs seed:
    the outputs must agree segment-for-segment on arbitrary input.  The
    seed runs under ``exact_mode``, on the ``Fraction`` predicates, so
    it shares no code with the sweep's integer classifier."""

    @given(st.lists(segments(), min_size=1, max_size=10))
    def test_random(self, segs):
        assert planarize(segs) == _seed(segs)

    @given(
        st.lists(
            st.tuples(
                st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 3)
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_axis_aligned_grid_like(self, triples):
        # Axis-aligned segments maximize collinear overlaps and
        # T-junctions — the worst case for sweep bookkeeping.
        segs = []
        for x, y, length in triples:
            segs.append(Segment(Point(x, y), Point(x + length + 1, y)))
            segs.append(Segment(Point(x, y), Point(x, y + length + 1)))
        assert planarize(segs) == _seed(segs)

    # The integer planarizer keeps each segment on its own scale (the
    # lcm of its endpoint denominators) and each pair on the lcm of two
    # scales; the draws below mix those scales and the degeneracies the
    # integer classifier decides.

    @given(st.lists(_scaled_segments(), min_size=1, max_size=8))
    def test_mixed_denominators(self, segs):
        assert planarize(segs) == _seed(segs)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(_LINES),
                st.integers(1, 10**4),
                st.integers(-3, 3),
                st.integers(0, 3),
                st.integers(0, 10**4),
                st.integers(0, 10**4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_mixed_denominators_collinear(self, draws):
        # Pieces of a few lines, each at its own denominator: collinear
        # overlaps, shared endpoints and crossings between the lines.
        segs = []
        for (p, d), q, k, length, r1, r2 in draws:
            t0 = Fraction(k * q + r1 % q, q)
            t1 = t0 + length + Fraction(r2 % q + 1, q)
            segs.append(Segment(p + d * t0, p + d * t1))
        assert planarize(segs) == _seed(segs)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 6),
                st.integers(1, 4),
                st.sampled_from([4, 6, 8, 12, 16]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_circle_boundaries(self, circles):
        segs = [
            s
            for cx, cy, r, n in circles
            for s in AlgRegion.circle(cx, cy, r, n=n).boundary_segments()
        ]
        assert planarize(segs) == _seed(segs)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 21),
                st.integers(0, 9),
                st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]),
                st.integers(1, 12),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_rational_lattice(self, draws):
        # x in multiples of 1/7, y in multiples of 1/3: axis-parallel
        # and diagonal runs overlap, end on each other (T-junctions) and
        # cross at lattice and off-lattice points.
        segs = []
        for i, j, (dx, dy), n in draws:
            a = Point(Fraction(i, 7), Fraction(j, 3))
            b = Point(a.x + Fraction(dx * n, 7), a.y + Fraction(dy * n, 3))
            segs.append(Segment(a, b))
        assert planarize(segs) == _seed(segs)

    def test_close_cuts_on_a_falling_segment(self):
        # Cut points closer together than 1 / (largest denominator),
        # on a segment whose y falls as x grows: ordering them by x
        # needs the exact key; a key that let them tie would fall back
        # on y and reverse them.
        segs = [Segment(Point(0, 1), Point(1, 0))]
        segs += [
            Segment(Point(Fraction(1, k), -1), Point(Fraction(1, k), 2))
            for k in range(2, 31)
        ]
        assert planarize(segs) == _seed(segs)

    def test_beyond_float_range(self):
        # Coordinates float() cannot hold: no float filter, every pair
        # on integers — a crossing, a T-junction, a collinear overlap
        # and a vertex contact.
        big = Fraction(10**400)
        segs = [
            Segment(Point(0, 0), Point(big, big)),
            Segment(Point(0, big), Point(big, 0)),
            Segment(Point(0, 0), Point(big, 0)),
            Segment(Point(big / 2, 0), Point(big / 2, big / 3)),
            Segment(Point(big / 4, 0), Point(big, 0)),
            Segment(Point(big, 0), Point(big, Fraction(big, 7))),
        ]
        pieces = planarize(segs)
        assert pieces == _seed(segs)
        assert Point(big / 2, big / 2) in {p for s in pieces for p in s.endpoints()}

