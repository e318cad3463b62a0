"""Tests for the numpy-batched segment-pair filters.

Every certified verdict of the batched classifier must be the scalar
exact kernel's answer, pair for pair — on random inputs, on exact
degeneracies (collinear triples, endpoint contacts, overlapping
collinear segments), on near-degeneracies below float resolution, and
on coordinates whose float products overflow.  Verdict semantics and
counter accounting are pinned down separately, since the sweep and the
benchmarks rely on them.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.arrangement import planarize, planarize_allpairs
from repro.geometry import Point, Segment, batchkernel, fastkernel
from repro.geometry.batchkernel import (
    AMBIGUOUS,
    BBOX_REJECT,
    CERT_CROSS,
    CERT_NONE,
    classify_pairs,
    classify_pairs_counted,
    segments_to_array,
)
from repro.geometry.predicates import segments_properly_intersect

coords = st.fractions(min_value=-1000, max_value=1000, max_denominator=997)
points = st.builds(Point, coords, coords)


@st.composite
def segments(draw):
    a = draw(points)
    b = draw(points.filter(lambda p: p != a))
    return Segment(a, b)


def assert_batch_agrees(pairs):
    """Each certified verdict is a proof of the exact kernel's answer:
    rejects are disjoint pairs, crossings are proper crossings."""
    if not pairs:
        return
    P = segments_to_array([s for s, _ in pairs])
    Q = segments_to_array([t for _, t in pairs])
    verdicts = classify_pairs(P, Q)
    for v, (s, t) in zip(verdicts.tolist(), pairs):
        kind, _ = fastkernel.segment_intersection(s.a, s.b, t.a, t.b)
        if v in (BBOX_REJECT, CERT_NONE):
            assert kind == "none"
        elif v == CERT_CROSS:
            assert kind == "point"
            assert segments_properly_intersect(s.a, s.b, t.a, t.b)


class TestAgreesWithScalar:
    @given(st.lists(st.tuples(segments(), segments()), max_size=12))
    def test_random_pairs(self, pairs):
        assert_batch_agrees(pairs)

    @given(segments(), st.integers(-2, 3), st.integers(-2, 3))
    def test_collinear_on_same_support(self, s, k1, k2):
        """Both segments on one supporting line: disjoint, touching, or
        overlapping collinear — all exact degeneracies."""
        if k1 == k2:
            return
        d = s.b - s.a
        c1 = Point(s.a.x + d.x * k1, s.a.y + d.y * k1)
        c2 = Point(s.a.x + d.x * k2, s.a.y + d.y * k2)
        assert_batch_agrees([(s, Segment(c1, c2))])

    @given(segments(), points)
    def test_endpoint_touching(self, s, d):
        if d == s.a or d == s.b:
            return
        assert_batch_agrees(
            [(s, Segment(s.a, d)), (s, Segment(d, s.b))]
        )

    @given(segments(), st.sampled_from([1, -1]), st.integers(30, 45))
    def test_near_epsilon_offset_forces_exact_fallback(self, s, sign, mag):
        """A segment ending 10^-mag off the support line: the float
        filter cannot certify any orientation, so the pair must be
        AMBIGUOUS and resolve through the exact kernel."""
        d = s.b - s.a
        eps = Fraction(sign, 10**mag)
        tip = Point(
            s.a.x + d.x - d.y * eps,
            s.a.y + d.y + d.x * eps,
        )
        if tip == s.b:
            return
        t = Segment(s.a, tip)
        P = segments_to_array([s])
        Q = segments_to_array([t])
        assert classify_pairs(P, Q)[0] == AMBIGUOUS
        assert_batch_agrees([(s, t)])

    def test_overflowing_coordinates_fall_back_wholesale(self):
        big = Fraction(10**400)
        s = Segment(Point(0, 0), Point(big, 0))
        assert segments_to_array([s]) is None
        # Float-range coordinates whose orientation products overflow
        # stay uncertified.
        huge = 10**200
        s = Segment(Point(0, 0), Point(huge, huge))
        t = Segment(Point(huge, 0), Point(0, huge))
        u = Segment(Point(huge, 0), Point(2 * huge, huge))
        P = segments_to_array([s, s])
        Q = segments_to_array([t, u])
        assert classify_pairs(P, Q).tolist() == [AMBIGUOUS, AMBIGUOUS]
        assert_batch_agrees([(s, t), (s, u)])

    def test_exact_mode_bypasses_the_batch_filter(self):
        s = Segment(Point(0, 0), Point(4, 0))
        t = Segment(Point(1, -1), Point(1, 1))
        fastkernel.counters.reset()
        with fastkernel.exact_mode():
            pieces = planarize([s, t])
        assert pieces == planarize_allpairs([s, t])
        assert len(pieces) == 4
        assert fastkernel.counters.batch_pairs == 0
        assert fastkernel.counters.intersect_exact == 1


class TestVerdictSemantics:
    def pair(self, s, t):
        return classify_pairs(segments_to_array([s]), segments_to_array([t]))[0]

    def test_disjoint_bboxes_reject(self):
        s = Segment(Point(0, 0), Point(1, 1))
        t = Segment(Point(5, 5), Point(6, 6))
        assert self.pair(s, t) == BBOX_REJECT

    def test_touching_bboxes_do_not_reject(self):
        # Float-equal bbox bounds are a tie: soundness demands the
        # verdict falls through to the orientation filters.
        s = Segment(Point(0, 0), Point(4, 0))
        t = Segment(Point(4, 0), Point(6, 2))
        assert self.pair(s, t) == AMBIGUOUS

    def test_separated_with_overlapping_bboxes(self):
        s = Segment(Point(0, 0), Point(4, 4))
        t = Segment(Point(3, 0), Point(5, 1))
        assert self.pair(s, t) == CERT_NONE

    def test_proper_crossing(self):
        s = Segment(Point(0, 0), Point(4, 4))
        t = Segment(Point(0, 4), Point(4, 0))
        assert self.pair(s, t) == CERT_CROSS

    def test_t_junction_is_ambiguous(self):
        s = Segment(Point(0, 0), Point(4, 0))
        t = Segment(Point(2, 0), Point(2, 3))
        assert self.pair(s, t) == AMBIGUOUS

    @given(st.lists(st.tuples(segments(), segments()), max_size=10))
    def test_certified_verdicts_are_proofs(self, pairs):
        """Each non-AMBIGUOUS verdict must match the exact answer."""
        if not pairs:
            return
        P = segments_to_array([s for s, _ in pairs])
        Q = segments_to_array([t for _, t in pairs])
        verdicts = classify_pairs(P, Q)
        for v, (s, t) in zip(verdicts.tolist(), pairs):
            kind, _ = fastkernel.segment_intersection(s.a, s.b, t.a, t.b)
            if v in (BBOX_REJECT, CERT_NONE):
                assert kind == "none"
            elif v == CERT_CROSS:
                assert kind == "point"


class TestCounters:
    def test_accounting_sums(self):
        segs_p = [
            Segment(Point(0, 0), Point(1, 1)),  # bbox reject vs far
            Segment(Point(0, 0), Point(4, 4)),  # proper cross
            Segment(Point(0, 0), Point(4, 0)),  # T-junction: ambiguous
        ]
        segs_q = [
            Segment(Point(5, 5), Point(6, 6)),
            Segment(Point(0, 4), Point(4, 0)),
            Segment(Point(2, 0), Point(2, 3)),
        ]
        fastkernel.counters.reset()
        verdicts = classify_pairs_counted(
            segments_to_array(segs_p), segments_to_array(segs_q)
        )
        assert verdicts.tolist() == [BBOX_REJECT, CERT_CROSS, AMBIGUOUS]
        c = fastkernel.counters
        assert c.batch_pairs == 3
        assert c.batch_certified == 2
        assert c.batch_fallback == 1
        assert c.intersect_bbox_reject == 1
        assert c.intersect_fast == 1
        # The ambiguous pair is only counted by the exact
        # classification the caller then makes — not double-counted
        # here.
        assert c.intersect_exact == 0


class TestArrayBuilders:
    @given(st.lists(segments(), max_size=8))
    def test_segments_to_array_columns(self, segs):
        arr = segments_to_array(segs)
        assert arr.shape == (len(segs), 4)
        for row, s in zip(arr.tolist(), segs):
            assert row == [
                float(s.a.x), float(s.a.y), float(s.b.x), float(s.b.y)
            ]

    def test_points_to_array_overflow(self):
        pts = [Point(0, 0), Point(Fraction(10**400), 1)]
        assert batchkernel.points_to_array(pts) is None

    def test_empty_batch(self):
        arr = segments_to_array([])
        assert arr.shape == (0, 4)
        assert classify_pairs(arr, arr).shape == (0,)
