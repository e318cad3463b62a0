"""Property-based suite for the canonical hash and the pipeline.

Three families of properties (hypothesis, derandomized by the pinned
profile in tests/conftest.py):

(a) **Transform invariance** — for random instances and random
    invertible affine maps (including reflections), the invariant of the
    image is isomorphic to the invariant of the original and the
    canonical hashes agree (Theorem 3.4, executable).
(b) **Hash agreement** — on name-identical random instances the
    canonical hash decides exactly: equal hash yields an isomorphism
    witness, unequal hash means not topologically equivalent
    (soundness *and* completeness of the canonization).
(c) **Cache transparency** — warm-cache batches return the same
    invariants as cold ones: object-for-object through the memory tier,
    canonically equal through a reopened segment store.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import invariant, topologically_equivalent
from repro.datasets import nested_rings, overlap_chain, random_rectangles
from repro.invariant import canonical_hash, find_isomorphism
from repro.pipeline import InvariantPipeline
from repro.transforms import AffineMap

_FEW = settings(max_examples=10)

seeds = st.integers(min_value=0, max_value=2_000)
sizes = st.integers(min_value=1, max_value=4)

small = st.integers(min_value=-3, max_value=3)
shifts = st.integers(min_value=-40, max_value=40)


@st.composite
def affine_maps(draw):
    """Invertible rational affine maps, reflections included."""
    a, b, d, e = draw(small), draw(small), draw(small), draw(small)
    if a * e - b * d == 0:
        a, b, d, e = 1, 0, 0, 1  # fall back to a pure translation
    return AffineMap(
        a, b, draw(shifts), d, e, Fraction(draw(shifts), 2)
    )


@st.composite
def instances(draw):
    family = draw(st.integers(min_value=0, max_value=2))
    if family == 0:
        return random_rectangles(draw(sizes), seed=draw(seeds))
    if family == 1:
        return overlap_chain(draw(st.integers(min_value=1, max_value=4)))
    return nested_rings(draw(st.integers(min_value=1, max_value=4)))


class TestTransformInvariance:
    """(a): invariant(I) ≅ invariant(t(I)) with equal canonical hash."""

    @_FEW
    @given(instances(), affine_maps())
    def test_affine_image_same_hash(self, inst, transform):
        inst = inst.polygonalized()
        moved = transform.apply_to_instance(inst)
        t1, t2 = invariant(inst), invariant(moved)
        assert find_isomorphism(t1, t2) is not None
        assert canonical_hash(t1) == canonical_hash(t2)
        assert t1 == t2

    @_FEW
    @given(instances())
    def test_reflection_image_same_hash(self, inst):
        inst = inst.polygonalized()
        mirrored = AffineMap.reflection_x().apply_to_instance(inst)
        assert canonical_hash(invariant(inst)) == canonical_hash(
            invariant(mirrored)
        )


class TestHashAgreement:
    """(b): the canonical hash decides H-equivalence exactly."""

    @_FEW
    @given(sizes, seeds, seeds)
    def test_hash_decides_equivalence(self, n, seed1, seed2):
        a = random_rectangles(n, seed=seed1)
        b = random_rectangles(n, seed=seed2)  # same names by construction
        ta, tb = invariant(a), invariant(b)
        if canonical_hash(ta) == canonical_hash(tb):
            assert find_isomorphism(ta, tb) is not None
        else:
            assert not topologically_equivalent(a, b)

    @_FEW
    @given(sizes, seeds)
    def test_hash_equality_is_invariant_equality(self, n, seed):
        """== on invariants and hash equality never disagree."""
        a = random_rectangles(n, seed=seed)
        b = random_rectangles(n, seed=seed + 1)
        ta, tb = invariant(a), invariant(b)
        assert (ta == tb) == (canonical_hash(ta) == canonical_hash(tb))


class TestCacheTransparency:
    """(c): warm results equal cold results object-for-object."""

    @_FEW
    @given(st.integers(min_value=1, max_value=8), seeds)
    def test_warm_equals_cold(self, n, seed):
        from repro.datasets import mixed_corpus

        corpus = mixed_corpus(n, seed=seed)
        pipe = InvariantPipeline()
        cold = pipe.compute_batch(corpus)
        warm = pipe.compute_batch(corpus)
        assert len(cold) == len(warm)
        for tc, tw in zip(cold, warm):
            assert tc is tw  # memory layer returns the same object
            assert tc == tw

    @_FEW
    @given(n=st.integers(min_value=1, max_value=5), seed=seeds)
    def test_disk_warm_equals_cold(self, tmp_path_factory, n, seed):
        from repro.datasets import mixed_corpus
        from repro.store import SegmentStore

        root = tmp_path_factory.mktemp("store")
        corpus = mixed_corpus(n, seed=seed)
        with SegmentStore(root) as store:
            cold_pipe = InvariantPipeline(store=store)
            cold = cold_pipe.compute_batch(corpus)
        with SegmentStore(root) as store:
            warm_pipe = InvariantPipeline(store=store)
            warm = warm_pipe.compute_batch(corpus)
        assert warm_pipe.stats.invariants_computed == 0
        assert (
            warm_pipe.stats.store_hits == cold_pipe.stats.invariants_computed
        )
        for tc, tw in zip(cold, warm):
            # Store records round-trip through the columnar codec, which
            # keeps the canonical form: same cell counts, same
            # relations, equal (and canonically equal) invariants.
            assert len(tc.all_cells()) == len(tw.all_cells())
            assert len(tc.incidences) == len(tw.incidences)
            assert canonical_hash(tc) == canonical_hash(tw)
            assert tc == tw
