"""The batch engine: backends, batch dedup, equivalence grouping,
stats plumbing."""

import pytest

from repro import (
    PipelineError,
    invariant,
    topologically_equivalent,
    tracing,
)
from repro.datasets import (
    fig_1a,
    fig_1b,
    fig_1c,
    fig_1d,
    mixed_corpus,
)
from repro.instrument import counter_delta, counter_snapshot
from repro.pipeline import (
    InvariantCache,
    InvariantPipeline,
    topologically_equivalent_batch,
)
from repro.transforms import AffineMap


def _translated(instance, dx, dy):
    return AffineMap.translation(dx, dy).apply_to_instance(
        instance.polygonalized()
    )


class TestComputeBatch:
    def test_matches_direct_computation(self):
        corpus = mixed_corpus(8, seed=11)
        results = InvariantPipeline().compute_batch(corpus)
        assert len(results) == len(corpus)
        for inst, t in zip(corpus, results):
            assert t == invariant(inst)

    def test_duplicates_computed_once(self):
        pipe = InvariantPipeline()
        batch = [fig_1c(), fig_1c(), fig_1c()]
        results = pipe.compute_batch(batch)
        assert pipe.stats.invariants_computed == 1
        assert pipe.stats.cache_hits == 2
        assert results[0] is results[1] is results[2]

    def test_warm_batch_computes_nothing(self):
        pipe = InvariantPipeline()
        corpus = mixed_corpus(6, seed=3)
        pipe.compute_batch(corpus)
        computed_cold = pipe.stats.invariants_computed
        pipe.compute_batch(corpus)
        assert pipe.stats.invariants_computed == computed_cold

    @pytest.mark.parametrize("backend", ["processes"])
    def test_parallel_backends_agree_with_serial(self, backend):
        corpus = mixed_corpus(6, seed=5)
        serial = InvariantPipeline().compute_batch(corpus)
        parallel = InvariantPipeline(
            backend=backend, workers=2
        ).compute_batch(corpus)
        assert all(a == b for a, b in zip(serial, parallel))

    def test_shared_cache_across_pipelines(self):
        cache = InvariantCache()
        corpus = mixed_corpus(5, seed=9)
        InvariantPipeline(cache=cache).compute_batch(corpus)
        second = InvariantPipeline(cache=cache)
        second.compute_batch(corpus)
        assert second.stats.invariants_computed == 0

    def test_unknown_backend_rejected(self):
        for backend in ("gpu", "threads"):
            with pytest.raises(PipelineError):
                InvariantPipeline(backend=backend)


class TestEquivalenceGroups:
    def test_figure_pairs_separate(self):
        """Fig. 1: (a, b) and (c, d) are 4-intersection equivalent but
        topologically distinct — grouping must keep all four apart while
        merging exact and translated copies."""
        corpus = [
            fig_1a(),
            fig_1b(),
            fig_1c(),
            fig_1d(),
            fig_1c(),
            _translated(fig_1a(), 100, 50),
        ]
        groups = topologically_equivalent_batch(corpus)
        partition = sorted(sorted(g) for g in groups)
        assert partition == [[0, 5], [1], [2, 4], [3]]

    def test_agrees_with_pairwise(self):
        corpus = mixed_corpus(10, seed=2)
        pipe = InvariantPipeline()
        groups = pipe.equivalence_groups(corpus)
        group_of = {
            i: g for g, members in enumerate(groups) for i in members
        }
        for i in range(len(corpus)):
            for j in range(i + 1, len(corpus)):
                expected = topologically_equivalent(corpus[i], corpus[j])
                assert (group_of[i] == group_of[j]) == expected

    def test_stats_filled(self):
        pipe = InvariantPipeline()
        corpus = mixed_corpus(10, seed=4)
        with tracing.tracing() as tracer:
            pipe.equivalence_groups(corpus)
        stats = pipe.stats.as_dict()
        assert stats["instances_seen"] == 10
        assert stats["buckets"] >= 1
        stages = tracer.finish().self_times()
        assert "invariant.build" in stages
        assert "invariant.canonicalize" in stages
        assert pipe.stats.summary()  # renders without error

    def test_kernel_counters_recorded(self):
        pipe = InvariantPipeline()
        instance = fig_1a()
        before = counter_snapshot()
        pipe.compute_batch([instance])
        counters = counter_delta(before, counter_snapshot())
        assert any(name.startswith("kernel.") for name in counters)
        # A cold arrangement build always evaluates some predicates.
        assert (
            counters.get("kernel.orientation_fast", 0)
            + counters.get("kernel.orientation_exact", 0)
            + counters.get("kernel.intersect_fast", 0)
            + counters.get("kernel.intersect_exact", 0)
            + counters.get("kernel.intersect_bbox_reject", 0)
        ) > 0

    def test_warm_batch_adds_no_kernel_work(self):
        pipe = InvariantPipeline()
        pipe.compute_batch([fig_1b()])
        # Built before the snapshot: constructing the figure itself
        # runs kernel predicates.
        warm = fig_1b()
        before = counter_snapshot()
        pipe.compute_batch([warm])  # cache hit: no geometry runs
        delta = counter_delta(before, counter_snapshot())
        assert {
            k: v for k, v in delta.items() if k.startswith("kernel.") and v
        } == {}


class TestProcessPoolLifecycle:
    def test_pool_persists_across_batches(self):
        # Batches of one run serially; two distinct misses hit the pool.
        with InvariantPipeline(backend="processes", workers=2) as pipe:
            pipe.compute_batch([fig_1a(), fig_1b()])
            pool = pipe._pool
            assert pool is not None
            pipe.cache.clear()
            pipe.compute_batch([fig_1a(), fig_1b()])
            assert pipe._pool is pool  # no per-batch pool churn
        assert pipe._pool is None  # context exit shuts it down

    def test_close_is_idempotent_and_reusable(self):
        pipe = InvariantPipeline(backend="processes", workers=2)
        pipe.close()  # never started: no-op
        pipe.compute_batch([fig_1a(), fig_1b()])
        pipe.close()
        assert pipe._pool is None
        pipe.cache.clear()
        # Still usable after close: a fresh pool is created on demand.
        got = pipe.compute_batch([fig_1a(), fig_1b()])
        assert got[1] == invariant(fig_1b())
        assert pipe._pool is not None
        pipe.close()

    def test_serial_pipeline_never_starts_pool(self):
        with InvariantPipeline() as pipe:
            pipe.compute_batch([fig_1a()])
            assert pipe._pool is None
