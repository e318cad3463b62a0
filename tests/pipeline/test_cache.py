"""The two-tier invariant cache: LRU behaviour and the segment-store
tier's failure accounting."""

import pytest

from repro import Rect, SpatialInstance, canonical_hash, invariant
from repro.datasets import fig_1c
from repro.faults import Fault, FaultPlan, inject
from repro.invariant import instance_key
from repro.pipeline import InvariantCache, InvariantPipeline
from repro.store import SegmentStore


def _inst(i: int) -> SpatialInstance:
    return SpatialInstance({"A": Rect(0, 0, 4 + i, 4)})


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = InvariantCache(maxsize=4)
        key = instance_key(fig_1c())
        assert cache.get(key) is None
        t = invariant(fig_1c())
        cache.put(key, t)
        assert cache.get(key) is t
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = InvariantCache(maxsize=2)
        keys = [instance_key(_inst(i)) for i in range(3)]
        t = invariant(fig_1c())
        cache.put(keys[0], t)
        cache.put(keys[1], t)
        cache.get(keys[0])  # refresh 0; 1 becomes least recent
        cache.put(keys[2], t)
        assert cache.get(keys[0]) is t
        assert cache.get(keys[1]) is None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            InvariantCache(maxsize=0)

    def test_clear(self):
        cache = InvariantCache()
        key = instance_key(fig_1c())
        cache.put(key, invariant(fig_1c()))
        cache.clear()
        assert cache.get(key) is None


class TestStoreTier:
    def test_store_write_failure_is_reported(self, tmp_path):
        """A failed store write costs persistence, not the answer, and
        shows in the pipeline's stats."""
        inst = _inst(0)
        key = instance_key(inst)
        with SegmentStore(tmp_path) as store:
            with InvariantPipeline(store=store) as pipe:
                with inject(FaultPlan(Fault("store_disk_full", key=key))):
                    got = pipe.compute(inst)
                assert canonical_hash(got) == canonical_hash(invariant(inst))
                assert pipe.cache.store_write_failures == 1
                assert pipe.stats.store_write_failures == 1
                stats = pipe.stats.as_dict()
                assert stats["resilience"]["store_write_failures"] == 1
                assert "1 store write failures" in pipe.stats.summary()
                # The memory tier still serves the invariant.
                assert pipe.compute(inst) is got
            assert store.get(key) is None

    def test_corrupt_record_is_a_miss(self, tmp_path):
        """A record that fails its checksum is recomputed, not raised."""
        inst = _inst(1)
        key = instance_key(inst)
        t = invariant(inst)
        with SegmentStore(tmp_path) as store:
            store.put(key, t)
            cache = InvariantCache(store=store)
            with inject(FaultPlan(Fault("store_read_bitflip", key=key))):
                assert cache.get(key) is None
            assert (cache.misses, cache.store_hits) == (1, 0)
            cache.put(key, t)  # the fresh record shadows the rotten one
            fresh = InvariantCache(store=store)
            assert canonical_hash(fresh.get(key)) == canonical_hash(t)
            assert fresh.store_hits == 1
