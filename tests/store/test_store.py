"""SegmentStore behaviour: round trips, reopen, windows, compaction,
rolling, and the cache/pipeline/service wiring."""

import hashlib
import random

import pytest

from repro import (
    InvariantPipeline,
    Point,
    Poly,
    Rect,
    SpatialInstance,
    canonical_hash,
    instance_key,
    invariant,
)
from repro.errors import StoreError, UnknownInstanceError
from repro.instrument import counter_delta, counter_snapshot
from repro.pipeline import InvariantCache
from repro.store import MirroredStore, Scrubber, SegmentStore
from repro.store.segment import KIND_COMPLEX


def _inst(i: int) -> SpatialInstance:
    return SpatialInstance(
        {"A": Rect(i * 8, 0, i * 8 + 3, 3), "B": Rect(i * 8 + 1, 1, i * 8 + 5, 4)}
    )


#: An ``RCX1`` cell-complex record of ``Rect(0, 0, 1, 1)``, byte for byte
#: as earlier versions of the store wrote it (segment kind 2).
RCX1_UNIT_SQUARE = bytes.fromhex(
    "524358315a0000007b2276223a312c226e616d6573223a5b2241225d2c226e76"
    "223a302c226e65223a312c226e66223a322c22657874223a312c226e696e6322"
    "3a322c226e636377223a302c22706c656e73223a5b355d2c227879223a747275"
    "657d000000000000ffffffffffffffff00000000010000000000000002000000"
    "0102000000000000000000000000000001000000000000000000000000000000"
    "0100000000000000000000000000000001000000000000000100000000000000"
    "0100000000000000010000000000000001000000000000000100000000000000"
    "0100000000000000010000000000000001000000000000000000000000000000"
    "0100000000000000000000000000000001000000000000000000000000000000"
    "0100000000000000020000000000000001000000000000000200000000000000"
    "0100000000000000010000000000000002000000000000000100000000000000"
    "0200000000000000"
)


def _fill(store, n, start=0):
    """Put n instances; returns {key: (invariant, canonical_hash)}."""
    out = {}
    for i in range(start, start + n):
        inst = _inst(i)
        t = invariant(inst)
        key = instance_key(inst)
        store.put(
            key, t, instance=inst, canonical_hash=canonical_hash(t)
        )
        out[key] = (t, canonical_hash(t))
    return out


class TestRoundTrip:
    def test_put_get_canonically_identical(self, tmp_path):
        store = SegmentStore(tmp_path)
        corpus = _fill(store, 4)
        for key, (t, h) in corpus.items():
            assert canonical_hash(store.get(key)) == h
            rec = store.get_record(key)
            assert rec.canonical_hash == h
        store.close()

    def test_geometry_rides_along(self, tmp_path):
        store = SegmentStore(tmp_path)
        inst = _inst(0)
        key = instance_key(inst)
        store.put(key, invariant(inst), instance=inst)
        assert instance_key(store.get_instance(key)) == key
        store.close()

    def test_missing_key_is_none(self, tmp_path):
        store = SegmentStore(tmp_path)
        assert store.get("ab" * 32) is None
        assert store.get_instance("ab" * 32) is None
        assert "ab" * 32 not in store
        store.close()

    def test_bad_keys_rejected(self, tmp_path):
        store = SegmentStore(tmp_path)
        with pytest.raises(StoreError):
            store.get("not-hex")
        with pytest.raises(StoreError):
            store.get(b"short")
        store.close()

    def test_raw_and_hex_keys_alias(self, tmp_path):
        store = SegmentStore(tmp_path)
        inst = _inst(1)
        t = invariant(inst)
        key = instance_key(inst)
        store.put(bytes.fromhex(key), t)
        assert store.get(key) is not None
        store.close()


class TestLegacyComplexRecords:
    def test_kind2_records_are_carried_verbatim(self, tmp_path):
        """A segment written by an earlier version may hold a complex
        record next to invariant records.  Nothing reads it, but
        reopen, compaction, scrub and mirror repair all carry it."""
        insts = [_inst(i) for i in range(3)]
        keys = [instance_key(inst) for inst in insts]
        want = {k: canonical_hash(invariant(i)) for k, i in zip(keys, insts)}
        cx_raw = hashlib.sha256(bytes.fromhex(keys[0]) + b":complex").digest()

        def check(store):
            assert sorted(store.keys()) == sorted(keys)
            assert len(store) == len(keys)
            for key in keys:
                assert canonical_hash(store.get(key)) == want[key]
            kind, payload, _ = store.get_raw(cx_raw)
            assert (kind, payload) == (KIND_COMPLEX, RCX1_UNIT_SQUARE)

        store = SegmentStore(tmp_path / "one")
        for key, inst in zip(keys, insts):
            store.put(key, invariant(inst), instance=inst)
        store.put_raw(cx_raw, RCX1_UNIT_SQUARE, KIND_COMPLEX)
        check(store)
        store.close()
        with SegmentStore(tmp_path / "one") as store:
            check(store)
            assert store.compact()["live"] == 4
            check(store)
            report = Scrubber(store).run()
            assert report.clean and report.records_verified == 4
        with SegmentStore(tmp_path / "one") as store:
            check(store)

        with MirroredStore([tmp_path / "m0", tmp_path / "m1"]) as mirror:
            for key, inst in zip(keys, insts):
                mirror.put(key, invariant(inst), instance=inst)
            mirror.replicas[1].put_raw(cx_raw, RCX1_UNIT_SQUARE, KIND_COMPLEX)
            assert mirror.replicas[0].get_raw(cx_raw) is None
            assert mirror.repair_replica(0) == 1
            check(mirror.replicas[0])

    def test_compaction_drops_orphaned_kind2_records(self, tmp_path):
        """``delete`` tombstones the invariant key only, so the complex
        record under ``sha256(key + ":complex")`` is orphaned; the next
        compaction drops it with the shadowed invariant."""
        inst = _inst(0)
        key = instance_key(inst)
        cx_raw = hashlib.sha256(bytes.fromhex(key) + b":complex").digest()
        with SegmentStore(tmp_path) as store:
            store.put(key, invariant(inst), instance=inst)
            store.put_raw(cx_raw, RCX1_UNIT_SQUARE, KIND_COMPLEX)
            store.delete(key)
            stats = store.compact()
            assert (stats["live"], stats["dropped"]) == (0, 2)
            assert len(store) == 0
            assert store.get_raw(cx_raw) is None
        with SegmentStore(tmp_path) as store:
            assert len(store) == 0
            assert store.get_raw(cx_raw) is None
            assert store.get(key) is None
            report = Scrubber(store).run()
            assert report.clean


class TestPersistence:
    def test_reopen_serves_sealed_records(self, tmp_path):
        store = SegmentStore(tmp_path)
        corpus = _fill(store, 6)
        store.close()  # seals the active segment
        fresh = SegmentStore(tmp_path)
        assert len(fresh) == 6
        for key, (_, h) in corpus.items():
            assert canonical_hash(fresh.get(key)) == h
        fresh.close()

    def test_newest_wins_within_and_across_segments(self, tmp_path):
        store = SegmentStore(tmp_path)
        inst = _inst(0)
        key = instance_key(inst)
        t_old = invariant(inst)
        t_new = invariant(_inst(9))  # different topology class? same is
        store.put(key, t_old)
        store.put(key, t_new)  # same segment overwrite
        assert canonical_hash(store.get(key)) == canonical_hash(t_new)
        store.close()
        fresh = SegmentStore(tmp_path)
        fresh.put(key, t_old)  # later segment shadows sealed one
        assert canonical_hash(fresh.get(key)) == canonical_hash(t_old)
        assert len(fresh) == 1
        fresh.close()

    def test_tombstones_shadow_and_persist(self, tmp_path):
        store = SegmentStore(tmp_path)
        corpus = _fill(store, 3)
        victim = next(iter(corpus))
        store.delete(victim)
        assert store.get(victim) is None
        assert victim not in store
        assert len(store) == 2
        store.close()
        fresh = SegmentStore(tmp_path)
        assert fresh.get(victim) is None
        assert len(fresh) == 2
        assert victim not in set(fresh.keys())
        fresh.close()

    def test_segment_rolling(self, tmp_path):
        store = SegmentStore(tmp_path, max_segment_bytes=1 << 12)
        corpus = _fill(store, 12)
        assert len(list(tmp_path.glob("seg-*.seg"))) >= 2
        for key, (_, h) in corpus.items():
            assert canonical_hash(store.get(key)) == h
        store.close()
        fresh = SegmentStore(tmp_path, max_segment_bytes=1 << 12)
        assert len(fresh) == 12
        fresh.close()


class TestWindowQueries:
    def _random_corpus(self, store, n, seed=3):
        rng = random.Random(seed)
        t = invariant(SpatialInstance({"A": Rect(0, 0, 3, 3)}))
        keys = []
        for _ in range(n):
            x, y = rng.randrange(0, 400), rng.randrange(0, 400)
            inst = SpatialInstance({"A": Rect(x, y, x + 3, y + 3)})
            key = instance_key(inst)
            store.put(key, t, instance=inst)
            keys.append(key)
        return keys

    def test_index_matches_linear_scan(self, tmp_path):
        store = SegmentStore(tmp_path, max_segment_bytes=1 << 13)
        self._random_corpus(store, 60)
        windows = [(0, 0, 50, 50), (100, 100, 260, 180), (390, 390, 500, 500)]
        for w in windows:  # active segment: brute in-dict path
            assert store.window_query(*w) == store.window_query_scan(*w)
        store.close()
        fresh = SegmentStore(tmp_path)  # sealed: Morton-range path
        hits = 0
        for w in windows:
            got = fresh.window_query(*w)
            assert got == fresh.window_query_scan(*w)
            hits += len(got)
        assert hits > 0
        fresh.close()

    def test_deletes_and_overwrites_respected(self, tmp_path):
        store = SegmentStore(tmp_path)
        keys = self._random_corpus(store, 30)
        w = (0, 0, 400, 400)
        before = store.window_query(*w)
        assert set(before) == set(keys)
        store.delete(keys[7])
        got = store.window_query(*w)
        assert keys[7] not in got
        assert got == store.window_query_scan(*w)
        store.close()

    def test_unindexed_records_are_invisible_to_windows(self, tmp_path):
        store = SegmentStore(tmp_path)
        inst = _inst(0)
        key = instance_key(inst)
        store.put(key, invariant(inst))  # no geometry, no bbox
        assert store.window_query(-1e9, -1e9, 1e9, 1e9) == []
        assert store.get(key) is not None
        store.close()


class TestCompaction:
    def test_reclaims_churn_and_preserves_live_set(self, tmp_path):
        store = SegmentStore(tmp_path, max_segment_bytes=1 << 12)
        corpus = _fill(store, 10)
        keys = list(corpus)
        for key in keys[:5]:  # overwrite churn
            store.put(key, corpus[key][0])
        for key in keys[5:7]:
            store.delete(key)
        before = store.nbytes
        stats = store.compact()
        assert stats["after"] < before
        assert stats["live"] == 8
        assert len(store) == 8
        for key in keys[5:7]:
            assert store.get(key) is None
        for key in keys[:5] + keys[7:]:
            assert canonical_hash(store.get(key)) == corpus[key][1]
        # And the compacted layout survives a reopen.
        store.close()
        fresh = SegmentStore(tmp_path)
        assert len(fresh) == 8
        assert fresh.get(keys[5]) is None
        w = fresh.window_query(-1e9, -1e9, 1e9, 1e9)
        assert w == fresh.window_query_scan(-1e9, -1e9, 1e9, 1e9)
        fresh.close()

    def test_counters_flow(self, tmp_path):
        base = counter_snapshot()
        store = SegmentStore(tmp_path)
        corpus = _fill(store, 3)
        key = next(iter(corpus))
        store.get(key)
        store.get("ab" * 32)
        store.delete(key)
        store.compact()
        delta = counter_delta(base, counter_snapshot())
        assert delta.get("store.puts", 0) >= 3
        assert delta.get("store.hits", 0) >= 1
        assert delta.get("store.misses", 0) >= 1
        assert delta.get("store.tombstones", 0) == 1
        assert delta.get("store.compactions", 0) == 1
        store.close()


class TestCacheTier:
    def test_store_backs_the_cache(self, tmp_path):
        inst = _inst(0)
        key = instance_key(inst)
        t = invariant(inst)
        store = SegmentStore(tmp_path / "seg")
        store.put(key, t)
        cache = InvariantCache(maxsize=4, store=store)
        loaded = cache.get(key)
        assert canonical_hash(loaded) == canonical_hash(t)
        assert cache.store_hits == 1
        cache.get(key)  # promoted to memory
        assert cache.store_hits == 1
        store.close()

    def test_put_writes_through(self, tmp_path):
        inst = _inst(1)
        key = instance_key(inst)
        store = SegmentStore(tmp_path / "seg")
        cache = InvariantCache(maxsize=4, store=store)
        cache.put(key, invariant(inst))
        assert store.get(key) is not None
        store.close()

    def test_pipeline_store_tier_and_gauge(self, tmp_path):
        store = SegmentStore(tmp_path / "seg")
        corpus = [_inst(i) for i in range(4)]
        with InvariantPipeline(store=store) as warm:
            hashes = [
                canonical_hash(warm.compute(inst)) for inst in corpus
            ]
        with InvariantPipeline(store=store) as cold:
            again = [
                canonical_hash(cold.compute(inst)) for inst in corpus
            ]
            stats = cold.stats.as_dict()
        assert again == hashes
        assert stats["store_hits"] == len(corpus)
        assert stats["invariants_computed"] == 0
        store.close()


class TestBulkLoad:
    @staticmethod
    def _corpus() -> list[SpatialInstance]:
        """Three geometries, each given four times; the copies of the
        quadrilateral start their vertex lists at each of its corners
        (one instance key, four stored vertex orders)."""
        quad = [Point(0, 0), Point(6, 0), Point(7, 5), Point(1, 6)]
        corpus = []
        for r in range(4):
            corpus.append(_inst(0))
            corpus.append(SpatialInstance({"Q": Poly(quad[r:] + quad[:r])}))
            corpus.append(_inst(1))
        return corpus

    @pytest.mark.parametrize("kind", ["segment", "mirrored"])
    def test_one_record_per_distinct_key(self, tmp_path, kind):
        corpus = self._corpus()
        if kind == "segment":
            store = SegmentStore(tmp_path / "bulk")
        else:
            store = MirroredStore([tmp_path / "m0", tmp_path / "m1"])
        written = []
        put = store.put

        def counting_put(key, *args, **kwargs):
            written.append(key)
            return put(key, *args, **kwargs)

        store.put = counting_put
        assert store.bulk_load(corpus, batch_size=2) == len(corpus)
        assert sorted(written) == sorted({instance_key(i) for i in corpus})

        # Newest wins: each record holds what putting every instance in
        # turn leaves visible.
        seq = SegmentStore(tmp_path / "seq")
        for inst in corpus:
            seq.put(instance_key(inst), invariant(inst), instance=inst)
        for key in written:
            got, want = store.get_instance(key), seq.get_instance(key)
            for name in want.names():
                assert got.ext(name) == want.ext(name)
                assert (
                    got.ext(name).boundary_polygon().vertices
                    == want.ext(name).boundary_polygon().vertices
                )
            assert canonical_hash(store.get(key)) == canonical_hash(seq.get(key))
        store.close()
        seq.close()


class TestServiceRegistration:
    def test_register_from_store(self, tmp_path):
        import asyncio

        from repro.service import QueryService

        inst = _inst(0)
        key = instance_key(inst)
        t = invariant(inst)
        store = SegmentStore(tmp_path / "seg")
        store.put(key, t, instance=inst)

        async def main():
            svc = QueryService(store=store)
            try:
                assert svc.register_from_store("db", key) == key
                answer = await svc.invariant_of("db")
                assert canonical_hash(answer.value) == canonical_hash(t)
            finally:
                await svc.aclose()

        asyncio.run(main())
        store.close()

    def test_register_unknown_key_raises(self, tmp_path):
        import asyncio

        from repro.service import QueryService

        store = SegmentStore(tmp_path / "seg")

        async def main():
            svc = QueryService(store=store)
            try:
                with pytest.raises(UnknownInstanceError):
                    svc.register_from_store("db", "ab" * 32)
            finally:
                await svc.aclose()

        asyncio.run(main())
        store.close()
