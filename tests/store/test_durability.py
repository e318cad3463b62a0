"""The durability contract: sync policies, structured append failures
(ENOSPC / lost fsync), crash-safe sealing, compaction under corruption,
and the context-manager lifecycle."""

import random
from errno import EIO, ENOSPC

import pytest

from repro import (
    Rect,
    SpatialInstance,
    canonical_hash,
    instance_key,
    invariant,
)
from repro.errors import StoreError
from repro.faults import Fault, FaultPlan, inject
from repro.instrument import counter_delta, counter_snapshot
from repro.store import SYNC_POLICIES, MirroredStore, SegmentStore


def _corpus(n, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x, y = rng.randrange(0, 200), rng.randrange(0, 200)
        w, h = rng.randrange(2, 6), rng.randrange(2, 6)
        inst = SpatialInstance(
            {"A": Rect(x, y, x + w, y + h)}
        )
        out.append((instance_key(inst), inst, invariant(inst)))
    return out


class TestSyncPolicies:
    def test_the_three_policies(self):
        assert SYNC_POLICIES == ("never", "seal", "always")

    def test_default_is_seal(self, tmp_path):
        with SegmentStore(tmp_path) as store:
            assert store.sync == "seal"

    def test_unknown_policy_is_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            SegmentStore(tmp_path, sync="paranoid")

    @pytest.mark.parametrize("sync", SYNC_POLICIES)
    def test_round_trip_under_each_policy(self, tmp_path, sync):
        corpus = _corpus(4, seed=1)
        with SegmentStore(tmp_path / sync, sync=sync) as store:
            for key, inst, t in corpus:
                store.put(key, t, instance=inst)
        with SegmentStore(tmp_path / sync, sync=sync) as fresh:
            for key, _, t in corpus:
                assert canonical_hash(fresh.get(key)) == canonical_hash(t)


class TestDiskFull:
    def test_enospc_fails_structurally_and_store_stays_usable(self, tmp_path):
        corpus = _corpus(4, seed=2)
        store = SegmentStore(tmp_path)
        for key, inst, t in corpus[:2]:
            store.put(key, t, instance=inst)
        victim = corpus[2]
        base = counter_snapshot()
        with inject(FaultPlan(Fault("store_disk_full", key=victim[0]))):
            with pytest.raises(StoreError) as err:
                store.put(victim[0], victim[2], instance=victim[1])
        assert err.value.errno == ENOSPC
        assert err.value.op == "append"
        delta = counter_delta(base, counter_snapshot())
        assert delta.get("store.append_errors", 0) == 1
        # The failed append retired the segment; earlier records are
        # still served and the store accepts writes again.
        assert delta.get("store.segments_rolled", 0) == 1
        for key, _, t in corpus[:2]:
            assert canonical_hash(store.get(key)) == canonical_hash(t)
        assert store.get(victim[0]) is None
        store.put(victim[0], victim[2], instance=victim[1])
        assert canonical_hash(store.get(victim[0])) == canonical_hash(
            victim[2]
        )
        store.close()

    def test_survivors_are_intact_after_reopen(self, tmp_path):
        corpus = _corpus(3, seed=3)
        store = SegmentStore(tmp_path)
        store.put(corpus[0][0], corpus[0][2], instance=corpus[0][1])
        with inject(FaultPlan(Fault("store_disk_full"))):
            with pytest.raises(StoreError):
                store.put(corpus[1][0], corpus[1][2])
        store.close()
        with SegmentStore(tmp_path) as fresh:
            assert set(fresh.keys()) == {corpus[0][0]}


class TestFsyncLost:
    def test_lost_fsync_on_append_drops_the_record(self, tmp_path):
        corpus = _corpus(3, seed=4)
        store = SegmentStore(tmp_path, sync="always")
        store.put(corpus[0][0], corpus[0][2], instance=corpus[0][1])
        with inject(FaultPlan(Fault("store_fsync_lost", key=corpus[1][0]))):
            with pytest.raises(StoreError) as err:
                store.put(corpus[1][0], corpus[1][2])
        assert err.value.errno == EIO
        # The unacknowledged record left no trace, on disk or in the
        # index; the put after it lands normally.
        assert store.get(corpus[1][0]) is None
        store.put(corpus[2][0], corpus[2][2])
        store.close()
        with SegmentStore(tmp_path) as fresh:
            assert set(fresh.keys()) == {corpus[0][0], corpus[2][0]}

    def test_lost_fsync_at_seal_costs_the_footer_not_the_records(
        self, tmp_path
    ):
        corpus = _corpus(4, seed=5)
        store = SegmentStore(tmp_path, sync="seal")
        for key, inst, t in corpus:
            store.put(key, t, instance=inst)
        base = counter_snapshot()
        with inject(FaultPlan(Fault("store_fsync_lost"))):
            store.close()  # tolerated: counted, never raised
        delta = counter_delta(base, counter_snapshot())
        assert delta.get("store.seal_failures", 0) == 1
        with SegmentStore(tmp_path) as fresh:
            for key, _, t in corpus:
                assert canonical_hash(fresh.get(key)) == canonical_hash(t)


class TestSealCrash:
    def test_crash_mid_seal_recovers_every_record(self, tmp_path):
        corpus = _corpus(5, seed=6)
        store = SegmentStore(tmp_path)
        for key, inst, t in corpus:
            store.put(key, t, instance=inst)
        base = counter_snapshot()
        with inject(FaultPlan(Fault("store_seal_crash"))):
            store.close()
        delta = counter_delta(base, counter_snapshot())
        assert delta.get("store.seal_failures", 0) == 1
        # The footer bytes on disk are garbage past data_end; reopening
        # falls back to the recovery scan and re-seals.
        with SegmentStore(tmp_path) as fresh:
            for key, _, t in corpus:
                assert canonical_hash(fresh.get(key)) == canonical_hash(t)

    def test_seal_crash_while_rolling_keeps_the_store_writable(
        self, tmp_path
    ):
        corpus = _corpus(8, seed=7)
        store = SegmentStore(tmp_path, max_segment_bytes=1 << 12)
        with inject(FaultPlan(Fault("store_seal_crash", times=2))):
            for key, inst, t in corpus:
                store.put(key, t, instance=inst)
        for key, _, t in corpus:
            assert canonical_hash(store.get(key)) == canonical_hash(t)
        store.close()
        with SegmentStore(tmp_path, max_segment_bytes=1 << 12) as fresh:
            assert set(fresh.keys()) == {key for key, _, _ in corpus}


class TestContextManager:
    def test_segment_store_closes_on_exit_and_is_idempotent(self, tmp_path):
        corpus = _corpus(2, seed=8)
        with SegmentStore(tmp_path) as store:
            store.put(corpus[0][0], corpus[0][2])
            assert not store.closed
        assert store.closed
        store.close()  # second close is a no-op
        with pytest.raises(StoreError) as err:
            store.get(corpus[0][0])
        assert err.value.op == "read"
        with pytest.raises(StoreError):
            store.put(corpus[1][0], corpus[1][2])

    def test_mirrored_store_is_a_context_manager(self, tmp_path):
        corpus = _corpus(2, seed=9)
        with MirroredStore([tmp_path / "a", tmp_path / "b"]) as mirror:
            mirror.put(corpus[0][0], corpus[0][2])
            assert not mirror.closed
        assert mirror.closed
        assert all(rep.closed for rep in mirror.replicas)
        mirror.close()  # idempotent


class TestCompactionUnderCorruption:
    def test_corrupt_record_is_dropped_not_spread(self, tmp_path):
        corpus = _corpus(24, seed=10)
        store = SegmentStore(tmp_path, max_segment_bytes=1 << 12)
        for key, inst, t in corpus:
            store.put(key, t, instance=inst)
        store.flush()
        assert store.sealed_segments(), "corpus too small to roll"
        # Rot one record at rest in the first sealed segment.
        seg = store.sealed_segments()[0]
        raw, entry = next(
            (r, e) for r, e in seg.live_items() if e.kind == 1
        )
        seg.corrupt_payload_byte(entry)
        base = counter_snapshot()
        stats = store.compact()
        delta = counter_delta(base, counter_snapshot())
        assert delta.get("store.compaction_skipped_corrupt", 0) == 1
        # The rotted record is gone (a structured miss), every other
        # record survived bit-identically, and nothing wrong survived.
        lost = 0
        for key, _, t in corpus:
            got = store.get(key)
            if got is None:
                lost += 1
            else:
                assert canonical_hash(got) == canonical_hash(t)
        assert lost == 1
        assert stats["live"] == len(corpus) - 1
        store.close()
