"""Crash safety: torn appends under seeded fault schedules, external
truncation, and the differential store == cold property."""

import os
import random

import pytest

from repro import (
    Rect,
    SpatialInstance,
    canonical_hash,
    instance_key,
    invariant,
)
from repro.errors import StoreError
from repro.faults import STORE_POINTS, Fault, FaultPlan, inject
from repro.instrument import counter_delta, counter_snapshot
from repro.pipeline import InvariantCache
from repro.store import SegmentStore


def _corpus(n, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x, y = rng.randrange(0, 200), rng.randrange(0, 200)
        w, h = rng.randrange(2, 6), rng.randrange(2, 6)
        inst = SpatialInstance(
            {"A": Rect(x, y, x + w, y + h), "B": Rect(x + 1, y + 1, x + w + 2, y + h + 1)}
        )
        out.append((instance_key(inst), inst, invariant(inst)))
    return out


class TestTornAppend:
    def test_fault_points_stay_out_of_the_default_set(self):
        from repro.faults import WORKER_POINTS

        assert "store_torn_append" in STORE_POINTS
        # Seeded plans default to the worker family; store faults are
        # opted into with points=STORE_POINTS.
        assert "store_torn_append" not in WORKER_POINTS

    def test_torn_append_poisons_then_reopen_recovers(self, tmp_path):
        corpus = _corpus(6, seed=1)
        store = SegmentStore(tmp_path)
        for key, inst, t in corpus[:5]:
            store.put(key, t, instance=inst, canonical_hash=canonical_hash(t))
        victim_key = corpus[5][0]
        plan = FaultPlan(Fault("store_torn_append", key=victim_key))
        with inject(plan):
            with pytest.raises(StoreError):
                store.put(victim_key, corpus[5][2])
        assert plan.exhausted()
        # The active segment refuses further appends until reopened.
        with pytest.raises(StoreError):
            store.put(victim_key, corpus[5][2])
        store.close()

        fresh = SegmentStore(tmp_path)
        assert len(fresh) == 5
        for key, _, t in corpus[:5]:
            assert canonical_hash(fresh.get(key)) == canonical_hash(t)
        assert fresh.get(victim_key) is None
        # And the recovered store accepts writes again.
        fresh.put(victim_key, corpus[5][2])
        assert fresh.get(victim_key) is not None
        fresh.close()

    def test_recovery_is_counted(self, tmp_path):
        corpus = _corpus(3, seed=2)
        store = SegmentStore(tmp_path)
        store.put(*[corpus[0][0], corpus[0][2]])
        plan = FaultPlan(Fault("store_torn_append"))
        with inject(plan):
            with pytest.raises(StoreError):
                store.put(corpus[1][0], corpus[1][2])
        store.close()
        base = counter_snapshot()
        fresh = SegmentStore(tmp_path)
        delta = counter_delta(base, counter_snapshot())
        assert delta.get("store.recovered_segments", 0) == 1
        assert delta.get("store.truncated_bytes", 0) > 0
        fresh.close()


class TestExternalTruncation:
    def _fill_sealed(self, tmp_path, n=6):
        corpus = _corpus(n, seed=3)
        store = SegmentStore(tmp_path)
        for key, inst, t in corpus:
            store.put(key, t, instance=inst)
        store.close()
        return corpus, next(tmp_path.glob("seg-*.seg"))

    def test_truncation_mid_record_recovers_prefix(self, tmp_path):
        import struct

        corpus, seg = self._fill_sealed(tmp_path)
        raw = seg.read_bytes()
        _, data_end, _ = struct.unpack_from("<8sQQ", raw, len(raw) - 56)
        # Cut into the last record's payload (footer and trailer gone).
        os.truncate(seg, data_end - 40)
        base = counter_snapshot()
        fresh = SegmentStore(tmp_path)
        delta = counter_delta(base, counter_snapshot())
        assert delta.get("store.recovered_segments", 0) == 1
        present = sum(1 for key, _, _ in corpus if fresh.get(key) is not None)
        assert present == len(corpus) - 1
        for key, _, t in corpus:
            got = fresh.get(key)
            if got is not None:
                assert canonical_hash(got) == canonical_hash(t)
        fresh.close()

    def test_corrupt_trailer_falls_back_to_scan(self, tmp_path):
        corpus, seg = self._fill_sealed(tmp_path)
        raw = bytearray(seg.read_bytes())
        raw[-1] ^= 0xFF  # trailer sha no longer validates
        seg.write_bytes(raw)
        fresh = SegmentStore(tmp_path)
        # The scan stops at the footer (not a record) and truncates it;
        # every record survives with its canonical hash intact.
        for key, _, t in corpus:
            assert canonical_hash(fresh.get(key)) == canonical_hash(t)
        fresh.close()

    def test_bitflip_in_payload_is_detected(self, tmp_path):
        corpus, seg = self._fill_sealed(tmp_path, n=2)
        raw = bytearray(seg.read_bytes())
        raw[200] ^= 0x10  # inside the first record's payload
        seg.write_bytes(raw)
        fresh = SegmentStore(tmp_path)
        outcomes = []
        for key, _, _ in corpus:
            try:
                outcomes.append(fresh.get(key) is not None)
            except StoreError:
                outcomes.append(False)
        # At least one record is rejected; none decodes silently wrong.
        assert not all(outcomes)
        fresh.close()


class TestDifferentialProperty:
    """A store-loaded invariant is canonically bit-identical to the
    cold-computed one — read directly or through a cache over the
    store, and also when a seeded fault schedule tears appends along
    the way."""

    def test_three_way_agreement(self, tmp_path):
        corpus = _corpus(8, seed=4)
        with SegmentStore(tmp_path) as store:
            for key, inst, t in corpus:
                store.put(key, t, instance=inst)
        with SegmentStore(tmp_path) as fresh:
            cache = InvariantCache(store=fresh)
            for key, inst, _ in corpus:
                cold = canonical_hash(invariant(inst))
                assert canonical_hash(fresh.get(key)) == cold
                assert canonical_hash(cache.get(key)) == cold
            assert cache.store_hits == len(corpus)

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_agreement_under_seeded_fault_schedules(self, tmp_path, seed):
        corpus = _corpus(10, seed=seed)
        keys = [key for key, _, _ in corpus]
        plan = FaultPlan.seeded(
            seed, keys, points=STORE_POINTS, faults=3, max_times=1
        )
        root = tmp_path / f"s{seed}"
        written = {}
        store = SegmentStore(root, max_segment_bytes=1 << 12)
        with inject(plan):
            for key, inst, t in corpus:
                try:
                    store.put(key, t, instance=inst)
                    written[key] = t
                except StoreError:
                    # Torn append: the record is lost and the segment
                    # poisoned; model a process restart.
                    store.close()
                    store = SegmentStore(root, max_segment_bytes=1 << 12)
        store.close()

        fresh = SegmentStore(root, max_segment_bytes=1 << 12)
        # Every fully-written record survived, bit-identically.
        for key, t in written.items():
            got = fresh.get(key)
            assert got is not None, "recovery lost a committed record"
            assert canonical_hash(got) == canonical_hash(t)
        # And nothing else materialized out of torn bytes.
        assert set(fresh.keys()) == set(written)
        fresh.close()
