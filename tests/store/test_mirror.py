"""MirroredStore: write-through replication, checksum-verified failover,
read-repair, down-marking, and replica repair."""

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
from repro.faults import Fault, FaultPlan, inject
from repro.instrument import counter_delta, counter_snapshot
from repro.store import MirroredStore


def _corpus(n, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x, y = rng.randrange(0, 200), rng.randrange(0, 200)
        w, h = rng.randrange(2, 6), rng.randrange(2, 6)
        inst = SpatialInstance(
            {"A": Rect(x, y, x + w, y + h), "B": Rect(x + 1, y + 1, x + w + 1, y + h + 1)}
        )
        out.append((instance_key(inst), inst, invariant(inst)))
    return {key: (inst, t) for key, inst, t in out}


def _mirror(tmp_path, n=2, **kwargs):
    return MirroredStore(
        [tmp_path / f"rep{i}" for i in range(n)], **kwargs
    )


class TestWriteThrough:
    def test_replicas_hold_bit_identical_records(self, tmp_path):
        corpus = _corpus(6, seed=1)
        with _mirror(tmp_path) as mirror:
            for key, (inst, t) in corpus.items():
                mirror.put(
                    key, t, instance=inst, canonical_hash=canonical_hash(t)
                )
            a, b = mirror.replicas
            for key in corpus:
                ra, rb = a.get_raw(key), b.get_raw(key)
                assert ra is not None and rb is not None
                assert ra[1] == rb[1], "replica payloads diverged"

    def test_reads_and_queries_delegate(self, tmp_path):
        corpus = _corpus(5, seed=2)
        with _mirror(tmp_path) as mirror:
            for key, (inst, t) in corpus.items():
                mirror.put(
                    key, t, instance=inst, canonical_hash=canonical_hash(t)
                )
            assert len(mirror) == len(corpus)
            assert set(mirror.keys()) == set(corpus)
            key = next(iter(corpus))
            inst, t = corpus[key]
            assert canonical_hash(mirror.get(key)) == canonical_hash(t)
            assert key in mirror
            assert mirror.keys_for_class(canonical_hash(t))
            assert set(
                mirror.window_query(-1e3, -1e3, 1e3, 1e3)
            ) == set(corpus)

    def test_distinct_roots_required(self, tmp_path):
        with pytest.raises(StoreError):
            MirroredStore([tmp_path / "a", tmp_path / "a"])
        with pytest.raises(StoreError):
            MirroredStore([])

    def test_delete_tombstones_every_replica(self, tmp_path):
        corpus = _corpus(3, seed=3)
        with _mirror(tmp_path) as mirror:
            for key, (inst, t) in corpus.items():
                mirror.put(key, t, instance=inst)
            victim = next(iter(corpus))
            mirror.delete(victim)
            assert mirror.get(victim) is None
            assert victim not in mirror
            for rep in mirror.replicas:
                assert rep.get(victim) is None


class TestFailoverAndReadRepair:
    def test_corrupt_replica_fails_over_and_is_repaired(self, tmp_path):
        corpus = _corpus(4, seed=4)
        with _mirror(tmp_path) as mirror:
            for key, (inst, t) in corpus.items():
                mirror.put(key, t, instance=inst)
            key = sorted(corpus)[0]
            inst, t = corpus[key]
            first = mirror.replicas[0]
            raw = bytes.fromhex(key)
            seg, entry = first._find(raw)
            seg.corrupt_payload_byte(entry)
            # The replica alone now raises...
            with pytest.raises(StoreError):
                first.get(key)
            base = counter_snapshot()
            # ...but the mirror answers bit-identically from its peer,
            # and repairs the rotted copy in passing.
            assert canonical_hash(mirror.get(key)) == canonical_hash(t)
            delta = counter_delta(base, counter_snapshot())
            assert delta.get("store.replica_read_errors", 0) >= 1
            assert delta.get("store.replica_failovers", 0) >= 1
            assert delta.get("store.replica_repairs", 0) >= 1
            # The repair landed: the replica answers on its own again.
            assert canonical_hash(first.get(key)) == canonical_hash(t)

    def test_injected_bitflip_takes_the_same_path(self, tmp_path):
        corpus = _corpus(3, seed=5)
        with _mirror(tmp_path) as mirror:
            for key, (inst, t) in corpus.items():
                mirror.put(key, t, instance=inst)
            key = sorted(corpus)[0]
            _, t = corpus[key]
            with inject(FaultPlan(Fault("store_read_bitflip", key=key))):
                assert canonical_hash(mirror.get(key)) == canonical_hash(t)
            assert canonical_hash(
                mirror.replicas[0].get(key)
            ) == canonical_hash(t)

    def test_corrupt_on_every_replica_is_an_error_never_wrong(
        self, tmp_path
    ):
        corpus = _corpus(2, seed=6)
        with _mirror(tmp_path) as mirror:
            for key, (inst, t) in corpus.items():
                mirror.put(key, t, instance=inst)
            key = sorted(corpus)[0]
            for rep in mirror.replicas:
                seg, entry = rep._find(bytes.fromhex(key))
                seg.corrupt_payload_byte(entry)
            with pytest.raises(StoreError):
                mirror.get(key)
            # The other key is untouched.
            other = sorted(corpus)[1]
            assert canonical_hash(mirror.get(other)) == canonical_hash(
                corpus[other][1]
            )


class TestReplicaFailure:
    def test_failed_append_marks_replica_down_then_repair_revives(
        self, tmp_path
    ):
        corpus = _corpus(6, seed=7)
        keys = sorted(corpus)
        base = counter_snapshot()
        with _mirror(tmp_path) as mirror:
            for key in keys[:3]:
                inst, t = corpus[key]
                mirror.put(key, t, instance=inst)
            # One replica's disk fills mid-fan-out: the put still
            # succeeds (the peer took it), the lame replica is marked
            # down.
            with inject(FaultPlan(Fault("store_disk_full", key=keys[3]))):
                inst, t = corpus[keys[3]]
                mirror.put(keys[3], t, instance=inst)
            status = mirror.replica_status()
            assert [r["up"] for r in status] == [False, True]
            delta = counter_delta(base, counter_snapshot())
            assert delta.get("store.replica_write_failures", 0) == 1
            assert delta.get("store.replica_marked_down", 0) == 1
            # Reads keep working, degraded.
            for key in keys[:4]:
                assert canonical_hash(mirror.get(key)) == canonical_hash(
                    corpus[key][1]
                )
            delta = counter_delta(base, counter_snapshot())
            assert delta.get("store.degraded_reads", 0) >= 4
            # More writes while degraded: only the up replica takes
            # them.
            for key in keys[4:]:
                inst, t = corpus[key]
                mirror.put(key, t, instance=inst)
            assert mirror.replicas[0].get(keys[4]) is None
            # Repair copies everything the lame replica missed and
            # marks it up.
            copied = mirror.repair_replica(0)
            assert copied >= 3  # keys[3:]
            assert all(r["up"] for r in mirror.replica_status())
            for key in keys:
                assert canonical_hash(
                    mirror.replicas[0].get(key)
                ) == canonical_hash(corpus[key][1])

    def test_down_replica_missed_delete_is_not_resurrected(self, tmp_path):
        corpus = _corpus(4, seed=8)
        keys = sorted(corpus)
        with _mirror(tmp_path) as mirror:
            for key in keys:
                inst, t = corpus[key]
                mirror.put(key, t, instance=inst)
            with inject(FaultPlan(Fault("store_disk_full", key=keys[0]))):
                inst, t = corpus[keys[0]]
                mirror.put(keys[0], t, instance=inst)  # marks replica 0 down
            mirror.delete(keys[1])  # replica 0 misses the tombstone
            assert mirror.replicas[0].get(keys[1]) is not None
            mirror.repair_replica(0)
            # Repair must not copy the down replica's stale record back
            # over the delete; the mirror still misses.
            assert mirror.get(keys[1]) is None

    def test_append_failing_everywhere_raises(self, tmp_path):
        corpus = _corpus(2, seed=9)
        keys = sorted(corpus)
        with _mirror(tmp_path) as mirror:
            inst, t = corpus[keys[0]]
            mirror.put(keys[0], t, instance=inst)
            with inject(
                FaultPlan(Fault("store_disk_full", key=keys[1], times=2))
            ):
                inst, t = corpus[keys[1]]
                with pytest.raises(StoreError):
                    mirror.put(keys[1], t, instance=inst)
