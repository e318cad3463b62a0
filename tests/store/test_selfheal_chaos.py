"""The headline self-healing property (ISSUE 9): under any seeded
schedule of the new ``STORE_POINTS`` faults with at most one replica
failed per key, every read through the mirror is bit-identical to a
clean run or a structured :class:`StoreError` — never silently wrong —
and a full scrub converges to zero defects, after which every key
answers bit-identically again on every replica."""

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
from repro.store import MirroredStore, Scrubber


def _corpus(n, seed):
    rng = random.Random(seed)
    out = {}
    while len(out) < n:
        x, y = rng.randrange(0, 400), rng.randrange(0, 400)
        w, h = rng.randrange(2, 6), rng.randrange(2, 6)
        inst = SpatialInstance(
            {"A": Rect(x, y, x + w, y + h), "B": Rect(x + 1, y + 1, x + w + 1, y + h + 1)}
        )
        out[instance_key(inst)] = (inst, invariant(inst))
    return out


def _seeded_schedule(seed, keys):
    """A pseudo-random schedule over the four at-rest/IO fault points
    that honours the "at most one replica failed per key" precondition:
    key-pinned faults fire once (so only the first replica touched is
    hit), and the key-less seal-crash spec hits segment plumbing, not
    records."""
    rng = random.Random(seed)
    victims = rng.sample(sorted(keys), k=min(4, len(keys)))
    per_key_points = ("store_read_bitflip", "store_fsync_lost", "store_disk_full")
    specs = [
        Fault(rng.choice(per_key_points), times=1, key=key)
        for key in victims
    ]
    specs.append(Fault("store_seal_crash", times=1))
    rng.shuffle(specs)
    return FaultPlan(*specs)


class TestFaultPointRegistry:
    def test_new_points_live_in_store_points_only(self):
        from repro.faults import WORKER_POINTS

        for point in (
            "store_read_bitflip",
            "store_fsync_lost",
            "store_disk_full",
            "store_seal_crash",
        ):
            assert point in STORE_POINTS
            # Each point belongs to exactly one family; seeded plans
            # default to the worker family.
            assert point not in WORKER_POINTS


class TestSelfHealingDifferential:
    @pytest.mark.parametrize("seed", [5, 17, 29, 43, 61])
    def test_never_wrong_and_scrub_converges(self, tmp_path, seed):
        corpus = _corpus(14, seed=seed)
        clean = {
            key: canonical_hash(t) for key, (_, t) in corpus.items()
        }
        base = counter_snapshot()
        with MirroredStore(
            [tmp_path / "rep0", tmp_path / "rep1"],
            max_segment_bytes=1 << 12,
            sync="always",  # so fsync faults fire on the append path
        ) as mirror:
            # Clean load first: the baseline corpus all replicas hold.
            for key, (inst, t) in corpus.items():
                mirror.put(
                    key, t, instance=inst, canonical_hash=canonical_hash(t)
                )
            plan = _seeded_schedule(seed, corpus)
            with inject(plan):
                # Write phase under fire: overwrite puts may lose one
                # replica per key (marked down), never both — so every
                # put either succeeds or fails structurally, and a
                # failed replica is repaired before the next write.
                for key in sorted(corpus):
                    inst, t = corpus[key]
                    try:
                        mirror.put(key, t, instance=inst)
                    except StoreError:
                        pass  # structured, allowed; never silent
                    for i, status in enumerate(mirror.replica_status()):
                        if not status["up"]:
                            mirror.repair_replica(i)

                # Read phase under fire: every answer is bit-identical
                # to the clean run or a structured error.
                wrong = 0
                for key in sorted(corpus):
                    try:
                        got = mirror.get(key)
                    except StoreError:
                        continue  # structured, allowed
                    if got is None or canonical_hash(got) != clean[key]:
                        wrong += 1
                assert wrong == 0, "a chaos read returned a wrong answer"

                # Scrub to convergence while faults can still fire.
                report = Scrubber(mirror, records_per_step=32).run_until_clean()
                assert report.clean

            # Fault plan gone: the store must now be fully healed.
            for i, status in enumerate(mirror.replica_status()):
                if not status["up"]:
                    mirror.repair_replica(i)
            final = Scrubber(mirror, records_per_step=64).run()
            assert final.clean and final.defects == 0
            for key in sorted(corpus):
                assert canonical_hash(mirror.get(key)) == clean[key]
                for rep in mirror.replicas:
                    got = rep.get(key)
                    assert got is not None
                    assert canonical_hash(got) == clean[key]

        delta = counter_delta(base, counter_snapshot())
        assert delta.get("fault.store_read_bitflip", 0) + delta.get(
            "fault.store_fsync_lost", 0
        ) + delta.get("fault.store_disk_full", 0) + delta.get(
            "fault.store_seal_crash", 0
        ) > 0, "the schedule never fired — the test exercised nothing"
        assert delta.get("scrub.records_verified", 0) > 0

    def test_query_differential_through_the_window_index(self, tmp_path):
        """Window-query answers over a healed store match a never-
        faulted twin exactly."""
        corpus = _corpus(14, seed=71)
        roots = [tmp_path / "rep0", tmp_path / "rep1"]
        with MirroredStore(roots, max_segment_bytes=1 << 12) as mirror, \
                MirroredStore(
                    [tmp_path / "clean0", tmp_path / "clean1"],
                    max_segment_bytes=1 << 12,
                ) as pristine:
            for key, (inst, t) in corpus.items():
                mirror.put(key, t, instance=inst)
                pristine.put(key, t, instance=inst)
            plan = _seeded_schedule(71, corpus)
            with inject(plan):
                for key in sorted(corpus):
                    try:
                        mirror.get(key)
                    except StoreError:
                        pass
                Scrubber(mirror, records_per_step=32).run_until_clean()
            for window in [(-1e3, -1e3, 1e3, 1e3), (0, 0, 200, 200), (100, 100, 160, 180)]:
                assert mirror.window_query(*window) == pristine.window_query(
                    *window
                )
