"""Differential tests for the zero-copy process-dispatch path.

Shipping instances to process workers as shared-memory descriptors into
columnar buffers must be invisible in results: bit-identical invariants
to serial computation on every corpus — including mixed corpora where
some instances fall back to JSON per instance — with fault recovery
intact and no ``/dev/shm`` segments leaked, even when a batch fails.
"""

import os

import pytest

from repro import ComputeError, Rect, SpatialInstance, invariant
from repro.faults import Fault, FaultPlan, inject
from repro.invariant import canonical_hash, instance_key
from repro.io import instance_to_buffer
from repro.pipeline import InvariantPipeline, RetryPolicy
from repro.pipeline.shm import ShmBatch
from repro.regions import AlgRegion


def _corpus(n: int) -> list[SpatialInstance]:
    return [
        SpatialInstance({"A": Rect(0, 0, 4 + i, 4)}) for i in range(n)
    ]


def _mixed_corpus() -> list[SpatialInstance]:
    insts = _corpus(3)
    insts.append(SpatialInstance({"C": AlgRegion.circle(0, 0, 2, n=8)}))
    insts.append(
        SpatialInstance(
            {"A": Rect(0, 0, 2, 2), "C": AlgRegion.circle(4, 4, 1, n=8)}
        )
    )
    return insts


def _policy(**kw) -> RetryPolicy:
    kw.setdefault("sleep", lambda s: None)
    return RetryPolicy(**kw)


def _shm_entries() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _hashes(backend, corpus):
    with InvariantPipeline(backend=backend, workers=2) as pipe:
        invs = pipe.compute_batch(corpus)
        stats = pipe.stats
    return [canonical_hash(t) for t in invs], stats


@pytest.mark.slow
class TestDifferential:
    def test_closed_form_corpus_bit_identical(self):
        corpus = _corpus(6)
        got, stats = _hashes("processes", corpus)
        want, _ = _hashes("serial", corpus)
        assert got == want
        assert stats.dispatch_shm == 6
        assert stats.dispatch_json == 0

    def test_mixed_corpus_falls_back_per_instance(self):
        corpus = _mixed_corpus()
        got, stats = _hashes("processes", corpus)
        want, _ = _hashes("serial", corpus)
        assert got == want
        assert stats.dispatch_shm == 3
        assert stats.dispatch_json == 2

    def test_serial_reference_agrees(self):
        # The oracle here is a plain invariant() call per instance, with
        # no pipeline, cache or pool in between.
        corpus = _mixed_corpus()
        got, _ = _hashes("processes", corpus)
        assert got == [canonical_hash(invariant(inst)) for inst in corpus]


@pytest.mark.slow
class TestFaultsOnArraysPath:
    def test_worker_crash_recovers(self):
        corpus = _corpus(6)
        key = instance_key(corpus[2])
        before = _shm_entries()
        plan = FaultPlan(Fault("worker_crash", times=1, key=key))
        with InvariantPipeline(
            backend="processes", workers=2, retry=_policy()
        ) as pipe:
            with inject(plan):
                invs = pipe.compute_batch(corpus)
        assert len(invs) == 6
        assert pipe.stats.pool_respawns == 1
        assert _shm_entries() <= before

    def test_persistent_failure_leaks_no_segments(self):
        corpus = _corpus(4)
        key = instance_key(corpus[1])
        before = _shm_entries()
        plan = FaultPlan(Fault("worker_crash", times=99, key=key))
        with InvariantPipeline(
            backend="processes", workers=2, retry=_policy()
        ) as pipe:
            with inject(plan):
                res = pipe.compute_batch(corpus, on_error="collect")
        assert [o.ok for o in res] == [True, False, True, True]
        assert isinstance(res.failures()[0].error, ComputeError)
        assert _shm_entries() <= before

    def test_repeated_batches_leak_nothing(self):
        before = _shm_entries()
        with InvariantPipeline(backend="processes", workers=2) as pipe:
            for size in (3, 5, 4):
                pipe.compute_batch(_corpus(size))
        assert _shm_entries() <= before


class TestShmBatch:
    def test_descriptors_recover_blobs(self):
        blobs = {
            "a": b"hello",
            "b": b"x" * 1000,
            "c": instance_to_buffer(_corpus(1)[0]),
        }
        before = _shm_entries()
        batch = ShmBatch.create(blobs)
        try:
            for key, blob in blobs.items():
                name, off, size = batch.descriptor(key)
                assert name == batch.shm.name
                assert size == len(blob)
                assert bytes(batch.shm.buf[off : off + size]) == blob
            # Windows are 8-byte aligned for in-place int64 views.
            for key in blobs:
                assert batch.descriptor(key)[1] % 8 == 0
        finally:
            batch.close()
        assert _shm_entries() <= before

    def test_close_is_idempotent(self):
        before = _shm_entries()
        batch = ShmBatch.create({"k": b"data"})
        batch.close()
        batch.close()
        assert _shm_entries() <= before

    def test_context_manager_unlinks(self):
        before = _shm_entries()
        with ShmBatch.create({"k": b"data"}) as batch:
            name = batch.shm.name
            assert name.lstrip("/") in _shm_entries()
        assert _shm_entries() <= before
