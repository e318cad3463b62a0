"""Concurrency and rollup behaviour of :class:`PipelineStats`.

The threads backend records stages, counter deltas, and gauges from
worker threads while the parent mutates resilience counters — every
mutation path must merge under the lock.  The hammer tests assert exact
totals: any lost update (the racy read-modify-write this suite guards
against) shows up as a wrong sum.
"""

import threading

import pytest

from repro.pipeline import PipelineStats
from repro.tracing import Tracer

THREADS = 8
ROUNDS = 400


def hammer(worker) -> None:
    """Run *worker(thread_index)* from THREADS threads with a barrier
    start, re-raising any worker exception."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def run(i):
        barrier.wait()
        try:
            worker(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestConcurrentRecording:
    def test_record_stage_exact_totals_under_contention(self):
        stats = PipelineStats()

        def worker(i):
            for _ in range(ROUNDS):
                stats.record_stage("shared.stage", 0.001)
                stats.record_stage(f"private.stage{i}", 0.002)

        hammer(worker)
        assert stats.stage_calls["shared.stage"] == THREADS * ROUNDS
        assert stats.stage_seconds["shared.stage"] == pytest.approx(
            THREADS * ROUNDS * 0.001
        )
        for i in range(THREADS):
            assert stats.stage_calls[f"private.stage{i}"] == ROUNDS

    def test_record_counters_exact_totals_under_contention(self):
        stats = PipelineStats()

        def worker(i):
            for _ in range(ROUNDS):
                stats.record_counters({"kernel.calls": 3, "zeros": 0})

        hammer(worker)
        assert stats.counters["kernel.calls"] == THREADS * ROUNDS * 3
        assert "zeros" not in stats.counters  # zero deltas are dropped

    def test_count_and_gauge_mix_under_contention(self):
        stats = PipelineStats()

        def worker(i):
            for _ in range(ROUNDS):
                stats.count("retries")
                stats.set_gauge("store_hits", i)

        hammer(worker)
        assert stats.retries == THREADS * ROUNDS
        assert stats.store_hits in range(THREADS)  # last writer wins

    def test_all_mutators_interleaved(self):
        stats = PipelineStats()

        def worker(i):
            for r in range(ROUNDS // 4):
                stats.record_stage("mix", 0.001)
                stats.record_counters({"mix.counter": 1})
                stats.count("timeouts")
                stats.record_degradation("processes", "threads")
                stats.as_dict()  # readers must not tear either

        hammer(worker)
        n = THREADS * (ROUNDS // 4)
        assert stats.stage_calls["mix"] == n
        assert stats.counters["mix.counter"] == n
        assert stats.timeouts == n
        assert len(stats.degradations) == n


class TestTraceRollup:
    def make_trace(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        return tracer.finish()

    def test_record_trace_feeds_as_dict(self):
        stats = PipelineStats()
        stats.record_trace(self.make_trace())
        data = stats.as_dict()
        assert set(data["spans"]) == {"outer", "inner"}
        assert data["spans"]["outer"]["calls"] == 1
        assert [name for name, _ in data["critical_path"]] == [
            "outer",
            "inner",
        ]
        assert "span self-time:" in stats.summary()
        assert "critical path:" in stats.summary()

    def test_record_trace_accumulates_but_keeps_latest_path(self):
        stats = PipelineStats()
        stats.record_trace(self.make_trace())
        stats.record_trace(self.make_trace())
        data = stats.as_dict()
        assert data["spans"]["outer"]["calls"] == 2
        # The critical path is the *latest* trace's, not an accumulation.
        assert len(data["critical_path"]) == 2
