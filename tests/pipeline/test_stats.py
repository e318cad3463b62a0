"""Concurrency behaviour of :class:`PipelineStats`.

A query service records counters, gauges and endpoint windows from its
executor threads while its event loop records too — every mutation path
must merge under the lock.  The hammer tests assert exact totals: any lost
update (the racy read-modify-write this suite guards against) shows up
as a wrong sum.
"""

import threading

from repro.pipeline import PipelineStats

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
                stats.count("timeouts")
                stats.record_degradation("processes", "serial")
                stats.as_dict()  # readers must not tear either

        hammer(worker)
        n = THREADS * (ROUNDS // 4)
        assert stats.timeouts == n
        assert len(stats.degradations) == n
