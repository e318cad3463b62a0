"""Fault-tolerant pipeline execution.

Every recovery path of :mod:`repro.pipeline.resilience` under the
deterministic fault-injection harness of :mod:`repro.faults`:
per-instance isolation (raise / skip / collect), retry with
deterministic backoff, process-pool crash respawn, per-task timeouts,
backend degradation, pool lifecycle after failures, cooperative
deadlines in the compiled query engine — plus a hypothesis property:
under *any* seeded fault schedule the pipeline returns correct
invariants or structured failures, never wrong answers and never a
hang.
"""

import multiprocessing
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ComputeError,
    PipelineError,
    Rect,
    SpatialInstance,
    WorkerError,
    invariant,
)
from repro import errors as repro_errors
from repro.faults import (
    STORE_POINTS,
    WORKER_POINTS,
    Fault,
    FaultPlan,
    InjectedFailure,
    active,
    inject,
)
from repro.instrument import Deadline, counter_delta, counter_snapshot
from repro.invariant import canonical_hash, instance_key
from repro.pipeline import BatchResult, InvariantPipeline, RetryPolicy
from repro.pipeline.resilience import Outcome
from repro.store import SegmentStore


def _inst(i: int) -> SpatialInstance:
    return SpatialInstance({"A": Rect(0, 0, 4 + i, 4)})


def _corpus(n: int) -> list[SpatialInstance]:
    return [_inst(i) for i in range(n)]


def _policy(**kw) -> RetryPolicy:
    kw.setdefault("sleep", lambda s: None)
    return RetryPolicy(**kw)


# -- retry policy -------------------------------------------------------------


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        p1 = RetryPolicy(seed=7)
        p2 = RetryPolicy(seed=7)
        assert p1.delay("k", 1) == p2.delay("k", 1)
        assert p1.delay("k", 1) != p1.delay("k", 2)
        assert RetryPolicy(seed=8).delay("k", 1) != p1.delay("k", 1)

    def test_delay_exponential_and_capped(self):
        p = RetryPolicy(backoff_base=0.1, backoff_cap=0.3, jitter=0.0)
        assert p.delay("k", 1) == pytest.approx(0.1)
        assert p.delay("k", 2) == pytest.approx(0.2)
        assert p.delay("k", 5) == pytest.approx(0.3)  # capped

    def test_jitter_bounds(self):
        p = RetryPolicy(backoff_base=1.0, backoff_cap=10.0, jitter=0.25)
        for key in ("a", "b", "c", "d"):
            assert 0.75 <= p.delay(key, 1) <= 1.25

    def test_should_retry_classifies(self):
        p = RetryPolicy(max_attempts=3)
        assert p.should_retry(WorkerError("w"), 1)
        assert p.should_retry(repro_errors.TimeoutError("t"), 2)
        assert p.should_retry(InjectedFailure("i"), 1)
        assert not p.should_retry(ValueError("deterministic"), 1)
        assert not p.should_retry(WorkerError("w"), 3)  # budget spent

    def test_backoff_calls_injected_sleep(self):
        slept = []
        p = RetryPolicy(
            backoff_base=0.5, jitter=0.0, sleep=slept.append
        )
        p.backoff("k", 1)
        assert slept == [pytest.approx(0.5)]

    def test_validates_max_attempts(self):
        with pytest.raises(PipelineError):
            RetryPolicy(max_attempts=0)


# -- outcomes and batch results -----------------------------------------------


class TestOutcome:
    def test_failure_wraps_foreign_exception(self):
        out = Outcome.failure("k1", ValueError("bad"), 2, "threads")
        assert not out.ok
        assert isinstance(out.error, ComputeError)
        assert out.error.key == "k1"
        assert out.error.stage == "threads"
        assert out.error.attempts == 2
        assert isinstance(out.error.__cause__, ValueError)
        assert "ValueError" in out.traceback

    def test_failure_keeps_compute_error(self):
        exc = WorkerError("died", key="k2", stage="processes")
        out = Outcome.failure("k2", exc, 3, "processes")
        assert out.error is exc
        assert out.error.attempts == 3


class TestBatchResult:
    def _mixed(self, mode):
        outs = [
            Outcome.success("a", 1, 1),
            Outcome.failure("b", ValueError("x"), 2, "serial"),
            Outcome.success("c", 3, 1),
        ]
        return BatchResult(outs, mode=mode)

    def test_skip_iterates_successes(self):
        res = self._mixed("skip")
        assert list(res) == [1, 3]
        assert len(res) == 2
        assert res[1] == 3

    def test_collect_iterates_outcomes(self):
        res = self._mixed("collect")
        assert len(res) == 3
        assert [o.ok for o in res] == [True, False, True]
        assert res.invariants() == [1, 3]
        assert [o.key for o in res.failures()] == ["b"]
        assert not res.ok

    def test_strict_raises_first_failure(self):
        with pytest.raises(ComputeError):
            self._mixed("collect").strict()

    def test_mode_validated(self):
        with pytest.raises(PipelineError):
            BatchResult([], mode="raise")


class TestErrorTypes:
    def test_timeout_error_is_builtin_timeout(self):
        exc = repro_errors.TimeoutError("slow", key="k", stage="s")
        assert isinstance(exc, TimeoutError)
        assert isinstance(exc, ComputeError)
        assert exc.key == "k"


# -- the fault harness itself -------------------------------------------------


class TestFaultPlan:
    def test_draw_fires_then_exhausts(self):
        plan = FaultPlan(Fault("worker_crash", times=2))
        assert plan.draw("worker_crash", "k")["point"] == "worker_crash"
        assert plan.draw("worker_crash", "k") is not None
        assert plan.draw("worker_crash", "k") is None
        assert plan.exhausted()
        assert plan.fired == {"worker_crash": 2}
        assert plan.log == [("worker_crash", "k"), ("worker_crash", "k")]

    def test_after_skips_matches(self):
        plan = FaultPlan(Fault("worker_hang", after=2))
        assert plan.draw("worker_hang") is None
        assert plan.draw("worker_hang") is None
        assert plan.draw("worker_hang") is not None

    def test_key_scoping(self):
        plan = FaultPlan(Fault("invariant_raises", key="k1"))
        assert plan.draw("invariant_raises", "k2") is None
        assert plan.draw("invariant_raises", "k1") is not None

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            Fault("power_cut")

    def test_seeded_plans_are_reproducible(self):
        keys = ["a", "b", "c"]
        p1 = FaultPlan.seeded(42, keys, faults=5)
        p2 = FaultPlan.seeded(42, keys, faults=5)
        specs = lambda p: [  # noqa: E731
            (f.point, f.times, f.after, f.key) for f in p._faults
        ]
        assert specs(p1) == specs(p2)
        assert specs(p1) != specs(FaultPlan.seeded(43, keys, faults=5))

    def test_inject_scopes_and_nests(self):
        outer, inner = FaultPlan(), FaultPlan()
        assert active() is None
        with inject(outer):
            assert active() is outer
            with inject(inner):
                assert active() is inner
            assert active() is outer
        assert active() is None


# -- per-instance isolation ---------------------------------------------------


class TestIsolationModes:
    def _fail_one(self, insts, idx, **pipe_kw):
        keys = [instance_key(i) for i in insts]
        plan = FaultPlan(
            Fault("invariant_raises", times=99, key=keys[idx])
        )
        pipe = InvariantPipeline(
            retry=_policy(max_attempts=2), **pipe_kw
        )
        return pipe, plan, keys

    def test_raise_names_instance_and_spares_siblings(self):
        insts = _corpus(4)
        pipe, plan, keys = self._fail_one(insts, 2)
        with inject(plan):
            with pytest.raises(ComputeError) as exc_info:
                pipe.compute_batch(insts)
        assert exc_info.value.key == keys[2]
        assert exc_info.value.attempts == 2
        assert isinstance(exc_info.value.__cause__, InjectedFailure)
        # Every sibling was computed and cached before the raise.
        for key in keys[0:2] + keys[3:]:
            assert pipe.cache.get(key) is not None

    def test_skip_drops_failures(self):
        insts = _corpus(4)
        pipe, plan, keys = self._fail_one(insts, 1)
        with inject(plan):
            res = pipe.compute_batch(insts, on_error="skip")
        assert isinstance(res, BatchResult)
        assert len(res) == 3
        expected = [invariant(i) for n, i in enumerate(insts) if n != 1]
        assert [canonical_hash(t) for t in res] == [
            canonical_hash(t) for t in expected
        ]

    def test_collect_aligns_with_inputs(self):
        insts = _corpus(4)
        pipe, plan, keys = self._fail_one(insts, 3)
        with inject(plan):
            res = pipe.compute_batch(insts, on_error="collect")
        assert [o.key for o in res] == keys
        assert [o.ok for o in res] == [True, True, True, False]
        failed = res.failures()[0]
        assert failed.attempts == 2
        assert "InjectedFailure" in failed.traceback

    def test_cache_hits_appear_as_ok_outcomes(self):
        insts = _corpus(3)
        pipe = InvariantPipeline()
        pipe.compute_batch(insts)  # warm
        res = pipe.compute_batch(insts, on_error="collect")
        assert res.ok
        assert all(o.attempts == 0 for o in res)  # served from cache

    def test_unknown_mode_rejected(self):
        with pytest.raises(PipelineError):
            InvariantPipeline().compute_batch(_corpus(2), on_error="explode")

    def test_raise_mode_returns_plain_list(self):
        # Backward compatibility: the default mode's return type is
        # unchanged from the pre-resilience engine.
        out = InvariantPipeline().compute_batch(_corpus(2))
        assert isinstance(out, list)
        assert len(out) == 2


# -- retries and fail-fast ----------------------------------------------------


class TestRetrySemantics:
    def test_transient_failure_retried_to_success(self):
        insts = _corpus(3)
        key = instance_key(insts[1])
        plan = FaultPlan(Fault("invariant_raises", times=2, key=key))
        pipe = InvariantPipeline(retry=_policy(max_attempts=3))
        with inject(plan):
            invs = pipe.compute_batch(insts)
        assert len(invs) == 3
        assert pipe.stats.retries == 2
        assert pipe.stats.tasks_failed == 0
        assert plan.exhausted()

    def test_attempts_capped(self):
        insts = _corpus(2)
        key = instance_key(insts[0])
        plan = FaultPlan(Fault("invariant_raises", times=99, key=key))
        pipe = InvariantPipeline(retry=_policy(max_attempts=3))
        with inject(plan):
            res = pipe.compute_batch(insts, on_error="collect")
        assert res.failures()[0].attempts == 3
        assert pipe.stats.retries == 2

    def test_non_retryable_fails_fast(self):
        insts = _corpus(2)
        key = instance_key(insts[0])
        plan = FaultPlan(Fault("invariant_raises", times=99, key=key))
        pipe = InvariantPipeline(
            retry=_policy(max_attempts=3, retryable=(WorkerError,))
        )
        with inject(plan):
            res = pipe.compute_batch(insts, on_error="collect")
        assert res.failures()[0].attempts == 1
        assert pipe.stats.retries == 0

    def test_worker_crash_retried(self):
        # Inline, a worker crash is a retryable WorkerError charged to
        # the task that raised it.
        insts = _corpus(4)
        pipe = InvariantPipeline(retry=_policy())
        with inject(FaultPlan(Fault("worker_crash", times=1))):
            invs = pipe.compute_batch(insts)
        assert len(invs) == 4
        assert pipe.stats.retries == 1
        once = InvariantPipeline(retry=_policy(max_attempts=1))
        with inject(FaultPlan(Fault("worker_crash", times=1))):
            res = once.compute_batch(insts[:1], on_error="collect")
        assert isinstance(res.failures()[0].error, WorkerError)

    def test_fault_fires_show_up_in_stats_counters(self):
        insts = _corpus(2)
        plan = FaultPlan(Fault("invariant_raises", times=1))
        pipe = InvariantPipeline(retry=_policy())
        before = counter_snapshot()
        with inject(plan):
            pipe.compute_batch(insts)
        delta = counter_delta(before, counter_snapshot())
        assert delta["fault.invariant_raises"] == 1


# -- worker recovery (process pool) ------------------------------------------


@pytest.mark.slow
class TestProcessRecovery:
    def test_worker_death_respawns_pool_and_recovers(self):
        insts = _corpus(6)
        key = instance_key(insts[3])
        plan = FaultPlan(Fault("worker_crash", times=1, key=key))
        with InvariantPipeline(
            backend="processes", workers=2, retry=_policy()
        ) as pipe:
            with inject(plan):
                invs = pipe.compute_batch(insts)
        assert len(invs) == 6
        assert pipe.stats.pool_respawns == 1
        assert plan.fired == {"worker_crash": 1}
        reference = [canonical_hash(invariant(i)) for i in insts]
        assert [canonical_hash(t) for t in invs] == reference

    def test_hung_task_times_out_and_recovers(self):
        insts = _corpus(4)
        key = instance_key(insts[1])
        plan = FaultPlan(
            Fault("worker_hang", times=1, key=key, hang_seconds=30.0)
        )
        with InvariantPipeline(
            backend="processes", workers=2, task_timeout=2.0,
            retry=_policy(),
        ) as pipe:
            with inject(plan):
                invs = pipe.compute_batch(insts)
        assert len(invs) == 4
        assert pipe.stats.timeouts == 1
        assert pipe.stats.pool_respawns == 1  # occupied worker recycled

    def test_timeout_charged_and_retried(self):
        # The overdue task pays one attempt and succeeds on its retry;
        # siblings caught in the recycled pool are refunded victims.
        insts = _corpus(3)
        key = instance_key(insts[0])
        plan = FaultPlan(
            Fault("worker_hang", times=1, key=key, hang_seconds=30.0)
        )
        with InvariantPipeline(
            backend="processes", workers=2, task_timeout=2.0,
            retry=_policy(),
        ) as pipe:
            with inject(plan):
                res = pipe.compute_batch(insts, on_error="collect")
        assert res.ok
        assert {o.key: o.attempts for o in res} == {
            k: 2 if k == key else 1 for k in map(instance_key, insts)
        }
        assert pipe.stats.timeouts == 1
        assert pipe.stats.retries == 1

    def test_respawn_budget_exhaustion_degrades_to_serial(self):
        insts = _corpus(5)
        plan = FaultPlan(Fault("worker_crash", times=3))
        with InvariantPipeline(
            backend="processes", workers=2, max_pool_respawns=0,
            retry=_policy(max_attempts=4),
        ) as pipe:
            with inject(plan):
                invs = pipe.compute_batch(insts)
        assert len(invs) == 5
        assert ("processes", "serial") in pipe.stats.degradations
        assert "degraded processes→serial" in pipe.stats.summary()

    def test_persistent_per_key_crash_fails_only_that_key(self):
        insts = _corpus(4)
        key = instance_key(insts[2])
        plan = FaultPlan(Fault("worker_crash", times=99, key=key))
        # Default retry budget: pool breaks never charge bystanders
        # (they are requeued as victims), so no attempt headroom is
        # needed no matter how the futures land.
        with InvariantPipeline(
            backend="processes", workers=2, retry=_policy(),
        ) as pipe:
            with inject(plan):
                res = pipe.compute_batch(insts, on_error="collect")
        assert [o.ok for o in res] == [True, True, False, True]
        assert isinstance(res.failures()[0].error, ComputeError)
        assert pipe.stats.victim_requeues > 0

    def test_pool_break_never_charges_bystanders(self):
        # The deterministic-accounting guarantee: whichever futures
        # happen to observe a BrokenExecutor, only inline-attributable
        # failures burn retry budget.  Every innocent key must succeed
        # with attempts == 1 even though each pool break tears down
        # every in-flight sibling.
        insts = _corpus(4)
        key = instance_key(insts[0])
        plan = FaultPlan(Fault("worker_crash", times=99, key=key))
        with InvariantPipeline(
            backend="processes", workers=2, retry=_policy(),
        ) as pipe:
            with inject(plan):
                res = pipe.compute_batch(insts, on_error="collect")
        by_key = {o.key: o for o in res}
        assert not by_key[key].ok
        for o in res:
            if o.ok:
                assert o.attempts == 1, (
                    f"bystander {o.key} was charged {o.attempts} attempts"
                )

    def test_close_after_failed_batch_leaks_nothing(self):
        # Satellite: pool lifecycle stays sound through failures.
        insts = _corpus(4)
        key = instance_key(insts[0])
        plan = FaultPlan(Fault("worker_crash", times=99, key=key))
        pipe = InvariantPipeline(
            backend="processes", workers=2, retry=_policy(max_attempts=2)
        )
        with inject(plan):
            with pytest.raises(ComputeError):
                pipe.compute_batch(insts)
        # The pipeline is still usable...
        assert len(pipe.compute_batch(_corpus(3))) == 3
        pipe.close()
        assert pipe._pool is None
        deadline = time.monotonic() + 10
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "leaked worker processes"
            time.sleep(0.05)
        pipe.close()  # idempotent


# -- cooperative deadlines ----------------------------------------------------


class TestDeadline:
    def test_never_expires_when_unbounded(self):
        d = Deadline(None)
        assert not d.expired()
        assert d.remaining() is None
        d.check("anything")  # no raise

    def test_expiry_with_injected_clock(self):
        from tests.helpers import FakeClock

        clock = FakeClock()
        d = Deadline(5.0, clock=clock)
        assert d.remaining() == pytest.approx(5.0)
        clock.now = 4.9
        d.check("enumeration")
        clock.now = 5.0
        assert d.expired()
        with pytest.raises(repro_errors.TimeoutError) as exc_info:
            d.check("enumeration")
        assert exc_info.value.stage == "enumeration"
        assert isinstance(exc_info.value, TimeoutError)

    def test_validates_budget(self):
        with pytest.raises(ValueError):
            Deadline(0)


class TestCompiledTimeout:
    def _overlap(self):
        return SpatialInstance(
            {"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)}
        )

    def test_universe_enumeration_honours_deadline(self):
        from repro.invariant import TopologicalInvariant
        from repro.logic.cell_eval import grid_refined_complex
        from repro.logic.compiled import CompiledCellModel

        cx = grid_refined_complex(self._overlap(), 1)
        now = [0.0]
        model = CompiledCellModel(
            TopologicalInvariant.from_complex(cx), None, 200_000,
            deadline=Deadline(1.0, clock=lambda: now[0]),
        )
        now[0] = 2.0  # expired before enumeration starts
        with pytest.raises(repro_errors.TimeoutError):
            model.enumerate_universe()

    def test_generous_timeout_changes_nothing(self):
        from repro.logic import parse
        from repro.logic.compiled import clear_universe_cache, evaluate_cells

        sentence = parse("exists r . subset(r, A) and subset(r, B)")
        clear_universe_cache()
        slow = evaluate_cells(sentence, self._overlap(), timeout=300.0)
        clear_universe_cache()
        assert slow == evaluate_cells(sentence, self._overlap())

    def test_public_dispatcher_forwards_timeout(self):
        from repro import evaluate_cells
        from repro.logic import parse
        from repro.logic.compiled import clear_universe_cache

        sentence = parse("exists r . subset(r, A) and subset(r, B)")
        assert evaluate_cells(sentence, self._overlap(), timeout=300.0)
        clear_universe_cache()
        with pytest.raises(repro_errors.TimeoutError):
            evaluate_cells(sentence, self._overlap(), timeout=1e-9)


# -- the chaos property -------------------------------------------------------


class TestChaosProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_any_fault_schedule_is_correct_or_structured(self, seed):
        """Under any seeded schedule of crashes, hangs, raises, and
        segment-store faults: every ok outcome is the bit-identical
        invariant, every failure is a structured ComputeError, and the
        batch terminates — on a fresh store and again on the reopened
        one, which serves whatever the first run managed to persist."""
        import tempfile

        insts = _corpus(3)
        keys = [instance_key(i) for i in insts]
        reference = {
            k: canonical_hash(invariant(i)) for k, i in zip(keys, insts)
        }
        plan = FaultPlan.seeded(
            seed,
            keys,
            points=WORKER_POINTS + STORE_POINTS,
            faults=4,
            max_times=2,
            hang_seconds=0.01,
        )
        with tempfile.TemporaryDirectory() as root:
            for _ in range(2):
                with inject(plan):
                    with SegmentStore(root) as store, InvariantPipeline(
                        backend="processes",
                        workers=2,
                        store=store,
                        retry=_policy(max_attempts=2),
                    ) as pipe:
                        res = pipe.compute_batch(insts, on_error="collect")
                for out in res:
                    if out.ok:
                        assert canonical_hash(out.value) == reference[out.key]
                    else:
                        assert isinstance(out.error, ComputeError)
                        assert out.error.key == out.key
                        assert out.attempts >= 1
            # With the plan gone, a pipeline over the same (possibly
            # torn or bit-flipped) store answers every key correctly:
            # checksums turn corruption into recomputation, never into
            # a wrong answer.
            with SegmentStore(root) as store, InvariantPipeline(
                store=store
            ) as fresh:
                healed = fresh.compute_batch(insts)
            assert [canonical_hash(t) for t in healed] == [
                reference[k] for k in keys
            ]
