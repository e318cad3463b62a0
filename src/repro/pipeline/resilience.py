"""Fault-tolerant task execution for the batch pipeline.

The engine's worker backends used to be all-or-nothing: one degenerate
instance, one dead process worker, or one hung task aborted the entire
``compute_batch`` and threw away every sibling result.  This module
supplies the recovery machinery the engine threads through instead:

* **per-task isolation** — every instance key gets its own
  :class:`Outcome` (``ok`` with a value, or ``failed`` with the wrapped
  exception, a formatted traceback, and the attempt count), collected
  into a :class:`BatchResult`;
* **retry with capped exponential backoff** — transient failures
  (worker death, timeouts, injected faults) are retried up to
  :attr:`RetryPolicy.max_attempts` times with *deterministic* jitter:
  the delay is a pure function of ``(seed, key, attempt)`` via SHA-256,
  so tests never depend on wall-clock randomness, and the sleep itself
  is injectable;
* **pool recovery and degradation** — a broken process pool is
  respawned a bounded number of times; when the budget is exhausted the
  remaining tasks degrade to the serial backend
  (``processes → serial``), with every transition recorded in
  :class:`~repro.pipeline.stats.PipelineStats`;
* **per-task timeouts** — pooled tasks carry a deadline; an overdue
  task is charged a :class:`~repro.errors.TimeoutError` and the pool
  (whose worker is still occupied) is recycled.  The serial backend
  runs inline and enforces no preemption.

Worker-side faults (:mod:`repro.faults`) are drawn by the parent at
submit time, so the injected schedule stays deterministic even across
process-pool workers.

Attempt accounting under pool breakage is *deterministic*: worker
death is not attributable to a single task, so every task that observed
the break — the one whose future raised, the ones still in flight, and
the ones queued behind them — is a victim: its submit-time attempt is
refunded and it is requeued free of charge (tallied as
``victim_requeues``).  What bounds a persistently breaking pool is the
respawn budget, not the victims' retry budgets: once
``max_pool_respawns`` is spent the remaining tasks degrade to the
serial backend, where a crash *is* attributable to the task that raised
it and is charged normally.  Which futures happened to
land in the ``wait()`` done-set at break time therefore never changes
any task's attempt count.  ``max_attempts`` is a total across backends
— a task that burned two attempts before a degradation has one left
after it.
"""

from __future__ import annotations

import hashlib
import time
import traceback as _tb
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from time import monotonic
from typing import Any, Callable, Iterator, Sequence

from .. import faults, tracing
from ..errors import ComputeError, PipelineError, WorkerError
from ..errors import TimeoutError as TaskTimeoutError
from ..faults import InjectedFailure

__all__ = [
    "RetryPolicy",
    "Outcome",
    "BatchResult",
    "SerialRunner",
    "ExecutorRunner",
    "ResilientMapper",
]

ON_ERROR_MODES = ("raise", "skip", "collect")

# Exception classes worth a second attempt: infrastructure failures and
# the injected transient-failure marker.  Deterministic library errors
# (a degenerate instance raising GeometryError, say) fail fast — the
# computation is pure, so retrying them is pure waste.
DEFAULT_RETRYABLE = (
    WorkerError,
    TaskTimeoutError,
    BrokenExecutor,
    OSError,
    MemoryError,
    InjectedFailure,
)


class RetryPolicy:
    """Bounded retries with capped exponential backoff and
    deterministic jitter.

    The delay before attempt ``n``'s retry is
    ``min(cap, base * 2**(n-1))`` scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` derived from
    ``sha256(seed, key, attempt)`` — a pure function, so schedules are
    reproducible.  *sleep* is injectable (tests pass a recorder)."""

    def __init__(
        self,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.25,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        retryable: tuple[type[BaseException], ...] | None = None,
    ):
        if max_attempts < 1:
            raise PipelineError("max_attempts must be at least 1")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.seed = seed
        self.sleep = sleep
        self.retryable = (
            retryable if retryable is not None else DEFAULT_RETRYABLE
        )

    def should_retry(self, exc: BaseException, attempts: int) -> bool:
        return attempts < self.max_attempts and isinstance(
            exc, self.retryable
        )

    def delay(self, key: str, attempt: int) -> float:
        """The backoff before retrying *key* after its *attempt*-th try
        (pure — no clock, no global RNG)."""
        base = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def backoff(self, key: str, attempt: int) -> float:
        d = self.delay(key, attempt)
        if d > 0:
            self.sleep(d)
        return d


class Outcome:
    """The per-key result of a resilient map: ``ok`` with a value, or
    ``failed`` with a :class:`~repro.errors.ComputeError` (original
    exception chained as ``__cause__``), the formatted traceback, and
    the attempt count."""

    __slots__ = ("key", "value", "error", "traceback", "attempts")

    def __init__(self, key, value, error, traceback, attempts):
        self.key = key
        self.value = value
        self.error = error
        self.traceback = traceback
        self.attempts = attempts

    @property
    def ok(self) -> bool:
        return self.error is None

    @classmethod
    def success(cls, key: str, value: Any, attempts: int) -> "Outcome":
        return cls(key, value, None, None, attempts)

    @classmethod
    def failure(
        cls, key: str, exc: BaseException, attempts: int, stage: str
    ) -> "Outcome":
        tb = "".join(_tb.format_exception(type(exc), exc, exc.__traceback__))
        if isinstance(exc, ComputeError):
            error = exc
            error.key = error.key or key
            error.stage = error.stage or stage
            error.attempts = attempts
        else:
            error = ComputeError(
                f"computing {key} failed after {attempts} attempt(s): "
                f"{type(exc).__name__}: {exc}",
                key=key,
                stage=stage,
                attempts=attempts,
            )
            error.__cause__ = exc
        return cls(key, None, error, tb, attempts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ok" if self.ok else f"failed({self.error})"
        return f"Outcome({self.key[:12]}…, {state}, attempts={self.attempts})"


class BatchResult:
    """Ordered per-instance outcomes of a ``compute_batch`` call.

    :attr:`outcomes` is always aligned with the input sequence
    (duplicate geometries share one underlying result).  The sequence
    behaviour depends on the ``on_error`` mode that produced it:

    * ``"skip"`` — iteration/indexing run over the *successful*
      invariants only (failures are dropped, best-effort semantics);
    * ``"collect"`` — iteration/indexing run over the per-input
      :class:`Outcome` objects, so callers can ``zip`` with the inputs.
    """

    def __init__(self, outcomes: Sequence[Outcome], mode: str = "collect"):
        if mode not in ("skip", "collect"):
            raise PipelineError(
                f"unknown BatchResult mode {mode!r}; "
                "expected 'skip' or 'collect'"
            )
        self.outcomes = list(outcomes)
        self.mode = mode

    @property
    def ok(self) -> bool:
        """True when every instance computed successfully."""
        return all(o.ok for o in self.outcomes)

    def invariants(self) -> list:
        """The successful values, in input order (failures dropped)."""
        return [o.value for o in self.outcomes if o.ok]

    def failures(self) -> list[Outcome]:
        """The failed outcomes, in input order."""
        return [o for o in self.outcomes if not o.ok]

    def strict(self) -> list:
        """All values in input order, raising the first failure."""
        for o in self.outcomes:
            if not o.ok:
                raise o.error
        return [o.value for o in self.outcomes]

    def _seq(self) -> list:
        if self.mode == "skip":
            return self.invariants()
        return self.outcomes

    def __len__(self) -> int:
        return len(self._seq())

    def __iter__(self) -> Iterator:
        return iter(self._seq())

    def __getitem__(self, index):
        return self._seq()[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        failed = len(self.failures())
        return (
            f"BatchResult({len(self.outcomes)} instances, {failed} failed,"
            f" mode={self.mode!r})"
        )


# -- backend runners ----------------------------------------------------------


class SerialRunner:
    """Inline execution: *run* is ``(key, fault_payload) -> value``."""

    name = "serial"

    def __init__(self, run: Callable[[str, dict | None], Any]):
        self.run = run


class ExecutorRunner:
    """The process-pool backend: *submit* is ``(key, fault_payload) ->
    Future`` resolving to the task's packed value (see
    :func:`repro.tracing.pack_result`), and *respawn* replaces a broken
    pool.  An overdue task leaves its worker occupied, so a timeout
    recycles the pool too."""

    name = "processes"

    def __init__(
        self,
        submit: Callable[[str, dict | None], Future],
        respawn: Callable[[], None],
    ):
        self.submit = submit
        self.respawn = respawn


class ResilientMapper:
    """Maps keyed tasks over a chain of backends with retry, timeout,
    pool respawn, and degradation.

    *runners* maps backend names to :class:`SerialRunner` /
    :class:`ExecutorRunner`; *chain* orders them strongest-first and
    must end with a serial runner (which cannot fail as a pool).  The
    mapper owns no pools — the engine does — so pool lifetime stays
    with the pipeline."""

    def __init__(
        self,
        runners: dict[str, object],
        chain: Sequence[str],
        policy: RetryPolicy,
        stats,
        workers: int = 1,
        task_timeout: float | None = None,
        max_pool_respawns: int = 2,
    ):
        self.runners = runners
        self.chain = list(chain)
        self.policy = policy
        self.stats = stats
        self.workers = max(1, workers)
        self.task_timeout = task_timeout
        self.max_pool_respawns = max_pool_respawns

    # -- fault drawing -------------------------------------------------------

    @staticmethod
    def _draw_worker_fault(key: str) -> dict | None:
        for point in faults.WORKER_POINTS:
            payload = faults.draw(point, key)
            if payload is not None:
                return payload
        return None

    # -- top level -----------------------------------------------------------

    def run(self, keys: Sequence[str]) -> dict[str, Outcome]:
        """Outcomes for every key (each appears exactly once)."""
        outcomes: dict[str, Outcome] = {}
        attempts = {key: 0 for key in keys}
        pending = list(keys)
        for i, backend in enumerate(self.chain):
            if not pending:
                break
            runner = self.runners[backend]
            if isinstance(runner, SerialRunner):
                self._run_serial(runner, pending, attempts, outcomes)
                pending = []
            else:
                pending = self._run_pool(runner, pending, attempts, outcomes)
            if pending:
                if i + 1 >= len(self.chain):  # pragma: no cover - guarded
                    raise PipelineError(
                        "backend chain exhausted with tasks pending"
                    )
                self.stats.record_degradation(backend, self.chain[i + 1])
                tracing.add_event(
                    "degradation",
                    frm=backend,
                    to=self.chain[i + 1],
                    pending=len(pending),
                )
        return outcomes

    # -- serial --------------------------------------------------------------

    @staticmethod
    def _task_span(tracer, key: str, backend: str, attempt: int):
        if tracer is None:
            return None
        return tracer.start_span(
            "task",
            attributes={
                "instance_key": key,
                "backend": backend,
                "attempt": attempt,
            },
        )

    @staticmethod
    def _settle_span(tracer, span, value, event: str | None = None, **attrs):
        """Finish a task span: re-parent piggybacked worker spans under
        it and stamp a terminal event.  Returns the unpacked value."""
        value, worker_spans = tracing.unpack_result(value)
        if span is not None:
            if worker_spans:
                tracer.adopt(span, worker_spans)
            if event is not None:
                tracer.add_event(event, span=span, **attrs)
            tracer.finish_span(span)
        return value

    def _run_serial(self, runner, keys, attempts, outcomes) -> None:
        tracer = tracing.current_tracer()
        for key in keys:
            while True:
                attempts[key] += 1
                fault = self._draw_worker_fault(key)
                span = self._task_span(
                    tracer, key, runner.name, attempts[key]
                )
                try:
                    value = runner.run(key, fault)
                except Exception as exc:
                    self._settle_span(
                        tracer, span, None,
                        event="error", error=type(exc).__name__,
                    )
                    if self._settle_failed(
                        key, exc, attempts, None, outcomes, runner.name
                    ):
                        continue
                    break
                else:
                    value = self._settle_span(tracer, span, value)
                    outcomes[key] = Outcome.success(key, value, attempts[key])
                    break

    # -- pooled --------------------------------------------------------------

    def _settle_failed(
        self, key, exc, attempts, queue, outcomes, stage
    ) -> bool:
        """Retry *key* (True) or record its failure (False)."""
        if self.policy.should_retry(exc, attempts[key]):
            self.stats.count("retries")
            tracing.add_event(
                "retry",
                key=key,
                attempt=attempts[key],
                error=type(exc).__name__,
            )
            self.policy.backoff(key, attempts[key])
            if queue is not None:
                queue.append(key)
            return True
        outcomes[key] = Outcome.failure(key, exc, attempts[key], stage)
        self.stats.count("tasks_failed")
        return False

    def _run_pool(self, runner, pending, attempts, outcomes) -> list[str]:
        """Run *pending* on a pooled runner.  Returns the keys to hand
        down the chain when the pool's respawn budget runs out."""
        tracer = tracing.current_tracer()
        queue: deque[str] = deque(pending)
        inflight: dict[Future, tuple[str, float | None, object]] = {}
        respawns = 0

        def requeue_victim(key: str) -> None:
            # Pool breakage is unattributable, so its observers are
            # victims: refund the submit-time attempt and requeue.
            attempts[key] -= 1
            queue.append(key)
            self.stats.count("victim_requeues")

        while queue or inflight:
            broken = False

            # Saturate the pool (deadlines start at submit, so keep the
            # backlog at pool width: a queued-behind task must not burn
            # its budget waiting for a worker).
            while queue and len(inflight) < self.workers:
                key = queue.popleft()
                attempts[key] += 1
                fault = self._draw_worker_fault(key)
                try:
                    fut = runner.submit(key, fault)
                except (BrokenExecutor, RuntimeError):
                    # The pool died before accepting the task.
                    requeue_victim(key)
                    broken = True
                    break
                deadline = (
                    monotonic() + self.task_timeout
                    if self.task_timeout is not None
                    else None
                )
                inflight[fut] = (
                    key,
                    deadline,
                    self._task_span(tracer, key, runner.name, attempts[key]),
                )

            if inflight and not broken:
                deadlines = [
                    d for (_k, d, _s) in inflight.values() if d is not None
                ]
                wait_for = (
                    max(0.0, min(deadlines) - monotonic())
                    if deadlines
                    else None
                )
                done, _ = wait(
                    set(inflight),
                    timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    key, _d, span = inflight.pop(fut)
                    try:
                        value = fut.result()
                    except BrokenExecutor:
                        # Worker death is unattributable: the task whose
                        # future observed the break is a victim exactly
                        # like its queued siblings.  Charging it would
                        # make attempt counts depend on which futures
                        # happened to land in this done-set.
                        self._settle_span(
                            tracer, span, None, event="worker_crash"
                        )
                        requeue_victim(key)
                        broken = True
                    except Exception as exc:
                        self._settle_span(
                            tracer, span, None,
                            event="error", error=type(exc).__name__,
                        )
                        self._settle_failed(
                            key, exc, attempts, queue, outcomes, runner.name
                        )
                    else:
                        value = self._settle_span(tracer, span, value)
                        outcomes[key] = Outcome.success(
                            key, value, attempts[key]
                        )
                # Deadline sweep: charge overdue tasks a timeout.
                if self.task_timeout is not None:
                    now = monotonic()
                    overdue = [
                        f
                        for f, (_k, d, _s) in inflight.items()
                        if d is not None and d <= now
                    ]
                    for fut in overdue:
                        key, _d, span = inflight.pop(fut)
                        fut.cancel()
                        self.stats.count("timeouts")
                        self._settle_span(
                            tracer, span, None,
                            event="timeout", seconds=self.task_timeout,
                        )
                        exc = TaskTimeoutError(
                            f"task {key} exceeded its "
                            f"{self.task_timeout}s timeout",
                            key=key,
                            stage=runner.name,
                            attempts=attempts[key],
                        )
                        self._settle_failed(
                            key, exc, attempts, queue, outcomes, runner.name
                        )
                        # The worker is still grinding on the abandoned
                        # task: recycle the pool.
                        broken = True

            if broken:
                # Tasks still in flight in the dead pool are victims
                # like the observer that detected the break: requeue
                # them without charging an attempt.
                for fut in list(inflight):
                    key, _d, span = inflight.pop(fut)
                    fut.cancel()
                    self._settle_span(
                        tracer, span, None, event="victim_requeued"
                    )
                    requeue_victim(key)
                if respawns >= self.max_pool_respawns:
                    return list(queue)
                respawns += 1
                self.stats.count("pool_respawns")
                tracing.add_event(
                    "pool_respawn",
                    backend=runner.name,
                    respawn=respawns,
                )
                runner.respawn()
        return []
