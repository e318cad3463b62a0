"""Deterministic fault injection for the resilience machinery.

Production code calls :func:`draw` at named *injection points*; with no
plan installed the call is a dict lookup returning None, so the library
pays nothing.  Tests (and ``bench_pipeline.py --chaos``) install a
:class:`FaultPlan` with :func:`inject` — a scoped context manager — and
the matching points then *fire*: a worker crashes, a task hangs, a
stored record is bit-flipped, and so on.

Determinism is the whole point: a plan is an ordered list of
:class:`Fault` specs (``fire this point, for this key, this many times,
after skipping that many matches``), its counters are mutated under a
lock, and the :meth:`FaultPlan.seeded` constructor derives a
pseudo-random schedule from ``random.Random(seed)`` — no wall-clock
randomness anywhere, so every run of a test or chaos benchmark sees the
same fault sequence.

Injection points
----------------

The points come in two families, one tuple each: :data:`WORKER_POINTS`
(the pipeline's tasks) and :data:`STORE_POINTS` (the segment store).
:meth:`FaultPlan.seeded` draws from :data:`WORKER_POINTS` unless told
otherwise.

``worker_crash``
    A pool worker dies while holding a task.  In a process worker the
    process exits hard (``os._exit``), breaking the pool; inline (the
    serial backend) it raises :class:`~repro.errors.WorkerError`.
``worker_hang``
    The task sleeps for ``hang_seconds`` — long enough to trip the
    per-task timeout when one is configured, short enough that an
    abandoned worker drains on its own.
``invariant_raises``
    The invariant computation raises :class:`InjectedFailure` (a
    retryable error, modelling a transient task failure).
``store_torn_append``
    A segment-store append writes only a prefix of the record and dies
    (modelling a crash mid-append; reopening must truncate the torn
    tail and recover every fully-written record).
``store_read_bitflip``
    One byte of a stored record's payload is flipped *on disk* before
    a read (at-rest corruption: bit rot, a bad sector).  The flip is
    persistent — the read path must detect the checksum mismatch and
    raise a structured :class:`~repro.errors.StoreError`; a mirrored
    store must fail over to a healthy replica and read-repair.
``store_fsync_lost``
    An ``fsync`` on the active segment fails with ``EIO`` (the
    "fsyncgate" failure mode: the kernel dropped dirty pages and the
    write is silently gone).  The segment must be poisoned — its
    buffered tail can no longer be trusted — and the store must roll
    to a fresh segment, raising a structured error for the append.
``store_disk_full``
    A segment append fails with ``ENOSPC``.  The append must fail
    structurally, the active segment must stay truncated to its last
    complete record, and the store must remain readable.
``store_seal_crash``
    Sealing dies after the footer bytes are written but before the
    trailer validates (modelling a crash mid-seal).  Reopening must
    fall back to the recovery scan: no record is lost, the footer is
    rebuilt at the next successful seal.

The worker-side points are drawn by the *parent* at submit time — the
decision ships with the task — so counting stays centralized and
deterministic even across process-pool workers.  Every fire is also
tallied into the module-level ``fault.*``
:class:`~repro.instrument.Counters` family, next to the ``kernel.*`` and
``query.*`` families.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

from .errors import WorkerError
from .instrument import Counters

__all__ = [
    "WORKER_POINTS",
    "STORE_POINTS",
    "Fault",
    "FaultPlan",
    "InjectedFailure",
    "inject",
    "active",
    "draw",
    "execute_inline",
    "execute_in_worker",
]

WORKER_POINTS = ("worker_crash", "worker_hang", "invariant_raises")
STORE_POINTS = (
    "store_torn_append",
    "store_read_bitflip",
    "store_fsync_lost",
    "store_disk_full",
    "store_seal_crash",
)
_ALL_POINTS = WORKER_POINTS + STORE_POINTS


class InjectedFailure(RuntimeError):
    """The exception raised by ``invariant_raises`` (and by inline
    execution of worker faults that model transient task failure).  The
    default :class:`~repro.pipeline.resilience.RetryPolicy` treats it as
    retryable, so ``fail twice then succeed`` schedules exercise the
    retry path."""


class Fault:
    """One spec in a plan: fire *point* for *key* (None = any key),
    *times* times, after silently skipping the first *after* matches."""

    __slots__ = ("point", "times", "after", "key", "hang_seconds",
                 "_skipped", "_fired")

    def __init__(
        self,
        point: str,
        times: int = 1,
        after: int = 0,
        key: str | None = None,
        hang_seconds: float = 0.05,
    ):
        if point not in _ALL_POINTS:
            raise ValueError(
                f"unknown injection point {point!r}; expected one of "
                f"{_ALL_POINTS}"
            )
        if times < 1:
            raise ValueError("a fault must fire at least once")
        if after < 0:
            raise ValueError("after must be >= 0")
        self.point = point
        self.times = times
        self.after = after
        self.key = key
        self.hang_seconds = hang_seconds
        self._skipped = 0
        self._fired = 0

    def payload(self) -> dict:
        """What ships with a drawn fault (picklable, worker-readable)."""
        return {"point": self.point, "hang_seconds": self.hang_seconds}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Fault({self.point!r}, times={self.times}, after={self.after},"
            f" key={self.key!r})"
        )


class FaultPlan:
    """An ordered, lock-guarded schedule of :class:`Fault` specs.

    :meth:`draw` consumes the plan deterministically: the first
    matching, non-exhausted spec either absorbs the event (while its
    ``after`` skips last) or fires.  :attr:`fired` tallies fires per
    point and :attr:`log` records ``(point, key)`` in fire order, for
    assertions."""

    def __init__(self, *faults: Fault):
        self._faults = list(faults)
        self._lock = threading.Lock()
        self.fired: dict[str, int] = {}
        self.log: list[tuple[str, str | None]] = []

    @classmethod
    def seeded(
        cls,
        seed: int,
        keys: Sequence[str],
        points: Sequence[str] = WORKER_POINTS,
        faults: int = 3,
        max_times: int = 2,
        hang_seconds: float = 0.05,
    ) -> "FaultPlan":
        """A pseudo-random plan derived entirely from *seed* — the chaos
        benchmark's schedule generator."""
        rng = random.Random(seed)
        specs = [
            Fault(
                rng.choice(list(points)),
                times=rng.randint(1, max_times),
                after=rng.randint(0, 1),
                key=rng.choice([None, *keys]),
                hang_seconds=hang_seconds,
            )
            for _ in range(faults)
        ]
        return cls(*specs)

    def draw(self, point: str, key: str | None = None) -> dict | None:
        """The payload of a firing fault, or None.  Mutates the plan."""
        with self._lock:
            for fault in self._faults:
                if fault.point != point:
                    continue
                if fault.key is not None and key is not None \
                        and fault.key != key:
                    continue
                if fault._fired >= fault.times:
                    continue
                if fault._skipped < fault.after:
                    fault._skipped += 1
                    return None
                fault._fired += 1
                self.fired[point] = self.fired.get(point, 0) + 1
                self.log.append((point, key))
                counters.count(point)
                return fault.payload()
        return None

    def exhausted(self) -> bool:
        """True when every spec has fired its full quota."""
        with self._lock:
            return all(f._fired >= f.times for f in self._faults)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self._faults!r}, fired={self.fired!r})"


# -- activation ---------------------------------------------------------------

_lock = threading.Lock()
_stack: list[FaultPlan] = []

# Module-wide monotone fire tally, one ``fault.<point>`` per point.
counters = Counters("fault")


def active() -> FaultPlan | None:
    """The innermost installed plan, or None."""
    with _lock:
        return _stack[-1] if _stack else None


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install *plan* for the block (nestable; innermost wins)."""
    with _lock:
        _stack.append(plan)
    try:
        yield plan
    finally:
        with _lock:
            _stack.remove(plan)


def draw(point: str, key: str | None = None) -> dict | None:
    """Consult the active plan at injection point *point* (None-safe)."""
    plan = active()
    if plan is None:
        return None
    return plan.draw(point, key)


# -- executing a drawn worker-side fault --------------------------------------


def execute_inline(fault: dict | None, key: str | None = None) -> None:
    """Perform a drawn worker fault in the current interpreter (the
    serial backend): crash becomes a retryable
    :class:`~repro.errors.WorkerError`, hang a bounded sleep."""
    if not fault:
        return
    point = fault.get("point")
    if point == "worker_crash":
        raise WorkerError(
            f"injected worker crash (task {key})", key=key, stage="compute"
        )
    if point == "worker_hang":
        time.sleep(float(fault.get("hang_seconds", 0.05)))
        return
    if point == "invariant_raises":
        raise InjectedFailure(f"injected invariant failure (task {key})")


def execute_in_worker(fault: dict | None, key: str | None = None) -> None:
    """Perform a drawn worker fault inside a process-pool worker: crash
    kills the process hard (breaking the pool, as a real worker death
    would), hang sleeps through the parent's timeout."""
    if not fault:
        return
    point = fault.get("point")
    if point == "worker_crash":
        os._exit(13)
    if point == "worker_hang":
        time.sleep(float(fault.get("hang_seconds", 0.05)))
        return
    if point == "invariant_raises":
        raise InjectedFailure(f"injected invariant failure (task {key})")
