"""Counters and deadlines for the hot paths.

Stage *time* is recorded by spans (:func:`repro.tracing.span`); this
module keeps what spans do not: monotone *counts* and cooperative time
budgets.

A :class:`Counters` object is one family of counters under a name
prefix (``kernel.*``, ``query.*``, ``service.*``, ``store.*``,
``scrub.*``, ``fault.*``).  Each family registers itself when it is
built, so :func:`counter_snapshot` sees every family in the process.
Consumers take a snapshot before and after a unit of work and diff the
two with :func:`counter_delta` — which keeps the hot paths free of any
per-call indirection.  A tracer built with ``capture_counters=True``
does exactly that around every span.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Iterable

__all__ = [
    "Counters",
    "counter_snapshot",
    "counter_delta",
    "Deadline",
]


class Deadline:
    """A cooperative time budget for long enumerations.

    Loops that cannot be preempted (universe enumeration in the
    compiled query engine runs in-process) instead poll an explicit
    deadline at their natural checkpoints, exactly as they poll their
    size budgets.  ``Deadline(seconds)`` starts the clock immediately;
    ``check(what)`` raises :class:`repro.errors.TimeoutError` once the
    budget is spent.  ``Deadline(None)`` never expires, so call sites
    need no conditional.

    The clock source is injectable for tests (pass ``clock=`` a callable
    returning monotonic seconds) — expiry can then be simulated without
    sleeping.
    """

    __slots__ = ("seconds", "_clock", "_t0")

    def __init__(
        self,
        seconds: float | None,
        clock: Callable[[], float] = perf_counter,
    ):
        if seconds is not None and seconds <= 0:
            raise ValueError("deadline must be positive (or None)")
        self.seconds = seconds
        self._clock = clock
        self._t0 = clock()

    def expired(self) -> bool:
        if self.seconds is None:
            return False
        return self._clock() - self._t0 >= self.seconds

    def remaining(self) -> float | None:
        """Seconds left, or None for an unbounded deadline."""
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - (self._clock() - self._t0))

    def check(self, what: str = "operation") -> None:
        """Raise :class:`repro.errors.TimeoutError` when expired."""
        if self.expired():
            from .errors import TimeoutError

            raise TimeoutError(
                f"{what} exceeded its {self.seconds:g}s time budget",
                stage=what,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline({self.seconds!r})"


_lock = threading.Lock()
_families: list["Counters"] = []


class Counters:
    """One family of monotone counters, snapshotted as ``prefix.name``.

    Hot paths increment a declared name as a bare attribute
    (``counters.hits += 1``).  That takes no lock, so increments from
    concurrent threads can be lost — acceptable for statistics, since
    nothing correct depends on them.  Cold paths call :meth:`count`,
    which takes the family's lock and creates an undeclared name on
    first use.
    """

    def __init__(self, prefix: str, names: Iterable[str] = ()):
        self._prefix = prefix
        self._lock = threading.Lock()
        # Listed, never read back from vars(self): materializing the
        # instance __dict__ slows every bare increment about threefold.
        self._names = list(names)
        for name in self._names:
            setattr(self, name, 0)
        with _lock:
            _families.append(self)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            value = getattr(self, name, None)
            if value is None:
                self._names.append(name)
                value = 0
            setattr(self, name, value + n)

    def reset(self) -> None:
        """Zero every counter of the family (a delta spanning the reset
        is clamped by :func:`counter_delta`)."""
        with self._lock:
            for name in self._names:
                setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Current values under ``prefix.``-qualified names."""
        with self._lock:
            return {
                f"{self._prefix}.{name}": getattr(self, name)
                for name in self._names
            }


def counter_snapshot() -> dict[str, int]:
    """Merged snapshot of every counter family in the process."""
    with _lock:
        families = list(_families)
    merged: dict[str, int] = {}
    for family in families:
        merged.update(family.snapshot())
    return merged


def counter_delta(
    before: dict[str, int], after: dict[str, int]
) -> dict[str, int]:
    """Per-counter increase between two snapshots (new counters count
    from zero).

    Counters are monotone between resets, but a family can be reset
    mid-interval (:meth:`Counters.reset`), which would make the naive
    difference negative and corrupt every rate derived from it.  A
    negative difference is therefore clamped to 0 and tallied in the
    returned ``counters_reset`` entry instead, so consumers can see that
    an interval lost data without ever seeing a negative rate.
    """
    delta: dict[str, int] = {}
    resets = 0
    for name, value in after.items():
        d = value - before.get(name, 0)
        if d < 0:
            resets += 1
            d = 0
        delta[name] = d
    if resets:
        delta["counters_reset"] = delta.get("counters_reset", 0) + resets
    return delta
