"""Shared deterministic-time helpers for the test suite.

Several suites (service health/breaker, pipeline resilience) need to
drive time-dependent machinery — circuit-breaker reset windows,
cooperative deadlines — without sleeping.  The components all take
injectable clocks for exactly this reason; these are the standard test
doubles, factored here so each suite stops growing its own copy.
"""

from __future__ import annotations

from repro.instrument import Deadline

__all__ = ["FakeClock", "expired_deadline", "ticking_deadline"]


class FakeClock:
    """A callable monotonic clock the test advances by hand.

    Use as ``clock=`` for :class:`repro.service.CircuitBreaker`,
    :class:`repro.instrument.Deadline`, or anything else that accepts
    a zero-argument seconds source.
    """

    def __init__(self, now: float = 0.0):
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


def ticking_deadline(seconds: float | None, clock: FakeClock | None = None):
    """A :class:`Deadline` on a :class:`FakeClock`; returns
    ``(deadline, clock)`` so the test can advance expiry by hand."""
    clock = clock if clock is not None else FakeClock()
    return Deadline(seconds, clock=clock), clock


def expired_deadline(seconds: float = 1.0) -> Deadline:
    """A deadline that is already past its budget."""
    deadline, clock = ticking_deadline(seconds)
    clock.advance(seconds)
    return deadline
