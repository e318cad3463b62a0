"""Monotone counters for the query service (the ``service.*`` family).

One :class:`~repro.instrument.Counters` family, like ``query.*`` and
``fault.*``, so tests and traces observe service behaviour with the
same snapshot/delta protocol as every other counter family.

``requests``
    Every request accepted into :meth:`QueryService._serve`
    (including inline cache hits and ones later shed or timed out).
``computes``
    Coalesce-group leaders: evaluations actually launched.
``coalesced``
    Followers that piggybacked on an identical in-flight request.
``shed``
    Requests rejected by admission control (compute and queue both
    full) — never started, safe to retry.
``timeouts``
    Requests whose :class:`~repro.instrument.Deadline` expired
    (queued, coalesced, or mid-evaluation).
``errors``
    Requests that failed for any other reason.
``store_registers``
    Instances registered by key out of the segment store
    (:meth:`QueryService.register_from_store`).
``store_read_errors``
    Store reads that failed with a structured
    :class:`~repro.errors.StoreError` (fed to the circuit breaker).
``breaker_opens``
    Times the store-read circuit breaker tripped open (including
    re-opens after a failed half-open probe).
``breaker_probes``
    Half-open probes the breaker let through.
``breaker_short_circuits``
    Store reads refused without touching the store because the
    breaker was open.
``drains``
    Graceful drains completed (service close with in-flight work
    allowed to finish).
"""

from __future__ import annotations

from ..instrument import Counters

__all__ = ["counters"]

counters = Counters(
    "service",
    (
        "requests",
        "computes",
        "coalesced",
        "shed",
        "timeouts",
        "errors",
        "store_registers",
        "store_read_errors",
        "breaker_opens",
        "breaker_probes",
        "breaker_short_circuits",
        "drains",
    ),
)
