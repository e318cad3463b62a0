"""The batch invariant-computation engine.

An :class:`InvariantPipeline` turns a corpus of
:class:`~repro.regions.SpatialInstance` objects into their invariants
``T_I`` with three orthogonal accelerations:

* **content-addressed caching** — instances are keyed by
  :func:`~repro.invariant.canonical.instance_key` (a pure function of
  geometry), so repeated corpora, duplicated instances inside one batch,
  and re-runs against a segment store all skip recomputation;
* **parallel computation** — with ``backend="processes"`` the cold
  misses of a batch are mapped over a process pool (``"serial"``
  computes them inline); invariant computation is pure Python and
  GIL-bound, so processes are what scale on multi-core machines.  A
  task ships the :class:`~repro.regions.SpatialInstance` itself and
  returns the :class:`~repro.invariant.TopologicalInvariant` itself,
  both by the executor's own pickling: one wire format with no codec,
  which carries every region class exactly and keeps the worker's cell
  ids, so a pooled result equals the serial one field for field;
* **hash-bucketed equivalence** — :meth:`equivalence_groups` buckets
  invariants by their complete canonical hash and runs the backtracking
  isomorphism search only within buckets, so the quadratic pairwise
  comparison collapses to bucket-local verification.

Execution is **fault tolerant** (see :mod:`repro.pipeline.resilience`):
every instance gets its own outcome, transient failures are retried
with deterministic backoff, a broken process pool is respawned a
bounded number of times and then degraded ``processes → serial``, and
pooled tasks can carry a per-task timeout.  With
``on_error="raise"`` (the default) a persistent failure raises a
:class:`~repro.errors.ComputeError` naming the instance key — but only
after every sibling finished and was cached, so nothing is lost; the
``"skip"`` and ``"collect"`` modes return a
:class:`~repro.pipeline.resilience.BatchResult` instead of raising.

:attr:`InvariantPipeline.stats` counts what the pipeline itself did:
cache hits and misses, computed invariants, retries and
degradations.  Stage time and the ``kernel.*``/``query.*`` counters
live in the trace: run a batch under :func:`repro.tracing.tracing` and
every stage — including those inside process-pool workers — is a span
under the batch's ``pipeline.compute_batch`` span.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Sequence

from .. import faults, tracing
from ..errors import PipelineError
from ..invariant import (
    TopologicalInvariant,
    find_isomorphism,
    invariant,
)
from ..invariant.canonical import canonical_hash, instance_key
from ..regions import SpatialInstance
from .cache import InvariantCache
from .resilience import (
    ON_ERROR_MODES,
    BatchResult,
    ExecutorRunner,
    Outcome,
    ResilientMapper,
    RetryPolicy,
    SerialRunner,
)
from .stats import PipelineStats

__all__ = [
    "InvariantPipeline",
    "topologically_equivalent_batch",
    "BACKENDS",
]

BACKENDS = ("serial", "processes")


def _teardown_process_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a process pool down without waiting on its workers.

    ``shutdown(wait=False)`` alone leaves a hung or abandoned worker
    running until it finishes on its own (a timed-out task could linger
    for minutes), so the workers are terminated explicitly and reaped.
    """
    # Grab the workers before shutdown() — it clears ``_processes``.
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(timeout=5)
        except Exception:
            pass


def _invariant_task(args: tuple):
    """Process-pool worker: ``(key, instance, drawn fault, shipped)`` in,
    the instance's invariant out; the executor pickles both ways.  The
    fault decision was drawn by the parent at submit time
    (deterministic schedules survive the process hop).  When the parent
    is tracing (*shipped* is its tracer's ``capture_counters`` flag, see
    :func:`repro.tracing.capture`), the spans recorded in this
    interpreter are captured and piggybacked on the result for
    re-parenting."""
    key, instance, fault, shipped = args
    with tracing.capture(shipped) as cap:
        faults.execute_in_worker(fault, key)
        value = invariant(instance)
    return tracing.pack_result(value, cap)


class InvariantPipeline:
    """Cached, parallel, fault-tolerant computation of invariants over
    instance corpora.

    Parameters
    ----------
    backend:
        ``"serial"`` (default) or ``"processes"``.
    workers:
        Pool size for the process backend (default: CPU count).
    cache:
        An :class:`InvariantCache` to share between pipelines, or None to
        create a private one.
    cache_size:
        Memory-tier size of the private cache when *cache* is None.
    store:
        A :class:`~repro.store.SegmentStore` to attach as the private
        cache's persistent tier, so invariants survive a restart.
        Ignored when an explicit *cache* is passed — configure that
        cache directly.
    retry:
        A :class:`~repro.pipeline.resilience.RetryPolicy`, or None for
        the default (3 attempts, capped exponential backoff with
        deterministic jitter).
    task_timeout:
        Per-task deadline in seconds for the process backend, or None
        (no deadline).  An overdue task is charged a
        :class:`~repro.errors.TimeoutError` and the pool is recycled.
        The serial backend runs inline and enforces no preemption.
    max_pool_respawns:
        How many times a broken pool is respawned per batch before the
        remaining tasks degrade to the serial backend.
    """

    def __init__(
        self,
        backend: str = "serial",
        workers: int | None = None,
        cache: InvariantCache | None = None,
        cache_size: int = 1024,
        retry: RetryPolicy | None = None,
        task_timeout: float | None = None,
        max_pool_respawns: int = 2,
        store=None,
    ):
        if backend not in BACKENDS:
            raise PipelineError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        self.workers = workers or os.cpu_count() or 1
        # `cache or ...` would discard an injected empty cache (len 0 is
        # falsy), silently breaking sharing across pipelines.
        self.cache = (
            cache
            if cache is not None
            else InvariantCache(maxsize=cache_size, store=store)
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.task_timeout = task_timeout
        self.max_pool_respawns = max_pool_respawns
        self.stats = PipelineStats()
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut down the persistent worker pool (if one was started).

        The pipeline remains usable afterwards — the next parallel
        batch starts a fresh pool."""
        if self._pool is not None:
            # Not a graceful shutdown(wait=True): the pool may hold a
            # hung or broken worker that would block (or outlive) us.
            # Workers are idle between batches, so terminating is safe.
            _teardown_process_pool(self._pool)
            self._pool = None

    def __enter__(self) -> "InvariantPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _process_pool(self) -> ProcessPoolExecutor:
        # Lazily created and kept for the pipeline's lifetime: repeated
        # small batches would otherwise pay interpreter startup per call.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(self.workers)
        return self._pool

    def _respawn_processes(self) -> None:
        # Replace a broken pool: kill the corpse (its workers are dead
        # or hung; nothing worth waiting for) and start fresh.
        if self._pool is not None:
            _teardown_process_pool(self._pool)
        self._pool = ProcessPoolExecutor(self.workers)

    # -- single instance ----------------------------------------------------

    def compute(self, instance: SpatialInstance) -> TopologicalInvariant:
        """The invariant of one instance, through the cache."""
        return self.compute_batch([instance])[0]

    # -- batch --------------------------------------------------------------

    def compute_batch(
        self,
        instances: Sequence[SpatialInstance],
        on_error: str = "raise",
        keys: "Sequence[str] | None" = None,
    ) -> list[TopologicalInvariant] | BatchResult:
        """Invariants of *instances*, in order.

        Duplicate geometries inside the batch are computed once; cached
        geometries are not computed at all; the remaining misses go to
        the worker pool with per-instance fault isolation.

        *on_error* selects the failure semantics:

        * ``"raise"`` (default) — return a plain list; a persistent
          per-instance failure raises its
          :class:`~repro.errors.ComputeError` after every sibling has
          been computed and cached;
        * ``"skip"`` — return a :class:`BatchResult` iterating over the
          successful invariants only;
        * ``"collect"`` — return a :class:`BatchResult` iterating over
          per-input :class:`~repro.pipeline.resilience.Outcome`
          objects (ok or failed, aligned with the inputs).

        Under an installed tracer (:func:`repro.tracing.tracing`) the
        batch records a ``pipeline.compute_batch`` span; spans recorded
        inside workers — including process-pool workers — are captured
        in the worker and re-parented under the submitting task's span.
        Tracing never changes results (the differential suite in
        ``tests/test_tracing.py`` holds the pipeline to that).

        *keys* optionally supplies the instances' content keys
        (aligned with *instances*), skipping re-derivation when the
        caller already holds them — the query service keys every
        instance at registration, so its invariant batches arrive
        pre-keyed.  The keys are trusted; passing a key that is not
        ``instance_key(inst)`` corrupts the content-addressed cache.
        """
        if on_error not in ON_ERROR_MODES:
            raise PipelineError(
                f"unknown on_error mode {on_error!r}; "
                f"expected one of {ON_ERROR_MODES}"
            )
        instances = list(instances)
        if keys is not None:
            keys = list(keys)
            if len(keys) != len(instances):
                raise PipelineError(
                    f"keys length {len(keys)} does not match "
                    f"{len(instances)} instances"
                )
        self.stats.count("instances_seen", len(instances))
        failures: dict[str, Outcome] = {}
        computed_outcomes: dict[str, Outcome] = {}
        with tracing.span(
            "pipeline.compute_batch",
            backend=self.backend,
            instances=len(instances),
        ):
            with tracing.span("pipeline.resolve"):
                if keys is None:
                    keys = [instance_key(inst) for inst in instances]
                resolved: dict[str, TopologicalInvariant] = {}
                misses: dict[str, SpatialInstance] = {}
                for key, inst in zip(keys, instances):
                    if key in resolved or key in misses:
                        self.stats.count("cache_hits")
                        continue
                    hit = self.cache.get(key)
                    if hit is not None:
                        self.stats.count("cache_hits")
                        resolved[key] = hit
                    else:
                        self.stats.count("cache_misses")
                        misses[key] = inst
            if misses:
                with tracing.span("pipeline.map", misses=len(misses)):
                    outcomes = self._map_invariants(misses)
                computed = 0
                for key in misses:
                    out = outcomes[key]
                    computed_outcomes[key] = out
                    if out.ok:
                        computed += 1
                        self.cache.put(key, out.value)
                        resolved[key] = out.value
                    else:
                        failures[key] = out
                self.stats.count("invariants_computed", computed)
            self.stats.set_gauge("store_hits", self.cache.store_hits)
            self.stats.set_gauge(
                "store_write_failures", self.cache.store_write_failures
            )
        if on_error == "raise":
            for key in keys:
                if key in failures:
                    raise failures[key].error
            return [resolved[key] for key in keys]
        ordered = [
            computed_outcomes[key]
            if key in computed_outcomes
            else Outcome.success(key, resolved[key], 0)
            for key in keys
        ]
        return BatchResult(ordered, mode=on_error)

    def _map_invariants(
        self, misses: dict[str, SpatialInstance]
    ) -> dict[str, Outcome]:
        """Per-key outcomes for the batch's cold misses, via the
        resilient mapper over this pipeline's backend chain."""
        pooled = self.backend == "processes" and len(misses) > 1
        chain = ["processes", "serial"] if pooled else ["serial"]

        def run_inline(key: str, fault: dict | None):
            # Spans recorded by the task (arrangement build, canonize…)
            # are captured per-thread and re-parented by the mapper
            # under the submitting task's span — the same piggyback
            # protocol the process workers use.
            with tracing.capture() as cap:
                faults.execute_inline(fault, key)
                value = invariant(misses[key])
            return tracing.pack_result(value, cap)

        runners: dict[str, object] = {"serial": SerialRunner(run_inline)}
        if pooled:
            # Drawn in the parent at submit time, like the fault payload:
            # the worker interpreter cannot see the parent's tracer.
            tracer = tracing.current_tracer()
            shipped = tracer.capture_counters if tracer is not None else None
            runners["processes"] = ExecutorRunner(
                submit=lambda key, fault: self._process_pool().submit(
                    _invariant_task, (key, misses[key], fault, shipped)
                ),
                respawn=self._respawn_processes,
            )
        mapper = ResilientMapper(
            runners,
            chain,
            self.retry,
            self.stats,
            workers=self.workers,
            task_timeout=self.task_timeout,
            max_pool_respawns=self.max_pool_respawns,
        )
        return mapper.run(list(misses))

    # -- equivalence --------------------------------------------------------

    def equivalence_groups(
        self, instances: Sequence[SpatialInstance]
    ) -> list[list[int]]:
        """Partition indices of *instances* into H-equivalence classes.

        Invariants are bucketed by canonical hash first; the backtracking
        isomorphism search runs only within a bucket, as a verification
        of the hash decision (a mismatch would be a canonization bug and
        raises).
        """
        invariants = self.compute_batch(instances)
        with tracing.span("pipeline.equivalence", instances=len(instances)):
            buckets: dict[str, list[int]] = {}
            for i, t in enumerate(invariants):
                buckets.setdefault(canonical_hash(t), []).append(i)
            self.stats.count("buckets", len(buckets))
            groups: list[list[int]] = []
            for key in sorted(buckets):
                members = buckets[key]
                rep = invariants[members[0]]
                for i in members[1:]:
                    self.stats.count("isomorphism_calls")
                    if find_isomorphism(invariants[i], rep) is None:
                        raise PipelineError(
                            "canonical hash collision without isomorphism"
                            f" (bucket {key[:12]}…): canonization bug"
                        )
                groups.append(list(members))
        return groups


def topologically_equivalent_batch(
    instances: Iterable[SpatialInstance],
    pipeline: InvariantPipeline | None = None,
) -> list[list[int]]:
    """H-equivalence classes of *instances* as index groups.

    Every pair of indices inside one group is topologically equivalent
    (Theorem 3.4); indices in different groups are not.  A throwaway
    serial pipeline is used unless one is supplied.
    """
    pipeline = pipeline or InvariantPipeline()
    return pipeline.equivalence_groups(list(instances))
