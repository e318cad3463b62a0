"""The asyncio topological query service.

:class:`QueryService` is the first "serve traffic" layer of the
reproduction: clients register named spatial instances once, then ask
topological questions — cell/rect logic sentences, point/real logic
sentences, topological equivalence, invariant lookup — and every answer
is produced by the existing engines (:mod:`repro.logic` evaluators, the
shared :class:`~repro.pipeline.InvariantPipeline` cache) under the
service's concurrency discipline:

* **inline hits** — an invariant lookup whose ``T_I`` sits in the
  pipeline cache's memory tier is answered on the event loop, with no
  admission slot, no coalescing and no executor hop;
* **coalescing** — identical in-flight requests share one compute
  (:mod:`repro.service.coalesce`);
* **conflated misses** — distinct invariant misses share one
  ``compute_batch``: one batch runs at a time and the misses that
  arrive meanwhile ride the next, so a ``processes`` pipeline computes
  them in parallel;
* **admission control** — bounded in-flight compute with FIFO queueing
  and 503-style shedding (:mod:`repro.service.admission`);
* **deadlines** — a per-request :class:`~repro.instrument.Deadline`
  covers queueing *and* evaluation, threaded into the compiled
  engine's cooperative timeout where the endpoint supports it;
* **observability** — per-endpoint latency/throughput/SLO rollups in
  :class:`~repro.pipeline.PipelineStats`, ``service.*`` counters, and a
  ``service.request`` span per request with worker-side evaluation
  spans adopted underneath (the :mod:`repro.tracing` piggyback
  protocol).

Evaluations run on a service-owned thread pool via
``loop.run_in_executor`` — the engines are synchronous and CPU-bound,
and the event loop must stay responsive to make admission and
coalescing decisions.  The fan-out future is settled from the compute's
done-callback, *not* from the leader's coroutine: a leader whose own
deadline expires mid-evaluation abandons its wait, but the result still
serves any follower whose budget is larger.

Deadline semantics under coalescing: every awaiter — leader or
follower — times out independently against its own budget, but the
*evaluation* runs under the leader's deadline (it launched the
compute).  A follower with a longer budget can therefore still receive
the leader's :class:`~repro.errors.TimeoutError`; it never receives a
partial answer.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Hashable

from .. import tracing
from ..errors import (
    OverloadError,
    ServiceClosedError,
    ServiceError,
    StoreError,
    StoreUnavailableError,
    TimeoutError,
    UnknownInstanceError,
)
from ..instrument import Deadline
from ..invariant import are_isomorphic, canonical_hash, instance_key
from ..logic import (
    evaluate_cells,
    evaluate_point,
    evaluate_real,
    evaluate_rect,
    parse,
)
from ..pipeline import InvariantPipeline
from ..regions import SpatialInstance
from .admission import AdmissionController
from .breaker import CircuitBreaker
from .coalesce import CoalesceTable
from .metrics import counters

__all__ = ["QueryAnswer", "QueryService"]

#: Default latency SLO targets, per endpoint, in seconds.  Deliberately
#: loose — they exist so attainment is reported out of the box; real
#: deployments override them per workload.
DEFAULT_SLOS: dict[str, float] = {
    "cells": 1.0,
    "rect": 1.0,
    "real": 1.0,
    "point": 1.0,
    "equivalent": 2.0,
    "invariant": 2.0,
}


class QueryAnswer:
    """One served answer: the value plus how it was produced."""

    __slots__ = ("endpoint", "value", "coalesced", "seconds")

    def __init__(
        self, endpoint: str, value, coalesced: bool, seconds: float
    ):
        self.endpoint = endpoint
        self.value = value
        self.coalesced = coalesced
        self.seconds = seconds

    def __bool__(self) -> bool:
        return bool(self.value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        how = "coalesced" if self.coalesced else "computed"
        return (
            f"QueryAnswer({self.endpoint}, {self.value!r}, {how}, "
            f"{self.seconds * 1e3:.1f}ms)"
        )


class _Registered:
    """A registry entry: the geometry, its content key, and the
    ``canonical_hash`` of its isomorphism class once known.  The class
    is a function of the geometry, so learning it never goes stale;
    re-registering a name replaces the whole entry."""

    __slots__ = ("instance", "key", "class_hash")

    def __init__(
        self, instance: SpatialInstance, key: str, class_hash: str | None
    ):
        self.instance = instance
        self.key = key
        self.class_hash = class_hash


class QueryService:
    """An asyncio front-end serving topological queries over named
    stored instances.

    Parameters
    ----------
    pipeline:
        The shared invariant pipeline (cache + stats).  Owned by the
        caller when passed; created (and closed on shutdown) by the
        service otherwise, over *store* when one is given, so the
        invariants the store holds are read rather than recomputed and
        computed ones are written through to it.
    max_inflight:
        Compute slots: evaluations running concurrently.
    max_queue:
        Admission queue depth beyond the slots; requests arriving past
        ``max_inflight + max_queue`` distinct in-flight computes are
        shed with :class:`~repro.errors.OverloadError`.
    default_timeout:
        Per-request deadline in seconds applied when a request does not
        carry its own (None → unbounded).
    slo_targets:
        Per-endpoint latency SLO overrides (seconds), merged over
        :data:`DEFAULT_SLOS`.
    store:
        A :class:`~repro.store.SegmentStore` (or
        :class:`~repro.store.MirroredStore`) to resolve instances from:
        :meth:`register` accepts a bare content key and loads the
        geometry the store recorded for it, so a service can front a
        persisted corpus without re-shipping geometries.
    breaker_threshold / breaker_reset_after:
        Store-read circuit breaker tuning: trip open after this many
        *consecutive* structured store failures; let a half-open probe
        through after this many seconds.  While open, store reads fail
        fast with :class:`~repro.errors.StoreUnavailableError` (503).
    scrubber:
        An optional :class:`~repro.store.Scrubber` whose progress
        :meth:`health` should surface (also settable later via the
        ``scrubber`` attribute).
    """

    def __init__(
        self,
        pipeline: InvariantPipeline | None = None,
        max_inflight: int = 4,
        max_queue: int = 32,
        default_timeout: float | None = None,
        slo_targets: dict[str, float] | None = None,
        store=None,
        breaker_threshold: int = 5,
        breaker_reset_after: float = 30.0,
        scrubber=None,
    ):
        self._owns_pipeline = pipeline is None
        self.pipeline = (
            pipeline if pipeline is not None else InvariantPipeline(store=store)
        )
        self.store = (
            store if store is not None else self.pipeline.cache.store
        )
        self.stats = self.pipeline.stats
        self.default_timeout = default_timeout
        self._instances: dict[str, _Registered] = {}
        self._admission = AdmissionController(max_inflight, max_queue)
        self._coalesce = CoalesceTable()
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-service"
        )
        # The pipeline is not re-entrant across threads (lazy pool
        # construction, batch bookkeeping), so pipeline-backed
        # endpoints serialize on this lock; its cache makes repeats
        # cheap, coalescing absorbs the duplicates and the invariant
        # batch absorbs distinct misses.
        self._pipeline_lock = threading.Lock()
        # Invariant misses waiting for the next batch, as
        # ``(key, instance, deadline, future)``, and the running batch.
        self._misses: list[tuple] = []
        self._batch: asyncio.Future | None = None
        self._closed = False
        self._draining = False
        self._breaker = CircuitBreaker(
            threshold=breaker_threshold, reset_after=breaker_reset_after
        )
        self.scrubber = scrubber
        for endpoint, target in {**DEFAULT_SLOS, **(slo_targets or {})}.items():
            self.stats.set_slo_target(endpoint, target)

    # -- instance registry --------------------------------------------------

    def register(self, name: str, instance: SpatialInstance) -> str:
        """Store *instance* under *name*; returns its content key.  Its
        isomorphism class is learned on the first refinement-0 cells
        request."""
        return self._register(name, instance, None)

    def _register(
        self, name: str, instance: SpatialInstance, class_hash: str | None
    ) -> str:
        key = instance_key(instance)
        self._instances[name] = _Registered(instance, key, class_hash)
        return key

    def register_from_store(self, name: str, key: str) -> str:
        """Register the instance the segment store persisted under
        *key* (a 64-hex ``instance_key`` digest, e.g. from
        ``store.keys()`` or a window query).  The stored record must
        carry its geometry (``bulk_load`` embeds it by default).  The
        record's canonical hash, when it has one, is the instance's
        isomorphism class, so cells requests on it can share a class
        universe from the start.

        Raises :class:`~repro.errors.UnknownInstanceError` when the
        service has no store, the key misses, or the record was stored
        without geometry.
        """
        if self.store is None:
            raise UnknownInstanceError(
                "no segment store attached to this service",
                endpoint="register",
                name=name,
            )

        def read():
            record = self.store.get_record(key)
            if record is None or not record.has_instance:
                return None
            return record.instance(), record.canonical_hash

        found = self._store_read("register", read)
        if found is None:
            raise UnknownInstanceError(
                f"segment store has no geometry for key {key[:12]}…",
                endpoint="register",
                name=name,
            )
        counters.count("store_registers")
        return self._register(name, *found)

    def _store_read(self, endpoint: str, fn, *args):
        """One store read through the circuit breaker.

        While the breaker is open the store is not touched at all —
        the request fails fast with a structured 503 — and a corrupt
        or failing store degrades the service to "unavailable for
        store-backed requests", never to wrong answers or pile-ups of
        slow failures.  The breaker's permit API attributes this
        read's outcome to the admission decision it got — a read that
        straddles a trip/reset transition can neither close the
        breaker nor steal the half-open probe slot."""
        permit = self._breaker.acquire()
        if permit is None:
            counters.count("breaker_short_circuits")
            raise StoreUnavailableError(
                "store reads are circuit-broken after repeated "
                "failures; retry after backoff",
                endpoint=endpoint,
                breaker_state=self._breaker.state,
            )
        if permit == "probe":
            counters.count("breaker_probes")
        try:
            result = fn(*args)
        except StoreError:
            counters.count("store_read_errors")
            if self._breaker.settle(permit, ok=False):
                counters.count("breaker_opens")
            raise
        self._breaker.settle(permit, ok=True)
        return result

    def forget(self, name: str) -> None:
        self._instances.pop(name, None)

    def instance_names(self) -> list[str]:
        return sorted(self._instances)

    def _resolve(self, endpoint: str, name: str) -> _Registered:
        try:
            return self._instances[name]
        except KeyError:
            raise UnknownInstanceError(
                f"no stored instance named {name!r}",
                endpoint=endpoint,
                name=name,
            ) from None

    # -- endpoints -----------------------------------------------------------
    #
    # Each endpoint builds a *request spec* — a plain dict of the
    # evaluation's ingredients — plus the coalesce key, and hands both
    # to ``_serve``.  An invariant spec joins the conflated batch
    # (``_start_batch``); every other spec becomes a local closure
    # (``_local_fn``) run on the executor.

    async def ask_cells(
        self,
        name: str,
        formula,
        refinement: int = 0,
        timeout: float | None = None,
    ) -> QueryAnswer:
        """Evaluate a cell-semantics sentence against instance *name*.

        At refinement 0 the sentence is asked of the instance's
        isomorphism class (Theorem 5.6): once the class is known, a
        request whose class universe is cached reads neither the
        pipeline nor the store, and a miss fetches ``T_I`` through the
        pipeline."""
        entry = self._resolve("cells", name)
        sentence = parse(formula) if isinstance(formula, str) else formula
        ckey = ("cells", entry.key, refinement, sentence)
        spec = {
            "kind": "cells",
            "entry": entry,
            "formula": sentence,
            "refinement": refinement,
        }
        return await self._serve("cells", ckey, spec, timeout)

    async def ask_rect(
        self,
        name: str,
        formula,
        timeout: float | None = None,
    ) -> QueryAnswer:
        """Evaluate a rectangle-quantifier sentence against *name*."""
        entry = self._resolve("rect", name)
        inst, key = entry.instance, entry.key
        sentence = parse(formula) if isinstance(formula, str) else formula
        ckey = ("rect", key, sentence)
        spec = {
            "kind": "rect",
            "key": key,
            "inst": inst,
            "formula": sentence,
        }
        return await self._serve("rect", ckey, spec, timeout)

    async def ask_real(
        self,
        name: str,
        formula,
        timeout: float | None = None,
    ) -> QueryAnswer:
        """Evaluate an FO(R, <, Region') sentence against *name*."""
        entry = self._resolve("real", name)
        inst, key = entry.instance, entry.key
        ckey = ("real", key, formula)
        spec = {
            "kind": "real",
            "key": key,
            "inst": inst,
            "formula": formula,
        }
        return await self._serve("real", ckey, spec, timeout)

    async def ask_point(
        self,
        name: str,
        formula,
        timeout: float | None = None,
    ) -> QueryAnswer:
        """Evaluate an FO(P, <x, <y, Region') sentence against *name*."""
        entry = self._resolve("point", name)
        inst, key = entry.instance, entry.key
        ckey = ("point", key, formula)
        spec = {
            "kind": "point",
            "key": key,
            "inst": inst,
            "formula": formula,
        }
        return await self._serve("point", ckey, spec, timeout)

    async def equivalent(
        self, name_a: str, name_b: str, timeout: float | None = None
    ) -> QueryAnswer:
        """Are the two stored instances topologically equivalent?
        (Theorem 3.4: answered on the invariants, through the cache.)"""
        a = self._resolve("equivalent", name_a)
        b = self._resolve("equivalent", name_b)
        inst_a, key_a, inst_b, key_b = a.instance, a.key, b.instance, b.key
        ckey = ("equivalent", frozenset((key_a, key_b)))
        spec = {
            "kind": "equivalent",
            "key": key_a,
            "inst": inst_a,
            "key_b": key_b,
            "inst_b": inst_b,
        }
        return await self._serve("equivalent", ckey, spec, timeout)

    async def invariant_of(
        self, name: str, timeout: float | None = None
    ) -> QueryAnswer:
        """The stored instance's topological invariant ``T_I``."""
        entry = self._resolve("invariant", name)
        inst, key = entry.instance, entry.key
        ckey = ("invariant", key)
        spec = {"kind": "invariant", "key": key, "inst": inst}
        return await self._serve("invariant", ckey, spec, timeout)

    # -- the serving core ----------------------------------------------------

    def _local_fn(self, spec: dict) -> Callable[[Deadline], object]:
        """The in-process evaluation closure for a request spec (any
        kind but ``invariant``, which is batched)."""
        kind = spec["kind"]
        if kind == "equivalent":

            def fn(deadline: Deadline) -> bool:
                deadline.check("equivalent")
                if spec["key"] == spec["key_b"]:
                    return True
                with self._pipeline_lock:
                    inv_a, inv_b = self.pipeline.compute_batch(
                        [spec["inst"], spec["inst_b"]],
                        keys=[spec["key"], spec["key_b"]],
                    )
                deadline.check("equivalent")
                return are_isomorphic(inv_a, inv_b)

        else:

            def fn(deadline: Deadline) -> bool:
                deadline.check(kind)
                if kind == "cells":
                    return self._evaluate_cells(spec, deadline)
                if kind == "rect":
                    return evaluate_rect(spec["formula"], spec["inst"])
                if kind == "real":
                    return evaluate_real(spec["formula"], spec["inst"])
                if kind == "point":
                    return evaluate_point(spec["formula"], spec["inst"])
                raise ServiceError(
                    f"unknown request kind {kind!r}", endpoint=kind
                )

        return fn

    def _evaluate_cells(self, spec: dict, deadline: Deadline) -> bool:
        """A cells request, on an executor thread.  At refinement 0 the
        sentence goes to the class universe: an entry whose class is
        unknown gets its ``T_I`` from the pipeline and hashes it once;
        one whose class is known fetches ``T_I`` only if the universe
        misses.  Refinement overlays geometry, so it asks the
        instance."""
        entry = spec["entry"]
        if spec["refinement"]:
            return evaluate_cells(
                spec["formula"],
                entry.instance,
                refinement=spec["refinement"],
                timeout=deadline.remaining(),
            )

        def fetch():
            with self._pipeline_lock:
                return self.pipeline.compute_batch(
                    [entry.instance], keys=[entry.key]
                )[0]

        source = fetch
        if entry.class_hash is None:
            # Threads racing here each store the same hash: the class
            # is a function of the geometry.
            source = fetch()
            entry.class_hash = canonical_hash(source)
        return evaluate_cells(
            spec["formula"],
            source,
            timeout=deadline.remaining(),
            class_hash=entry.class_hash,
        )

    def _launch_compute(self, spec, deadline: Deadline) -> asyncio.Future:
        """Start the evaluation for *spec* and return its future.

        An invariant miss joins the pending batch; every other spec
        runs its local closure on the service-owned executor.  *spec*
        may also be a raw ``fn(deadline)`` callable (tests drive
        ``_serve`` directly with one) — it bypasses spec translation.
        """
        loop = asyncio.get_running_loop()
        if not callable(spec) and spec["kind"] == "invariant":
            miss = loop.create_future()
            self._misses.append((spec["key"], spec["inst"], deadline, miss))
            if self._batch is None:
                self._start_batch()
            return miss
        fn = spec if callable(spec) else self._local_fn(spec)
        return loop.run_in_executor(
            self._executor, self._run_traced, fn, deadline
        )

    def _start_batch(self) -> None:
        """Compute every pending invariant miss in one ``compute_batch``.

        One batch runs at a time; misses that arrive meanwhile wait and
        ride the next one, each settled with its own outcome.  Each
        miss holds an admission slot, so admission bounds the batch.
        A miss whose deadline expired while it waited fails with
        :class:`~repro.errors.TimeoutError` and is not computed.
        """
        batch = []
        for key, inst, deadline, miss in self._misses:
            if deadline.expired():
                miss.set_exception(
                    TimeoutError(
                        "invariant request spent its "
                        f"{deadline.seconds:g}s budget waiting for a batch",
                        key=key,
                        stage="invariant",
                    )
                )
            else:
                batch.append((key, inst, miss))
        self._misses = []
        if not batch:
            return
        keys = [key for key, _, _ in batch]
        insts = [inst for _, inst, _ in batch]
        self._batch = asyncio.get_running_loop().run_in_executor(
            self._executor, self._run_traced, self._compute_misses, keys, insts
        )
        self._batch.add_done_callback(
            lambda done: self._finish_batch(batch, done)
        )

    def _compute_misses(self, keys: list, insts: list):
        with self._pipeline_lock:
            return self.pipeline.compute_batch(
                insts, on_error="collect", keys=keys
            )

    def _finish_batch(self, batch: list, done: asyncio.Future) -> None:
        """Settle each miss of a finished batch with its own outcome,
        then start the next batch — or, once the service is closed,
        fail the misses still waiting."""
        self._batch = None
        if done.cancelled():
            error = ServiceClosedError(
                "service shut down mid-batch", endpoint="invariant"
            )
        else:
            error = done.exception()
        if error is not None:
            for _key, _inst, miss in batch:
                miss.set_exception(error)
        else:
            result, worker_spans = tracing.unpack_result(done.result())
            for (_key, _inst, miss), outcome in zip(batch, result.outcomes):
                if not outcome.ok:
                    miss.set_exception(outcome.error)
                elif worker_spans:
                    # The batch's spans are adopted once, under the
                    # first request it answers.
                    miss.set_result(
                        tracing.TracedResult(outcome.value, worker_spans)
                    )
                    worker_spans = None
                else:
                    miss.set_result(outcome.value)
        if self._closed:
            self._fail_misses()
        elif self._misses:
            self._start_batch()

    def _fail_misses(self) -> None:
        """Fail every invariant miss not yet in a batch (shutdown)."""
        misses, self._misses = self._misses, []
        for _key, _inst, _deadline, miss in misses:
            miss.set_exception(ServiceClosedError("service closed"))

    async def _serve(
        self,
        endpoint: str,
        ckey: Hashable,
        spec,
        timeout: float | None,
    ) -> QueryAnswer:
        """Admission → coalescing → compute → fan-out, under a deadline.

        The decision sequence up to the leader's registration is
        synchronous (no awaits), which is what makes the
        leader/follower/shed split deterministic under event-loop
        scheduling.
        """
        if self._closed or self._draining:
            raise ServiceClosedError(
                "service is draining"
                if self._draining and not self._closed
                else "service is closed",
                endpoint=endpoint,
            )
        counters.count("requests")
        if timeout is None:
            timeout = self.default_timeout
        deadline = Deadline(timeout)
        tracer = tracing.current_tracer()
        span = (
            tracer.start_span(
                "service.request",
                push=False,
                attributes={"endpoint": endpoint},
            )
            if tracer is not None
            else None
        )
        t0 = perf_counter()
        status = "error"
        try:
            if endpoint == "invariant":
                # A memory-tier hit is a read of a content-addressed
                # value: nothing is left for admission, coalescing or
                # the executor to bound.
                value = self.pipeline.cache.peek(spec["key"])
                if value is not None:
                    if span is not None:
                        span.attributes["cached"] = True
                    status = "ok"
                    return QueryAnswer(
                        endpoint, value, False, perf_counter() - t0
                    )
            shared = self._coalesce.peek(ckey)
            if shared is not None:
                counters.count("coalesced")
                if span is not None:
                    span.attributes["coalesced"] = True
                value = await self._await_shared(endpoint, shared, deadline)
                status = "ok"
                return QueryAnswer(
                    endpoint, value, True, perf_counter() - t0
                )

            # Leader path.  Admission is decided before registering in
            # the coalesce table: a shed request must not leave an
            # entry for followers to pile onto.
            waiter = self._admission.admit(endpoint)
            shared = self._coalesce.lead(ckey)
            counters.count("computes")
            holding = waiter is None
            try:
                if waiter is not None:
                    await self._await_slot(endpoint, waiter, deadline)
                    holding = True
                deadline.check(endpoint)
                if self._closed:
                    # close() ran while this request queued: its
                    # executor is gone, so nothing can be launched.
                    raise ServiceClosedError(
                        "service closed", endpoint=endpoint
                    )
            except BaseException as exc:
                # The compute never started; fail the fan-out future so
                # followers get the same structured error.
                if holding:
                    self._admission.release()
                self._coalesce.reject(ckey, exc)
                raise

            compute = self._launch_compute(spec, deadline)

            def _settle(f: asyncio.Future) -> None:
                # Runs on the event loop when the evaluation finishes —
                # even if the leader's await below already timed out,
                # so a slow leader still feeds its followers.
                self._admission.release()
                if f.cancelled():
                    self._coalesce.reject(
                        ckey,
                        ServiceClosedError(
                            "service shut down mid-evaluation",
                            endpoint=endpoint,
                        ),
                    )
                    return
                exc = f.exception()
                if exc is not None:
                    self._coalesce.reject(ckey, exc)
                    return
                value, worker_spans = tracing.unpack_result(f.result())
                if span is not None and worker_spans:
                    tracer.adopt(span, worker_spans)
                self._coalesce.resolve(ckey, value)

            compute.add_done_callback(_settle)
            value = await self._await_shared(endpoint, shared, deadline)
            status = "ok"
            return QueryAnswer(endpoint, value, False, perf_counter() - t0)
        except OverloadError:
            status = "shed"
            counters.count("shed")
            if span is not None:
                tracer.add_event("shed", span=span)
            raise
        except TimeoutError:
            status = "timeout"
            counters.count("timeouts")
            if span is not None:
                tracer.add_event("deadline_expired", span=span)
            raise
        except Exception:
            counters.count("errors")
            raise
        finally:
            seconds = perf_counter() - t0
            if span is not None:
                span.attributes["status"] = status
                tracer.finish_span(span)
            self.stats.record_request(endpoint, seconds, status)

    def _run_traced(self, fn: Callable, *args):
        """Executor-side wrapper: run ``fn(*args)`` with worker-thread
        spans captured for adoption under the request span."""
        with tracing.capture() as cap:
            value = fn(*args)
        return tracing.pack_result(value, cap)

    async def _await_shared(
        self, endpoint: str, shared: asyncio.Future, deadline: Deadline
    ):
        """Await the fan-out future under this request's own deadline.

        The shield keeps one awaiter's timeout from cancelling the
        shared future out from under everyone else.
        """
        remaining = deadline.remaining()
        if remaining is None:
            return await asyncio.shield(shared)
        try:
            return await asyncio.wait_for(asyncio.shield(shared), remaining)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"{endpoint} request exceeded its "
                f"{deadline.seconds:g}s budget",
                stage=endpoint,
            ) from None

    async def _await_slot(
        self, endpoint: str, waiter: asyncio.Future, deadline: Deadline
    ) -> None:
        """Wait for an admission slot; the deadline keeps ticking."""
        remaining = deadline.remaining()
        try:
            if remaining is None:
                await waiter
            else:
                await asyncio.wait_for(waiter, remaining)
        except asyncio.TimeoutError:
            self._admission.abandon(waiter)
            raise TimeoutError(
                f"{endpoint} request spent its {deadline.seconds:g}s "
                "budget queued for admission",
                stage=endpoint,
            ) from None
        except asyncio.CancelledError:
            self._admission.abandon(waiter)
            raise

    # -- introspection and lifecycle ----------------------------------------

    @property
    def inflight(self) -> int:
        return self._admission.active

    @property
    def queued(self) -> int:
        return self._admission.waiting

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    def health(self) -> dict:
        """A liveness/diagnostics snapshot: lifecycle state, admission
        pressure, breaker state, replica status, and scrub progress.
        Cheap enough to poll — no store reads, no locks beyond the
        replica-status snapshot."""
        store_status: dict = {"attached": self.store is not None}
        if self.store is not None:
            replica_status = getattr(self.store, "replica_status", None)
            if replica_status is not None:
                replicas = replica_status()
                store_status["replicas"] = replicas
                store_status["replicas_up"] = sum(
                    1 for r in replicas if r["up"]
                )
            store_status["closed"] = getattr(self.store, "closed", False)
        return {
            "status": (
                "closed"
                if self._closed
                else "draining"
                if self._draining
                else "degraded"
                if self._breaker.state != "closed"
                else "ok"
            ),
            "admission": self._admission.snapshot(),
            "breaker": self._breaker.snapshot(),
            "store": store_status,
            "scrub": (
                self.scrubber.state() if self.scrubber is not None else None
            ),
        }

    def readiness(self) -> dict:
        """Is the service able to take traffic *right now*?  Returns
        ``{"ready": bool, "reasons": [...]}`` — the load-balancer
        answer, derived from :meth:`health` without re-deriving its
        snapshot."""
        reasons: list[str] = []
        if self._closed:
            reasons.append("closed")
        elif self._draining:
            reasons.append("draining")
        if self._breaker.state == "open":
            reasons.append("store breaker open")
        if self.store is not None:
            replica_status = getattr(self.store, "replica_status", None)
            if replica_status is not None and not any(
                r["up"] for r in replica_status()
            ):
                reasons.append("no store replica up")
        return {"ready": not reasons, "reasons": reasons}

    async def drain(self, poll_seconds: float = 0.005) -> None:
        """Stop admitting new requests and wait for every in-flight
        request — executing *or* queued for admission — to finish under
        its own deadline.  Idempotent; :meth:`aclose` calls it."""
        self._draining = True
        while self._admission.active or self._admission.waiting:
            await asyncio.sleep(poll_seconds)
        counters.count("drains")

    async def aclose(self) -> None:
        """Graceful shutdown: stop admitting, let in-flight requests
        finish under their deadlines, then release the pools and seal
        what the service owns."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        # shutdown(wait=True) blocks until running evaluations finish;
        # their done-callbacks then settle the fan-out futures on the
        # loop, so run the blocking wait off-loop.
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown
        )
        self._release()

    def close(self) -> None:
        """Synchronous teardown (for non-async callers and tests).
        Idempotent; skips the cooperative drain — running evaluations
        are still waited for by the executor shutdown."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        self._release()

    def _release(self) -> None:
        """Fail every request still waiting and close what the service
        owns (the tail of :meth:`close` and :meth:`aclose`)."""
        self._fail_misses()
        self._coalesce.reject_all(ServiceClosedError("service closed"))
        if self._owns_pipeline:
            self.pipeline.close()

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
