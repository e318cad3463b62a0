"""QueryService mechanics: registry, endpoints, coalescing, admission
control, deadlines, lifecycle, and observability rollups.

The suites drive the asyncio service from plain sync tests via
``asyncio.run`` (no pytest-asyncio in the environment).  Concurrency
tests use executor-gated compute functions injected through
``QueryService._serve`` so the leader/follower/shed split is pinned
down deterministically: the gate holds every evaluation open until the
whole wave of tasks has been scheduled.  The invariant batch is pinned
the same way, by holding the pipeline's first ``compute_batch`` open
(:class:`HeldBatches`).
"""

import asyncio
import threading
import time

import pytest

from repro import (
    OverloadError,
    QueryService,
    Rect,
    ServiceClosedError,
    ServiceError,
    SpatialInstance,
    UnknownInstanceError,
    canonical_hash,
    instance_key,
    invariant,
)
from repro import errors as repro_errors
from repro import tracing
from repro.instrument import Deadline, counter_delta, counter_snapshot
from repro.logic import (
    PRegion,
    PointExists,
    PointVar,
    RRegion,
    RealExists,
    RealVar,
    parse,
)
from repro.store import SegmentStore

LENS = SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
APART = SpatialInstance({"A": Rect(0, 0, 1, 1), "B": Rect(3, 3, 4, 4)})
OVERLAP_Q = "exists r . subset(r, A) and subset(r, B)"


def run(coro):
    return asyncio.run(coro)


def make_service(**kw):
    kw.setdefault("max_inflight", 2)
    kw.setdefault("max_queue", 8)
    svc = QueryService(**kw)
    svc.register("lens", LENS)
    svc.register("apart", APART)
    return svc


def row_of_boxes(n):
    """*n* translated copies of one box: distinct instance keys, one
    invariant."""
    return {
        f"box{x}": SpatialInstance({"A": Rect(10 * x, 0, 10 * x + 3, 3)})
        for x in range(n)
    }


class HeldBatches:
    """Records the keys of every ``compute_batch`` a service's pipeline
    runs, and holds the first call open until :attr:`gate` is set."""

    def __init__(self, svc):
        self.calls: list[list[str]] = []
        self.started = threading.Event()
        self.gate = threading.Event()
        compute_batch = svc.pipeline.compute_batch

        def held(instances, on_error="raise", keys=None):
            self.calls.append(keys)
            if len(self.calls) == 1:
                self.started.set()
                self.gate.wait(10)
            return compute_batch(instances, on_error=on_error, keys=keys)

        svc.pipeline.compute_batch = held


async def until(condition, timeout=10.0):
    """Yield to the event loop until ``condition()`` holds."""
    give_up = time.perf_counter() + timeout
    while not condition():
        assert time.perf_counter() < give_up, "condition never held"
        await asyncio.sleep(0.001)


class TestRegistry:
    def test_register_returns_content_key(self):
        svc = make_service()
        try:
            assert svc.register("again", LENS) == instance_key(LENS)
            assert svc.instance_names() == ["again", "apart", "lens"]
        finally:
            svc.close()

    def test_unknown_instance_is_structured_404(self):
        async def main():
            async with make_service() as svc:
                with pytest.raises(UnknownInstanceError) as exc_info:
                    await svc.ask_cells("nope", OVERLAP_Q)
                err = exc_info.value
                assert err.status == 404
                assert err.endpoint == "cells"
                assert err.name == "nope"
                assert isinstance(err, ServiceError)

        run(main())

    def test_forget_removes(self):
        async def main():
            async with make_service() as svc:
                svc.forget("apart")
                with pytest.raises(UnknownInstanceError):
                    await svc.invariant_of("apart")

        run(main())


class TestEndpoints:
    def test_cells_string_and_parsed_formula(self):
        async def main():
            async with make_service() as svc:
                a = await svc.ask_cells("lens", OVERLAP_Q)
                b = await svc.ask_cells("lens", parse(OVERLAP_Q))
                assert a.value is True and b.value is True
                assert bool(a)
                assert not (await svc.ask_cells("apart", OVERLAP_Q)).value

        run(main())

    def test_rect_endpoint(self):
        async def main():
            async with make_service() as svc:
                q = "exists s . subset(A, s) and subset(B, s)"
                assert (await svc.ask_rect("lens", q)).value is True

        run(main())

    def test_real_and_point_endpoints(self):
        quadrant = SpatialInstance({"A": Rect(1, -3, 3, -1)})

        async def main():
            async with make_service() as svc:
                svc.register("quad", quadrant)
                rq = RealExists(
                    "x",
                    RealExists("y", RRegion("A", RealVar("x"), RealVar("y"))),
                )
                pq = PointExists("p", PRegion("A", PointVar("p")))
                assert (await svc.ask_real("quad", rq)).value is True
                assert (await svc.ask_point("quad", pq)).value is True

        run(main())

    def test_equivalence_and_invariant_lookup(self):
        async def main():
            async with make_service() as svc:
                assert (await svc.equivalent("lens", "lens")).value is True
                assert (await svc.equivalent("lens", "apart")).value is False
                inv = (await svc.invariant_of("lens")).value
                assert canonical_hash(inv) == canonical_hash(invariant(LENS))

        run(main())

    def test_equivalent_reuses_registered_keys(self, monkeypatch):
        import repro.pipeline.engine as engine

        calls = []

        def counting_key(inst):
            calls.append(inst)
            return instance_key(inst)

        async def main():
            async with make_service() as svc:
                await svc.invariant_of("lens")
                await svc.invariant_of("apart")
                monkeypatch.setattr(engine, "instance_key", counting_key)
                assert (await svc.equivalent("lens", "apart")).value is False

        run(main())
        assert calls == []


class TestStoreBacked:
    def test_owned_pipeline_reads_the_store_and_writes_through(
        self, tmp_path
    ):
        """A service given only a store serves the invariants the store
        holds instead of recomputing them, and writes the ones it does
        compute through to the store."""
        corpus = row_of_boxes(10)
        want = canonical_hash(invariant(corpus["box0"]))
        store = SegmentStore(tmp_path / "seg")
        store.bulk_load(corpus.values())

        async def main():
            async with QueryService(store=store) as svc:
                for name, inst in corpus.items():
                    svc.register_from_store(name, instance_key(inst))
                for name in corpus:
                    answer = await svc.invariant_of(name)
                    assert canonical_hash(answer.value) == want
                assert svc.stats.store_hits == 10
                assert svc.stats.invariants_computed == 0
                fresh = SpatialInstance({"A": Rect(500, 0, 503, 3)})
                key = svc.register("fresh", fresh)
                await svc.invariant_of("fresh")
                assert svc.stats.invariants_computed == 1
                assert canonical_hash(store.get(key)) == want

        try:
            run(main())
        finally:
            store.close()


def lens_at(dx):
    """LENS translated by *dx*: a homeomorphic copy with its own key."""
    return SpatialInstance(
        {"A": Rect(dx, 0, dx + 4, 4), "B": Rect(dx + 2, 2, dx + 6, 6)}
    )


def universe_delta(before):
    delta = counter_delta(before, counter_snapshot())
    return (
        delta.get("query.universe_hits", 0),
        delta.get("query.universe_misses", 0),
    )


class TestClassUniverses:
    """A refinement-0 cells request is asked of the instance's
    isomorphism class: homeomorphic copies share one universe."""

    @pytest.fixture(autouse=True)
    def _fresh_universe_cache(self):
        from repro.logic.compiled import clear_universe_cache

        clear_universe_cache()
        yield
        clear_universe_cache()

    def _store(self, tmp_path):
        store = SegmentStore(tmp_path / "seg")
        store.bulk_load([lens_at(0), lens_at(100)])
        return store

    def test_store_registered_copy_hits_without_instance_key(
        self, tmp_path, monkeypatch
    ):
        import repro.logic.compiled as compiled
        import repro.pipeline.engine as engine
        import repro.service.service as service

        store = self._store(tmp_path)
        calls = []

        def counting_key(inst):
            calls.append(inst)
            return instance_key(inst)

        async def main():
            async with QueryService(store=store) as svc:
                svc.register_from_store("l0", instance_key(lens_at(0)))
                svc.register_from_store("l1", instance_key(lens_at(100)))
                assert (await svc.ask_cells("l0", OVERLAP_Q)).value is True
                for module in (compiled, engine, service):
                    monkeypatch.setattr(module, "instance_key", counting_key)
                before = counter_snapshot()
                assert (await svc.ask_cells("l1", OVERLAP_Q)).value is True
                assert universe_delta(before) == (1, 0)

        try:
            run(main())
        finally:
            store.close()
        assert calls == []

    def test_register_learns_the_class_on_the_first_cells_request(
        self, monkeypatch
    ):
        import importlib

        import repro.logic.compiled as compiled

        # ``repro.invariant`` is also the name of a function.
        compute = importlib.import_module("repro.invariant.compute")

        builds = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                builds.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapped

        async def main():
            async with QueryService() as svc:
                svc.register("l0", lens_at(0))
                svc.register("l1", lens_at(100))
                before = counter_snapshot()
                assert (await svc.ask_cells("l0", OVERLAP_Q)).value is True
                assert universe_delta(before) == (0, 1)
                # l1's invariant is served already; its cells request
                # learns the class from it and builds nothing.
                await svc.invariant_of("l1")
                monkeypatch.setattr(
                    compute, "build_complex", counting(compute.build_complex)
                )
                monkeypatch.setattr(
                    compiled,
                    "grid_refined_complex",
                    counting(compiled.grid_refined_complex),
                )
                before = counter_snapshot()
                assert (await svc.ask_cells("l1", OVERLAP_Q)).value is True
                assert universe_delta(before) == (1, 0)

        run(main())
        assert builds == []

    def test_reregistered_name_answers_from_the_new_class(self):
        async def main():
            async with QueryService() as svc:
                svc.register("x", LENS)
                assert (await svc.ask_cells("x", OVERLAP_Q)).value is True
                svc.register("x", APART)
                before = counter_snapshot()
                assert (await svc.ask_cells("x", OVERLAP_Q)).value is False
                assert universe_delta(before) == (0, 1)
                svc.register("x", lens_at(100))
                assert (await svc.ask_cells("x", OVERLAP_Q)).value is True

        run(main())

    def test_concurrent_first_requests_learn_one_class(self):
        """Executor threads racing to learn an entry's class each write
        the same hash; every answer is the direct evaluation's."""
        import sys

        from repro.logic import evaluate_cells

        # Distinct geometries: requests on one key would coalesce, and
        # only the leader's entry would learn the class.
        insts = {f"l{i}": lens_at(10 * i) for i in range(4)}
        insts.update(
            {
                f"a{i}": SpatialInstance(
                    {
                        "A": Rect(10 * i, 0, 10 * i + 1, 1),
                        "B": Rect(10 * i + 3, 3, 10 * i + 4, 4),
                    }
                )
                for i in range(4)
            }
        )
        sentences = [
            parse(OVERLAP_Q),
            parse("exists r . subset(r, A)"),
            parse("exists name a, b . not (a = b) and overlap(a, b)"),
        ]
        want = {
            (name, i): evaluate_cells(q, inst)
            for name, inst in insts.items()
            for i, q in enumerate(sentences)
        }

        async def main():
            async with QueryService(max_inflight=8, max_queue=64) as svc:
                for name, inst in insts.items():
                    svc.register(name, inst)
                requests = [
                    (name, i) for name in insts for i in range(len(sentences))
                ]
                answers = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            svc.ask_cells(name, sentences[i])
                            for name, i in requests
                        )
                    ),
                    60,
                )
                for request, answer in zip(requests, answers):
                    assert answer.value is want[request]
                for name, inst in insts.items():
                    entry = svc._resolve("cells", name)
                    assert entry.class_hash == canonical_hash(invariant(inst))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run(main())
        finally:
            sys.setswitchinterval(interval)

    def test_cached_class_answers_with_the_breaker_open(
        self, tmp_path, monkeypatch
    ):
        store = self._store(tmp_path)

        async def main():
            async with QueryService(store=store, breaker_threshold=1) as svc:
                svc.register_from_store("l0", instance_key(lens_at(0)))
                svc.register_from_store("l1", instance_key(lens_at(100)))
                assert (await svc.ask_cells("l0", OVERLAP_Q)).value is True
                svc.breaker.record_failure()
                assert svc.breaker.state == "open"

                def broken(*args, **kwargs):
                    raise repro_errors.StoreError("store is down", op="read")

                monkeypatch.setattr(store, "get_record", broken)
                monkeypatch.setattr(store, "get", broken)
                before = counter_snapshot()
                assert (await svc.ask_cells("l1", OVERLAP_Q)).value is True
                assert universe_delta(before) == (1, 0)

        try:
            run(main())
        finally:
            store.close()


class TestInlineHits:
    """An invariant in the pipeline cache's memory is answered on the
    event loop: no admission slot, no coalescing, no executor hop."""

    def test_hit_latency_includes_the_lookup(self, monkeypatch):
        async def main():
            async with make_service() as svc:
                await svc.invariant_of("lens")  # fills the memory tier
                cache = svc.pipeline.cache
                peek = cache.peek

                def slow_peek(key):
                    time.sleep(0.010)
                    return peek(key)

                monkeypatch.setattr(cache, "peek", slow_peek)
                before = counter_snapshot()
                hits = [await svc.invariant_of("lens") for _ in range(3)]
                delta = counter_delta(before, counter_snapshot())
                assert delta["service.requests"] == 3
                assert delta.get("service.computes", 0) == 0
                assert all(hit.seconds >= 0.010 for hit in hits)
                window = svc.stats.as_dict()["service"]["invariant"]
                assert window["p50_ms"] >= 10.0

        run(main())

    def test_hit_is_answered_when_admission_is_full(self):
        async def main():
            async with make_service(max_inflight=1, max_queue=1) as svc:
                warm = await svc.invariant_of("lens")
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return 0

                blockers = [
                    asyncio.ensure_future(
                        svc._serve("cells", ("hold", i), fn, None)
                    )
                    for i in range(2)
                ]
                await asyncio.sleep(0.01)
                assert (svc.inflight, svc.queued) == (1, 1)
                with pytest.raises(OverloadError):
                    await svc.invariant_of("apart")  # a miss is shed
                hit = await svc.invariant_of("lens")
                assert hit.value is warm.value
                assert not hit.coalesced
                gate.set()
                await asyncio.gather(*blockers)

        run(main())

    def test_closed_or_draining_service_refuses_hits(self):
        async def main():
            svc = make_service()
            await svc.invariant_of("lens")
            svc._draining = True
            with pytest.raises(ServiceClosedError):
                await svc.invariant_of("lens")
            svc._draining = False
            await svc.aclose()
            with pytest.raises(ServiceClosedError):
                await svc.invariant_of("lens")

        run(main())

    def test_hit_opens_a_request_span(self):
        async def main():
            with tracing.tracing() as tracer:
                async with make_service() as svc:
                    await svc.invariant_of("lens")
                    await svc.invariant_of("lens")
            return tracer.finish()

        trace = run(main())
        miss, hit = [
            s
            for root in trace.roots
            for s in root.walk()
            if s.name == "service.request"
        ]
        for span in (miss, hit):
            assert span.attributes["endpoint"] == "invariant"
            assert span.attributes["status"] == "ok"
        # The miss adopted its batch's spans; the hit ran no compute.
        assert miss.children
        assert hit.attributes["cached"] is True
        assert not hit.children


class TestInvariantBatching:
    """Distinct invariant misses conflate: one ``compute_batch`` runs at
    a time, and the misses that arrive meanwhile ride the next one."""

    def test_misses_during_a_batch_ride_the_next_one(self):
        corpus = row_of_boxes(6)
        want = canonical_hash(invariant(corpus["box0"]))

        async def main():
            async with QueryService(max_inflight=8) as svc:
                keys = [svc.register(n, inst) for n, inst in corpus.items()]
                held = HeldBatches(svc)
                names = list(corpus)
                first = asyncio.ensure_future(svc.invariant_of(names[0]))
                await until(held.started.is_set)
                rest = [
                    asyncio.ensure_future(svc.invariant_of(n))
                    for n in names[1:]
                ]
                await until(lambda: svc.inflight == len(names))
                assert held.calls == [keys[:1]]
                held.gate.set()
                answers = await asyncio.gather(first, *rest)
                assert held.calls == [keys[:1], keys[1:]]
                for answer in answers:
                    assert canonical_hash(answer.value) == want

        run(main())

    def test_duplicates_coalesce_before_the_batch(self):
        corpus = row_of_boxes(3)

        async def main():
            async with QueryService(max_inflight=8) as svc:
                keys = [svc.register(n, inst) for n, inst in corpus.items()]
                held = HeldBatches(svc)
                names = list(corpus)
                first = asyncio.ensure_future(svc.invariant_of(names[0]))
                await until(held.started.is_set)
                before = counter_snapshot()
                # 4 requests for each of 2 names: 2 leaders, 6 followers.
                rest = [
                    asyncio.ensure_future(svc.invariant_of(n))
                    for n in names[1:]
                    for _ in range(4)
                ]
                await until(lambda: svc.inflight == len(names))
                held.gate.set()
                await asyncio.gather(first, *rest)
                delta = counter_delta(before, counter_snapshot())
                assert held.calls == [keys[:1], keys[1:]]
                assert delta["service.computes"] == 2
                assert delta["service.coalesced"] == 6

        run(main())

    def test_expired_miss_is_not_computed(self):
        corpus = row_of_boxes(3)

        async def main():
            async with QueryService(max_inflight=8) as svc:
                keys = [svc.register(n, inst) for n, inst in corpus.items()]
                held = HeldBatches(svc)
                first = asyncio.ensure_future(svc.invariant_of("box0"))
                await until(held.started.is_set)
                late = asyncio.ensure_future(
                    svc.invariant_of("box1", timeout=0.01)
                )
                patient = asyncio.ensure_future(svc.invariant_of("box2"))
                with pytest.raises(repro_errors.TimeoutError):
                    await late
                held.gate.set()
                await asyncio.gather(first, patient)
                assert held.calls == [keys[:1], keys[2:]]

        run(main())


class TestShutdown:
    def test_close_fails_misses_queued_behind_a_batch(self):
        corpus = row_of_boxes(4)

        async def main():
            svc = QueryService(max_inflight=8)
            keys = [svc.register(n, inst) for n, inst in corpus.items()]
            held = HeldBatches(svc)
            names = list(corpus)
            first = asyncio.ensure_future(svc.invariant_of(names[0]))
            await until(held.started.is_set)
            rest = [
                asyncio.ensure_future(svc.invariant_of(n)) for n in names[1:]
            ]
            await until(lambda: svc.inflight == len(names))
            held.gate.set()
            svc.close()
            results = await asyncio.wait_for(
                asyncio.gather(first, *rest, return_exceptions=True), 10
            )
            assert all(isinstance(r, ServiceClosedError) for r in results)
            # Every compute future settled and gave its slot back.
            await until(lambda: svc.inflight == 0)
            assert held.calls == [keys[:1]]

        run(main())

    def test_aclose_drains_misses_queued_behind_a_batch(self):
        corpus = row_of_boxes(4)
        want = canonical_hash(invariant(corpus["box0"]))

        async def main():
            svc = QueryService(max_inflight=8)
            keys = [svc.register(n, inst) for n, inst in corpus.items()]
            held = HeldBatches(svc)
            names = list(corpus)
            first = asyncio.ensure_future(svc.invariant_of(names[0]))
            await until(held.started.is_set)
            rest = [
                asyncio.ensure_future(svc.invariant_of(n)) for n in names[1:]
            ]
            await until(lambda: svc.inflight == len(names))
            closing = asyncio.ensure_future(svc.aclose())
            await asyncio.sleep(0.01)
            assert not closing.done()  # draining waits for the misses
            held.gate.set()
            answers = await asyncio.wait_for(asyncio.gather(first, *rest), 10)
            await closing
            for answer in answers:
                assert canonical_hash(answer.value) == want
            assert held.calls == [keys[:1], keys[1:]]

        run(main())

    def test_close_refuses_requests_queued_for_admission(self):
        async def main():
            svc = make_service(max_inflight=1, max_queue=1)
            gate = threading.Event()

            def fn(deadline):
                gate.wait(10)
                return 0

            running = asyncio.ensure_future(
                svc._serve("cells", ("run",), fn, None)
            )
            queued = asyncio.ensure_future(
                svc._serve("cells", ("queued",), fn, None)
            )
            await asyncio.sleep(0.01)
            assert (svc.inflight, svc.queued) == (1, 1)
            gate.set()
            svc.close()
            # The queued request gets the freed slot after close(): it
            # is refused as closed, not launched on the shut executor.
            results = await asyncio.wait_for(
                asyncio.gather(running, queued, return_exceptions=True), 10
            )
            assert all(isinstance(r, ServiceClosedError) for r in results)
            await until(lambda: svc.inflight == 0)

        run(main())

    @pytest.mark.parametrize("shutdown", ["close", "aclose"])
    def test_shutdown_fails_every_pending_miss(self, shutdown):
        """Misses launched without an admission slot are not waited for
        by the drain, so both shutdowns find them pending.  Each fails
        with ServiceClosedError, the running batch still settles its
        own miss, and no future is left unresolved."""
        corpus = row_of_boxes(4)
        want = canonical_hash(invariant(corpus["box0"]))

        async def main():
            svc = QueryService()
            specs = [
                {"kind": "invariant", "key": svc.register(n, inst), "inst": inst}
                for n, inst in corpus.items()
            ]
            held = HeldBatches(svc)
            running = svc._launch_compute(specs[0], Deadline(None))
            await until(held.started.is_set)
            pending = [
                svc._launch_compute(spec, Deadline(None)) for spec in specs[1:]
            ]
            held.gate.set()
            if shutdown == "close":
                svc.close()
            else:
                await svc.aclose()
            await asyncio.wait_for(asyncio.wait([running, *pending]), 10)
            assert canonical_hash(running.result()) == want
            for miss in pending:
                assert isinstance(miss.exception(), ServiceClosedError)
            assert held.calls == [[specs[0]["key"]]]

        run(main())


class TestCoalescing:
    def test_identical_requests_share_one_compute(self):
        async def main():
            async with make_service() as svc:
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return 7

                before = counter_snapshot()
                tasks = [
                    asyncio.ensure_future(
                        svc._serve("cells", ("dup",), fn, None)
                    )
                    for _ in range(6)
                ]
                await asyncio.sleep(0.01)
                gate.set()
                answers = await asyncio.gather(*tasks)
                delta = counter_delta(before, counter_snapshot())
                assert delta["service.computes"] == 1
                assert delta["service.coalesced"] == 5
                assert [a.value for a in answers] == [7] * 6
                assert sum(not a.coalesced for a in answers) == 1

        run(main())

    def test_distinct_keys_do_not_coalesce(self):
        async def main():
            async with make_service(max_inflight=4) as svc:
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return 1

                before = counter_snapshot()
                tasks = [
                    asyncio.ensure_future(
                        svc._serve("cells", ("k", i), fn, None)
                    )
                    for i in range(3)
                ]
                await asyncio.sleep(0.01)
                gate.set()
                await asyncio.gather(*tasks)
                delta = counter_delta(before, counter_snapshot())
                assert delta["service.computes"] == 3
                assert delta["service.coalesced"] == 0

        run(main())

    def test_leader_error_fans_out_to_followers(self):
        async def main():
            async with make_service() as svc:

                def fn(deadline):
                    raise repro_errors.QueryError("malformed on purpose")

                tasks = [
                    asyncio.ensure_future(
                        svc._serve("cells", ("bad",), fn, None)
                    )
                    for _ in range(4)
                ]
                results = await asyncio.gather(*tasks, return_exceptions=True)
                assert len(results) == 4
                for r in results:
                    assert isinstance(r, repro_errors.QueryError)

        run(main())

    def test_next_request_after_resolution_recomputes(self):
        async def main():
            async with make_service() as svc:
                calls = []

                def fn(deadline):
                    calls.append(1)
                    return len(calls)

                first = await svc._serve("cells", ("re",), fn, None)
                second = await svc._serve("cells", ("re",), fn, None)
                # In-flight coalescing only: once resolved the entry is
                # gone (the durable layer is the invariant cache).
                assert (first.value, second.value) == (1, 2)

        run(main())


class TestAdmission:
    def test_overflow_is_shed_with_structured_503(self):
        async def main():
            async with make_service(max_inflight=1, max_queue=1) as svc:
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return "ok"

                tasks = [
                    asyncio.ensure_future(
                        svc._serve("cells", ("n", i), fn, None)
                    )
                    for i in range(4)
                ]
                await asyncio.sleep(0.01)
                gate.set()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                shed = [r for r in results if isinstance(r, OverloadError)]
                served = [r for r in results if not isinstance(r, Exception)]
                assert len(shed) == 2  # 1 slot + 1 queue place
                assert len(served) == 2
                for err in shed:
                    assert err.status == 503
                    assert err.endpoint == "cells"
                    assert err.queue_depth == 1

        run(main())

    def test_queue_drains_in_fifo_order(self):
        async def main():
            async with make_service(max_inflight=1, max_queue=4) as svc:
                order = []
                gates = [threading.Event() for _ in range(3)]

                def make_fn(i):
                    def fn(deadline):
                        gates[i].wait(10)
                        order.append(i)
                        return i

                    return fn

                tasks = [
                    asyncio.ensure_future(
                        svc._serve("cells", ("f", i), make_fn(i), None)
                    )
                    for i in range(3)
                ]
                await asyncio.sleep(0.01)
                for gate in gates:
                    gate.set()
                values = [a.value for a in await asyncio.gather(*tasks)]
                assert values == [0, 1, 2]
                assert order == [0, 1, 2]

        run(main())

    def test_shed_request_never_starts_compute(self):
        async def main():
            async with make_service(max_inflight=1, max_queue=0) as svc:
                gate = threading.Event()
                started = []

                def fn(deadline):
                    started.append(1)
                    gate.wait(10)
                    return True

                leader = asyncio.ensure_future(
                    svc._serve("cells", ("a",), fn, None)
                )
                await asyncio.sleep(0.01)
                with pytest.raises(OverloadError):
                    await svc._serve("cells", ("b",), fn, None)
                gate.set()
                await leader
                assert len(started) == 1

        run(main())


class TestDeadlines:
    def test_expired_request_times_out_structured(self):
        async def main():
            async with make_service() as svc:
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return "late"

                with pytest.raises(repro_errors.TimeoutError) as exc_info:
                    await svc._serve("cells", ("slow",), fn, 0.05)
                assert exc_info.value.stage == "cells"
                gate.set()

        run(main())

    def test_follower_with_shorter_deadline_times_out_independently(self):
        # The Deadline x coalescing satellite: a coalesced follower
        # must enforce its own (shorter) budget even while the leader
        # keeps waiting.
        async def main():
            async with make_service() as svc:
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return 42

                leader = asyncio.ensure_future(
                    svc._serve("cells", ("share",), fn, 30.0)
                )
                await asyncio.sleep(0)  # leader registers
                follower = asyncio.ensure_future(
                    svc._serve("cells", ("share",), fn, 0.05)
                )
                result = (
                    await asyncio.gather(follower, return_exceptions=True)
                )[0]
                assert isinstance(result, repro_errors.TimeoutError)
                assert not leader.done()  # leader unaffected
                gate.set()
                answer = await leader
                assert answer.value == 42 and not answer.coalesced

        run(main())

    def test_timed_out_leader_still_feeds_patient_follower(self):
        # The fan-out future is settled from the compute's done
        # callback, so a leader abandoning its wait does not abandon
        # its followers.
        async def main():
            async with make_service() as svc:
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return "worth the wait"

                leader = asyncio.ensure_future(
                    svc._serve("cells", ("p",), fn, 0.05)
                )
                await asyncio.sleep(0)
                follower = asyncio.ensure_future(
                    svc._serve("cells", ("p",), fn, 30.0)
                )
                lead_result = (
                    await asyncio.gather(leader, return_exceptions=True)
                )[0]
                assert isinstance(lead_result, repro_errors.TimeoutError)
                gate.set()
                answer = await follower
                assert answer.value == "worth the wait"
                assert answer.coalesced

        run(main())

    def test_engine_timeout_is_threaded_through(self):
        # A real evaluation with an impossible budget dies inside the
        # compiled engine's cooperative deadline, not in the service.
        from repro.logic.compiled import clear_universe_cache

        async def main():
            async with make_service() as svc:
                clear_universe_cache()
                with pytest.raises(repro_errors.TimeoutError):
                    await svc.ask_cells("lens", OVERLAP_Q, timeout=1e-9)
                # The same request with a sane budget works afterwards.
                assert (
                    await svc.ask_cells("lens", OVERLAP_Q, timeout=30.0)
                ).value is True

        run(main())


class TestLifecycle:
    def test_closed_service_rejects_requests(self):
        async def main():
            svc = make_service()
            await svc.aclose()
            with pytest.raises(ServiceClosedError) as exc_info:
                await svc.ask_cells("lens", OVERLAP_Q)
            assert exc_info.value.status == 503
            await svc.aclose()  # idempotent

        run(main())

    def test_sync_close_is_usable_outside_a_loop(self):
        svc = make_service()
        svc.close()
        svc.close()  # idempotent

    def test_owned_pipeline_closed_with_service(self):
        async def main():
            svc = make_service()
            pipe = svc.pipeline
            await svc.aclose()
            assert pipe._pool is None

        run(main())


class TestObservability:
    def test_endpoint_rollups_and_statuses(self):
        async def main():
            async with make_service(max_inflight=1, max_queue=0) as svc:
                await svc.ask_cells("lens", OVERLAP_Q)
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return 1

                blocker = asyncio.ensure_future(
                    svc._serve("cells", ("block",), fn, None)
                )
                await asyncio.sleep(0.01)
                with pytest.raises(OverloadError):
                    await svc._serve("cells", ("other",), fn, None)
                gate.set()
                await blocker
                service = svc.stats.as_dict()["service"]["cells"]
                assert service["requests"] == 3
                assert service["statuses"]["ok"] == 2
                assert service["statuses"]["shed"] == 1
                assert service["p50_ms"] >= 0.0
                assert service["p99_ms"] >= service["p50_ms"]
                assert 0.0 <= service["slo_attainment"] <= 1.0
                assert "service cells:" in svc.stats.summary()

        run(main())

    def test_slo_attainment_counts_sheds_against(self):
        async def main():
            async with make_service(
                max_inflight=1, max_queue=0,
                slo_targets={"cells": 10.0},
            ) as svc:
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return 1

                blocker = asyncio.ensure_future(
                    svc._serve("cells", ("b",), fn, None)
                )
                await asyncio.sleep(0.01)
                for _ in range(3):
                    with pytest.raises(OverloadError):
                        await svc._serve("cells", ("c",), fn, None)
                gate.set()
                await blocker
                cell = svc.stats.as_dict()["service"]["cells"]
                assert cell["requests"] == 4
                assert cell["slo_attainment"] == pytest.approx(0.25)

        run(main())

    def test_request_spans_with_adopted_worker_spans(self):
        async def main():
            with tracing.tracing() as tracer:
                async with make_service() as svc:
                    from repro.logic.compiled import clear_universe_cache

                    clear_universe_cache()
                    await svc.ask_cells("lens", OVERLAP_Q)
            trace = tracer.finish()
            requests = [
                s
                for root in trace.roots
                for s in root.walk()
                if s.name == "service.request"
            ]
            assert len(requests) == 1
            span = requests[0]
            assert span.attributes["endpoint"] == "cells"
            assert span.attributes["status"] == "ok"
            # The evaluation ran in an executor thread; its engine
            # spans were captured there and adopted under the request.
            assert span.children, "worker spans not adopted"

        run(main())

    def test_coalescing_hit_rate_reported(self):
        async def main():
            async with make_service() as svc:
                gate = threading.Event()

                def fn(deadline):
                    gate.wait(10)
                    return 0

                before = counter_snapshot()
                tasks = [
                    asyncio.ensure_future(
                        svc._serve("cells", ("r",), fn, None)
                    )
                    for _ in range(4)
                ]
                await asyncio.sleep(0.01)
                gate.set()
                await asyncio.gather(*tasks)
                delta = counter_delta(before, counter_snapshot())
                assert delta["service.requests"] == 4
                assert delta["service.coalesced"] == 3
                assert (
                    delta["service.coalesced"] / delta["service.requests"]
                    == 0.75
                )

        run(main())
