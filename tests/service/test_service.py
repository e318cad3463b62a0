"""QueryService mechanics: registry, endpoints, coalescing, admission
control, deadlines, lifecycle, and observability rollups.

The suites drive the asyncio service from plain sync tests via
``asyncio.run`` (no pytest-asyncio in the environment).  Concurrency
tests use executor-gated compute functions injected through
``QueryService._serve`` so the leader/follower/shed split is pinned
down deterministically: the gate holds every evaluation open until the
whole wave of tasks has been scheduled.
"""

import asyncio
import threading

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
from repro.instrument import counter_delta, counter_snapshot
from repro.logic import (
    PRegion,
    PointExists,
    PointVar,
    RRegion,
    RealExists,
    RealVar,
    parse,
)

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
            assert pipe._pool is None and pipe._thread_pool is None

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
