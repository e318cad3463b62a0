"""Differential sharding suite: :class:`ShardedQueryService` must be
*transparent*.

Every answer served at 1, 2, or 4 shards must be bit-identical to the
single-process :class:`QueryService` and to direct evaluation, itself
checked against the seed oracle — per endpoint, per shard-pipeline
backend, under concurrent duplicate-heavy load, and under seeded fault
schedules that kill shard workers and tear their pipes (the
``SHARD_POINTS``).  Under faults the guarantee weakens to: the
bit-identical answer or a structured :class:`~repro.errors.ReproError`
— never a wrong answer, never a hang (the service-suite flaky-watch
and per-request deadlines hold "never a hang" to 30 s).  A request the
library rejects fails with the same error class from the
single-process service and from every shard count.

The corpus and query sets are shared with the single-process
differential suite (``test_service_differential``) so the two suites
can never drift apart on what "correct" means.
"""

import asyncio
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    QueryService,
    ReproError,
    ShardedQueryService,
    canonical_hash,
    invariant,
    topologically_equivalent,
)
from repro.errors import InstanceError, QueryError, ShardDownError
from repro.faults import SHARD_POINTS, Fault, FaultPlan, inject
from repro.invariant import instance_key
from repro.logic import (
    PointVar,
    PRegion,
    RealVar,
    RRegion,
    evaluate_cells,
    evaluate_cells_reference,
    evaluate_point,
    evaluate_point_reference,
    evaluate_real,
    evaluate_real_reference,
    evaluate_rect,
    evaluate_rect_reference,
    parse,
)
from tests.service.test_service_differential import (
    CELL_JOBS,
    CORPUS,
    GENERIC_CELL_QUERIES,
    INSTANCES,
    POINT_JOBS,
    REAL_JOBS,
    RECT_JOBS,
    library_answers,
)

SHARD_COUNTS = [1, 2, 4]
BACKENDS = ["serial", "threads", "processes"]


def _sharded(n_shards, **kw):
    kw.setdefault("max_inflight", 8)
    svc = ShardedQueryService(n_shards=n_shards, **kw)
    for name, inst in INSTANCES.items():
        svc.register(name, inst)
    return svc


def _single(**kw):
    svc = QueryService(**kw)
    for name, inst in INSTANCES.items():
        svc.register(name, inst)
    return svc


class TestShardDifferentialAnswers:
    def test_cells_and_rect_identical_across_shard_counts(self):
        cells = library_answers(
            evaluate_cells, evaluate_cells_reference, CELL_JOBS
        )
        rects = library_answers(
            evaluate_rect, evaluate_rect_reference, RECT_JOBS
        )

        async def main():
            # The single-process service is the second reference; the
            # sharded services must match both it and direct eval.
            async with _single() as single:
                for (name, q), answer in cells.items():
                    served = await single.ask_cells(name, q)
                    assert served.value == answer, (name, q)
            for shards in SHARD_COUNTS:
                async with _sharded(shards) as svc:
                    for (name, q), answer in cells.items():
                        served = await svc.ask_cells(name, q)
                        assert served.value == answer, (shards, name, q)
                    for (name, q), answer in rects.items():
                        served = await svc.ask_rect(name, q)
                        assert served.value == answer, (shards, name, q)

        asyncio.run(main())

    def test_real_and_point_identical_across_shard_counts(self):
        real = library_answers(
            evaluate_real, evaluate_real_reference, REAL_JOBS
        )
        point = library_answers(
            evaluate_point, evaluate_point_reference, POINT_JOBS
        )

        async def main():
            for shards in SHARD_COUNTS:
                async with _sharded(shards) as svc:
                    for (name, q), answer in real.items():
                        served = await svc.ask_real(name, q)
                        assert served.value == answer, (shards, q)
                    for (name, q), answer in point.items():
                        served = await svc.ask_point(name, q)
                        assert served.value == answer, (shards, q)

        asyncio.run(main())

    def test_rejected_requests_raise_the_same_class(self):
        requests = [
            ("ask_cells", "lens", parse("subset(r, A)")),
            ("ask_rect", "lens", "exists r . subset(r, C)"),
            ("ask_real", "quad", RRegion("A", RealVar("x"), RealVar("y"))),
            ("ask_point", "quad", PRegion("A", PointVar("p"))),
        ]

        async def classes(svc):
            out = []
            async with svc:
                for endpoint, name, query in requests:
                    with pytest.raises(ReproError) as err:
                        await getattr(svc, endpoint)(name, query)
                    out.append(type(err.value))
            return out

        async def main():
            want = await classes(_single())
            assert want == [QueryError, InstanceError, QueryError, QueryError]
            for shards in (1, 2):
                assert await classes(_sharded(shards)) == want, shards

        asyncio.run(main())

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invariants_and_equivalence_across_shard_backends(self, backend):
        names = ["lens", "apart", "nested", "chain"]
        reference_inv = {
            n: canonical_hash(invariant(CORPUS[n])) for n in names
        }
        reference_eq = {
            (a, b): topologically_equivalent(CORPUS[a], CORPUS[b])
            for a in names
            for b in names
        }

        async def main():
            for shards in SHARD_COUNTS:
                svc = _sharded(
                    shards, shard_backend=backend, shard_workers=2
                )
                async with svc:
                    for n in names:
                        served = await svc.invariant_of(n)
                        assert (
                            canonical_hash(served.value) == reference_inv[n]
                        ), (shards, n, backend)
                        # Warm repeat: the parent's read-through cache
                        # must hand back the identical invariant.
                        again = await svc.invariant_of(n)
                        assert (
                            canonical_hash(again.value) == reference_inv[n]
                        ), (shards, n, backend, "warm")
                    for (a, b), expect in reference_eq.items():
                        served = await svc.equivalent(a, b)
                        assert served.value == expect, (shards, a, b, backend)

        asyncio.run(main())


class TestShardedConcurrentClients:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_duplicate_heavy_mixed_load_is_identical(self, shards):
        jobs = CELL_JOBS * 3  # duplicate-heavy
        reference = {
            (name, q): evaluate_cells(parse(q), CORPUS[name])
            for name, q in set(jobs)
        }
        inv_names = list(CORPUS)
        reference_inv = {
            n: canonical_hash(invariant(CORPUS[n])) for n in inv_names
        }

        async def main():
            async with _sharded(shards, max_queue=512) as svc:
                answers = await asyncio.gather(
                    *[svc.ask_cells(name, q) for name, q in jobs],
                    *[svc.invariant_of(n) for n in inv_names for _ in (0, 1)],
                )
                cell_answers = answers[: len(jobs)]
                inv_answers = answers[len(jobs):]
                for (name, q), answer in zip(jobs, cell_answers):
                    assert answer.value == reference[(name, q)], (name, q)
                assert any(a.coalesced for a in cell_answers)
                for i, answer in enumerate(inv_answers):
                    n = inv_names[i // 2]
                    assert (
                        canonical_hash(answer.value) == reference_inv[n]
                    ), n

        asyncio.run(main())


class TestShardChaos:
    """Seeded schedules over the shard fault points (worker crashes,
    torn pipes): every outcome is the bit-identical answer or a
    structured ReproError — zero wrong answers, bounded time."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.sampled_from([2, 4]),
    )
    def test_any_shard_fault_schedule_is_correct_or_structured(
        self, seed, shards
    ):
        names = ["lens", "apart", "nested", "chain", "grid"]
        keys = [instance_key(CORPUS[n]) for n in names]
        reference_inv = {
            n: canonical_hash(invariant(CORPUS[n])) for n in names
        }
        reference_eq = {
            (a, b): topologically_equivalent(CORPUS[a], CORPUS[b])
            for a, b in [("lens", "apart"), ("apart", "nested")]
        }
        reference_cells = {
            n: evaluate_cells(parse(GENERIC_CELL_QUERIES[0]), CORPUS[n])
            for n in names
        }
        plan = FaultPlan.seeded(
            seed, keys, points=SHARD_POINTS, faults=4, max_times=2
        )
        wrong = []

        async def main():
            async with _sharded(shards) as svc:
                with inject(plan):
                    lookups = [
                        svc.invariant_of(n, timeout=30.0) for n in names
                    ]
                    checks = [
                        svc.equivalent(a, b, timeout=30.0)
                        for a, b in reference_eq
                    ]
                    cells = [
                        svc.ask_cells(
                            n, GENERIC_CELL_QUERIES[0], timeout=30.0
                        )
                        for n in names
                    ]
                    results = await asyncio.gather(
                        *lookups, *checks, *cells, return_exceptions=True
                    )
                inv_results = results[: len(names)]
                eq_results = results[len(names): len(names) + len(reference_eq)]
                cell_results = results[len(names) + len(reference_eq):]
                for n, res in zip(names, inv_results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (n, res)
                    elif canonical_hash(res.value) != reference_inv[n]:
                        wrong.append(("invariant", n))
                for (a, b), res in zip(reference_eq, eq_results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (a, b, res)
                    elif res.value != reference_eq[(a, b)]:
                        wrong.append(("equivalent", a, b))
                for n, res in zip(names, cell_results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (n, res)
                    elif res.value != reference_cells[n]:
                        wrong.append(("cells", n))

        asyncio.run(main())
        assert not wrong, f"sharded service answered wrong: {wrong}"


class TestShardLifecycle:
    def test_cache_hit_latency_includes_the_lookup(self, monkeypatch):
        async def main():
            async with _sharded(1) as svc:
                await svc.invariant_of("lens", timeout=30.0)  # fills it
                cache_get = svc._inv_cache.get

                def slow_get(key):
                    time.sleep(0.010)
                    return cache_get(key)

                monkeypatch.setattr(svc._inv_cache, "get", slow_get)
                hits = [
                    await svc.invariant_of("lens", timeout=30.0)
                    for _ in range(3)
                ]
                assert all(hit.seconds >= 0.010 for hit in hits)
                window = svc.stats.as_dict()["service"]["invariant"]
                assert window["p50_ms"] >= 10.0

        asyncio.run(main())

    def test_crash_respawns_and_health_reports_it(self):
        async def main():
            async with _sharded(2) as svc:
                with inject(
                    FaultPlan(Fault("shard_worker_crash", times=1))
                ):
                    answer = await svc.invariant_of("lens", timeout=30.0)
                assert canonical_hash(answer.value) == canonical_hash(
                    invariant(CORPUS["lens"])
                )
                health = svc.health()
                assert sum(s["respawns"] for s in health["shards"]) == 1
                assert all(s["up"] for s in health["shards"])
                assert svc.readiness()["ready"]

        asyncio.run(main())

    def test_respawn_exhaustion_fails_fast_and_degrades(self):
        async def main():
            async with _sharded(1, max_shard_respawns=1) as svc:
                with inject(
                    FaultPlan(Fault("shard_worker_crash", times=10))
                ):
                    with pytest.raises(ReproError):
                        await svc.invariant_of("lens", timeout=30.0)
                # The shard is now permanently down: requests fail
                # fast with a structured 503, no queueing, no hang.
                with pytest.raises(ShardDownError) as err:
                    await svc.invariant_of("apart", timeout=30.0)
                assert err.value.status == 503
                assert err.value.shard == 0
                health = svc.health()
                assert health["status"] == "degraded"
                assert not health["shards"][0]["up"]
                ready = svc.readiness()
                assert not ready["ready"]
                assert "all shards down" in ready["reasons"]

        asyncio.run(main())

    def test_pipe_drop_mid_load_stays_correct(self):
        names = list(CORPUS)
        reference = {
            n: canonical_hash(invariant(CORPUS[n])) for n in names
        }

        async def main():
            async with _sharded(2) as svc:
                with inject(FaultPlan(Fault("shard_pipe_drop", times=1))):
                    results = await asyncio.gather(
                        *[
                            svc.invariant_of(n, timeout=30.0)
                            for n in names
                        ],
                        return_exceptions=True,
                    )
                for n, res in zip(names, results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (n, res)
                    else:
                        assert canonical_hash(res.value) == reference[n], n

        asyncio.run(main())

    def test_registrations_replay_after_respawn(self):
        async def main():
            async with _sharded(1) as svc:
                # Kill the worker before it has served anything; the
                # respawned worker must still know the whole corpus.
                with inject(
                    FaultPlan(Fault("shard_worker_crash", times=1))
                ):
                    first = await svc.invariant_of("grid", timeout=30.0)
                for name in CORPUS:
                    served = await svc.ask_cells(
                        name, GENERIC_CELL_QUERIES[1], timeout=30.0
                    )
                    direct = evaluate_cells(
                        parse(GENERIC_CELL_QUERIES[1]), CORPUS[name]
                    )
                    assert served.value == direct, name
                assert first.value is not None

        asyncio.run(main())
