"""Differential and chaos suites for the query service.

The serving layer must be *transparent*: every answer bit-identical to
direct evaluation — by the library and by the seed oracle
(``evaluate_*_reference``) — per endpoint, per pipeline backend, under
concurrent clients, and under seeded fault schedules (where the
weakened guarantee is: the correct answer or a structured error, never
a wrong answer), on the thread and the process pool.  A request the
library rejects fails with the library's error class.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    QueryService,
    Rect,
    ReproError,
    RetryPolicy,
    SpatialInstance,
    canonical_hash,
    invariant,
    topologically_equivalent,
)
from repro.datasets import grid_of_squares, overlap_chain
from repro.errors import InstanceError, QueryError
from repro.faults import FaultPlan, inject
from repro.invariant import instance_key
from repro.logic import (
    PLessX,
    PRegion,
    PointExists,
    PointVar,
    RRegion,
    RealExists,
    RealVar,
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
from repro.logic.pointlogic import AndF
from repro.pipeline import InvariantPipeline

LENS = SpatialInstance({"A": Rect(0, 0, 4, 4), "B": Rect(2, 2, 6, 6)})
APART = SpatialInstance({"A": Rect(0, 0, 1, 1), "B": Rect(3, 3, 4, 4)})
NESTED = SpatialInstance({"A": Rect(0, 0, 8, 8), "B": Rect(2, 2, 5, 5)})

#: Named corpus every differential pass runs over.
CORPUS = {
    "lens": LENS,
    "apart": APART,
    "nested": NESTED,
    "chain": overlap_chain(3),
    "grid": grid_of_squares(2, 2),
}

#: Cell-logic sentences quantifying over region *names*, so they apply
#: to every corpus instance regardless of its schema.
GENERIC_CELL_QUERIES = [
    "exists name a, b . not (a = b) and overlap(a, b)",
    "exists name a . exists r . subset(r, a)",
    "forall name a . connect(a, a)",
]

#: Sentences over the A/B schema (lens, apart, nested only).
AB_CELL_QUERIES = [
    "exists r . subset(r, A) and subset(r, B)",
    "overlap(A, B)",
    "meet(A, B)",
    "contains(A, B)",
]

AB_RECT_QUERIES = [
    "exists s . subset(A, s) and subset(B, s)",
    "exists s . subset(s, A) and subset(s, B)",
]

QUADRANT = SpatialInstance({"A": Rect(1, -3, 3, -1)})
QUADRANT_2 = SpatialInstance(
    {"A": Rect(1, -3, 3, -1), "B": Rect(5, -3, 7, -1)}
)

REAL_QUERIES = [
    RealExists(
        "x", RealExists("y", RRegion("A", RealVar("x"), RealVar("y")))
    ),
    RealExists("x", RRegion("A", RealVar("x"), RealVar("x"))),
]

POINT_QUERIES = [
    PointExists("p", PRegion("A", PointVar("p"))),
    PointExists(
        "p",
        PointExists(
            "q",
            AndF(
                PRegion("A", PointVar("p")),
                PRegion("B", PointVar("q")),
                PLessX(PointVar("p"), PointVar("q")),
            ),
        ),
    ),
]

#: Every registered instance: the corpus plus the two quadrant
#: instances the point/real logics need.
INSTANCES = {**CORPUS, "quad": QUADRANT, "quad2": QUADRANT_2}

#: ``(instance name, query)`` jobs per endpoint.
CELL_JOBS = [(name, q) for q in GENERIC_CELL_QUERIES for name in CORPUS] + [
    (name, q) for q in AB_CELL_QUERIES for name in ("lens", "apart", "nested")
]
RECT_JOBS = [
    (name, q) for q in AB_RECT_QUERIES for name in ("lens", "apart", "nested")
]
REAL_JOBS = [("quad", q) for q in REAL_QUERIES]
POINT_JOBS = [("quad2", q) for q in POINT_QUERIES]

BACKENDS = ["serial", "processes"]


#: Direct evaluators a served answer is compared with, per endpoint:
#: the library's compiled evaluator and the seed oracle.
DIRECT = {
    "compiled": {
        "cells": evaluate_cells,
        "rect": evaluate_rect,
        "real": evaluate_real,
        "point": evaluate_point,
    },
    "reference": {
        "cells": evaluate_cells_reference,
        "rect": evaluate_rect_reference,
        "real": evaluate_real_reference,
        "point": evaluate_point_reference,
    },
}


def direct_answers(evaluate, jobs) -> dict:
    """``{job: answer}`` from one direct evaluator."""
    answers = {}
    for name, query in jobs:
        formula = parse(query) if isinstance(query, str) else query
        answers[(name, query)] = evaluate(formula, INSTANCES[name])
    return answers


def _retry(**kw):
    kw.setdefault("sleep", lambda s: None)
    return RetryPolicy(**kw)


def _service(**kw):
    svc = QueryService(**kw)
    for name, inst in INSTANCES.items():
        svc.register(name, inst)
    return svc


class TestDifferentialAnswers:
    """Served == direct answer, per endpoint, for each direct evaluator
    in ``DIRECT``: the compiled library evaluator and the seed oracle."""

    @pytest.mark.parametrize("direct", DIRECT)
    def test_cells_bit_identical_to_direct(self, direct):
        want = direct_answers(DIRECT[direct]["cells"], CELL_JOBS)

        async def main():
            async with _service() as svc:
                for (name, q), answer in want.items():
                    served = await svc.ask_cells(name, q)
                    assert served.value == answer, (name, q, direct)

        asyncio.run(main())

    @pytest.mark.parametrize("direct", DIRECT)
    def test_rect_bit_identical_to_direct(self, direct):
        want = direct_answers(DIRECT[direct]["rect"], RECT_JOBS)

        async def main():
            async with _service() as svc:
                for (name, q), answer in want.items():
                    served = await svc.ask_rect(name, q)
                    assert served.value == answer, (name, q, direct)

        asyncio.run(main())

    @pytest.mark.parametrize("direct", DIRECT)
    def test_real_and_point_bit_identical_to_direct(self, direct):
        real = direct_answers(DIRECT[direct]["real"], REAL_JOBS)
        point = direct_answers(DIRECT[direct]["point"], POINT_JOBS)

        async def main():
            async with _service() as svc:
                for (name, q), answer in real.items():
                    served = await svc.ask_real(name, q)
                    assert served.value == answer, (q, direct)
                for (name, q), answer in point.items():
                    served = await svc.ask_point(name, q)
                    assert served.value == answer, (q, direct)

        asyncio.run(main())

    def test_same_error_class_as_library(self):
        requests = [
            ("ask_cells", "cells", "lens", parse("subset(r, A)")),
            ("ask_rect", "rect", "lens", "exists r . subset(r, C)"),
            ("ask_real", "real", "quad", RRegion("A", RealVar("x"), RealVar("y"))),
            ("ask_point", "point", "quad", PRegion("A", PointVar("p"))),
        ]
        direct = []
        for _, kind, name, query in requests:
            formula = parse(query) if isinstance(query, str) else query
            with pytest.raises(ReproError) as err:
                DIRECT["compiled"][kind](formula, INSTANCES[name])
            direct.append(type(err.value))
        assert direct == [QueryError, InstanceError, QueryError, QueryError]

        async def main():
            served = []
            async with _service() as svc:
                for endpoint, _, name, query in requests:
                    with pytest.raises(ReproError) as err:
                        await getattr(svc, endpoint)(name, query)
                    served.append(type(err.value))
            return served

        assert asyncio.run(main()) == direct

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pipeline_endpoints_across_backends(self, backend):
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
            pipe = InvariantPipeline(
                backend=backend, workers=2, retry=_retry()
            )
            try:
                async with _service(pipeline=pipe) as svc:
                    for n in names:
                        served = await svc.invariant_of(n)
                        assert (
                            canonical_hash(served.value) == reference_inv[n]
                        ), (n, backend)
                        # Warm repeat: answered inline from the memory
                        # tier, it must be the identical invariant.
                        again = await svc.invariant_of(n)
                        assert (
                            canonical_hash(again.value) == reference_inv[n]
                        ), (n, backend, "warm")
                    for (a, b), expect in reference_eq.items():
                        served = await svc.equivalent(a, b)
                        assert served.value == expect, (a, b, backend)
            finally:
                pipe.close()

        asyncio.run(main())


class TestConcurrentClients:
    def test_mixed_workload_is_bit_identical_under_concurrency(self):
        # Duplicate-heavy: every job issued three times concurrently.
        jobs = CELL_JOBS * 3
        reference = {
            (name, q): evaluate_cells(parse(q), CORPUS[name])
            for name, q in set(jobs)
        }

        async def main():
            async with _service(max_inflight=4, max_queue=256) as svc:
                answers = await asyncio.gather(
                    *[svc.ask_cells(name, q) for name, q in jobs]
                )
                for (name, q), answer in zip(jobs, answers):
                    assert answer.value == reference[(name, q)], (name, q)
                assert any(a.coalesced for a in answers)

        asyncio.run(main())

    def test_mixed_lookups_are_bit_identical(self):
        # Cell queries and invariant lookups (each name twice) at once:
        # lookups arriving while a batch runs ride the next one.
        jobs = CELL_JOBS * 2
        reference = {
            (name, q): evaluate_cells(parse(q), CORPUS[name])
            for name, q in set(jobs)
        }
        names = list(CORPUS)
        reference_inv = {
            n: canonical_hash(invariant(CORPUS[n])) for n in names
        }

        async def main():
            async with _service(max_inflight=8, max_queue=512) as svc:
                answers = await asyncio.gather(
                    *[svc.invariant_of(n) for n in names for _ in (0, 1)],
                    *[svc.ask_cells(name, q) for name, q in jobs],
                )
                lookups = answers[: 2 * len(names)]
                for i, answer in enumerate(lookups):
                    n = names[i // 2]
                    assert (
                        canonical_hash(answer.value) == reference_inv[n]
                    ), n
                for (name, q), answer in zip(jobs, answers[len(lookups):]):
                    assert answer.value == reference[(name, q)], (name, q)

        asyncio.run(main())


def _check_fault_schedule(seed, backend, names, pairs):
    """Serve *names*' invariants and the equivalence of *pairs*,
    concurrently, under a seeded worker-fault schedule: every outcome
    is the bit-identical answer or a structured ReproError.  Returns
    the number of tasks the pipeline submitted to its process pool."""
    keys = [instance_key(CORPUS[n]) for n in names]
    reference_inv = {n: canonical_hash(invariant(CORPUS[n])) for n in names}
    reference_eq = {
        (a, b): topologically_equivalent(CORPUS[a], CORPUS[b])
        for a, b in pairs
    }
    plan = FaultPlan.seeded(
        seed, keys, faults=4, max_times=2, hang_seconds=0.01
    )

    async def main():
        pipe = InvariantPipeline(
            backend=backend,
            workers=2,
            retry=_retry(max_attempts=2),
        )
        submitted = 0
        process_pool = pipe._process_pool

        def counting_pool():
            # The pipeline fetches its pool once per task submission.
            nonlocal submitted
            submitted += 1
            return process_pool()

        pipe._process_pool = counting_pool
        try:
            async with _service(pipeline=pipe) as svc:
                with inject(plan):
                    lookups = [
                        svc.invariant_of(n, timeout=30.0) for n in names
                    ]
                    checks = [
                        svc.equivalent(a, b, timeout=30.0)
                        for a, b in reference_eq
                    ]
                    results = await asyncio.gather(
                        *lookups, *checks, return_exceptions=True
                    )
                inv_results = results[: len(names)]
                eq_results = results[len(names):]
                for n, res in zip(names, inv_results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (n, res)
                    else:
                        assert (
                            canonical_hash(res.value) == reference_inv[n]
                        ), n
                for (a, b), res in zip(reference_eq, eq_results):
                    if isinstance(res, Exception):
                        assert isinstance(res, ReproError), (a, b, res)
                    else:
                        assert res.value == reference_eq[(a, b)], (a, b)
            return submitted
        finally:
            pipe.close()

    return asyncio.run(main())


class TestChaos:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_any_fault_schedule_is_correct_or_structured(self, seed):
        """Under any seeded schedule of crashes, hangs, and raises in
        the pipeline the service serves: the bit-identical answer or a
        structured ReproError — never a wrong answer, never a hang."""
        names = ["lens", "apart", "nested"]
        pairs = [(a, b) for a in names for b in names if a < b]
        _check_fault_schedule(seed, "serial", names, pairs)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_any_fault_schedule_on_the_process_pool(self, seed):
        """The same guarantee when ``worker_crash`` kills a pool process
        under the conflated batch.  The three lookups that take the
        other admission slots while the first one computes ride one
        batch, cold, because the equivalence checks queue for a slot
        behind them: it is always shipped to the pool."""
        names = ["lens", "apart", "nested", "chain", "grid"]
        pairs = [("lens", "apart"), ("apart", "nested")]
        assert _check_fault_schedule(seed, "processes", names, pairs) > 0
