"""Differential tests for process-pool dispatch.

A pooled task ships the instance itself and returns its invariant
itself, both by the executor's own pickling.  That must be invisible in
results: on every corpus — closed-form regions, curved and
rectilinear-union regions, and Theorem 3.5's realized figures — the
``processes`` backend returns invariants equal to ``serial``'s field for
field, cell ids included.  Crash and persistent-failure recovery on the
pool are covered by ``TestProcessRecovery`` in ``test_resilience.py``.
"""

import pytest

from repro import Rect, SpatialInstance, invariant
from repro.datasets import all_figures
from repro.invariant import canonical_hash, realize
from repro.pipeline import InvariantPipeline
from repro.regions import AlgRegion, RectUnion

FIELDS = (
    "names",
    "vertices",
    "edges",
    "faces",
    "exterior_face",
    "labels",
    "endpoints",
    "incidences",
    "orientation",
)


def _corpus(n: int) -> list[SpatialInstance]:
    return [
        SpatialInstance({"A": Rect(0, 0, 4 + i, 4)}) for i in range(n)
    ]


def _alg_and_rect_union_corpus() -> list[SpatialInstance]:
    insts = _corpus(3)
    insts.append(SpatialInstance({"C": AlgRegion.circle(0, 0, 2, n=8)}))
    insts.append(
        SpatialInstance(
            {"A": Rect(0, 0, 2, 2), "C": AlgRegion.circle(4, 4, 1, n=8)}
        )
    )
    insts.append(
        SpatialInstance(
            {
                "A": Rect(1, 1, 3, 2),
                "U": RectUnion([Rect(0, 0, 2, 1), Rect(1, 0, 2, 3)]),
            }
        )
    )
    return insts


def _realized_figures() -> list[SpatialInstance]:
    return [realize(invariant(fig)) for fig in all_figures().values()]


def _compute(backend, corpus):
    with InvariantPipeline(backend=backend, workers=2) as pipe:
        return pipe.compute_batch(corpus)


def _assert_field_for_field(corpus):
    got = _compute("processes", corpus)
    want = _compute("serial", corpus)
    assert len(got) == len(want) == len(corpus)
    for i, (g, w) in enumerate(zip(got, want)):
        for field in FIELDS:
            assert getattr(g, field) == getattr(w, field), (i, field)


@pytest.mark.slow
class TestDifferential:
    def test_closed_form_corpus_bit_identical(self):
        _assert_field_for_field(_corpus(6))

    def test_alg_and_rect_union_corpus_field_for_field(self):
        _assert_field_for_field(_alg_and_rect_union_corpus())

    def test_realized_figures_field_for_field(self):
        # Realized regions carry a slit boundary that no instance codec
        # spells out; the pool must still compute them like serial.
        _assert_field_for_field(_realized_figures())

    def test_serial_reference_agrees(self):
        # The oracle here is a plain invariant() call per instance, with
        # no pipeline, cache or pool in between.
        corpus = _alg_and_rect_union_corpus()
        got = _compute("processes", corpus)
        assert [canonical_hash(t) for t in got] == [
            canonical_hash(invariant(inst)) for inst in corpus
        ]
