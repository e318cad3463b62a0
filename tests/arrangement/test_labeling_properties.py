"""Property suite: labels by propagation == the seed point-location scan.

``compute_labels`` labels polygon-bounded regions (``Rect``, ``Poly``,
``AlgRegion``) by flipping across their boundary pieces and point-locates
the rest (``RectUnion``, whose boundary can carry slits).  Drawing a few
of each on small integer coordinates makes shared edges, collinear
overlaps, corner contacts, nesting and disjoint components all common;
every draw must label every cell exactly as
:func:`compute_labels_reference` does on the same subdivision, including
the grid-refined subdivisions the query path builds.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings

from repro.arrangement import (
    Subdivision,
    compute_labels,
    compute_labels_reference,
    planarize,
)
from repro.arrangement.complex import _reduce
from repro.logic import cell_eval, grid_refined_complex
from tests.strategies import instances

def _assert_same_labels(fast, seed) -> None:
    assert fast.names == seed.names
    assert fast.vertex_labels == seed.vertex_labels
    assert fast.piece_labels == seed.piece_labels
    assert fast.face_labels == seed.face_labels


@given(instances())
def test_propagated_labels_match_reference(instance):
    segments = [s for _n, r in instance.items() for s in r.boundary_segments()]
    sub = Subdivision(planarize(segments))
    _assert_same_labels(
        compute_labels(instance, sub), compute_labels_reference(instance, sub)
    )


@settings(max_examples=30)
@given(instances(max_regions=4))
def test_grid_refined_labels_match_reference(instance):
    """The overlay lines belong to no region: crossing them flips
    nothing, so the refined universe's labels propagate too."""
    seen = []

    def recording(inst, sub):
        labels = compute_labels(inst, sub)
        seen.append((sub, labels))
        return labels

    with mock.patch.object(cell_eval, "compute_labels", recording):
        cx = grid_refined_complex(instance, 1)
    ((sub, labels),) = seen
    reference = compute_labels_reference(instance, sub)
    _assert_same_labels(labels, reference)
    assert cx == _reduce(sub, reference)
