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

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import AlgRegion, Point, Poly, Rect, RectUnion, SpatialInstance
from repro.arrangement import (
    Subdivision,
    compute_labels,
    compute_labels_reference,
    planarize,
)
from repro.arrangement.complex import _reduce
from repro.logic import cell_eval, grid_refined_complex

_small = st.integers(0, 8)


@st.composite
def _rects(draw):
    x, y = draw(_small), draw(_small)
    return Rect(x, y, x + draw(st.integers(1, 4)), y + draw(st.integers(1, 4)))


@st.composite
def _triangles(draw):
    a, b, c = (
        Point(*xy)
        for xy in draw(
            st.lists(st.tuples(_small, _small), min_size=3, max_size=3, unique=True)
        )
    )
    assume((b - a).cross(c - a) != 0)
    return Poly([a, b, c])


@st.composite
def _l_shapes(draw):
    """A rectangle with one corner notched out: a nonconvex hexagon
    whose edges lie on the same lines as nearby rectangles' edges."""
    x, y = draw(_small), draw(_small)
    w, h = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    w2, h2 = draw(st.integers(1, w - 1)), draw(st.integers(1, h - 1))
    return Poly(
        [
            Point(x, y),
            Point(x + w, y),
            Point(x + w, y + h2),
            Point(x + w2, y + h2),
            Point(x + w2, y + h),
            Point(x, y + h),
        ]
    )


@st.composite
def _circles(draw):
    return AlgRegion.circle(
        draw(_small),
        draw(_small),
        draw(st.integers(1, 4)),
        n=draw(st.sampled_from([4, 6, 8, 12])),
    )


@st.composite
def _slit_unions(draw):
    """Two side-by-side squares joined by a bridge: the shared wall
    below the bridge is a slit, with the interior on both sides."""
    x, y = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return RectUnion(
        [Rect(x, y, x + 2, y + 2), Rect(x + 2, y, x + 4, y + 2), Rect(x + 1, y + 1, x + 3, y + 2)]
    )


_regions = st.one_of(_rects(), _triangles(), _l_shapes(), _circles(), _slit_unions())


@st.composite
def _instances(draw, max_regions=6):
    regions = draw(st.lists(_regions, min_size=1, max_size=max_regions))
    return SpatialInstance({f"R{i}": r for i, r in enumerate(regions)})


def _assert_same_labels(fast, seed) -> None:
    assert fast.names == seed.names
    assert fast.vertex_labels == seed.vertex_labels
    assert fast.piece_labels == seed.piece_labels
    assert fast.face_labels == seed.face_labels


@given(_instances())
def test_propagated_labels_match_reference(instance):
    segments = [s for _n, r in instance.items() for s in r.boundary_segments()]
    sub = Subdivision(planarize(segments))
    _assert_same_labels(
        compute_labels(instance, sub), compute_labels_reference(instance, sub)
    )


@settings(max_examples=30)
@given(_instances(max_regions=4))
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
