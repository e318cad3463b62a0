"""Planarization of a set of segments.

Given the boundary segments of all regions in an instance, this module
splits them at every mutual intersection so that the resulting *pieces*
meet only at shared endpoints.  The pieces are the edges of the fine
arrangement from which the cell complex (and ultimately the topological
invariant) is built.

Two algorithms are provided with identical output:

* :func:`planarize` (the default) — an x-interval sweep: segments are
  processed in order of their left endpoint while an active set holds
  the segments whose x-interval is still open.  The surviving candidate
  pairs are gathered into index buckets and classified *in bulk* by the
  vectorized filters of :mod:`repro.geometry.batchkernel`: one vector
  op rejects every bbox-disjoint pair and certifies every clearly
  disjoint or properly crossing pair, so only certified crossings (one
  exact rational evaluation each) and genuinely ambiguous pairs
  (degeneracies, near-degeneracies) cost scalar work.  Coordinates too
  large for ``float``, or :func:`~repro.geometry.fastkernel.exact_mode`,
  fall back to the scalar per-pair sweep.  Worst-case quadratic
  (everything overlapping), but near-linear in scalar work on real
  corpora.
* :func:`planarize_allpairs` — the seed quadratic all-pairs method:
  exact, simple, and the reference the sweep is tested against.

Both record the same cut points per input segment, so the outputs agree
segment-for-segment: pieces are deduplicated and returned in the same
deterministic lexicographic order.  Collinear overlaps are handled by
cutting both segments at the overlap endpoints, after which identical
pieces deduplicate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..geometry import Point, Segment
from ..geometry import batchkernel
from ..geometry.fastkernel import counters, filter_enabled
from ..tracing import span

__all__ = ["planarize", "planarize_allpairs"]


def _point_sort_key(p: Point):
    """Lexicographic sort key with float short-circuit.

    ``(float(x), x, float(y), y)`` orders exactly like ``(x, y)``:
    ``float(Fraction)`` is correctly rounded, hence monotone, so a
    strict float inequality decides the exact comparison, and equal
    floats defer to the exact ``Fraction`` in the next slot.  Almost
    every comparison resolves on the cheap float; the rationals only
    arbitrate genuine float ties.  Raises ``OverflowError`` on
    coordinates too large for ``float`` — callers fall back to the
    all-exact key.
    """
    return (float(p.x), p.x, float(p.y), p.y)


def _segment_sort_key(s: Segment):
    return _point_sort_key(s.a) + _point_sort_key(s.b)


def _pieces_from_cuts(
    segs: list[Segment], cuts: list[set[Point]]
) -> list[Segment]:
    pieces: set[Segment] = set()
    for seg, cut in zip(segs, cuts):
        # Every cut point is an intersection computed *on* the segment,
        # so the containment filter of Segment.split_at reduces to
        # dropping the endpoints (hash-based: the set difference reuses
        # the stored hashes instead of rational equality per element);
        # lexicographic order equals the order along the segment because
        # endpoints are lex-sorted.
        interior = cut.difference(seg.endpoints())
        try:
            stops = sorted(interior, key=_point_sort_key)
        except OverflowError:
            stops = sorted(interior, key=Point.lex_key)
        stops = [seg.a, *stops, seg.b]
        pieces.update(Segment(p, q) for p, q in zip(stops, stops[1:]))
    try:
        return sorted(pieces, key=_segment_sort_key)
    except OverflowError:
        return sorted(pieces, key=lambda s: (s.a.lex_key(), s.b.lex_key()))


def _record(cuts: list[set[Point]], i: int, j: int, kind: str, payload) -> None:
    if kind == "point":
        cuts[i].add(payload)
        cuts[j].add(payload)
    elif kind == "overlap":
        lo, hi = payload
        cuts[i].update((lo, hi))
        cuts[j].update((lo, hi))


def planarize(segments: Iterable[Segment]) -> list[Segment]:
    """Split *segments* into interior-disjoint pieces (x-interval sweep).

    Returns the pieces sorted lexicographically (a deterministic order
    helps reproducibility downstream).  The output satisfies:

    * every input point covered by some segment is covered by some piece;
    * two distinct pieces share at most endpoints.

    Output is identical to :func:`planarize_allpairs`: the sweep only
    prunes pairs whose bounding boxes are disjoint, which cannot
    intersect and contribute no cuts.
    """
    segs: list[Segment] = list(dict.fromkeys(segments))
    cuts: list[set[Point]] = [set() for _ in segs]
    with span("planarize.sweep", segments=len(segs)):
        arr = batchkernel.segments_to_array(segs) if filter_enabled() else None
        if arr is None:
            _sweep_scalar(segs, cuts)
        else:
            _sweep_batched(segs, arr, cuts)
    with span("planarize.pieces"):
        return _pieces_from_cuts(segs, cuts)


def _sweep_batched(
    segs: list[Segment], arr: np.ndarray, cuts: list[set[Point]]
) -> None:
    """Collect candidate pairs with the x-sweep, classify them in bulk.

    The active-set removal compares *rounded* right bounds against the
    incoming left bound; ``float(Fraction)`` is monotone, so a strict
    float ``<`` certifies the exact x-separation the scalar sweep tests.
    Float ties conservatively keep the pair as a candidate — the batched
    bbox verdict then rejects it, so output (not just correctness, also
    the exact piece list) is unchanged.
    """
    # Endpoints are stored in lexicographic order, so column 0 is the
    # left x-bound and column 2 the right one.
    order = sorted(range(len(segs)), key=lambda i: segs[i].a.lex_key())
    right_x = arr[:, 2]
    pair_i: list[int] = []
    pair_j: list[int] = []
    active: list[int] = []
    for i in order:
        left_x = arr[i, 0]
        still: list[int] = []
        for j in active:
            if right_x[j] < left_x:
                continue  # x-interval certified closed
            still.append(j)
            pair_i.append(i)
            pair_j.append(j)
        still.append(i)
        active = still
    if not pair_i:
        return
    ia = np.asarray(pair_i, dtype=np.intp)
    ja = np.asarray(pair_j, dtype=np.intp)
    verdicts = batchkernel.classify_pairs_counted(arr[ia], arr[ja])
    n_pruned = int(np.count_nonzero(verdicts == batchkernel.BBOX_REJECT))
    counters.planarize_pairs_pruned += n_pruned
    counters.planarize_pairs_tested += len(pair_i) - n_pruned
    for k in np.flatnonzero(verdicts == batchkernel.CERT_CROSS).tolist():
        i, j = pair_i[k], pair_j[k]
        s, t = segs[i], segs[j]
        kind, payload = batchkernel.crossing_point(s.a, s.b, t.a, t.b)
        _record(cuts, i, j, kind, payload)
    for k in np.flatnonzero(verdicts == batchkernel.AMBIGUOUS).tolist():
        i, j = pair_i[k], pair_j[k]
        kind, payload = segs[i].intersect(segs[j])
        _record(cuts, i, j, kind, payload)


def _sweep_scalar(segs: list[Segment], cuts: list[set[Point]]) -> None:
    """Per-pair sweep used under exact mode or float-overflow coords."""
    order = sorted(range(len(segs)), key=lambda i: segs[i].a.lex_key())
    active: list[int] = []
    for i in order:
        s = segs[i]
        s_xmin = s.a.x
        if s.a.y <= s.b.y:
            s_ymin, s_ymax = s.a.y, s.b.y
        else:
            s_ymin, s_ymax = s.b.y, s.a.y
        still: list[int] = []
        for j in active:
            t = segs[j]
            if t.b.x < s_xmin:
                continue  # x-interval closed: nothing later overlaps
            still.append(j)
            if max(t.a.y, t.b.y) < s_ymin or s_ymax < min(t.a.y, t.b.y):
                counters.planarize_pairs_pruned += 1
                continue
            counters.planarize_pairs_tested += 1
            kind, payload = s.intersect(t)
            _record(cuts, i, j, kind, payload)
        still.append(i)
        active = still


def planarize_allpairs(segments: Iterable[Segment]) -> list[Segment]:
    """Split *segments* into interior-disjoint pieces (seed all-pairs).

    The quadratic reference implementation: every pair goes through the
    exact intersection test.  Kept as the A/B baseline for the sweep —
    the kernel-equivalence tests assert both produce identical pieces.
    """
    segs: list[Segment] = list(dict.fromkeys(segments))
    cuts: list[set[Point]] = [set() for _ in segs]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            kind, payload = segs[i].intersect(segs[j])
            _record(cuts, i, j, kind, payload)
    return _pieces_from_cuts(segs, cuts)


def endpoints_of(pieces: Sequence[Segment]) -> list[Point]:
    """All distinct endpoints of the pieces, lexicographically sorted."""
    pts = {p for seg in pieces for p in seg.endpoints()}
    return sorted(pts, key=Point.lex_key)
