"""Float-filtered exact geometric predicates (the fast kernel).

The seed kernel in :mod:`repro.geometry.predicates` decides every
predicate over :class:`fractions.Fraction` arithmetic.  That is exact but
pays rational-normalization (gcd) cost on every cross product, even
though the overwhelming majority of predicate calls in a non-degenerate
arrangement are decided by a sign that a double-precision evaluation gets
right by a wide margin.

This module puts a *static floating-point filter* in front of the exact
predicates, in the style of Shewchuk's adaptive predicates and the
interval filters of CGAL-like kernels:

* the predicate is first evaluated in double precision on the rounded
  coordinates;
* a conservative forward-error bound for that evaluation is computed
  from the operand magnitudes;
* if the float result clears the bound, its **sign is certified** and is
  returned with no rational arithmetic at all;
* otherwise (near-degenerate or genuinely degenerate input, or float
  overflow) the call **falls back to the exact rational predicate**.

The filter therefore never changes an answer — it only answers when the
error bound proves the sign — so every consumer remains exact.  The
only observable difference is speed, plus the module-level
:data:`counters` which record filter hits vs exact fallbacks — the
``kernel.*`` family of :func:`repro.instrument.counter_snapshot`, which
a tracer built with ``capture_counters=True`` diffs around every span.

Error bound
-----------
``orientation`` reduces to the sign of the 2x2 determinant
``D = (ax-cx)(by-cy) - (ay-cy)(bx-cx)``.  Evaluating it in doubles from
correctly rounded inputs (``float(Fraction)`` rounds to nearest, so each
input carries relative error <= u = 2^-53), a standard forward-error
analysis gives

    |D_float - D| <= ~6u * M,   M = (|ax|+|cx|)(|by|+|cy|) + (|ay|+|cy|)(|bx|+|cx|)

(conversion of each operand, one rounded subtraction per difference, one
rounded multiplication per term, one rounded final subtraction).  We use
the coefficient ``16 * 2^-52 = 32u``, more than five times the proven
bound, so the certificate holds with a wide margin.  When the inputs are
too large to convert to ``float`` (OverflowError) or the bound is not
cleared (including NaN propagation), the exact predicate decides.

Counters are plain attribute increments on a module singleton: cheap,
always on, and approximate under the threads backend (a lost increment
is acceptable for statistics; correctness never depends on them).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..instrument import Counters
from .point import Point
from . import predicates as _exact

__all__ = [
    "KernelCounters",
    "counters",
    "exact_mode",
    "filter_enabled",
    "on_segment",
    "orientation",
    "segment_intersection",
]

# 2^-52; the per-call bound uses 16 * _EPS * M = 32u * M (see module doc).
_EPS = 2.220446049250313e-16
_ORIENT_COEFF = 16.0 * _EPS


class KernelCounters(Counters):
    """Filter hits vs exact fallbacks, per predicate family.

    ``orientation_fast`` / ``orientation_exact``
        Orientation signs certified by the float filter vs decided by
        rational arithmetic (degenerate, near-degenerate, or overflow).
    ``intersect_fast`` / ``intersect_exact`` / ``intersect_bbox_reject``
        Segment-intersection classifications answered by the filtered
        path, delegated to the exact classifier, and rejected outright
        by the bounding-box prescreen.
    ``planarize_pairs_tested`` / ``planarize_pairs_pruned``
        Candidate segment pairs classified (or delegated to the scalar
        kernel) by the sweep planarizer vs pairs rejected outright by
        its bounding-box prescreen — the batched vector test on the
        default path, the y-interval check on the scalar fallback path
        (pairs separated in x never even meet in the active set).
    ``batch_pairs`` / ``batch_certified`` / ``batch_fallback``
        Segment pairs classified by the vectorized batch kernel
        (:mod:`repro.geometry.batchkernel`): total pairs, pairs whose
        verdict the float filter certified in-batch, and ambiguous
        pairs delegated to the scalar kernel (which also counts them
        under the ``intersect_*`` / ``orientation_*`` families).
    """

    def filter_hit_rate(self) -> float:
        """Fraction of predicate calls answered without exact fallback.

        Covers the orientation and intersection families (bbox rejects
        count as filtered answers); 0.0 when nothing has run.
        """
        fast = (
            self.orientation_fast
            + self.intersect_fast
            + self.intersect_bbox_reject
        )
        total = fast + self.orientation_exact + self.intersect_exact
        return fast / total if total else 0.0


counters = KernelCounters(
    "kernel",
    (
        "orientation_fast",
        "orientation_exact",
        "intersect_fast",
        "intersect_exact",
        "intersect_bbox_reject",
        "planarize_pairs_tested",
        "planarize_pairs_pruned",
        "batch_pairs",
        "batch_certified",
        "batch_fallback",
    ),
)

_filter_enabled = True


def filter_enabled() -> bool:
    """Whether the float prescreen is active (see :func:`exact_mode`)."""
    return _filter_enabled


@contextmanager
def exact_mode() -> Iterator[None]:
    """Disable the float filter for the block (A/B and debugging aid).

    Inside the block every predicate goes straight to the exact rational
    kernel, which is the seed behaviour.  Results are identical either
    way — this only exists so tests and benchmarks can compare the two
    paths.  The flag is module-global, so don't wrap it around work that
    races with the threads backend.
    """
    global _filter_enabled
    prev = _filter_enabled
    _filter_enabled = False
    try:
        yield
    finally:
        _filter_enabled = prev


def orientation(a: Point, b: Point, c: Point) -> int:
    """Exact sign of the signed area of triangle *abc*, filter-first.

    Semantically identical to :func:`repro.geometry.predicates.orientation`.
    """
    if _filter_enabled:
        try:
            axf, ayf = float(a.x), float(a.y)
            bxf, byf = float(b.x), float(b.y)
            cxf, cyf = float(c.x), float(c.y)
        except OverflowError:
            pass
        else:
            det = (axf - cxf) * (byf - cyf) - (ayf - cyf) * (bxf - cxf)
            err = _ORIENT_COEFF * (
                (abs(axf) + abs(cxf)) * (abs(byf) + abs(cyf))
                + (abs(ayf) + abs(cyf)) * (abs(bxf) + abs(cxf))
            )
            # NaN/overflow in det or err fails both comparisons and
            # falls through to the exact path.
            if det > err:
                counters.orientation_fast += 1
                return 1
            if det < -err:
                counters.orientation_fast += 1
                return -1
    counters.orientation_exact += 1
    return _exact.orientation(a, b, c)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff *p* lies on the closed segment *ab* (filtered-exact).

    Identical to :func:`repro.geometry.predicates.on_segment`; the
    non-collinear common case is rejected by the filtered orientation.
    """
    if orientation(a, b, p) != 0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def segment_intersection(
    a: Point, b: Point, c: Point, d: Point
) -> tuple[str, object]:
    """Classify the intersection of closed segments *ab* and *cd*.

    Drop-in filtered equivalent of
    :func:`repro.geometry.predicates.segment_intersection`: identical
    return values on every input.  The fast path answers the two common
    cases — certified disjoint and certified proper crossing — from
    filtered orientation signs; anything involving a zero orientation
    (endpoint contact, T-junction, collinearity) or an uncertified sign
    delegates to the exact classifier.
    """
    if not _filter_enabled:
        counters.intersect_exact += 1
        return _exact.segment_intersection(a, b, c, d)
    # Bounding-box prescreen: exact rational comparisons, no allocation.
    if (
        max(a.x, b.x) < min(c.x, d.x)
        or max(c.x, d.x) < min(a.x, b.x)
        or max(a.y, b.y) < min(c.y, d.y)
        or max(c.y, d.y) < min(a.y, b.y)
    ):
        counters.intersect_bbox_reject += 1
        return ("none", None)
    # Vertex contact: adjacent polygon edges share an endpoint, which is
    # extremely common and would otherwise force an exact fallback (one
    # of the four orientations is an exact zero).  If the two remaining
    # endpoints are certified non-collinear with the shared one, the
    # lines are distinct and both pass through the shared point, so it
    # is the unique intersection (the exact classifier returns the same
    # value: t or u is exactly 0 or 1 there).  Collinear or uncertified
    # configurations (overlap along the shared line) fall through.
    if a == c or a == d:
        shared, p1, p2 = a, b, (d if a == c else c)
    elif b == c or b == d:
        shared, p1, p2 = b, a, (d if b == c else c)
    else:
        shared = None
    if shared is not None:
        if orientation(shared, p1, p2) != 0:
            counters.intersect_fast += 1
            return ("point", shared)
        counters.intersect_exact += 1
        return _exact.segment_intersection(a, b, c, d)
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    if o1 == o2 and o1 != 0:
        # c and d strictly on one side of line ab: no contact.
        counters.intersect_fast += 1
        return ("none", None)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o3 == o4 and o3 != 0:
        counters.intersect_fast += 1
        return ("none", None)
    if o1 * o2 < 0 and o3 * o4 < 0:
        # Proper crossing: the segments strictly straddle each other, so
        # the lines cannot be parallel and the parameter lies in (0, 1).
        # Same formula as the exact kernel, so the Point is identical.
        counters.intersect_fast += 1
        r = b - a
        s = d - c
        denom = r.cross(s)
        t = (c - a).cross(s) / denom
        return ("point", Point(a.x + r.x * t, a.y + r.y * t))
    counters.intersect_exact += 1
    return _exact.segment_intersection(a, b, c, d)
