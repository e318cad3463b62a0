"""Numpy-batched float filters for segment-pair classification.

:mod:`repro.geometry.fastkernel` certifies predicate signs one call at a
time; when the arrangement sweep has collected thousands of candidate
segment pairs, the per-call Python overhead dwarfs the float arithmetic.
This module evaluates the same filters — identical error bounds,
identical certification rules — over ``(N, 4)`` arrays of segment
endpoints in a handful of vector operations, and returns a *verdict
array*:

``BBOX_REJECT``
    The float bounding boxes are strictly disjoint.  ``float(Fraction)``
    is correctly rounded, hence monotone, so a strict ``<`` between
    rounded coordinates certifies the same strict inequality between the
    exact coordinates: the segments cannot touch.  No error bound is
    needed; ties stay uncertified.
``CERT_NONE``
    Both endpoints of one segment lie certified strictly on one side of
    the other's supporting line (the certified orientation signs carry
    the same ``32u * M`` forward-error bound as the scalar filter).
``CERT_CROSS``
    All four orientations are certified and strictly straddling: a
    proper crossing whose exact parameter lies in (0, 1).  The caller
    places the crossing point exactly.
``AMBIGUOUS``
    Everything else: any uncertified sign, any exact degeneracy
    (endpoint contact, T-junction, collinear overlap), float overflow.
    These pairs must be resolved exactly; the sweep planarizer hands
    them to the integer classifier
    :func:`repro.geometry.fastkernel.classify_ints`.

The contract mirrors the scalar filter's: a verdict other than
``AMBIGUOUS`` is a *proof*, never a guess, so batched consumers remain
bit-identical to the seed kernel.  Coordinates too large for ``float``
make :func:`segments_to_array` return ``None`` and the caller falls back
to exact classification wholesale.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fastkernel import _ORIENT_COEFF, counters
from .point import Point
from .segment import Segment

__all__ = [
    "AMBIGUOUS",
    "BBOX_REJECT",
    "CERT_NONE",
    "CERT_CROSS",
    "classify_pairs",
    "classify_pairs_counted",
    "orientation_filter",
    "points_to_array",
    "segments_to_array",
]

AMBIGUOUS = 0
BBOX_REJECT = 1
CERT_NONE = 2
CERT_CROSS = 3


def segments_to_array(segs: Sequence[Segment]) -> np.ndarray | None:
    """Rounded endpoint coordinates as an ``(N, 4)`` float array.

    Columns are ``(a.x, a.y, b.x, b.y)``.  Returns ``None`` when any
    coordinate overflows ``float`` — the caller must then classify every
    pair involving that batch exactly.
    """
    out = np.empty((len(segs), 4), dtype=np.float64)
    try:
        for i, s in enumerate(segs):
            out[i, 0] = float(s.a.x)
            out[i, 1] = float(s.a.y)
            out[i, 2] = float(s.b.x)
            out[i, 3] = float(s.b.y)
    except OverflowError:
        return None
    return out


def points_to_array(points: Sequence[Point]) -> np.ndarray | None:
    """Rounded point coordinates as an ``(N, 2)`` float array, or ``None``."""
    out = np.empty((len(points), 2), dtype=np.float64)
    try:
        for i, p in enumerate(points):
            out[i, 0] = float(p.x)
            out[i, 1] = float(p.y)
    except OverflowError:
        return None
    return out


def orientation_filter(
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized orientation filter: ``(signs, certified)``.

    ``signs[i]`` is the certified sign of ``orientation(a_i, b_i, c_i)``
    where ``certified[i]`` is true, and meaningless elsewhere.  The
    bound is exactly the scalar filter's ``32u * M``; NaN/inf from
    intermediate overflow fail both comparisons and stay uncertified.
    """
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    err = _ORIENT_COEFF * (
        (np.abs(ax) + np.abs(cx)) * (np.abs(by) + np.abs(cy))
        + (np.abs(ay) + np.abs(cy)) * (np.abs(bx) + np.abs(cx))
    )
    pos = det > err
    neg = det < -err
    return pos.astype(np.int8) - neg.astype(np.int8), pos | neg


def classify_pairs(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Verdict array for the segment pairs ``(P[i], Q[i])``.

    *P* and *Q* are ``(N, 4)`` arrays as built by
    :func:`segments_to_array` (row order ``a.x, a.y, b.x, b.y``;
    endpoints need not be lex-sorted).  Returns an ``(N,)`` int8 array
    of ``BBOX_REJECT`` / ``CERT_NONE`` / ``CERT_CROSS`` / ``AMBIGUOUS``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bbox = (
            (np.maximum(P[:, 0], P[:, 2]) < np.minimum(Q[:, 0], Q[:, 2]))
            | (np.maximum(Q[:, 0], Q[:, 2]) < np.minimum(P[:, 0], P[:, 2]))
            | (np.maximum(P[:, 1], P[:, 3]) < np.minimum(Q[:, 1], Q[:, 3]))
            | (np.maximum(Q[:, 1], Q[:, 3]) < np.minimum(P[:, 1], P[:, 3]))
        )
        # Orientations only for the pairs the bbox test keeps: on a
        # sweep's candidates that is a small share.
        live = np.flatnonzero(~bbox)
        P = P[live]
        Q = Q[live]
        s1, c1 = orientation_filter(
            P[:, 0], P[:, 1], P[:, 2], P[:, 3], Q[:, 0], Q[:, 1]
        )
        s2, c2 = orientation_filter(
            P[:, 0], P[:, 1], P[:, 2], P[:, 3], Q[:, 2], Q[:, 3]
        )
        s3, c3 = orientation_filter(
            Q[:, 0], Q[:, 1], Q[:, 2], Q[:, 3], P[:, 0], P[:, 1]
        )
        s4, c4 = orientation_filter(
            Q[:, 0], Q[:, 1], Q[:, 2], Q[:, 3], P[:, 2], P[:, 3]
        )
    # Certified signs are nonzero by construction, so "same certified
    # sign" means "strictly one side" and "different certified signs"
    # means "strictly straddles".
    none = (c1 & c2 & (s1 == s2)) | (c3 & c4 & (s3 == s4))
    cross = c1 & c2 & c3 & c4 & (s1 != s2) & (s3 != s4)
    kept = np.zeros(len(live), dtype=np.int8)
    kept[cross] = CERT_CROSS
    kept[none] = CERT_NONE
    verdicts = np.full(len(bbox), BBOX_REJECT, dtype=np.int8)
    verdicts[live] = kept
    return verdicts


def classify_pairs_counted(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """:func:`classify_pairs` plus counter accounting.

    Certified verdicts are counted here (``intersect_bbox_reject`` for
    bbox rejects, ``intersect_fast`` for the rest), matching what the
    scalar kernel would have recorded pair-by-pair.  ``AMBIGUOUS`` pairs
    are *not* counted — the exact classification the caller makes for
    them does its own accounting.
    """
    verdicts = classify_pairs(P, Q)
    n = len(verdicts)
    n_bbox = int(np.count_nonzero(verdicts == BBOX_REJECT))
    n_cert = int(
        np.count_nonzero(verdicts == CERT_NONE)
        + np.count_nonzero(verdicts == CERT_CROSS)
    )
    counters.batch_pairs += n
    counters.batch_certified += n_bbox + n_cert
    counters.batch_fallback += n - n_bbox - n_cert
    counters.intersect_bbox_reject += n_bbox
    counters.intersect_fast += n_cert
    return verdicts
