"""Columnar binary serialization of instances: the ``RAI1`` block.

The JSON codec (:mod:`repro.io.json_io`) spells every rational out as a
``"num/den"`` string inside a nested object — lossless, readable, and
the right interchange format, but bulky and slow to parse.  This module
flattens an instance into one buffer that decodes without parsing, and
is the instance block of a segment-store record
(:mod:`repro.store.codec`):

``
magic "RAI1" | <I header_len | header JSON | pad to 8 | int64 (k, 2)
``

The header JSON carries only the *shape* — sorted region names with a
per-region spec (``["rect"]``, ``["rect_union", n]``, ``["poly", n]``)
— and every rational coordinate lands in one little-endian int64
``(k, 2)`` array of ``(numerator, denominator)`` rows, in reading
order.  Decoding is a single :func:`numpy.frombuffer` view (zero-copy
when the buffer is an mmap window) plus ``Fraction`` construction; the
exact values round-trip bit-for-bit because ``Fraction`` stores exactly
the reduced ``num/den`` pair that was written.

Only the closed-form region classes (:class:`~repro.regions.Rect`,
:class:`~repro.regions.RectUnion`, :class:`~repro.regions.Poly`) with
coordinates below ``2**62`` in magnitude are encodable;
:func:`instance_to_buffer` returns ``None`` for anything else and the
caller falls back to the JSON codec for that instance.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction

import numpy as np

from ..errors import ReproError
from ..geometry import Point
from ..regions import Poly, Rect, RectUnion, SpatialInstance

__all__ = ["instance_to_buffer", "instance_from_buffer"]

_MAGIC = b"RAI1"
# int64 with headroom: anything at or beyond this magnitude falls back
# to JSON rather than risking dtype overflow.
_COORD_LIMIT = 1 << 62


def _push(rows: list[tuple[int, int]], value: Fraction) -> bool:
    num, den = value.numerator, value.denominator
    if abs(num) >= _COORD_LIMIT or den >= _COORD_LIMIT:
        return False
    rows.append((num, den))
    return True


def _push_point(rows: list[tuple[int, int]], p: Point) -> bool:
    return _push(rows, p.x) and _push(rows, p.y)


def instance_to_buffer(instance: SpatialInstance) -> bytes | None:
    """Encode *instance* as one flat buffer, or ``None`` if any region
    is not closed-form encodable (then the JSON codec must carry it)."""
    specs: list[list] = []
    rows: list[tuple[int, int]] = []
    for name, region in sorted(instance.items()):
        # Exact types only: a subclass may carry semantics the spec
        # cannot reproduce, and the JSON codec has a generic fallback.
        if type(region) is Rect:
            specs.append([name, "rect"])
            ok = (
                _push(rows, region.x1)
                and _push(rows, region.y1)
                and _push(rows, region.x2)
                and _push(rows, region.y2)
            )
        elif type(region) is RectUnion:
            specs.append([name, "rect_union", len(region.rects)])
            ok = all(
                _push(rows, r.x1)
                and _push(rows, r.y1)
                and _push(rows, r.x2)
                and _push(rows, r.y2)
                for r in region.rects
            )
        elif type(region) is Poly:
            specs.append([name, "poly", len(region.vertices)])
            ok = all(_push_point(rows, p) for p in region.vertices)
        else:
            return None
        if not ok:
            return None
    header = json.dumps({"v": 1, "regions": specs}).encode("utf-8")
    pad = (-(len(_MAGIC) + 4 + len(header))) % 8
    data = np.array(rows, dtype="<i8").reshape(len(rows), 2)
    return b"".join(
        (
            _MAGIC,
            struct.pack("<I", len(header)),
            header,
            b"\0" * pad,
            data.tobytes(),
        )
    )


def _take(arr: np.ndarray, pos: int, count: int) -> list[Fraction]:
    chunk = arr[pos : pos + count]
    try:
        return [Fraction(int(n), int(d)) for n, d in chunk.tolist()]
    except ZeroDivisionError as exc:
        raise ReproError(
            "bad array-instance buffer: zero-denominator coordinate"
        ) from exc


def instance_from_buffer(buf: bytes | memoryview) -> SpatialInstance:
    """Decode a buffer written by :func:`instance_to_buffer`.

    Accepts a ``memoryview`` (e.g. a store segment's mmap window) and reads
    the coordinate array in place without copying the buffer.
    """
    view = memoryview(buf)
    if len(view) < 8:
        raise ReproError(
            f"bad array-instance buffer: {len(view)} bytes is shorter "
            "than the fixed header"
        )
    if bytes(view[:4]) != _MAGIC:
        raise ReproError("bad array-instance buffer: wrong magic")
    (header_len,) = struct.unpack("<I", view[4:8])
    if 8 + header_len > len(view):
        raise ReproError(
            "bad array-instance buffer: truncated header "
            f"(claims {header_len} bytes, {len(view) - 8} available)"
        )
    try:
        header = json.loads(bytes(view[8 : 8 + header_len]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ReproError(
            f"bad array-instance buffer: garbled header ({exc})"
        ) from exc
    if not isinstance(header, dict) or not isinstance(
        header.get("regions"), list
    ):
        raise ReproError(
            "bad array-instance buffer: header is not a region table"
        )
    offset = 8 + header_len + ((-(8 + header_len)) % 8)
    total = 0
    for spec in header["regions"]:
        if (
            not isinstance(spec, list)
            or len(spec) < 2
            or not isinstance(spec[0], str)
        ):
            raise ReproError(
                f"bad array-instance buffer: malformed region spec {spec!r}"
            )
        if spec[1] == "rect":
            total += 4
        elif spec[1] in ("rect_union", "poly"):
            if (
                len(spec) < 3
                or not isinstance(spec[2], int)
                or spec[2] < 1
            ):
                raise ReproError(
                    "bad array-instance buffer: "
                    f"malformed region spec {spec!r}"
                )
            total += spec[2] * (4 if spec[1] == "rect_union" else 2)
        else:
            raise ReproError(f"unknown array-region kind {spec[1]!r}")
    if offset + 16 * total > len(view):
        raise ReproError(
            "bad array-instance buffer: coordinate block truncated "
            f"(needs {16 * total} bytes, {len(view) - offset} available)"
        )
    arr = np.frombuffer(view, dtype="<i8", count=2 * total, offset=offset)
    arr = arr.reshape(total, 2)
    inst = SpatialInstance()
    pos = 0
    for spec in header["regions"]:
        name, kind = spec[0], spec[1]
        if kind == "rect":
            x1, y1, x2, y2 = _take(arr, pos, 4)
            pos += 4
            inst.add(name, Rect(x1, y1, x2, y2))
        elif kind == "rect_union":
            n = spec[2]
            rects = []
            for _ in range(n):
                x1, y1, x2, y2 = _take(arr, pos, 4)
                pos += 4
                rects.append(Rect(x1, y1, x2, y2))
            # The parent validated the source region; skip re-checks.
            inst.add(name, RectUnion(rects, validate=False))
        elif kind == "poly":
            n = spec[2]
            coords = _take(arr, pos, 2 * n)
            pos += 2 * n
            vertices = [
                Point(coords[2 * i], coords[2 * i + 1]) for i in range(n)
            ]
            inst.add(name, Poly(vertices, validate=False))
        else:
            raise ReproError(f"unknown array-region kind {kind!r}")
    del arr, view
    return inst
