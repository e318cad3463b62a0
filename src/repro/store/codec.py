"""Binary record codec for the persistent invariant store.

One record body, following the :mod:`repro.io.array_io` RAI1
discipline — a tiny JSON *shape* header (magic, length, pad to 8) with
every bulk quantity in flat little-endian numpy blocks decoded by
``np.frombuffer`` views (zero-copy when the source is an mmap window).

**Invariant records** (``RTI1``) hold one ``T_I`` as struct-of-arrays:
cells are ordinals (vertices, edges, faces each in sorted-id order,
concatenated into one global numbering), labels a dense ``(n, n_names)``
uint8 matrix of location codes, endpoints/incidence/orientation int32
index rows.  Cell-id *strings* are deliberately not stored: ``T_I`` is
a relational structure whose identity is its canonical form, so the
decoder materializes fresh dense ids (``v0…``, ``e0…``, ``f0…``) — the
round trip is canonically bit-identical (equal
:func:`~repro.invariant.canonical.canonical_hash`), not string-identical.
An invariant whose labels fall outside the ``o/b/e`` alphabet or whose
counts overflow int32 is carried as a lossless JSON payload instead
(``"k": "json"`` in the header) — same fallback contract as the RAI1
instance codec.  A record optionally carries the source instance's
geometry (the RAI1 buffer, or JSON for non-closed-form regions), which
is what lets :meth:`repro.service.QueryService.register` resolve an
instance straight from the store.

Segments written by earlier versions may also hold ``RCX1`` cell-complex
records (segment kind 2); no reader decodes them.  Scrub and mirror
repair carry them verbatim, and compaction keeps one only while the
invariant key it belongs to is live.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..arrangement.soa import label_rows, label_tuples
from ..errors import StoreError
from ..invariant.structure import CCW, CW, TopologicalInvariant
from ..regions import SpatialInstance

__all__ = [
    "encode_record",
    "decode_record",
    "StoredRecord",
]

_INV_MAGIC = b"RTI1"
_I32_MAX = (1 << 31) - 1
_SENSE_CODES = {CW: 0, CCW: 1}
_SENSE_CHARS = (CW, CCW)


def _pad8(n: int) -> int:
    return (-n) % 8


def _frame(magic: bytes, header: dict, blocks: list[bytes]) -> bytes:
    text = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [magic, struct.pack("<I", len(text)), text, b"\0" * _pad8(len(magic) + 4 + len(text))]
    for block in blocks:
        parts.append(block)
        parts.append(b"\0" * _pad8(len(block)))
    return b"".join(parts)


def _unframe(buf, magic: bytes) -> tuple[dict, memoryview, int]:
    """Header dict, the full buffer view, and the first block offset.

    Raises :class:`StoreError` on truncated or garbled framing — a
    record that passed its envelope checksum but cannot be parsed is a
    codec bug or a hostile edit, never silently skipped.
    """
    view = memoryview(buf)
    if len(view) < 8:
        raise StoreError("record too short for a codec header")
    if bytes(view[:4]) != magic:
        raise StoreError(
            f"bad record magic {bytes(view[:4])!r}; expected {magic!r}"
        )
    (header_len,) = struct.unpack("<I", view[4:8])
    if 8 + header_len > len(view):
        raise StoreError("record header runs past the buffer")
    try:
        header = json.loads(bytes(view[8 : 8 + header_len]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreError(f"garbled record header: {exc}") from exc
    if not isinstance(header, dict):
        raise StoreError("record header is not an object")
    return header, view, 8 + header_len + _pad8(8 + header_len)


def _take(view: memoryview, offset: int, dtype: str, count: int, shape):
    """An aligned ``np.frombuffer`` view; bounds-checked."""
    itemsize = np.dtype(dtype).itemsize
    end = offset + itemsize * count
    if end > len(view):
        raise StoreError("record block runs past the buffer")
    arr = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
    return arr.reshape(shape), end


# ---------------------------------------------------------------------------
# Invariant records.
# ---------------------------------------------------------------------------


def _soa_encodable(t: TopologicalInvariant) -> bool:
    """Whether the counts fit int32 and every sense is CW or CCW; the
    labels are checked by :func:`~repro.arrangement.soa.label_rows`."""
    if len(t.vertices) + len(t.edges) + len(t.faces) > _I32_MAX:
        return False
    return all(sense in _SENSE_CODES for sense, *_rest in t.orientation)


def _instance_block(instance: SpatialInstance | None) -> tuple[list, list[bytes]]:
    if instance is None:
        return None, []
    from ..io import instance_to_buffer, instance_to_json

    blob = instance_to_buffer(instance)
    if blob is not None:
        return ["rai", len(blob)], [blob]
    text = instance_to_json(instance).encode("utf-8")
    return ["json", len(text)], [text]


def encode_record(
    t: TopologicalInvariant,
    instance: SpatialInstance | None = None,
    canonical_hash: str | None = None,
) -> bytes:
    """One invariant-record body: ``T_I`` (struct-of-arrays when the
    labels are standard, lossless JSON otherwise), plus the source
    instance's geometry and precomputed canonical hash when given."""
    inst_spec, inst_blocks = _instance_block(instance)
    verts = sorted(t.vertices)
    edges = sorted(t.edges)
    faces = sorted(t.faces)
    order = verts + edges + faces
    labels = (
        label_rows([t.labels[c] for c in order], len(t.names))
        if _soa_encodable(t)
        else None
    )
    if labels is None:
        from ..io import invariant_to_json

        payload = invariant_to_json(t).encode("utf-8")
        header = {"v": 1, "k": "json", "jlen": len(payload)}
        if canonical_hash is not None:
            header["ch"] = canonical_hash
        if inst_spec is not None:
            header["inst"] = inst_spec
        return _frame(_INV_MAGIC, header, [payload, *inst_blocks])

    pos = {c: i for i, c in enumerate(order)}
    names = list(t.names)

    # Endpoint rows: (v1, v2) for a two-endpoint edge, (v, -1) for a
    # loop at one vertex, (-2, -2) for an *empty* entry (a free loop:
    # present in the mapping with no vertices), (-1, -1) for an edge
    # with no entry at all.  canonical_form distinguishes the last two,
    # so the codec must round-trip them faithfully.
    endpoints = np.full((len(edges), 2), -1, dtype="<i4")
    for k, e in enumerate(edges):
        if e not in t.endpoints:
            continue
        vs = t.endpoints[e]
        if not vs:
            endpoints[k] = (-2, -2)
            continue
        for j, v in enumerate(vs[:2]):
            endpoints[k, j] = pos[v]

    incidence = np.array(
        sorted((pos[a], pos[b]) for a, b in t.incidences), dtype="<i4"
    ).reshape(len(t.incidences), 2)

    orientation = np.array(
        sorted(
            (_SENSE_CODES[s], pos[v], pos[e1], pos[e2])
            for (s, v, e1, e2) in t.orientation
        ),
        dtype="<i4",
    ).reshape(len(t.orientation), 4)

    header = {
        "v": 1,
        "k": "soa",
        "names": names,
        "nv": len(verts),
        "ne": len(edges),
        "nf": len(faces),
        "ext": len(verts) + len(edges) + faces.index(t.exterior_face),
        "ninc": len(t.incidences),
        "nori": len(t.orientation),
    }
    if canonical_hash is not None:
        header["ch"] = canonical_hash
    if inst_spec is not None:
        header["inst"] = inst_spec
    ints = b"".join(
        (endpoints.tobytes(), incidence.tobytes(), orientation.tobytes())
    )
    return _frame(_INV_MAGIC, header, [ints, labels.tobytes(), *inst_blocks])


class StoredRecord:
    """A decoded invariant-record body.

    Lazy on both axes: :meth:`invariant` materializes the ``T_I``
    relational structure, :meth:`instance` the stored geometry (or
    ``None`` when the record carries none), and :attr:`canonical_hash`
    is the precomputed hash if one was stored.  The underlying numpy
    blocks are views over the source buffer — valid only while the
    owning segment stays open.
    """

    __slots__ = ("_header", "_view", "_offset")

    def __init__(self, header: dict, view: memoryview, offset: int):
        self._header = header
        self._view = view
        self._offset = offset

    @property
    def kind(self) -> str:
        return self._header["k"]

    @property
    def canonical_hash(self) -> str | None:
        return self._header.get("ch")

    @property
    def has_instance(self) -> bool:
        return self._header.get("inst") is not None

    def _blocks_end(self) -> int:
        h = self._header
        if h["k"] == "json":
            return self._offset + h["jlen"] + _pad8(h["jlen"])
        ints = 4 * (2 * h["ne"] + 2 * h["ninc"] + 4 * h["nori"])
        nlab = (h["nv"] + h["ne"] + h["nf"]) * len(h["names"])
        return (
            self._offset + ints + _pad8(ints) + nlab + _pad8(nlab)
        )

    def invariant(self) -> TopologicalInvariant:
        # A bit-flipped header passes JSON parsing but yields wrong
        # keys/types; surface that structurally, not as KeyError.
        try:
            return self._invariant()
        except StoreError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StoreError(f"malformed invariant record: {exc}") from exc

    def _invariant(self) -> TopologicalInvariant:
        h = self._header
        if h["k"] == "json":
            from ..io import invariant_from_json

            end = self._offset + h["jlen"]
            if end > len(self._view):
                raise StoreError("record JSON payload runs past the buffer")
            return invariant_from_json(
                bytes(self._view[self._offset : end]).decode("utf-8")
            )
        if h["k"] != "soa":
            raise StoreError(f"unknown invariant record kind {h['k']!r}")
        nv, ne, nf = h["nv"], h["ne"], h["nf"]
        n = nv + ne + nf
        off = self._offset
        endpoints, off = _take(self._view, off, "<i4", 2 * ne, (ne, 2))
        incidence, off = _take(
            self._view, off, "<i4", 2 * h["ninc"], (h["ninc"], 2)
        )
        orientation, off = _take(
            self._view, off, "<i4", 4 * h["nori"], (h["nori"], 4)
        )
        off += _pad8(off - self._offset)
        labels, off = _take(
            self._view, off, "u1", n * len(h["names"]), (n, len(h["names"]))
        )
        # Fresh dense ids, ordinal = position in sorted-id order (the
        # encoder's convention), so index round trips are exact.
        verts = sorted(f"v{i}" for i in range(nv))
        edges = sorted(f"e{i}" for i in range(ne))
        faces = sorted(f"f{i}" for i in range(nf))
        ids = verts + edges + faces
        if not 0 <= h["ext"] - nv - ne < nf:
            raise StoreError("exterior-face ordinal out of range")
        try:
            label_map = dict(zip(ids, label_tuples(labels)))
        except IndexError as exc:
            raise StoreError("label code out of range") from exc
        ep_map: dict[str, tuple[str, ...]] = {}
        for k, (a, b) in enumerate(endpoints.tolist()):
            if a == -1:
                continue
            if a == -2:
                ep_map[edges[k]] = ()  # free loop: present, no vertices
                continue
            if a < 0 or a >= len(ids) or b >= len(ids):
                raise StoreError("endpoint ordinal out of range")
            vs = (ids[a],) if b < 0 else tuple(sorted((ids[a], ids[b])))
            ep_map[edges[k]] = vs
        try:
            inc = frozenset(
                (ids[a], ids[b]) for a, b in incidence.tolist()
            )
            ori = frozenset(
                (_SENSE_CHARS[s], ids[v], ids[e1], ids[e2])
                for s, v, e1, e2 in orientation.tolist()
            )
        except IndexError as exc:
            raise StoreError("cell ordinal out of range") from exc
        return TopologicalInvariant(
            names=tuple(h["names"]),
            vertices=frozenset(verts),
            edges=frozenset(edges),
            faces=frozenset(faces),
            exterior_face=ids[h["ext"]],
            labels=label_map,
            endpoints=ep_map,
            incidences=inc,
            orientation=ori,
        )

    def instance(self) -> SpatialInstance | None:
        try:
            return self._instance()
        except StoreError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StoreError(f"malformed instance block: {exc}") from exc

    def _instance(self) -> SpatialInstance | None:
        spec = self._header.get("inst")
        if spec is None:
            return None
        kind, length = spec
        start = self._blocks_end()
        end = start + length
        if end > len(self._view):
            raise StoreError("record instance block runs past the buffer")
        window = self._view[start:end]
        if kind == "rai":
            from ..io import instance_from_buffer

            return instance_from_buffer(window)
        if kind == "json":
            from ..io import instance_from_json

            return instance_from_json(bytes(window).decode("utf-8"))
        raise StoreError(f"unknown instance block kind {kind!r}")


def decode_record(buf) -> StoredRecord:
    """Decode an invariant-record body (see :func:`encode_record`)."""
    header, view, offset = _unframe(buf, _INV_MAGIC)
    if header.get("v") != 1:
        raise StoreError(f"unknown invariant record version {header.get('v')!r}")
    if header.get("k") not in ("soa", "json"):
        raise StoreError(f"unknown invariant record kind {header.get('k')!r}")
    return StoredRecord(header, view, offset)
