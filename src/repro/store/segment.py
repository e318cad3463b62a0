"""Append-only, mmap-able segment files for the invariant store.

One segment is one file::

    file header (32 B) | record | record | … | [footer | trailer]

Records are length-prefixed envelopes with per-record integrity::

    u32 "REC1" | u32 payload_len | u8 kind | u8 flags | u16 pad | u32 pad
    key (32 B, raw sha256 of the content key)
    sha256(payload) (32 B)
    bbox xmin, ymin, xmax, ymax (4 × f64; NaN when unindexed)
    payload | pad to 8

The **footer** is the segment's in-file index, written when the
segment is *sealed*: an open-addressed hash table (capacity a power of
two ≥ 2 × live keys; linear probing on the key's low 64 bits) mapping
key → newest record offset, plus the z-order spatial block — record
offsets sorted by the Morton code of each bbox's quantized min corner,
with the bboxes alongside so window queries filter candidates without
touching record payloads.  A **trailer** (fixed size, at EOF) locates
the footer; footer and trailer carry their own sha256.

Crash model: appends are buffered writes with no ordering guarantees,
so a crash can tear the tail.  :meth:`Segment.open` first trusts a
valid trailer+footer (clean shutdown); otherwise it scans the records
from the top, verifying each envelope and payload checksum, and
**truncates** the file at the first torn or corrupt record — everything
fully written before the crash survives bit-identically, the torn tail
is dropped, and the index is rebuilt in memory (persisted again at the
next seal).  A sealed segment opened read-only probes its mmap'd
footer directly: point lookups are O(1) probes, no per-open scan.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import struct
from errno import EIO, ENOSPC
from pathlib import Path
from typing import Iterator

import numpy as np

from .. import faults
from ..errors import StoreError
from . import zindex

__all__ = [
    "Segment",
    "KIND_INVARIANT",
    "KIND_COMPLEX",
    "KIND_TOMBSTONE",
]

_FILE_MAGIC = b"RSEG1\x00\x00\x00"
_FILE_HEADER = struct.Struct("<8sII16x")  # magic, version, reserved
_FILE_VERSION = 1

_REC_MAGIC = 0x31434552  # "REC1" little-endian
_REC_HEADER = struct.Struct("<IIBBH4x")  # magic, len, kind, flags, pad
_REC_FIXED = _REC_HEADER.size + 32 + 32 + 32  # + key + sha + bbox

_IDX_MAGIC = b"RIDX1\x00\x00\x00"
_TRL_MAGIC = b"RTRL1\x00\x00\x00"
_TRAILER = struct.Struct("<8sQQ")  # magic, data_end, footer_len
_TRAILER_SIZE = _TRAILER.size + 32  # + sha256

KIND_INVARIANT = 1
# ``RCX1`` cell-complex records, written only by earlier versions: still
# a valid kind on disk, carried verbatim and never decoded.
KIND_COMPLEX = 2
KIND_TOMBSTONE = 3
_KINDS = (KIND_INVARIANT, KIND_COMPLEX, KIND_TOMBSTONE)

_EMPTY_SHA = hashlib.sha256(b"").digest()
_NAN_BBOX = (math.nan,) * 4


def _pad8(n: int) -> int:
    return (-n) % 8


class _Entry:
    __slots__ = ("offset", "kind", "bbox")

    def __init__(self, offset: int, kind: int, bbox: tuple):
        self.offset = offset
        self.kind = kind
        self.bbox = bbox


class Segment:
    """One segment file; writable (active) or read-only (sealed).

    A writable segment keeps its index in a plain dict and appends
    records; :meth:`seal` persists the footer and flips the segment
    read-only in place.  A read-only segment with a valid footer keeps
    the index as numpy views over the mmap.
    """

    def __init__(self, path: str | os.PathLike, readonly: bool = False):
        self.path = Path(path)
        self.readonly = readonly
        self.sealed = False
        self._poisoned = False
        self.truncated_bytes = 0
        self.recovered = False
        # Writable-mode index: raw key -> newest live entry.
        self._dict: dict[bytes, _Entry] = {}
        # Sealed-mode index: mmap'd footer arrays.
        self._table_keys: np.ndarray | None = None
        self._table_offsets: np.ndarray | None = None
        self._sp_morton: np.ndarray | None = None
        self._sp_offsets: np.ndarray | None = None
        self._sp_bbox: np.ndarray | None = None
        self._sp_meta: dict | None = None
        self._open()

    # -- lifecycle ----------------------------------------------------------

    def _open(self) -> None:
        fresh = not self.path.exists()
        if fresh:
            if self.readonly:
                raise StoreError(f"no segment file at {self.path}")
            self._file = open(self.path, "w+b")
            self._file.write(
                _FILE_HEADER.pack(_FILE_MAGIC, _FILE_VERSION, 0)
            )
            self._file.flush()
            self.data_end = _FILE_HEADER.size
            self._mm: mmap.mmap | None = None
            self._mapped = 0
            return
        mode = "rb" if self.readonly else "r+b"
        self._file = open(self.path, mode)
        size = os.fstat(self._file.fileno()).st_size
        if size < _FILE_HEADER.size:
            raise StoreError(f"segment {self.path} shorter than its header")
        self._mm = None
        self._mapped = 0
        self._ensure_mapped(size)
        magic, version, _ = _FILE_HEADER.unpack_from(self._mm, 0)
        if magic != _FILE_MAGIC:
            raise StoreError(f"{self.path} is not a segment file")
        if version != _FILE_VERSION:
            raise StoreError(
                f"segment {self.path} has version {version}; expected "
                f"{_FILE_VERSION}"
            )
        if self._load_footer(size):
            self.sealed = True
            if not self.readonly:
                # Reopening a sealed segment for appends: drop the
                # footer (records keep growing past data_end) and fall
                # back to the dict index.
                self._footer_to_dict()
                self._file.seek(self.data_end)
                self._file.truncate(self.data_end)
                # The old mapping still covers the footer we just cut
                # off; reads at data_end would see those stale bytes
                # instead of fresh appends. Remap lazily.
                self._drop_map()
                self.sealed = False
        else:
            self._recover(size)

    def close(self) -> None:
        self._drop_map()
        if not self._file.closed:
            self._file.close()

    def _drop_map(self) -> None:
        """Release the mmap.  Zero-copy views handed out earlier keep
        the old mapping alive until they die (mmap refuses to close
        with exported buffers); dropping our reference is enough — the
        OS unmaps when the last view goes away."""
        if self._mm is None:
            return
        try:
            self._mm.close()
        except BufferError:
            pass
        self._mm = None
        self._mapped = 0

    def __enter__(self) -> "Segment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_mapped(self, end: int) -> None:
        if self._mm is not None and end <= self._mapped:
            return
        if not self.readonly:
            self._file.flush()
        size = os.fstat(self._file.fileno()).st_size
        if end > size:
            raise StoreError(
                f"segment {self.path}: read past end of file"
            )
        self._drop_map()
        self._mm = mmap.mmap(
            self._file.fileno(), size, access=mmap.ACCESS_READ
        )
        self._mapped = size

    # -- recovery -----------------------------------------------------------

    def _recover(self, size: int) -> None:
        """Scan records from the top, truncating the first torn tail."""
        self.recovered = True
        offset = _FILE_HEADER.size
        good_end = offset
        while True:
            parsed = self._try_parse(offset, size)
            if parsed is None:
                break
            key, entry, end = parsed
            self._note(key, entry)
            good_end = offset = end
        if good_end < size:
            self.truncated_bytes += size - good_end
            if not self.readonly:
                self._drop_map()
                self._file.seek(good_end)
                self._file.truncate(good_end)
                self._file.flush()
        self.data_end = good_end

    def _try_parse(self, offset: int, size: int):
        """Validate the record at *offset*; None when torn or corrupt."""
        if offset + _REC_FIXED > size:
            return None
        magic, plen, kind, _flags, _pad = _REC_HEADER.unpack_from(
            self._mm, offset
        )
        if magic != _REC_MAGIC or kind not in _KINDS:
            return None
        end = offset + _REC_FIXED + plen + _pad8(plen)
        if end > size:
            return None
        base = offset + _REC_HEADER.size
        key = bytes(self._mm[base : base + 32])
        sha = bytes(self._mm[base + 32 : base + 64])
        bbox = struct.unpack_from("<4d", self._mm, base + 64)
        payload = self._mm[offset + _REC_FIXED : offset + _REC_FIXED + plen]
        if hashlib.sha256(payload).digest() != sha:
            return None
        return key, _Entry(offset, kind, bbox), end

    def _note(self, key: bytes, entry: _Entry) -> None:
        """Fold one scanned record into the dict index (newest wins)."""
        self._dict[key] = entry

    # -- appends ------------------------------------------------------------

    def append(
        self,
        key: bytes,
        payload: bytes,
        kind: int = KIND_INVARIANT,
        bbox: tuple | None = None,
        sync: bool = False,
    ) -> int:
        """Append one record; returns its file offset.

        With ``sync`` the record is flushed *and fsynced* before the
        append is acknowledged (the ``sync="always"`` durability
        policy); an fsync failure — including an injected
        ``store_fsync_lost`` — drops the unacknowledged record by
        truncating back to the pre-append length, so a raised append
        never leaves a half-durable record behind.

        A drawn ``store_torn_append`` fault writes only a prefix of the
        record and raises — modelling a crash mid-append.  The segment
        is then poisoned (no further appends); reopening the file runs
        tail truncation and recovers every record before this one.  A
        drawn ``store_disk_full`` fault raises ``ENOSPC`` exactly as a
        full filesystem would, exercising the same rollback path.
        """
        if self.readonly or self.sealed:
            raise StoreError(
                f"segment {self.path} is not writable",
                op="append",
                path=str(self.path),
            )
        if self._poisoned:
            raise StoreError(
                f"segment {self.path} tore an append; reopen to recover",
                op="append",
                path=str(self.path),
            )
        if len(key) != 32:
            raise StoreError("record keys must be 32 raw bytes", op="append")
        box = _NAN_BBOX if bbox is None else tuple(float(v) for v in bbox)
        record = b"".join(
            (
                _REC_HEADER.pack(_REC_MAGIC, len(payload), kind, 0, 0),
                key,
                hashlib.sha256(payload).digest(),
                struct.pack("<4d", *box),
                payload,
                b"\0" * _pad8(len(payload)),
            )
        )
        offset = self.data_end
        self._file.seek(offset)
        fault = faults.draw("store_torn_append", key.hex())
        if fault is not None:
            torn = max(_REC_HEADER.size, len(record) // 2)
            self._file.write(record[:torn])
            self._file.flush()
            self._poisoned = True
            raise StoreError(
                f"injected torn append in {self.path.name} "
                f"({torn}/{len(record)} bytes written)",
                op="append",
                path=str(self.path),
            )
        try:
            if faults.draw("store_disk_full", key.hex()) is not None:
                raise OSError(ENOSPC, "injected disk full")
            self._file.write(record)
            if sync:
                self._file.flush()
                if faults.draw("store_fsync_lost", key.hex()) is not None:
                    raise OSError(EIO, "injected lost fsync")
                os.fsync(self._file.fileno())
        except OSError as exc:
            self._rollback_to(offset)
            raise StoreError(
                f"append to {self.path} failed: {exc}",
                op="append",
                path=str(self.path),
                errno=exc.errno,
            ) from exc
        self.data_end = offset + len(record)
        self._note(key, _Entry(offset, kind, tuple(box)))
        return offset

    def _rollback_to(self, offset: int) -> None:
        """Drop everything past *offset* (a failed, unacknowledged
        append).  When even the truncate fails the segment is poisoned:
        its tail is untrusted until a reopen re-scans it."""
        try:
            self._file.seek(offset)
            self._file.truncate(offset)
            self._file.flush()
        except OSError:
            self._poisoned = True

    def flush(self, sync: bool = False) -> None:
        self._file.flush()
        if sync:
            os.fsync(self._file.fileno())

    # -- reads --------------------------------------------------------------

    def get_entry(self, key: bytes) -> _Entry | None:
        """Newest entry for *key* (tombstones included), or None."""
        if self.sealed:
            offset = self._probe(key)
            if offset == 0:
                return None
            _k, entry, _end = self._parse_at(offset)
            return entry
        return self._dict.get(key)

    def _probe(self, key: bytes) -> int:
        keys, offsets = self._table_keys, self._table_offsets
        cap = len(offsets)
        if cap == 0:
            return 0
        slot = int.from_bytes(key[:8], "little") & (cap - 1)
        for _ in range(cap):
            offset = int(offsets[slot])
            if offset == 0:
                return 0
            if keys[slot].tobytes() == key:
                return offset
            slot = (slot + 1) & (cap - 1)
        return 0

    def _parse_at(self, offset: int):
        self._ensure_mapped(min(self._mapped or 0, 0) or offset + _REC_FIXED)
        self._ensure_mapped(offset + _REC_FIXED)
        magic, plen, kind, _flags, _pad = _REC_HEADER.unpack_from(
            self._mm, offset
        )
        if magic != _REC_MAGIC or kind not in _KINDS:
            raise StoreError(
                f"no record at offset {offset} of {self.path.name}"
            )
        end = offset + _REC_FIXED + plen
        self._ensure_mapped(end)
        base = offset + _REC_HEADER.size
        key = bytes(self._mm[base : base + 32])
        bbox = struct.unpack_from("<4d", self._mm, base + 64)
        return key, _Entry(offset, kind, bbox), end + _pad8(plen)

    def payload(self, entry: _Entry, verify: bool = True) -> memoryview:
        """The record payload at *entry* as an mmap-backed view."""
        offset = entry.offset
        self._ensure_mapped(offset + _REC_FIXED)
        _magic, plen, _kind, _f, _p = _REC_HEADER.unpack_from(
            self._mm, offset
        )
        self._ensure_mapped(offset + _REC_FIXED + plen)
        view = memoryview(self._mm)[
            offset + _REC_FIXED : offset + _REC_FIXED + plen
        ]
        if verify:
            base = offset + _REC_HEADER.size
            sha = bytes(self._mm[base + 32 : base + 64])
            if hashlib.sha256(view).digest() != sha:
                raise StoreError(
                    f"payload checksum mismatch at offset {offset} of "
                    f"{self.path.name}"
                )
        return view

    def scan(self) -> Iterator[tuple[bytes, _Entry]]:
        """Every record in file order (including superseded versions) —
        the no-index baseline and the compactor's input."""
        offset = _FILE_HEADER.size
        self._ensure_mapped(self.data_end)
        while offset < self.data_end:
            key, entry, end = self._parse_at(offset)
            yield key, entry
            offset = end

    # -- integrity verification (the scrubber's read side) -------------------

    def verify_records(
        self, offset: int | None = None, limit: int | None = None
    ) -> tuple[list[dict], int | None, int]:
        """Verify up to *limit* record envelopes and payload checksums
        starting at *offset* (default: the first record).

        Returns ``(defects, next_offset, verified)``: the defects found
        (dicts with ``type``/``offset``/``key``), the offset to resume
        from (None when the walk reached ``data_end``), and how many
        records verified clean.  A payload checksum mismatch is
        recoverable (``type="payload"``; the walk continues at the next
        envelope); a torn or garbled envelope is not (``type="envelope"``;
        the walk stops — nothing after it can be trusted).
        """
        pos = _FILE_HEADER.size if offset is None else offset
        defects: list[dict] = []
        verified = 0
        size = self.data_end
        self._ensure_mapped(size)
        while pos < size and (limit is None or verified + len(defects) < limit):
            if pos + _REC_FIXED > size:
                defects.append(
                    {"type": "envelope", "offset": pos, "key": None}
                )
                return defects, None, verified
            magic, plen, kind, _flags, _pad = _REC_HEADER.unpack_from(
                self._mm, pos
            )
            end = pos + _REC_FIXED + plen + _pad8(plen)
            if magic != _REC_MAGIC or kind not in _KINDS or end > size:
                defects.append(
                    {"type": "envelope", "offset": pos, "key": None}
                )
                return defects, None, verified
            base = pos + _REC_HEADER.size
            key = bytes(self._mm[base : base + 32])
            sha = bytes(self._mm[base + 32 : base + 64])
            payload = self._mm[pos + _REC_FIXED : pos + _REC_FIXED + plen]
            if hashlib.sha256(payload).digest() != sha:
                defects.append(
                    {"type": "payload", "offset": pos, "key": key.hex()}
                )
            else:
                verified += 1
            pos = end
        return defects, (pos if pos < size else None), verified

    def verify_footer(self) -> bool:
        """Re-verify the sealed footer + trailer checksums against the
        bytes on disk (at-rest corruption detection).  True for an
        unsealed segment — it has no footer to rot."""
        if not self.sealed:
            return True
        size = os.fstat(self._file.fileno()).st_size
        if size < _FILE_HEADER.size + _TRAILER_SIZE:
            return False
        self._ensure_mapped(size)
        t0 = size - _TRAILER_SIZE
        magic, data_end, footer_len = _TRAILER.unpack_from(self._mm, t0)
        sha = bytes(self._mm[t0 + _TRAILER.size : t0 + _TRAILER_SIZE])
        if (
            magic != _TRL_MAGIC
            or hashlib.sha256(self._mm[t0 : t0 + _TRAILER.size]).digest()
            != sha
            or data_end + footer_len + _TRAILER_SIZE != size
        ):
            return False
        body = memoryview(self._mm)[data_end : data_end + footer_len]
        if len(body) < 44 or bytes(body[:8]) != _IDX_MAGIC:
            return False
        return hashlib.sha256(body[:-32]).digest() == bytes(body[-32:])

    def corrupt_payload_byte(self, entry: _Entry, mask: int = 0x01) -> None:
        """Flip one byte of *entry*'s payload **on disk** — persistent
        at-rest corruption, as a failing sector would leave it.  The
        ``store_read_bitflip`` fault point and the corruption tests
        share this path so injected rot is bit-identical to real rot."""
        offset = entry.offset
        self._ensure_mapped(offset + _REC_FIXED)
        _magic, plen, _kind, _f, _p = _REC_HEADER.unpack_from(
            self._mm, offset
        )
        if plen == 0:
            return  # a tombstone has no payload byte to rot
        pos = offset + _REC_FIXED + plen // 2
        with open(self.path, "r+b") as f:
            f.seek(pos)
            byte = f.read(1)
            f.seek(pos)
            f.write(bytes((byte[0] ^ (mask or 0x01),)))
            f.flush()
        # The page cache makes the flip visible through the existing
        # mapping, but drop it anyway so no view caches clean bytes.
        self._drop_map()

    def live_items(self) -> Iterator[tuple[bytes, _Entry]]:
        """Newest entry per key (tombstones included, shadowed versions
        skipped)."""
        if self.sealed:
            for offset in self._live_offsets():
                key, entry, _end = self._parse_at(int(offset))
                yield key, entry
        else:
            yield from self._dict.items()

    def _live_offsets(self) -> np.ndarray:
        offsets = self._table_offsets
        return offsets[offsets != 0]

    def __len__(self) -> int:
        if self.sealed:
            return int(np.count_nonzero(self._table_offsets))
        return len(self._dict)

    @property
    def nbytes(self) -> int:
        return os.fstat(self._file.fileno()).st_size

    # -- window queries -----------------------------------------------------

    def window_candidates(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> list[bytes]:
        """Keys of live invariant records whose bbox intersects the
        window.  Sealed segments run the Morton-range scan; a writable
        segment (index not yet quantized) masks its entries directly."""
        out: list[bytes] = []
        if not self.sealed:
            for key, entry in self._dict.items():
                if entry.kind == KIND_INVARIANT and _intersects(
                    entry.bbox, xmin, ymin, xmax, ymax
                ):
                    out.append(key)
            return out
        morton, offsets, boxes = (
            self._sp_morton,
            self._sp_offsets,
            self._sp_bbox,
        )
        if morton is None or len(morton) == 0:
            return out
        meta = self._sp_meta
        x0, y0, sx, sy = meta["bounds"]
        dx, dy = meta["ext"]
        # A box reaches the window only if its min corner lies in the
        # window grown left/down by the largest stored extent.
        qx0 = zindex.quantize(np.array([xmin - dx]), x0, sx)[0]
        qy0 = zindex.quantize(np.array([ymin - dy]), y0, sy)[0]
        qx1 = zindex.quantize(np.array([xmax]), x0, sx)[0]
        qy1 = zindex.quantize(np.array([ymax]), y0, sy)[0]
        for lo, hi in zindex.morton_ranges(
            int(qx0), int(qx1), int(qy0), int(qy1)
        ):
            a = int(np.searchsorted(morton, lo, side="left"))
            b = int(np.searchsorted(morton, hi, side="left"))
            if a == b:
                continue
            cand = boxes[a:b]
            hit = ~(
                (cand[:, 2] < xmin)
                | (cand[:, 0] > xmax)
                | (cand[:, 3] < ymin)
                | (cand[:, 1] > ymax)
            )
            for offset in offsets[a:b][hit]:
                key, _entry, _end = self._parse_at(int(offset))
                out.append(key)
        return out

    # -- sealing ------------------------------------------------------------

    def seal(self, sync: bool = True) -> None:
        """Persist the footer + trailer and flip read-only in place.

        Ordering is what makes the seal crash-safe: the data region is
        fsynced *before* the footer is written, and the footer is
        flushed *before* the trailer that makes it discoverable — so a
        crash at any point leaves either a valid sealed file or a
        trailer-less one that the recovery scan heals without losing a
        record.  ``sync=False`` (the ``sync="never"`` store policy)
        skips the fsyncs but keeps the write ordering.
        """
        if self.readonly or self.sealed:
            return
        if self._poisoned:
            raise StoreError(
                f"segment {self.path} tore an append; reopen to recover",
                op="seal",
                path=str(self.path),
            )
        # (1) The data region must be durable before anything points
        # at it.  An fsync failure here means the records themselves
        # are of unknown durability: leave the segment unsealed (the
        # recovery scan trusts only what it can checksum).
        try:
            self._file.flush()
            if sync:
                if faults.draw("store_fsync_lost", self.path.name) is not None:
                    raise OSError(EIO, "injected lost fsync")
                os.fsync(self._file.fileno())
        except OSError as exc:
            raise StoreError(
                f"seal of {self.path} could not sync its data: {exc}",
                op="fsync",
                path=str(self.path),
                errno=exc.errno,
            ) from exc
        footer = self._build_footer()
        try:
            # (2) Footer bytes, flushed before the trailer exists.
            self._file.seek(self.data_end)
            self._file.write(footer)
            self._file.flush()
            if faults.draw("store_seal_crash", self.path.name) is not None:
                self._poisoned = True
                raise StoreError(
                    f"injected crash sealing {self.path.name} (footer "
                    "written, trailer missing)",
                    op="seal",
                    path=str(self.path),
                )
            # (3) The trailer commits the seal.
            trailer = _TRAILER.pack(_TRL_MAGIC, self.data_end, len(footer))
            self._file.write(trailer + hashlib.sha256(trailer).digest())
            self._file.flush()
            if sync:
                os.fsync(self._file.fileno())
        except OSError as exc:
            self._poisoned = True
            raise StoreError(
                f"seal of {self.path} failed: {exc}",
                op="seal",
                path=str(self.path),
                errno=exc.errno,
            ) from exc
        size = self.data_end + len(footer) + _TRAILER_SIZE
        self._ensure_mapped(size)
        self._load_footer(size)
        self._dict.clear()
        self.sealed = True

    def _build_footer(self) -> bytes:
        n = len(self._dict)
        cap = 8
        while cap < 2 * n:
            cap *= 2
        keys = np.zeros((cap, 32), dtype=np.uint8)
        offsets = np.zeros(cap, dtype="<u8")
        for key, entry in self._dict.items():
            slot = int.from_bytes(key[:8], "little") & (cap - 1)
            while offsets[slot] != 0:
                slot = (slot + 1) & (cap - 1)
            keys[slot] = np.frombuffer(key, dtype=np.uint8)
            offsets[slot] = entry.offset

        rows = [
            (entry.offset, *entry.bbox)
            for entry in self._dict.values()
            if entry.kind == KIND_INVARIANT
            and not math.isnan(entry.bbox[0])
        ]
        if rows:
            arr = np.array(rows, dtype=np.float64)
            boxes = arr[:, 1:5]
            x0 = float(boxes[:, 0].min())
            y0 = float(boxes[:, 1].min())
            xspan = max(float(boxes[:, 2].max()) - x0, 1e-9)
            yspan = max(float(boxes[:, 3].max()) - y0, 1e-9)
            sx = (zindex.GRID_CELLS - 1) / xspan
            sy = (zindex.GRID_CELLS - 1) / yspan
            codes = zindex.morton_codes(
                zindex.quantize(boxes[:, 0], x0, sx),
                zindex.quantize(boxes[:, 1], y0, sy),
            )
            order = np.argsort(codes, kind="stable")
            sp_morton = codes[order].astype("<u8")
            sp_offsets = arr[order, 0].astype("<u8")
            sp_bbox = boxes[order].astype("<f8")
            ext = [
                float((boxes[:, 2] - boxes[:, 0]).max()),
                float((boxes[:, 3] - boxes[:, 1]).max()),
            ]
            bounds = [x0, y0, sx, sy]
        else:
            sp_morton = np.zeros(0, dtype="<u8")
            sp_offsets = np.zeros(0, dtype="<u8")
            sp_bbox = np.zeros((0, 4), dtype="<f8")
            bounds = [0.0, 0.0, 1.0, 1.0]
            ext = [0.0, 0.0]
        meta = json.dumps(
            {
                "v": 1,
                "n": n,
                "cap": cap,
                "ns": int(len(sp_morton)),
                "bounds": bounds,
                "ext": ext,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        head = _IDX_MAGIC + struct.pack("<I", len(meta)) + meta
        body = b"".join(
            (
                head,
                b"\0" * _pad8(len(head)),
                keys.tobytes(),
                offsets.tobytes(),
                sp_morton.tobytes(),
                sp_offsets.tobytes(),
                sp_bbox.tobytes(),
            )
        )
        return body + hashlib.sha256(body).digest()

    def _load_footer(self, size: int) -> bool:
        """Map the footer index if the trailer validates; else False."""
        if size < _FILE_HEADER.size + _TRAILER_SIZE:
            self.data_end = size
            return False
        self._ensure_mapped(size)
        t0 = size - _TRAILER_SIZE
        magic, data_end, footer_len = _TRAILER.unpack_from(self._mm, t0)
        sha = bytes(self._mm[t0 + _TRAILER.size : t0 + _TRAILER_SIZE])
        if (
            magic != _TRL_MAGIC
            or hashlib.sha256(self._mm[t0 : t0 + _TRAILER.size]).digest()
            != sha
            or data_end + footer_len + _TRAILER_SIZE != size
            or data_end < _FILE_HEADER.size
        ):
            self.data_end = size
            return False
        body = memoryview(self._mm)[data_end : data_end + footer_len]
        if len(body) < 44 or bytes(body[:8]) != _IDX_MAGIC:
            self.data_end = size
            return False
        if hashlib.sha256(body[:-32]).digest() != bytes(body[-32:]):
            self.data_end = size
            return False
        (meta_len,) = struct.unpack_from("<I", body, 8)
        try:
            meta = json.loads(bytes(body[12 : 12 + meta_len]))
        except ValueError:
            self.data_end = size
            return False
        off = 12 + meta_len + _pad8(12 + meta_len)
        cap, ns = meta["cap"], meta["ns"]
        self._table_keys = np.frombuffer(
            body, dtype=np.uint8, count=cap * 32, offset=off
        ).reshape(cap, 32)
        off += cap * 32
        self._table_offsets = np.frombuffer(
            body, dtype="<u8", count=cap, offset=off
        )
        off += cap * 8
        self._sp_morton = np.frombuffer(
            body, dtype="<u8", count=ns, offset=off
        )
        off += ns * 8
        self._sp_offsets = np.frombuffer(
            body, dtype="<u8", count=ns, offset=off
        )
        off += ns * 8
        self._sp_bbox = np.frombuffer(
            body, dtype="<f8", count=ns * 4, offset=off
        ).reshape(ns, 4)
        self._sp_meta = meta
        self.data_end = data_end
        return True

    def _footer_to_dict(self) -> None:
        for offset in self._live_offsets():
            key, entry, _end = self._parse_at(int(offset))
            self._dict[key] = entry
        self._table_keys = None
        self._table_offsets = None
        self._sp_morton = None
        self._sp_offsets = None
        self._sp_bbox = None
        self._sp_meta = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "sealed" if self.sealed else "active"
        return f"Segment({self.path.name}, {state}, {len(self)} keys)"


def _intersects(
    bbox: tuple, xmin: float, ymin: float, xmax: float, ymax: float
) -> bool:
    if math.isnan(bbox[0]):
        return False
    return not (
        bbox[2] < xmin or bbox[0] > xmax or bbox[3] < ymin or bbox[1] > ymax
    )
