"""The segment store: a directory of append-only segments.

:class:`SegmentStore` manages ``seg-NNNNN.seg`` files under one root
directory.  The highest-numbered segment is *active* (writable,
dict-indexed); every earlier one is *sealed* (read-only, probed through
its mmap'd footer).  When the active segment outgrows
``max_segment_bytes`` it is sealed in place and a fresh one is opened.
Reads resolve **newest-wins**: the active segment first, then sealed
segments newest to oldest; a tombstone record shadows every older
version of its key.

Values are the compact binary invariant records of
:mod:`repro.store.codec` (with optional embedded geometry) under the
caller's key, so a ``get`` is an index probe plus a zero-copy decode
over the mmap, never a pickle.

Opening a store heals it: a segment with a torn tail (crash
mid-append) is truncated to its last fully-written record and
re-sealed, per the envelope discipline in :mod:`repro.store.segment`.
Compaction rewrites the live records into one fresh segment (newest
number, so it wins), fsyncs, then unlinks the inputs; tombstones that
still shadow an older record are carried along, which keeps deletes
in force even if a crash lands between the rename and the unlinks.

Every operation tallies into the module-level ``store.*``
:class:`~repro.instrument.Counters` family, so store traffic shows up in
:func:`~repro.instrument.counter_snapshot` next to ``kernel.*`` and
``fault.*``.
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .. import faults
from ..errors import InstanceError, StoreError
from ..instrument import Counters
from . import codec
from .segment import KIND_COMPLEX, KIND_INVARIANT, KIND_TOMBSTONE, Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..invariant import TopologicalInvariant
    from ..regions import SpatialInstance

__all__ = ["SegmentStore", "SYNC_POLICIES"]

_DEFAULT_SEGMENT_BYTES = 64 << 20

#: The durability contract, weakest to strongest.
#:
#: ``"never"``
#:     No fsyncs anywhere.  Crash-consistent (the envelope discipline
#:     still bounds loss to the unflushed tail) but an OS crash can
#:     lose acknowledged appends.  For scratch and bench corpora.
#: ``"seal"``
#:     The default.  Appends are buffered; sealing a segment fsyncs the
#:     data region before the footer and the footer before the trailer,
#:     so every *sealed* segment is durable and a crash loses at most
#:     the active segment's unflushed tail.
#: ``"always"``
#:     Every append is fsynced before it is acknowledged; an fsync
#:     failure drops the unacknowledged record and fails the put
#:     structurally.  Group-commit callers should batch through
#:     ``bulk_load`` (one record per fsync is the price of the
#:     guarantee).
SYNC_POLICIES = ("never", "seal", "always")

counters = Counters("store")


def _raw_key(key: str | bytes) -> bytes:
    if isinstance(key, str):
        try:
            raw = bytes.fromhex(key)
        except ValueError as exc:
            raise StoreError(f"store keys must be hex digests: {key!r}") from exc
    else:
        raw = bytes(key)
    if len(raw) != 32:
        raise StoreError(
            f"store keys must be 32 bytes (sha256); got {len(raw)}"
        )
    return raw


def _safe_float_bbox(instance) -> tuple | None:
    """The instance bbox as floats, or None when it has no finite
    float image (empty instance, astronomically large rationals)."""
    try:
        box = instance.bbox()
        return (
            float(box.xmin),
            float(box.ymin),
            float(box.xmax),
            float(box.ymax),
        )
    except (OverflowError, ValueError, ArithmeticError, InstanceError):
        return None


class SegmentStore:
    """An append-only, mmap-backed store of invariants keyed by
    ``instance_key`` digests (hex strings or raw 32-byte keys).

    Thread-safe for interleaved puts/gets under one process; the sealed
    read path is lock-free after open.
    """

    def __init__(
        self,
        root: str | Path,
        max_segment_bytes: int = _DEFAULT_SEGMENT_BYTES,
        sync: str = "seal",
    ):
        if sync not in SYNC_POLICIES:
            raise StoreError(
                f"unknown sync policy {sync!r}; expected one of "
                f"{SYNC_POLICIES}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max(1 << 12, int(max_segment_bytes))
        self.sync = sync
        self._lock = threading.RLock()
        self._sealed: list[Segment] = []
        self._active: Segment | None = None
        self._closed = False
        # Lazy canonical-hash → keys secondary index (newest class per
        # key), built on first keys_for_class() and maintained by
        # subsequent writes.
        self._class_index: dict[str, set[str]] | None = None
        self._key_class: dict[str, str] = {}
        self._open_all()

    # -- lifecycle ----------------------------------------------------------

    def _seg_paths(self) -> list[Path]:
        return sorted(self.root.glob("seg-*.seg"))

    def _next_number(self) -> int:
        paths = self._seg_paths()
        if not paths:
            return 0
        return max(int(p.stem.split("-")[1]) for p in paths) + 1

    def _open_all(self) -> None:
        paths = self._seg_paths()
        for path in paths[:-1]:
            seg = Segment(path, readonly=True)
            if not seg.sealed:
                # Torn or footerless file: heal it — truncate the tail,
                # rebuild and persist the index — then map read-only.
                seg.close()
                writable = Segment(path, readonly=False)
                if writable.truncated_bytes:
                    counters.count(
                        "truncated_bytes", writable.truncated_bytes
                    )
                counters.count("recovered_segments")
                try:
                    writable.seal(sync=self.sync != "never")
                except StoreError:
                    # A failed seal (full disk, injected seal crash)
                    # costs the footer, never the records: the
                    # read-only reopen below scans and indexes them.
                    counters.count("seal_failures")
                writable.close()
                seg = Segment(path, readonly=True)
            self._sealed.append(seg)
        if paths:
            active = Segment(paths[-1], readonly=False)
            if active.recovered:
                counters.count("recovered_segments")
                if active.truncated_bytes:
                    counters.count(
                        "truncated_bytes", active.truncated_bytes
                    )
            self._active = active
        else:
            self._active = Segment(self.root / "seg-00000.seg")

    def close(self, seal: bool = True) -> None:
        """Close every segment; by default the active one is sealed
        first so the next open skips the recovery scan.  Idempotent —
        a second close is a no-op — and never raises on the seal: at
        close time every record is already on disk, so a footer that
        cannot be persisted is a recovery scan at the next open, not
        an error here."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._active is not None:
                if seal and not self._active._poisoned:
                    if len(self._active):
                        try:
                            self._active.seal(sync=self.sync != "never")
                        except StoreError:
                            counters.count("seal_failures")
                self._active.close()
                self._active = None
            for seg in self._sealed:
                seg.close()
            self._sealed.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self, op: str) -> None:
        if self._closed:
            raise StoreError(
                f"store at {self.root} is closed", op=op, path=str(self.root)
            )

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def flush(self, sync: bool = False) -> None:
        with self._lock:
            if self._active is not None:
                self._active.flush(sync=sync)

    def _roll_if_full(self) -> None:
        if self._active is None or (
            self._active.data_end < self.max_segment_bytes
        ):
            return
        self._roll_active()

    def _roll_active(self) -> None:
        """Seal (best-effort) and retire the active segment, then open
        a fresh one.  Never raises: whatever state the old segment is
        in — cleanly sealed, seal-crashed, torn by a failed append —
        the store comes out readable, with every verifiable record
        still served."""
        active = self._active
        if active is None:
            return
        path = active.path
        sealed_ok = False
        if not active._poisoned and len(active):
            try:
                active.seal(sync=self.sync != "never")
                sealed_ok = True
            except StoreError:
                counters.count("seal_failures")
        active.close()
        self._active = None
        if sealed_ok:
            self._sealed.append(Segment(path, readonly=True))
        else:
            self._adopt_unsealed(path)
        try:
            number = self._next_number()
            self._active = Segment(self.root / f"seg-{number:05d}.seg")
        except (StoreError, OSError):
            # Could not even write a fresh 32-byte header (disk truly
            # full).  Reads keep working; the next successful append
            # path retries the open.
            counters.count("active_open_failures")
        counters.count("segments_rolled")

    def _fsync_dir(self) -> None:
        """fsync the store directory so renames/creates are durable.
        Best-effort: not every filesystem supports opening a directory
        for sync (and the data fsyncs already happened)."""
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def _adopt_unsealed(self, path: Path) -> None:
        """Heal a torn or unsealed segment file in place and adopt it
        read-only; an empty file is unlinked, an unreadable one is left
        on disk for post-mortem but dropped from the serving set."""
        if not path.exists():
            return
        try:
            writable = Segment(path, readonly=False)
        except (StoreError, OSError):
            counters.count("unreadable_segments")
            return
        if writable.truncated_bytes:
            counters.count(
                "truncated_bytes", writable.truncated_bytes
            )
        if writable.recovered:
            counters.count("recovered_segments")
        if not len(writable):
            writable.close()
            path.unlink(missing_ok=True)
            return
        try:
            writable.seal(sync=self.sync != "never")
        except StoreError:
            counters.count("seal_failures")
        writable.close()
        try:
            self._sealed.append(Segment(path, readonly=True))
        except (StoreError, OSError):
            counters.count("unreadable_segments")

    # -- writes -------------------------------------------------------------

    def _append(
        self,
        raw: bytes,
        payload: bytes,
        kind: int,
        bbox: tuple | None = None,
    ) -> None:
        """One appended record under the durability contract (caller
        holds the lock).

        An append that fails with an OS-level error (``ENOSPC``,
        ``EIO``, a lost fsync) raises the structured
        :class:`~repro.errors.StoreError` to the caller — the record
        was *not* stored — and retires the active segment: its intact
        prefix is healed and kept readable, and a fresh active segment
        is opened so subsequent puts can succeed (disk space
        permitting).  A torn append (crash model) leaves the segment
        poisoned instead — recovery is a reopen, matching the process
        restart it models.
        """
        self._check_open("append")
        if self._active is None:
            # A previous failure could not open a fresh segment; try
            # again now rather than failing every future put.
            try:
                number = self._next_number()
                self._active = Segment(self.root / f"seg-{number:05d}.seg")
            except (StoreError, OSError) as exc:
                raise StoreError(
                    f"store at {self.root} has no writable segment: {exc}",
                    op="append",
                    path=str(self.root),
                ) from exc
        try:
            self._active.append(
                raw, payload, kind, bbox, sync=self.sync == "always"
            )
        except StoreError as exc:
            counters.count("append_errors")
            if exc.errno is not None:
                # An OS-level failure, not a modelled crash: retire the
                # segment so the store stays serviceable.
                self._roll_active()
            raise
        self._roll_if_full()

    def put(
        self,
        key: str | bytes,
        invariant: "TopologicalInvariant",
        instance: "SpatialInstance | None" = None,
        bbox: tuple | None = None,
        canonical_hash: str | None = None,
    ) -> int:
        """Store *invariant* under *key*; returns the encoded payload
        size in bytes.  *instance* (when given) is embedded via the
        RAI1 columnar codec and used to derive the spatial-index bbox
        unless an explicit *bbox* ``(xmin, ymin, xmax, ymax)`` is
        passed."""
        raw = _raw_key(key)
        payload = codec.encode_record(
            invariant, instance=instance, canonical_hash=canonical_hash
        )
        if bbox is None and instance is not None:
            bbox = _safe_float_bbox(instance)
        with self._lock:
            self._append(raw, payload, KIND_INVARIANT, bbox)
            self._index_class(raw, payload, canonical_hash)
        counters.count("puts")
        counters.count("put_bytes", len(payload))
        return len(payload)

    def put_raw(
        self,
        raw: bytes,
        payload: bytes,
        kind: int = KIND_INVARIANT,
        bbox: tuple | None = None,
    ) -> None:
        """Append a pre-encoded record verbatim under a raw 32-byte
        key — the replication and read-repair path, where the copy must
        stay bit-identical to its source record."""
        if len(raw) != 32:
            raise StoreError("raw record keys must be 32 bytes", op="append")
        with self._lock:
            self._append(raw, payload, kind, bbox)
            if kind == KIND_INVARIANT:
                self._index_class(raw, payload, None)
            elif kind == KIND_TOMBSTONE:
                self._unindex_class(raw)
        counters.count("raw_puts")

    def delete(self, key: str | bytes) -> None:
        """Tombstone *key*: subsequent gets miss, compaction drops the
        shadowed records."""
        raw = _raw_key(key)
        with self._lock:
            self._append(raw, b"", KIND_TOMBSTONE)
            self._unindex_class(raw)
        counters.count("tombstones")

    # -- reads --------------------------------------------------------------

    def _find(self, raw: bytes):
        """Newest ``(segment, entry)`` for *raw*, tombstones included."""
        active = self._active
        if active is not None:
            entry = active.get_entry(raw)
            if entry is not None:
                return active, entry
        for seg in reversed(self._sealed):
            entry = seg.get_entry(raw)
            if entry is not None:
                return seg, entry
        return None

    def _payload_of(self, seg: Segment, entry, raw: bytes):
        """The checksum-verified payload for one found entry.

        A drawn ``store_read_bitflip`` fault first flips a payload byte
        *on disk* — persistent at-rest corruption — so the verified
        read that follows fails exactly the way real rot does, and
        keeps failing until a repair rewrites the record."""
        if faults.draw("store_read_bitflip", raw.hex()) is not None:
            seg.corrupt_payload_byte(entry)
        try:
            return seg.payload(entry)
        except StoreError:
            counters.count("read_errors")
            raise

    def get_record(self, key: str | bytes) -> codec.StoredRecord | None:
        """The newest stored record for *key*, decoded zero-copy over
        the segment mmap, or None (missing or tombstoned).  Raises a
        structured :class:`~repro.errors.StoreError` when the stored
        bytes fail their checksum — never a silently wrong record."""
        raw = _raw_key(key)
        with self._lock:
            self._check_open("read")
            found = self._find(raw)
            if found is None or found[1].kind == KIND_TOMBSTONE:
                counters.count("misses")
                return None
            seg, entry = found
            payload = self._payload_of(seg, entry, raw)
        counters.count("hits")
        return codec.decode_record(payload)

    def get_raw(
        self, key: str | bytes
    ) -> tuple[int, bytes, tuple] | None:
        """The newest raw record for *key* as ``(kind, payload bytes,
        bbox)`` — tombstones included, so a mirror can distinguish "the
        key was deleted" from "this replica missed the write".  None
        when the store never saw the key.  The payload checksum is
        verified; corrupt bytes raise rather than replicate."""
        raw = _raw_key(key)
        with self._lock:
            self._check_open("read")
            found = self._find(raw)
            if found is None:
                return None
            seg, entry = found
            if entry.kind == KIND_TOMBSTONE:
                return (KIND_TOMBSTONE, b"", entry.bbox)
            payload = self._payload_of(seg, entry, raw)
            return (entry.kind, bytes(payload), entry.bbox)

    def get(self, key: str | bytes) -> "TopologicalInvariant | None":
        """The newest invariant for *key*, or None."""
        record = self.get_record(key)
        if record is None:
            return None
        return record.invariant()

    def get_instance(self, key: str | bytes) -> "SpatialInstance | None":
        """The embedded geometry for *key*, when the record carries
        one."""
        record = self.get_record(key)
        if record is None or not record.has_instance:
            return None
        return record.instance()

    def __contains__(self, key: str | bytes) -> bool:
        raw = _raw_key(key)
        with self._lock:
            found = self._find(raw)
        return found is not None and found[1].kind != KIND_TOMBSTONE

    def keys(self) -> Iterator[str]:
        """Hex keys of all live invariant records, newest-wins."""
        seen: set[bytes] = set()
        with self._lock:
            segments = [self._active, *reversed(self._sealed)]
            for seg in segments:
                if seg is None:
                    continue
                for raw, entry in seg.live_items():
                    if raw in seen:
                        continue
                    seen.add(raw)
                    if entry.kind == KIND_INVARIANT:
                        yield raw.hex()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def raw_keys(self) -> Iterator[tuple[bytes, int]]:
        """``(raw key, kind)`` of the newest record per key across
        *every* kind — invariants, tombstones, and complex records left
        by earlier versions.  The
        replication/repair work list: a mirror diffs this against a
        peer to find records the peer missed."""
        seen: set[bytes] = set()
        with self._lock:
            segments = [self._active, *reversed(self._sealed)]
            for seg in segments:
                if seg is None:
                    continue
                for raw, entry in seg.live_items():
                    if raw in seen:
                        continue
                    seen.add(raw)
                    yield raw, entry.kind

    # -- canonical-hash → keys secondary index ------------------------------

    def _index_class(
        self, raw: bytes, payload: bytes, canonical_hash: str | None
    ) -> None:
        """Fold one put into the class index (caller holds the lock).
        A no-op until the index has been built — before that, the lazy
        build sees the record on disk anyway."""
        if self._class_index is None:
            return
        if canonical_hash is None:
            try:
                canonical_hash = codec.decode_record(payload).canonical_hash
            except StoreError:
                canonical_hash = None
        key = raw.hex()
        self._unindex_class(raw)
        if canonical_hash is not None:
            self._key_class[key] = canonical_hash
            self._class_index.setdefault(canonical_hash, set()).add(key)

    def _unindex_class(self, raw: bytes) -> None:
        if self._class_index is None:
            return
        key = raw.hex()
        old = self._key_class.pop(key, None)
        if old is not None:
            members = self._class_index.get(old)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._class_index[old]

    def _build_class_index(self) -> None:
        """Scan live invariant records' headers once (caller holds the
        lock).  Records without a recorded canonical hash, or whose
        payload cannot be read, are skipped and counted — the scrubber
        is the place that deals with the latter."""
        index: dict[str, set[str]] = {}
        key_class: dict[str, str] = {}
        seen: set[bytes] = set()
        segments = [self._active, *reversed(self._sealed)]
        for seg in segments:
            if seg is None:
                continue
            for raw, entry in seg.live_items():
                if raw in seen:
                    continue
                seen.add(raw)
                if entry.kind != KIND_INVARIANT:
                    continue
                try:
                    record = codec.decode_record(seg.payload(entry))
                except StoreError:
                    counters.count("class_index_skipped")
                    continue
                ch = record.canonical_hash
                if ch is None:
                    counters.count("class_index_unhashed")
                    continue
                key = raw.hex()
                key_class[key] = ch
                index.setdefault(ch, set()).add(key)
        self._class_index = index
        self._key_class = key_class

    def keys_for_class(self, class_hash: str) -> list[str]:
        """Hex keys of every live instance whose stored canonical hash
        equals *class_hash* — equivalence-class lookup without touching
        the pipeline.  The index is built in memory from record headers
        on first use and maintained by subsequent puts and deletes."""
        with self._lock:
            self._check_open("read")
            if self._class_index is None:
                self._build_class_index()
            counters.count("class_lookups")
            return sorted(self._class_index.get(class_hash, ()))

    # -- scrub support ------------------------------------------------------

    def sealed_segments(self) -> list[Segment]:
        """A snapshot of the sealed segment set (the scrubber's work
        list; the active segment is still being written and is covered
        by its next seal)."""
        with self._lock:
            return list(self._sealed)

    def quarantine_segment(self, seg: Segment) -> Path | None:
        """Move a sealed segment's file into ``root/quarantine/`` and
        drop it from the serving set: its records no longer resolve
        (repair re-copies them from a replica or recompute), and the
        corrupt bytes are kept for post-mortem rather than re-served.
        Returns the quarantined path, or None if *seg* is not one of
        this store's sealed segments."""
        with self._lock:
            if seg not in self._sealed:
                return None
            qdir = self.root / "quarantine"
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / seg.path.name
            seg.close()
            try:
                os.replace(seg.path, dest)
            except OSError as exc:
                raise StoreError(
                    f"could not quarantine {seg.path.name}: {exc}",
                    op="quarantine",
                    path=str(seg.path),
                    errno=exc.errno,
                ) from exc
            self._sealed = [s for s in self._sealed if s is not seg]
            # Keys served by that segment changed out from under the
            # lazy class index; rebuild on next use.
            self._class_index = None
            self._key_class = {}
        counters.count("segments_quarantined")
        return dest

    @property
    def nbytes(self) -> int:
        with self._lock:
            total = 0
            if self._active is not None:
                total += self._active.nbytes
            total += sum(seg.nbytes for seg in self._sealed)
            return total

    # -- window queries -----------------------------------------------------

    def window_query(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> list[str]:
        """Hex keys of live instances whose stored bbox intersects the
        window — Morton-range scans over the per-segment z-order
        indexes, then a newest-wins resolve of each candidate."""
        counters.count("window_queries")
        candidates: set[bytes] = set()
        with self._lock:
            segments = [self._active, *self._sealed]
            for seg in segments:
                if seg is None:
                    continue
                candidates.update(
                    seg.window_candidates(xmin, ymin, xmax, ymax)
                )
            out = []
            for raw in candidates:
                found = self._find(raw)
                if found is None or found[1].kind != KIND_INVARIANT:
                    continue
                bbox = found[1].bbox
                if (
                    bbox[0] == bbox[0]  # not NaN
                    and not (
                        bbox[2] < xmin
                        or bbox[0] > xmax
                        or bbox[3] < ymin
                        or bbox[1] > ymax
                    )
                ):
                    out.append(raw.hex())
        counters.count("window_hits", len(out))
        out.sort()
        return out

    def window_query_scan(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> list[str]:
        """The same answer by brute force: walk every record envelope
        in every segment (no index) — the baseline the benchmark pits
        the z-order index against."""
        newest: dict[bytes, tuple[int, tuple]] = {}
        scanned = 0
        with self._lock:
            segments = [*self._sealed, self._active]
            for seg in segments:
                if seg is None:
                    continue
                for raw, entry in seg.scan():
                    scanned += 1
                    newest[raw] = (entry.kind, entry.bbox)
        counters.count("scan_records", scanned)
        out = []
        for raw, (kind, bbox) in newest.items():
            if kind != KIND_INVARIANT or bbox[0] != bbox[0]:
                continue
            if not (
                bbox[2] < xmin
                or bbox[0] > xmax
                or bbox[3] < ymin
                or bbox[1] > ymax
            ):
                out.append(raw.hex())
        out.sort()
        return out

    # -- bulk ingest --------------------------------------------------------

    def bulk_load(
        self,
        corpus: "Iterable[SpatialInstance] | Sequence[SpatialInstance]",
        pipeline=None,
        batch_size: int = 256,
        store_geometry: bool = True,
    ) -> int:
        """Compute the invariants of *corpus* through
        ``pipeline.compute_batch`` and persist one record per distinct
        geometry; returns the number of instances consumed.

        Instances with equal instance keys collapse to one record
        holding the last of them, which is what putting each in turn
        would leave visible (newest wins).  The call therefore reads the
        whole corpus first, keeping one instance per distinct key, then
        computes and writes those in batches of *batch_size*."""
        from ..invariant.canonical import canonical_hash, instance_key
        from ..pipeline import InvariantPipeline

        if pipeline is None:
            pipeline = InvariantPipeline()
        latest: dict[str, SpatialInstance] = {}
        consumed = 0
        for inst in corpus:
            latest[instance_key(inst)] = inst
            consumed += 1
        keys = list(latest)
        for start in range(0, len(keys), batch_size):
            batch_keys = keys[start : start + batch_size]
            batch = [latest[key] for key in batch_keys]
            invariants = pipeline.compute_batch(batch, keys=batch_keys)
            for key, inst, t in zip(batch_keys, batch, invariants):
                self.put(
                    key,
                    t,
                    instance=inst if store_geometry else None,
                    canonical_hash=canonical_hash(t),
                )
        self.flush()
        counters.count("bulk_loaded", consumed)
        return consumed

    # -- compaction ---------------------------------------------------------

    def compact(self) -> dict:
        """Rewrite live records into one fresh segment and drop the
        inputs.  Returns ``{"before", "after", "live", "dropped"}``
        byte/record stats.

        Tombstones still shadowing an older record are copied into the
        output: if a crash lands after the new segment is visible but
        before the inputs are unlinked, reopening sees both and the
        delete stays in force (the survivor tombstone is dropped by the
        next compaction once nothing is left to shadow).  A complex
        record left by an earlier version is kept only while the
        invariant key it belongs to (its key is ``sha256(key +
        b":complex")``) is live; ``delete`` does not tombstone it, so
        compaction drops the orphans.
        """
        with self._lock:
            self._check_open("compact")
            if self._active is not None and len(self._active):
                self._roll_active()
                if self._active is not None:
                    self._active.close()
                    self._active.path.unlink(missing_ok=True)
                    self._active = None
            elif self._active is not None:
                self._active.close()
                self._active.path.unlink(missing_ok=True)
                self._active = None
            inputs = list(self._sealed)
            before = sum(seg.nbytes for seg in inputs)
            put_keys: set[bytes] = set()
            for seg in inputs:
                for raw, entry in seg.scan():
                    if entry.kind != KIND_TOMBSTONE:
                        put_keys.add(raw)
            newest: dict[bytes, tuple[Segment, object]] = {}
            for seg in inputs:  # oldest → newest; later wins
                for raw, entry in seg.live_items():
                    newest[raw] = (seg, entry)
            owned = {
                hashlib.sha256(raw + b":complex").digest()
                for raw, (_seg, entry) in newest.items()
                if entry.kind == KIND_INVARIANT
            }
            number = self._next_number()
            tmp = self.root / f"compact-{number:05d}.tmp"
            tmp.unlink(missing_ok=True)
            out = Segment(tmp)
            live = dropped = skipped_corrupt = 0
            try:
                for raw in sorted(newest):
                    seg, entry = newest[raw]
                    if entry.kind == KIND_TOMBSTONE:
                        if raw in put_keys:
                            out.append(raw, b"", KIND_TOMBSTONE)
                        dropped += 1
                        continue
                    if entry.kind == KIND_COMPLEX and raw not in owned:
                        dropped += 1
                        continue
                    try:
                        payload = bytes(seg.payload(entry))
                    except StoreError:
                        # A record that fails its checksum must not
                        # abort the compaction (or ride along as rot):
                        # it is unreadable either way — drop it, count
                        # it, and let the scrubber's repair path bring
                        # the key back from a replica.
                        counters.count(
                            "compaction_skipped_corrupt"
                        )
                        skipped_corrupt += 1
                        dropped += 1
                        continue
                    out.append(
                        raw,
                        payload,
                        entry.kind,
                        None
                        if entry.bbox[0] != entry.bbox[0]
                        else entry.bbox,
                    )
                    live += 1
                out.seal(sync=self.sync != "never")
                out.close()
            except BaseException:
                # Leave the store exactly as it was: inputs untouched,
                # the half-written output removed, a fresh active
                # segment reopened.
                out.close()
                tmp.unlink(missing_ok=True)
                self._active = Segment(
                    self.root / f"seg-{self._next_number():05d}.seg"
                )
                raise
            final = self.root / f"seg-{number:05d}.seg"
            tmp.rename(final)
            # The rename must be durable before the inputs disappear —
            # otherwise a crash here could leave neither the old nor
            # the new file set discoverable.
            if self.sync != "never":
                self._fsync_dir()
            for seg in inputs:
                seg.close()
                seg.path.unlink(missing_ok=True)
            self._sealed = [Segment(final, readonly=True)]
            self._active = Segment(
                self.root / f"seg-{number + 1:05d}.seg"
            )
            after = self._sealed[0].nbytes
            if skipped_corrupt:
                # Dropped keys may still sit in the class index.
                self._class_index = None
                self._key_class = {}
        counters.count("compactions")
        counters.count(
            "compaction_reclaimed_bytes", max(0, before - after)
        )
        return {
            "before": before,
            "after": after,
            "live": live,
            "dropped": dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentStore({self.root}, {len(self._sealed)} sealed"
            f" + {'1 active' if self._active else 'no active'})"
        )
