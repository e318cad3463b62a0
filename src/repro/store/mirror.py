"""N-way mirrored segment stores.

:class:`MirroredStore` keeps the same record set in *N* independent
:class:`~repro.store.store.SegmentStore` directories (ideally on
independent disks).  Writes are encoded once and appended verbatim to
every replica — the copies are bit-identical by construction, byte for
byte, checksum for checksum.  Reads resolve from the first healthy
replica and **fail over**: a replica that raises a structured
:class:`~repro.errors.StoreError` (at-rest corruption) or misses a
record another replica holds is answered around and then
**read-repaired** — the healthy replica's raw record bytes are appended
to the lagging one, shadowing the rot under newest-wins.

The consistency model is deliberately simple:

* A replica that fails an append is **marked down** on the spot.  Its
  earlier records are fine, but it may now miss newer writes — serving
  reads from it could return a stale (old-but-checksum-valid) record,
  which violates the bit-identical-or-error contract.  Down replicas
  are skipped by reads (a *degraded read*, counted) until
  :meth:`repair_replica` has copied over everything they missed.
* Therefore every **up** replica has seen every acknowledged write, so
  any one of them can answer alone, and disagreement between up
  replicas can only be corruption — which checksums catch.
* A put that fails on *every* replica raises; the record is not stored.

All traffic tallies into the ``store.replica_*`` counters next to the
underlying stores' own ``store.*`` family.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..errors import StoreError
from . import codec
from .segment import KIND_COMPLEX, KIND_INVARIANT, KIND_TOMBSTONE
from .store import (
    SegmentStore,
    _cx_key,
    _raw_key,
    _safe_float_bbox,
    counters,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..arrangement.soa import ComplexArrays
    from ..invariant import TopologicalInvariant
    from ..regions import SpatialInstance

__all__ = ["MirroredStore"]


class MirroredStore:
    """A write-through mirror over ``N`` segment-store directories.

    Presents the :class:`SegmentStore` API (puts, gets, window queries,
    compaction, context manager) plus replica management for the
    scrubber and the service health endpoint.
    """

    def __init__(
        self,
        roots: Sequence[str | Path],
        max_segment_bytes: int | None = None,
        sync: str = "seal",
    ):
        paths = [Path(r) for r in roots]
        if not paths:
            raise StoreError("a mirrored store needs at least one root")
        if len({p.resolve() for p in paths}) != len(paths):
            raise StoreError("mirrored store roots must be distinct")
        kwargs: dict = {"sync": sync}
        if max_segment_bytes is not None:
            kwargs["max_segment_bytes"] = max_segment_bytes
        self._replicas = [SegmentStore(p, **kwargs) for p in paths]
        self._down = [False] * len(paths)
        self._closed = False
        # Replica state shares the first replica's lock: operations
        # hold it across the whole fan-out so a concurrent reader never
        # sees a half-written mirror.
        self._lock = self._replicas[0]._lock

    # -- lifecycle ----------------------------------------------------------

    @property
    def replicas(self) -> list[SegmentStore]:
        return list(self._replicas)

    @property
    def sync(self) -> str:
        return self._replicas[0].sync

    def replica_status(self) -> list[dict]:
        """One dict per replica for ``health()``: root, up/down, and
        size."""
        with self._lock:
            return [
                {
                    "root": str(rep.root),
                    "up": not down,
                    "closed": rep.closed,
                    "nbytes": 0 if rep.closed else rep.nbytes,
                    "sealed_segments": 0
                    if rep.closed
                    else len(rep.sealed_segments()),
                }
                for rep, down in zip(self._replicas, self._down)
            ]

    def close(self, seal: bool = True) -> None:
        """Close every replica (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for rep in self._replicas:
                rep.close(seal=seal)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "MirroredStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def flush(self, sync: bool = False) -> None:
        with self._lock:
            for rep, down in zip(self._replicas, self._down):
                if not down:
                    rep.flush(sync=sync)

    def _up_indices(self) -> list[int]:
        return [i for i, down in enumerate(self._down) if not down]

    def _mark_down(self, index: int) -> None:
        if not self._down[index]:
            self._down[index] = True
            counters.count("replica_marked_down")

    # -- writes -------------------------------------------------------------

    def _fanout(
        self,
        raw: bytes,
        payload: bytes,
        kind: int,
        bbox: tuple | None = None,
    ) -> None:
        """Append one pre-encoded record to every up replica (caller
        holds the lock).  A replica that fails is marked down; only
        when *all* replicas fail does the put itself fail."""
        last_error: StoreError | None = None
        wrote = False
        for i in self._up_indices():
            try:
                self._replicas[i].put_raw(raw, payload, kind, bbox)
                wrote = True
            except StoreError as exc:
                counters.count("replica_write_failures")
                self._mark_down(i)
                last_error = exc
        if not wrote:
            raise StoreError(
                "append failed on every replica: "
                + str(last_error or "no replica is up"),
                op="append",
                errno=getattr(last_error, "errno", None),
            ) from last_error

    def put(
        self,
        key: str | bytes,
        invariant: "TopologicalInvariant",
        instance: "SpatialInstance | None" = None,
        bbox: tuple | None = None,
        canonical_hash: str | None = None,
    ) -> int:
        """Encode once, append the identical bytes to every replica."""
        raw = _raw_key(key)
        payload = codec.encode_record(
            invariant, instance=instance, canonical_hash=canonical_hash
        )
        if bbox is None and instance is not None:
            bbox = _safe_float_bbox(instance)
        with self._lock:
            self._fanout(raw, payload, KIND_INVARIANT, bbox)
        return len(payload)

    def put_complex(self, key: str | bytes, arrays: "ComplexArrays") -> bool:
        raw = _raw_key(key)
        payload = codec.encode_complex(arrays)
        if payload is None:
            counters.count("complex_fallbacks")
            return False
        with self._lock:
            self._fanout(_cx_key(raw), payload, KIND_COMPLEX)
        return True

    def delete(self, key: str | bytes) -> None:
        raw = _raw_key(key)
        with self._lock:
            self._fanout(raw, b"", KIND_TOMBSTONE)
            if any(
                self._replicas[i]._find(_cx_key(raw)) is not None
                for i in self._up_indices()
            ):
                self._fanout(_cx_key(raw), b"", KIND_TOMBSTONE)

    def bulk_load(
        self,
        corpus: "Iterable[SpatialInstance] | Sequence[SpatialInstance]",
        pipeline=None,
        batch_size: int = 256,
        store_geometry: bool = True,
    ) -> int:
        # Identical driver loop to SegmentStore.bulk_load; self.put
        # fans each record out to the replicas.
        return SegmentStore.bulk_load(
            self, corpus, pipeline, batch_size, store_geometry
        )

    # -- reads --------------------------------------------------------------

    def _resolve_raw(self, raw: bytes) -> tuple[int, bytes, tuple] | None:
        """The newest raw record across replicas (caller holds the
        lock): first healthy answer wins; replicas that errored or
        missed the record are read-repaired from it in place."""
        up = self._up_indices()
        if not up:
            raise StoreError(
                "no replica is up", op="read", errno=None
            )
        if len(up) < len(self._replicas):
            counters.count("degraded_reads")
        lagging: list[tuple[int, bool]] = []  # (index, was_error)
        answer: tuple[int, bytes, tuple] | None = None
        errors = 0
        for i in up:
            try:
                res = self._replicas[i].get_raw(raw)
            except StoreError:
                counters.count("replica_read_errors")
                counters.count("replica_failovers")
                lagging.append((i, True))
                errors += 1
                continue
            if res is None:
                # This replica never saw the key; another may have
                # (e.g. it was repaired after missing the write).
                lagging.append((i, False))
                continue
            answer = res
            break
        if answer is None:
            if errors and errors == len(up):
                raise StoreError(
                    "record is unreadable on every up replica",
                    op="read",
                )
            return None
        kind, payload, bbox = answer
        for i, was_error in lagging:
            # Corrupt or missing on an earlier replica: append the
            # healthy bytes verbatim, shadowing the rot.  A tombstone
            # is only worth copying over an *error* — a record that is
            # simply missing already reads as deleted.
            if kind == KIND_TOMBSTONE and not was_error:
                continue
            try:
                self._replicas[i].put_raw(raw, payload, kind, bbox)
                counters.count("replica_repairs")
            except StoreError:
                counters.count("replica_write_failures")
                self._mark_down(i)
        return answer

    def get_raw(self, key: str | bytes) -> tuple[int, bytes, tuple] | None:
        raw = _raw_key(key)
        with self._lock:
            return self._resolve_raw(raw)

    def get_record(self, key: str | bytes) -> codec.StoredRecord | None:
        raw = _raw_key(key)
        with self._lock:
            res = self._resolve_raw(raw)
        if res is None or res[0] == KIND_TOMBSTONE:
            counters.count("misses")
            return None
        counters.count("hits")
        return codec.decode_record(res[1])

    def get(self, key: str | bytes) -> "TopologicalInvariant | None":
        record = self.get_record(key)
        if record is None:
            return None
        return record.invariant()

    def get_instance(self, key: str | bytes) -> "SpatialInstance | None":
        record = self.get_record(key)
        if record is None or not record.has_instance:
            return None
        return record.instance()

    def get_complex(self, key: str | bytes) -> "ComplexArrays | None":
        raw = _cx_key(_raw_key(key))
        with self._lock:
            res = self._resolve_raw(raw)
        if res is None or res[0] == KIND_TOMBSTONE:
            return None
        counters.count("complex_hits")
        return codec.decode_complex(res[1])

    def __contains__(self, key: str | bytes) -> bool:
        res = self.get_raw(key)
        return res is not None and res[0] != KIND_TOMBSTONE

    def _first_up(self) -> SegmentStore:
        with self._lock:
            up = self._up_indices()
            if not up:
                raise StoreError("no replica is up", op="read")
            if len(up) < len(self._replicas):
                counters.count("degraded_reads")
            return self._replicas[up[0]]

    def keys(self) -> Iterator[str]:
        return self._first_up().keys()

    def __len__(self) -> int:
        return len(self._first_up())

    def keys_for_class(self, class_hash: str) -> list[str]:
        return self._first_up().keys_for_class(class_hash)

    def window_query(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> list[str]:
        return self._first_up().window_query(xmin, ymin, xmax, ymax)

    def window_query_scan(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> list[str]:
        return self._first_up().window_query_scan(xmin, ymin, xmax, ymax)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return sum(
                rep.nbytes for rep in self._replicas if not rep.closed
            )

    # -- maintenance --------------------------------------------------------

    def compact(self) -> dict:
        """Compact every up replica; returns the first replica's
        stats."""
        with self._lock:
            stats = [
                self._replicas[i].compact() for i in self._up_indices()
            ]
        return stats[0] if stats else {}

    def repair_replica(self, index: int) -> int:
        """Copy every record the replica at *index* is missing (or
        cannot read) from its healthy peers, then mark it up.  Returns
        the number of records copied.  The inverse of the down-marking
        a failed append performs — run it once the underlying disk has
        space/health again."""
        with self._lock:
            target = self._replicas[index]
            sources = [
                self._replicas[i]
                for i in self._up_indices()
                if i != index
            ]
            if not sources:
                raise StoreError(
                    "no healthy peer to repair from", op="repair"
                )
            copied = 0
            seen: set[bytes] = set()
            for source in sources:
                for raw, kind in source.raw_keys():
                    if raw in seen:
                        continue
                    seen.add(raw)
                    try:
                        have = target.get_raw(raw)
                    except StoreError:
                        have = None  # unreadable: overwrite with good bytes
                    if kind == KIND_TOMBSTONE:
                        if have is None or have[0] == KIND_TOMBSTONE:
                            continue  # already reads as deleted
                        # The replica went down before the delete and
                        # still serves the old record: copy the
                        # tombstone so it stops.
                        target.put_raw(raw, b"", KIND_TOMBSTONE)
                        copied += 1
                        continue
                    if have is not None:
                        continue
                    res = source.get_raw(raw)
                    if res is None or res[0] == KIND_TOMBSTONE:
                        continue
                    target.put_raw(raw, res[1], res[0], res[2])
                    copied += 1
            self._down[index] = False
        if copied:
            counters.count("replica_repairs", copied)
        return copied

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        up = sum(1 for d in self._down if not d)
        return (
            f"MirroredStore({len(self._replicas)} replicas, {up} up)"
        )
