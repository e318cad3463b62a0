"""Online scrubbing: find at-rest corruption before a reader does.

A :class:`Scrubber` walks every sealed segment of a
:class:`~repro.store.store.SegmentStore` (or of every replica of a
:class:`~repro.store.mirror.MirroredStore`) re-verifying what the write
path took for granted: each record's envelope framing and payload
sha256, and each footer's trailer checksum.  The walk is *incremental*
— :meth:`step` verifies at most ``records_per_step`` records and
returns, so a service can interleave scrubbing with traffic — and
*rate-limited only by that budget*: no clocks, so a seeded chaos run
scrubs deterministically.

When a segment fails verification it is **quarantined** (moved to
``root/quarantine/`` and dropped from the serving set — corrupt bytes
are evidence, not data) and every key it was serving is **repaired**:

* from a healthy replica, when the store is mirrored and a peer holds
  the record (the common case; the copy is bit-identical), else
* by **recompute**, when the scrubber was given a pipeline and a
  geometry source that can produce the instance for a key, else
* counted ``scrub.keys_unrepairable`` and left missing (a structured
  miss — never a wrong record).

Progress and outcomes tally into the ``scrub.*``
:class:`~repro.instrument.Counters` family, so scrub state shows up in
:func:`~repro.instrument.counter_snapshot` and the service ``health()``
payload alongside ``store.*`` and ``fault.*``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from ..errors import StoreError
from ..instrument import Counters
from . import codec
from .segment import KIND_INVARIANT, KIND_TOMBSTONE, Segment
from .store import SegmentStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..regions import SpatialInstance
    from .mirror import MirroredStore

__all__ = ["Scrubber", "ScrubReport"]

counters = Counters("scrub")


class ScrubReport:
    """What one full pass found and did."""

    __slots__ = (
        "records_verified",
        "segments_verified",
        "defects",
        "quarantined",
        "repaired",
        "recomputed",
        "unrepairable",
    )

    def __init__(self):
        self.records_verified = 0
        self.segments_verified = 0
        self.defects = 0
        self.quarantined = 0
        self.repaired = 0
        self.recomputed = 0
        self.unrepairable = 0

    @property
    def clean(self) -> bool:
        """True when the pass found no corruption at all."""
        return self.defects == 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__} | {
            "clean": self.clean
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScrubReport({self.as_dict()!r})"


class Scrubber:
    """An incremental verify/quarantine/repair pass over sealed
    segments.

    Parameters
    ----------
    store:
        A :class:`SegmentStore` or :class:`MirroredStore`.  Mirrors are
        scrubbed replica by replica, and a quarantined segment's keys
        are repaired from the healthy peers.
    records_per_step:
        The verification budget of one :meth:`step` call — the rate
        limit, expressed in work units rather than wall time so seeded
        runs stay deterministic.
    pipeline / geometry_source:
        The recompute fallback: ``geometry_source(key_hex)`` returns
        the :class:`SpatialInstance` for a lost invariant record (or
        None), and *pipeline* recomputes its invariant.  Without them,
        keys no replica holds stay missing (counted).
    """

    def __init__(
        self,
        store: "SegmentStore | MirroredStore",
        records_per_step: int = 512,
        pipeline=None,
        geometry_source: "Callable[[str], SpatialInstance | None] | None" = None,
    ):
        if records_per_step < 1:
            raise ValueError("records_per_step must be >= 1")
        self.records_per_step = int(records_per_step)
        self.pipeline = pipeline
        self.geometry_source = geometry_source
        from .mirror import MirroredStore as _Mirrored

        self._mirror = store if isinstance(store, _Mirrored) else None
        self._stores: list[SegmentStore] = (
            store.replicas if self._mirror is not None else [store]
        )
        self._lock = threading.Lock()
        self._passes = 0
        self._last_report: ScrubReport | None = None
        # In-progress pass state: a snapshot work list per replica and
        # a cursor into it.  None when no pass is underway.
        self._work: list[list[Segment]] | None = None
        self._rep_idx = 0
        self._seg_idx = 0
        self._offset: int | None = None
        self._footer_checked = False
        self._report: ScrubReport | None = None

    # -- pass state ---------------------------------------------------------

    def state(self) -> dict:
        """A health-endpoint snapshot of scrub progress."""
        with self._lock:
            segments_total = segments_done = 0
            if self._work is not None:
                segments_total = sum(len(w) for w in self._work)
                segments_done = (
                    sum(len(w) for w in self._work[: self._rep_idx])
                    + self._seg_idx
                )
            last = self._last_report
            return {
                "passes_completed": self._passes,
                "in_progress": self._work is not None,
                "segments_total": segments_total,
                "segments_done": segments_done,
                "last_pass_clean": None if last is None else last.clean,
                "last_pass_defects": 0 if last is None else last.defects,
                "last_pass_repaired": 0 if last is None else last.repaired,
            }

    @property
    def last_report(self) -> ScrubReport | None:
        return self._last_report

    def _begin_pass(self) -> None:
        self._work = [store.sealed_segments() for store in self._stores]
        self._rep_idx = 0
        self._seg_idx = 0
        self._offset = None
        self._footer_checked = False
        self._report = ScrubReport()
        counters.count("passes_started")

    def _finish_pass(self) -> ScrubReport:
        report = self._report
        assert report is not None
        self._work = None
        self._report = None
        self._passes += 1
        self._last_report = report
        counters.count("passes_completed")
        if not report.clean:
            counters.count("dirty_passes")
        return report

    def _advance_segment(self) -> None:
        self._seg_idx += 1
        self._offset = None
        self._footer_checked = False
        assert self._work is not None
        while (
            self._rep_idx < len(self._work)
            and self._seg_idx >= len(self._work[self._rep_idx])
        ):
            self._rep_idx += 1
            self._seg_idx = 0

    def _current(self) -> tuple[SegmentStore, Segment] | None:
        assert self._work is not None
        while self._rep_idx < len(self._work):
            work = self._work[self._rep_idx]
            if self._seg_idx >= len(work):
                self._rep_idx += 1
                self._seg_idx = 0
                continue
            seg = work[self._seg_idx]
            store = self._stores[self._rep_idx]
            if store.closed or seg not in store.sealed_segments():
                # Compacted or quarantined since the snapshot: its
                # records were re-verified on the way out (compaction)
                # or are being repaired (quarantine).
                self._advance_segment()
                continue
            return store, seg
        return None

    # -- the walk -----------------------------------------------------------

    def step(self) -> ScrubReport | None:
        """Verify up to ``records_per_step`` records.  Returns the pass
        report when this step *completed* a full pass, else None."""
        with self._lock:
            if self._work is None:
                self._begin_pass()
            report = self._report
            assert report is not None
            budget = self.records_per_step
            while budget > 0:
                current = self._current()
                if current is None:
                    return self._finish_pass()
                store, seg = current
                if not self._footer_checked:
                    self._footer_checked = True
                    ok = False
                    try:
                        ok = seg.verify_footer()
                    except (StoreError, OSError, ValueError):
                        ok = False
                    if not ok:
                        report.defects += 1
                        counters.count("defects_found")
                        counters.count("footer_defects")
                        self._quarantine_and_repair(store, seg)
                        self._advance_segment()
                        continue
                try:
                    defects, next_offset, verified = seg.verify_records(
                        self._offset, limit=budget
                    )
                except (StoreError, OSError, ValueError):
                    defects, next_offset, verified = (
                        [{"type": "envelope", "offset": self._offset}],
                        None,
                        0,
                    )
                budget -= verified + len(defects)
                report.records_verified += verified
                counters.count("records_verified", verified)
                if defects:
                    report.defects += len(defects)
                    counters.count("defects_found", len(defects))
                    self._quarantine_and_repair(store, seg)
                    self._advance_segment()
                elif next_offset is None:
                    report.segments_verified += 1
                    counters.count("segments_verified")
                    self._advance_segment()
                else:
                    self._offset = next_offset
            return None

    def run(self, max_steps: int | None = None) -> ScrubReport:
        """Drive :meth:`step` until the current pass completes (or
        *max_steps* is hit — then the partial report so far)."""
        steps = 0
        while True:
            report = self.step()
            if report is not None:
                return report
            steps += 1
            if max_steps is not None and steps >= max_steps:
                with self._lock:
                    partial = self._report
                return partial if partial is not None else ScrubReport()

    def run_until_clean(self, max_passes: int = 8) -> ScrubReport:
        """Scrub repeatedly until a full pass finds zero defects —
        convergence, the chaos property's end state.  Raises
        :class:`StoreError` if *max_passes* passes cannot get there
        (repair is failing to stick)."""
        for _ in range(max_passes):
            report = self.run()
            if report.clean:
                return report
        raise StoreError(
            f"scrub did not converge after {max_passes} passes",
            op="scrub",
        )

    # -- quarantine + repair ------------------------------------------------

    def _quarantine_and_repair(self, store: SegmentStore, seg: Segment) -> None:
        report = self._report
        assert report is not None
        lost = self._safe_keys(seg)
        dest = store.quarantine_segment(seg)
        if dest is None:
            return  # raced: no longer in the serving set
        report.quarantined += 1
        counters.count("segments_quarantined")
        for raw, kind in sorted(lost.items()):
            try:
                have = store.get_raw(raw)
            except StoreError:
                have = None
            if have is not None:
                continue  # an older/newer segment still serves it
            if kind == KIND_TOMBSTONE:
                continue  # missing already reads as deleted
            self._repair_key(store, raw, kind)

    @staticmethod
    def _safe_keys(seg: Segment) -> dict[bytes, int]:
        """Every key the segment serves, best-effort: the footer table
        when it is readable, the envelope scan (stopping at the first
        garbled envelope) when not.  Partial enumeration is fine — a
        key we cannot name was torn beyond the envelope discipline and
        reads as a miss everywhere."""
        keys: dict[bytes, int] = {}
        try:
            for raw, entry in seg.live_items():
                keys[raw] = entry.kind
        except (StoreError, OSError, ValueError):
            try:
                for raw, entry in seg.scan():
                    keys[raw] = entry.kind
            except (StoreError, OSError, ValueError):
                pass
        return keys

    def _repair_key(self, store: SegmentStore, raw: bytes, kind: int) -> None:
        report = self._report
        assert report is not None
        # 1. A healthy replica's verbatim bytes.  Only *up* peers: a
        # down replica may have missed writes (a delete, an overwrite),
        # and copying its stale-but-valid records would resurrect them.
        if self._mirror is not None:
            down = self._mirror._down
            for idx, peer in enumerate(self._stores):
                if peer is store or peer.closed or down[idx]:
                    continue
                try:
                    res = peer.get_raw(raw)
                except StoreError:
                    continue
                if res is None or res[0] == KIND_TOMBSTONE:
                    continue
                try:
                    store.put_raw(raw, res[1], res[0], res[2])
                except StoreError:
                    break  # target cannot accept writes; give up here
                report.repaired += 1
                counters.count("keys_repaired")
                return
        # 2. Recompute through the pipeline.
        if (
            kind == KIND_INVARIANT
            and self.pipeline is not None
            and self.geometry_source is not None
        ):
            instance = self.geometry_source(raw.hex())
            if instance is not None:
                from ..invariant.canonical import canonical_hash

                invariant = self.pipeline.compute_batch([instance])[0]
                payload = codec.encode_record(
                    invariant,
                    instance=instance,
                    canonical_hash=canonical_hash(invariant),
                )
                from .store import _safe_float_bbox

                try:
                    store.put_raw(
                        raw,
                        payload,
                        KIND_INVARIANT,
                        _safe_float_bbox(instance),
                    )
                except StoreError:
                    pass
                else:
                    report.recomputed += 1
                    counters.count("keys_recomputed")
                    return
        report.unrepairable += 1
        counters.count("keys_unrepairable")
