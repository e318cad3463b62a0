"""Persistent invariant storage: mmap segments, succinct ``T_I``
records, z-order window queries.

The public surface is :class:`SegmentStore` (a directory of append-only
segment files with newest-wins semantics), :class:`MirroredStore` (the
same record set written through to N replica directories, with failover
and read-repair), :class:`Scrubber` (online at-rest-corruption
detection and repair), plus the codec pair for callers that frame
records themselves.  See :mod:`repro.store.segment` for the on-disk
layout and crash model, :mod:`repro.store.codec` for the record format,
:mod:`repro.store.zindex` for the Morton-range window-query machinery,
and :data:`repro.store.store.SYNC_POLICIES` for the durability
contract.
"""

from .codec import StoredRecord, decode_record, encode_record
from .mirror import MirroredStore
from .scrub import ScrubReport, Scrubber
from .segment import Segment
from .store import SYNC_POLICIES, SegmentStore
from .zindex import morton_codes, morton_ranges

__all__ = [
    "SegmentStore",
    "MirroredStore",
    "Scrubber",
    "ScrubReport",
    "SYNC_POLICIES",
    "Segment",
    "StoredRecord",
    "encode_record",
    "decode_record",
    "morton_codes",
    "morton_ranges",
]
