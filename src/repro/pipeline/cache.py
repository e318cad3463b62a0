"""Content-addressed invariant caches.

Keys are :func:`repro.invariant.canonical.instance_key` digests — a pure
function of instance geometry — so a cache can never serve a wrong
invariant: equal keys imply identical regions, and the invariant is a
function of the regions.

Two tiers compose:

* an in-memory **LRU** (an ``OrderedDict`` under a lock), bounded by
  ``maxsize`` entries;
* an optional persistent :class:`~repro.store.SegmentStore` holding
  binary invariant records in mmap'd segments, so warm corpora survive
  process restarts.  It is write-through on :meth:`InvariantCache.put`,
  and a store hit is promoted into memory.  The store verifies every
  record's checksum on read; a failed read is a miss (the value is
  simply recomputed) and a failed write — a full disk, a lost fsync, a
  torn append — keeps the entry in memory and ticks
  ``store_write_failures`` instead of failing the batch.

Invalidation needs no timestamps: a key changes whenever the geometry
changes, and stale entries for geometries never seen again simply age
out of the LRU.

The memory tier holds any content-addressed artifact, not only
invariants: the compiled query engine keeps its disc-region universes
in a store-less cache, keyed by the ``canonical_hash`` of an
isomorphism class when asked through ``T_I`` and by ``instance_key``
when asked through bare geometry, plus the enumeration parameters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from ..errors import StoreError

__all__ = ["InvariantCache"]


class InvariantCache:
    """LRU + optional segment-store tier mapping content keys to
    artifacts."""

    def __init__(self, maxsize: int = 1024, store=None):
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.store = store
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.evictions = 0
        self.store_write_failures = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def peek(self, key: str) -> Any | None:
        """The artifact for *key* if the memory tier holds it, else None.

        Never touches the store, so it is cheap enough to call from an
        event loop.  A hit counts and refreshes like :meth:`get`; a miss
        is not counted, because the caller falls back to :meth:`get`."""
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                self.hits += 1
            return hit

    def get(self, key: str) -> Any | None:
        """The cached artifact for *key*, or None.

        Memory first, then the store; a store hit is promoted into
        memory."""
        hit = self.peek(key)
        if hit is not None:
            return hit
        loaded = None
        if self.store is not None:
            try:
                loaded = self.store.get(key)
            except StoreError:
                pass  # a corrupt record costs a recompute, not an error
        with self._lock:
            if loaded is not None:
                self.hits += 1
                self.store_hits += 1
                self._store_memory(key, loaded)
            else:
                self.misses += 1
        return loaded

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._store_memory(key, value)
        if self.store is not None:
            try:
                self.store.put(key, value)
            except StoreError:
                # A full disk or torn segment must not fail the batch:
                # the entry still serves from memory.
                with self._lock:
                    self.store_write_failures += 1

    def clear(self) -> None:
        """Drop the memory tier (the store is left as it is)."""
        with self._lock:
            self._memory.clear()

    def _store_memory(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)
            self.evictions += 1
