"""Benchmark-side spans around calls into the library's public
functions.

The tracer patches module attributes and class methods of a running
``repro`` with timing wrappers, keeps every span in memory, and restores
the originals on :meth:`Tracer.uninstall`.  It adds nothing to the
library and does not use the library's own telemetry.

A span records its name, thread, start, end and parent (the innermost
open span on the same thread).  Self time is a span's duration minus
the time of the spans opened under it.  Endpoint coroutines of the
query service interleave on the event loop, so they are timed without
a parent stack; their compute runs on the service's executor threads,
where it opens root spans.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import repro
from repro import InvariantCache, InvariantPipeline, QueryService, SegmentStore
from repro.arrangement import complex as arrangement_complex
from repro.invariant import TopologicalInvariant
from repro.logic import compiled as logic_compiled


class _Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "child_s")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0


class Tracer:
    """Install with :meth:`install`, run the work, :meth:`uninstall`,
    then read :meth:`tallies`."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.put_bytes = 0
        self.cache_lookups = [0, 0]  # pipeline invariant cache: hits, gets
        self.universe_lookups = [0, 0]  # logic universe cache: hits, gets
        self.coalesced = [0, 0]  # service answers: coalesced, all
        self.queued: list[int] = []  # service queue depth at each arrival
        self._local = threading.local()
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = _Span(name, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                self.spans.append(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _endpoint(self, name, fn):
        @functools.wraps(fn)
        async def wrapper(svc, *args, **kwargs):
            self.queued.append(svc.queued)
            span = _Span(name, None, None)
            span.start = perf_counter()
            try:
                answer = await fn(svc, *args, **kwargs)
            finally:
                span.end = perf_counter()
                self.spans.append(span)
            self.coalesced[0] += bool(answer.coalesced)
            self.coalesced[1] += 1
            return answer

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch_function(self, original, wrapper) -> None:
        """Point every ``repro`` module attribute bound to *original*
        at *wrapper*, so callers that imported the name see the span."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _patch_attr(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        # The stages of build_complex (the T_I path) are patched in that
        # module only: grid_refined_complex runs its own refinement and
        # is timed whole as logic.refine.
        for attr, name in (
            ("planarize", "arrangement.planarize"),
            ("Subdivision", "arrangement.subdivision"),
            ("compute_labels", "arrangement.labeling"),
        ):
            self._patch_attr(
                arrangement_complex,
                attr,
                self._timed(name, getattr(arrangement_complex, attr)),
            )
        for fn, name in (
            (repro.arrangement.build_complex, "arrangement.build"),
            (repro.canonical_hash, "invariant.canonical_hash"),
            (repro.instance_key, "invariant.instance_key"),
            (repro.are_isomorphic, "invariant.isomorphism"),
            (repro.logic.grid_refined_complex, "logic.refine"),
            (repro.logic.compiled_universe, "logic.universe"),
            (repro.evaluate_cells, "logic.evaluate"),
        ):
            self._patch_function(fn, self._timed(name, fn))
        from_complex = TopologicalInvariant.__dict__["from_complex"].__func__
        self._patch_attr(
            TopologicalInvariant,
            "from_complex",
            staticmethod(self._timed("invariant.from_complex", from_complex)),
        )

        def count_put(_args, size):
            self.put_bytes += size

        for attr, name, after in (
            ("put", "store.put", count_put),
            ("get_record", "store.get", None),
            ("close", "store.seal", None),
        ):
            self._patch_attr(
                SegmentStore,
                attr,
                self._timed(name, SegmentStore.__dict__[attr], after),
            )
        self._patch_attr(
            InvariantPipeline,
            "compute_batch",
            self._timed("pipeline.compute_batch", InvariantPipeline.compute_batch),
        )

        # Cache lookups are counted, not timed: hit fractions come from
        # the return values.
        cache_get = InvariantCache.get
        universe_cache = logic_compiled.universe_cache()

        @functools.wraps(cache_get)
        def counted_get(cache, key):
            value = cache_get(cache, key)
            tally = (
                self.universe_lookups
                if cache is universe_cache
                else self.cache_lookups
            )
            tally[0] += value is not None
            tally[1] += 1
            return value

        self._patch_attr(InvariantCache, "get", counted_get)
        for attr in ("ask_cells", "invariant_of", "equivalent"):
            self._patch_attr(
                QueryService,
                attr,
                self._endpoint(f"service.{attr}", QueryService.__dict__[attr]),
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def tallies(self) -> dict:
        """Tallies of the recorded spans, which
        ``layers.layer_metrics`` turns into the per-layer metrics."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        endpoint_s = executor_root_s = 0.0
        main = threading.main_thread().ident
        for span in self.spans:
            duration = span.end - span.start
            if span.thread is None:
                endpoint_s += duration
                continue
            self_s[span.name] += duration - span.child_s
            calls[span.name] += 1
            if span.parent is None and span.thread != main:
                executor_root_s += duration
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "put_bytes": self.put_bytes,
            "cache_lookups": list(self.cache_lookups),
            "universe_lookups": list(self.universe_lookups),
            "coalesced": list(self.coalesced),
            "queued": [sum(self.queued), len(self.queued)],
            # Endpoint time not covered by compute on the service's
            # executor threads: admission, coalescing, queueing, hand-off.
            "service_self_s": max(0.0, endpoint_s - executor_root_s),
        }
