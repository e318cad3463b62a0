"""Hierarchical tracing with cross-process span capture.

Spans are the one record of where time goes.  :func:`span` is the
call-site API of every instrumented stage — the arrangement build,
canonicalization, isomorphism, universe enumeration, quantifier
evaluation, the batch pipeline:

* a :class:`Span` is one timed operation — name, start time, duration,
  attributes (``instance_key``, ``stage``, ``backend``, …), point
  events (retries, pool respawns), an optional counter delta, and child
  spans;
* a :class:`Tracer` collects spans into a forest.  Each thread keeps
  its own current-span stack, so spans recorded concurrently nest
  correctly; :meth:`Tracer.finish` freezes the forest into a
  :class:`Trace`;
* :func:`capture` records the spans produced inside a worker (thread
  *or* process) into a detached tracer whose serialized forest rides
  back to the parent piggybacked on the task result
  (:func:`pack_result` / :func:`unpack_result`), where the resilient
  mapper re-parents it under the submitting task's span;
* a :class:`Trace` exports as nested JSON or as Chrome ``trace_event``
  JSON (loadable in ``chrome://tracing`` and `Perfetto
  <https://ui.perfetto.dev>`_), and supplies the per-name self-time
  rollup (:meth:`~Trace.self_times`) and :meth:`~Trace.critical_path`.

With no tracer installed and no capture open, :func:`span` returns a
shared no-op context manager after one truthiness check, so the
library's hot paths pay nothing (``benchmarks/bench_pipeline.py
--smoke`` asserts the tracing-off overhead stays under 2%).  Installing
a tracer (:func:`install`, or the scoped :func:`tracing` context
manager) makes every ``span()`` block record::

    with tracing.tracing() as tracer:
        pipeline.compute_batch(corpus)
    trace = tracer.finish()

A tracer built with ``capture_counters=True`` also stores on every
span the increase of the :mod:`repro.instrument` counters across it,
including the spans recorded inside workers.

Timestamps are wall-aligned but monotone within a process: a tracer
records ``time.time()`` and ``perf_counter()`` once at construction and
places every span at ``wall0 + (perf_counter() - perf0)``.  Spans
captured in different processes therefore line up on the shared wall
clock while never going backwards inside one process.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator

from . import instrument

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "TracedResult",
    "install",
    "uninstall",
    "installed",
    "tracing",
    "current_tracer",
    "span",
    "add_event",
    "capture",
    "pack_result",
    "unpack_result",
]


class Span:
    """One timed operation in a trace tree."""

    __slots__ = (
        "name",
        "t0",
        "duration",
        "attributes",
        "events",
        "counters",
        "children",
        "pid",
        "tid",
        "_c0",
    )

    def __init__(
        self,
        name: str,
        t0: float,
        attributes: dict | None = None,
        duration: float | None = None,
        pid: int | None = None,
        tid: int | None = None,
    ):
        self.name = name
        self.t0 = t0
        self.duration = duration
        self.attributes = dict(attributes) if attributes else {}
        self.events: list[dict] = []
        self.counters: dict[str, int] | None = None
        self.children: list[Span] = []
        self.pid = pid if pid is not None else os.getpid()
        self.tid = tid if tid is not None else threading.get_ident()
        self._c0: dict[str, int] | None = None

    @property
    def end(self) -> float:
        return self.t0 + (self.duration or 0.0)

    def self_time(self) -> float:
        """Duration not covered by direct children (clamped at 0 — a
        clock hiccup must not produce a negative rollup)."""
        kids = sum(c.duration or 0.0 for c in self.children)
        return max(0.0, (self.duration or 0.0) - kids)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        d: dict[str, Any] = {
            "name": self.name,
            "t0": self.t0,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.attributes:
            d["attributes"] = self.attributes
        if self.events:
            d["events"] = self.events
        if self.counters:
            d["counters"] = self.counters
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(
            d["name"],
            d["t0"],
            attributes=d.get("attributes"),
            duration=d.get("duration"),
            pid=d.get("pid"),
            tid=d.get("tid"),
        )
        span.events = list(d.get("events", ()))
        span.counters = d.get("counters")
        span.children = [cls.from_dict(c) for c in d.get("children", ())]
        return span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dur = f"{self.duration:.6f}s" if self.duration is not None else "open"
        return f"Span({self.name!r}, {dur}, {len(self.children)} children)"


class Tracer:
    """Collects spans into a forest; thread-safe.

    Each thread keeps its own current-span stack so context-managed
    spans nest per execution thread; manual spans
    (:meth:`start_span` / :meth:`finish_span` without ``push``) never
    touch a stack and may overlap freely — the resilient mapper uses
    them for in-flight pool tasks.

    With ``capture_counters=True`` every span diffs
    :func:`repro.instrument.counter_snapshot` around itself and stores
    the non-zero entries, so kernel/query/fault counters appear on the
    spans that caused them.
    """

    def __init__(self, capture_counters: bool = False):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: list[Span] = []
        self.capture_counters = capture_counters
        self._wall0 = time.time()
        self._perf0 = perf_counter()

    def _now(self) -> float:
        return self._wall0 + (perf_counter() - self._perf0)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """This thread's innermost open context-managed span."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording -----------------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: Span | None = None,
        push: bool = False,
        attributes: dict | None = None,
    ) -> Span:
        span = Span(name, self._now(), attributes)
        if self.capture_counters:
            span._c0 = instrument.counter_snapshot()
        if parent is None:
            parent = self.current()
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
        if push:
            self._stack().append(span)
        return span

    def finish_span(self, span: Span) -> Span:
        if span.duration is None:
            span.duration = max(0.0, self._now() - span.t0)
        if span._c0 is not None:
            delta = instrument.counter_delta(
                span._c0, instrument.counter_snapshot()
            )
            span.counters = {k: v for k, v in delta.items() if v} or None
            span._c0 = None
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        return span

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        s = self.start_span(name, push=True, attributes=attributes)
        try:
            yield s
        finally:
            self.finish_span(s)

    def add_event(
        self, name: str, span: Span | None = None, **attributes
    ) -> dict | None:
        """A point-in-time annotation on *span* (default: the current
        one).  Returns the event dict, or None when there is no span to
        attach to."""
        target = span if span is not None else self.current()
        if target is None:
            return None
        event: dict[str, Any] = {"name": name, "t": self._now()}
        if attributes:
            event["attributes"] = attributes
        with self._lock:
            target.events.append(event)
        return event

    def adopt(self, parent: Span, span_dicts: list[dict]) -> list[Span]:
        """Re-parent serialized worker spans under *parent* (the
        submitting task's span)."""
        children = [Span.from_dict(d) for d in span_dicts]
        with self._lock:
            parent.children.extend(children)
        return children

    # -- finishing -----------------------------------------------------------

    def finish(self, **meta) -> "Trace":
        """Freeze the forest into a :class:`Trace`, closing any span
        still open (a crashed block, an abandoned worker)."""
        now = self._now()
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            for span in root.walk():
                if span.duration is None:
                    span.duration = max(0.0, now - span.t0)
        return Trace(roots, meta)


class Trace:
    """A finished span forest with exporters and rollups."""

    def __init__(self, roots: list[Span], meta: dict | None = None):
        self.roots = list(roots)
        self.meta = dict(meta or {})

    def spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans() if s.name == name]

    def __len__(self) -> int:
        return sum(1 for _ in self.spans())

    # -- rollups -------------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per-name rollup: total duration, self time (duration minus
        direct children), and call count."""
        rollup: dict[str, dict] = {}
        for span in self.spans():
            cell = rollup.setdefault(
                span.name, {"seconds": 0.0, "self_seconds": 0.0, "calls": 0}
            )
            cell["seconds"] += span.duration or 0.0
            cell["self_seconds"] += span.self_time()
            cell["calls"] += 1
        return rollup

    def critical_path(self) -> list[Span]:
        """The chain of spans that bounds the trace's wall time: from
        the longest root, repeatedly descend into the child that
        finishes last (under parallelism that is the child the parent
        waited for)."""
        if not self.roots:
            return []
        span = max(self.roots, key=lambda s: s.duration or 0.0)
        path = [span]
        while span.children:
            span = max(span.children, key=lambda c: c.end)
            path.append(span)
        return path

    # -- nested-JSON export --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "spans": [root.to_dict() for root in self.roots],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Trace":
        return cls(
            [Span.from_dict(s) for s in d.get("spans", ())],
            d.get("meta"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))

    # -- Chrome trace_event export -------------------------------------------

    def to_chrome(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object (load the
        file in Perfetto or ``chrome://tracing``).

        Spans become complete (``ph: "X"``) events with microsecond
        ``ts``/``dur`` relative to the earliest span; span events become
        thread-scoped instant (``ph: "i"``) events; attributes and
        counter deltas ride in ``args``.
        """
        spans = list(self.spans())
        base = min((s.t0 for s in spans), default=0.0)
        events: list[dict] = []
        for s in spans:
            args: dict[str, Any] = dict(s.attributes)
            if s.counters:
                args["counters"] = s.counters
            events.append(
                {
                    "name": s.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": int((s.t0 - base) * 1e6),
                    "dur": int((s.duration or 0.0) * 1e6),
                    "pid": s.pid,
                    "tid": s.tid,
                    "args": args,
                }
            )
            for ev in s.events:
                events.append(
                    {
                        "name": ev["name"],
                        "cat": "repro",
                        "ph": "i",
                        "s": "t",
                        "ts": int((ev["t"] - base) * 1e6),
                        "pid": s.pid,
                        "tid": s.tid,
                        "args": dict(ev.get("attributes", ())),
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save(self, path, fmt: str | None = None) -> None:
        """Write the trace to *path*: ``fmt="chrome"`` (default) for
        trace_event JSON, ``"json"`` for the nested form."""
        fmt = fmt or "chrome"
        if fmt == "chrome":
            text = json.dumps(self.to_chrome())
        elif fmt == "json":
            text = self.to_json()
        else:
            raise ValueError(f"unknown trace format {fmt!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({len(self)} spans, {len(self.roots)} roots)"


# -- installation -------------------------------------------------------------

_install_lock = threading.Lock()
_installed: list[Tracer] = []
_local = threading.local()
# Installed tracers plus open captures: zero means no thread can have a
# tracer, so span() and current_tracer() return before any lookup.
_active = 0


def _activate(delta: int) -> None:
    global _active
    with _install_lock:
        _active += delta


def _forget_tracers() -> None:
    """Fork hook: a child process starts with nothing installed (a pool
    worker forked inside a traced batch must not record into a copy of
    the parent's tracer)."""
    global _active, _install_lock, _local
    _install_lock = threading.Lock()
    _installed.clear()
    _local = threading.local()
    _active = 0


os.register_at_fork(after_in_child=_forget_tracers)


def current_tracer() -> Tracer | None:
    """The active tracer: this thread's capture override if one is in
    force, else the innermost installed tracer."""
    if not _active:
        return None
    override = getattr(_local, "tracer", None)
    if override is not None:
        return override
    with _install_lock:
        return _installed[-1] if _installed else None


def install(tracer: Tracer) -> Tracer:
    """Install *tracer* process-wide (nestable; innermost wins)."""
    global _active
    with _install_lock:
        _installed.append(tracer)
        _active += 1
    return tracer


def uninstall(tracer: Tracer) -> None:
    """Remove *tracer* from the installed stack (no error if absent)."""
    global _active
    with _install_lock:
        if tracer in _installed:
            _installed.remove(tracer)
            _active -= 1


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`install`."""
    install(tracer)
    try:
        yield tracer
    finally:
        uninstall(tracer)


@contextmanager
def tracing(capture_counters: bool = False) -> Iterator[Tracer]:
    """Trace the block with a fresh tracer::

        with tracing() as tracer:
            pipeline.compute_batch(corpus)
        trace = tracer.finish()
        trace.save("trace.json")
    """
    with installed(Tracer(capture_counters=capture_counters)) as tracer:
        yield tracer


def span(name: str, **attributes):
    """A span under the active tracer, or a no-op context manager.

    Keyword arguments become span attributes."""
    if not _active:
        return _NULL_SPAN
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attributes)


def add_event(name: str, **attributes) -> dict | None:
    """An event on the active tracer's current span (None-safe)."""
    tracer = current_tracer()
    if tracer is None:
        return None
    return tracer.add_event(name, **attributes)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


# -- worker-side capture ------------------------------------------------------


class TracedResult:
    """A worker's return value with its captured spans piggybacked.

    Crosses the process boundary by pickle: *spans* is a list of plain
    span dicts, never live :class:`Span` objects."""

    __slots__ = ("value", "spans")

    def __init__(self, value: Any, spans: list[dict]):
        self.value = value
        self.spans = spans

    def __getstate__(self):
        return (self.value, self.spans)

    def __setstate__(self, state):
        self.value, self.spans = state


@contextmanager
def capture(shipped: bool | None = None) -> Iterator[Tracer | None]:
    """Record this thread's spans into a detached tracer.

    A worker thread passes nothing: the capture is engaged when a
    tracer is active and copies its ``capture_counters``.  A process
    worker cannot see the parent's tracer, so the parent ships the
    decision with the task: *shipped* is the parent tracer's
    ``capture_counters`` flag, or None when the parent is not tracing.
    Yields the capture tracer, or None when disabled — feed it to
    :func:`pack_result`.
    """
    if shipped is None:
        active = current_tracer()
        if active is None:
            yield None
            return
        shipped = active.capture_counters
    tracer = Tracer(capture_counters=shipped)
    previous = getattr(_local, "tracer", None)
    _local.tracer = tracer
    _activate(1)
    try:
        yield tracer
    finally:
        _activate(-1)
        _local.tracer = previous


def pack_result(value: Any, cap: Tracer | None) -> Any:
    """The worker's return value, wrapped with its captured spans when
    there are any (plain value otherwise, so untraced runs are wire-
    identical to the pre-tracing protocol)."""
    if cap is None or not cap.roots:
        return value
    trace = cap.finish()
    return TracedResult(value, [root.to_dict() for root in trace.roots])


def unpack_result(value: Any) -> tuple[Any, list[dict] | None]:
    """Split a worker return value into (value, captured span dicts)."""
    if isinstance(value, TracedResult):
        return value.value, value.spans
    return value, None
