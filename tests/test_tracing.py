"""The observability layer's own test suite.

Three families:

* **structural properties** (hypothesis) — traces produced through the
  public API are well-nested (child intervals inside the parent, child
  durations summing to at most the parent's), both exporters round-trip
  or validate, and the Chrome output obeys the ``trace_event`` schema;
* **cross-process capture** — a traced batch on every backend produces
  ``task`` spans whose children were recorded inside the worker (for
  the process backend: under a different pid) and re-parented under the
  submitting task;
* **differential suite** — tracing is observation only: ``compute_batch``
  and ``evaluate_cells`` return bit-identical results (canonical hash)
  with tracing on vs off, across the figure corpus, both backends,
  and under seeded fault schedules.
"""

import json
import os
import threading
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tracing
from repro.datasets import mixed_corpus
from repro.datasets.figures import all_figures
from repro.faults import FaultPlan, inject
from repro.invariant import canonical_hash
from repro.logic import evaluate_cells, parse
from repro.logic.compiled import clear_universe_cache
from repro.pipeline import BACKENDS, InvariantPipeline, RetryPolicy
from repro.tracing import Span, Trace, Tracer

# A clock skew allowance for spans captured by *different* tracers
# (parent vs worker): each tracer anchors to time.time() once, so two
# anchors can disagree by the wall clock's granularity.
EPS = 0.05


def assert_well_nested(span: Span, eps: float = 0.0) -> None:
    assert span.duration is not None and span.duration >= 0.0
    child_sum = 0.0
    for child in span.children:
        assert child.t0 >= span.t0 - eps, (span.name, child.name)
        assert child.end <= span.end + eps, (span.name, child.name)
        child_sum += child.duration or 0.0
        assert_well_nested(child, eps)
    # Sum of direct-child self-containing durations cannot exceed the
    # parent (children recorded by one thread run sequentially); the
    # eps covers cross-tracer clock anchoring.
    assert child_sum <= span.duration + eps * (len(span.children) + 1)
    assert span.self_time() >= 0.0


def validate_chrome(payload: dict) -> None:
    """The subset of the Chrome trace_event schema the exporter emits."""
    assert set(payload) == {"traceEvents", "displayTimeUnit"}
    json.dumps(payload)  # must be pure-JSON serializable
    for event in payload["traceEvents"]:
        assert isinstance(event["name"], str) and event["name"]
        assert event["ph"] in ("X", "i")
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert isinstance(event["args"], dict)
        if event["ph"] == "X":
            assert isinstance(event["dur"], int) and event["dur"] >= 0
        else:
            assert event["s"] == "t"


# -- hypothesis: structural properties ----------------------------------------

# A span tree shape: a name and a list of child shapes.
shapes = st.recursive(
    st.text("abcdef", min_size=1, max_size=4).map(lambda n: (n, [])),
    lambda kids: st.tuples(
        st.text("abcdef", min_size=1, max_size=4),
        st.lists(kids, max_size=3),
    ),
    max_leaves=12,
)


def record_shape(tracer: Tracer, shape) -> None:
    name, children = shape
    with tracer.span(name, depth=len(children)):
        for child in children:
            record_shape(tracer, child)


class TestStructuralProperties:
    @given(st.lists(shapes, min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_traces_are_well_nested(self, forest):
        tracer = Tracer()
        for shape in forest:
            record_shape(tracer, shape)
        trace = tracer.finish()
        assert len(trace.roots) == len(forest)
        for root in trace.roots:
            assert_well_nested(root)

    @given(st.lists(shapes, min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_nested_json_round_trips(self, forest):
        tracer = Tracer()
        for shape in forest:
            record_shape(tracer, shape)
        trace = tracer.finish(kind="test")
        data = trace.to_dict()
        again = Trace.from_json(trace.to_json())
        assert again.to_dict() == data
        assert again.meta == {"kind": "test"}
        assert [s.name for s in again.spans()] == [
            s.name for s in trace.spans()
        ]

    @given(st.lists(shapes, min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_chrome_export_validates(self, forest):
        tracer = Tracer()
        for shape in forest:
            record_shape(tracer, shape)
        trace = tracer.finish()
        payload = trace.to_chrome()
        validate_chrome(payload)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(trace)

    @given(st.lists(shapes, min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_self_times_partition_durations(self, forest):
        tracer = Tracer()
        for shape in forest:
            record_shape(tracer, shape)
        trace = tracer.finish()
        rollup = trace.self_times()
        assert sum(cell["calls"] for cell in rollup.values()) == len(trace)
        # Self times tile the roots: every recorded moment belongs to
        # exactly one span's self time.
        total_self = sum(c["self_seconds"] for c in rollup.values())
        root_total = sum(r.duration for r in trace.roots)
        assert total_self == pytest.approx(root_total, abs=1e-6)
        for cell in rollup.values():
            assert 0.0 <= cell["self_seconds"] <= cell["seconds"] + 1e-9

    def test_critical_path_descends_the_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("short"):
                pass
            with tracer.span("long"):
                with tracer.span("leaf"):
                    pass
        trace = tracer.finish()
        path = trace.critical_path()
        assert path[0].name == "root"
        for parent, child in zip(path, path[1:]):
            assert child in parent.children
        assert path[-1].children == []


# -- manual spans, events, adoption -------------------------------------------


class TestTracerMechanics:
    def test_manual_spans_may_overlap(self):
        tracer = Tracer()
        a = tracer.start_span("a")
        b = tracer.start_span("b", parent=a)
        tracer.finish_span(b)
        tracer.finish_span(a)
        trace = tracer.finish()
        assert [r.name for r in trace.roots] == ["a"]
        assert [c.name for c in trace.roots[0].children] == ["b"]

    def test_events_attach_to_spans(self):
        tracer = Tracer()
        with tracer.span("work") as s:
            tracer.add_event("retry", attempt=2)
        assert s.events[0]["name"] == "retry"
        assert s.events[0]["attributes"] == {"attempt": 2}
        chrome = tracer.finish().to_chrome()
        instants = [e for e in chrome["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["retry"]

    def test_adopt_reparents_serialized_spans(self):
        worker = Tracer()
        with worker.span("invariant.build"):
            pass
        payload = [r.to_dict() for r in worker.finish().roots]
        parent = Tracer()
        task = parent.start_span("task")
        parent.adopt(task, payload)
        parent.finish_span(task)
        trace = parent.finish()
        (root,) = trace.roots
        assert [c.name for c in root.children] == ["invariant.build"]

    def test_threaded_spans_nest_per_thread(self):
        tracer = Tracer()

        def work(i):
            with tracer.span(f"outer{i}"):
                with tracer.span("inner"):
                    pass

        with tracing.installed(tracer):
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        trace = tracer.finish()
        assert len(trace.roots) == 4
        for root in trace.roots:
            assert [c.name for c in root.children] == ["inner"]

    def test_module_helpers_are_noops_without_tracer(self):
        with tracing.span("nothing") as s:
            assert s is None
        assert tracing.add_event("nothing") is None
        assert tracing.current_tracer() is None

    def test_stage_opens_spans_under_installed_tracer(self):
        with tracing.tracing() as tracer:
            with tracing.span("outer", size=3):
                with tracing.span("inner"):
                    pass
        trace = tracer.finish()
        (root,) = trace.roots
        assert root.name == "outer"
        assert root.attributes == {"size": 3}
        assert [c.name for c in root.children] == ["inner"]

    def test_capture_requires_tracer_or_force(self):
        with tracing.capture() as cap:
            assert cap is None
        with tracing.capture(shipped=False) as cap:
            with tracing.span("worker.stage"):
                pass
        packed = tracing.pack_result("value", cap)
        value, spans = tracing.unpack_result(packed)
        assert value == "value"
        assert [s["name"] for s in spans] == ["worker.stage"]

    def test_pack_result_is_transparent_when_untraced(self):
        assert tracing.pack_result("plain", None) == "plain"
        assert tracing.unpack_result("plain") == ("plain", None)


# -- cross-process capture ----------------------------------------------------


def _kernel_total(span: Span) -> int:
    return sum(
        v for k, v in (span.counters or {}).items() if k.startswith("kernel.")
    )


def _worker_sees_tracer() -> bool:
    return tracing.current_tracer() is not None


class TestWorkerCapture:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_task_spans_carry_worker_spans(self, backend):
        corpus = mixed_corpus(6, seed=5)
        with InvariantPipeline(backend=backend, workers=2) as pipe:
            with tracing.tracing() as tracer:
                pipe.compute_batch(corpus)
        trace = tracer.finish()
        tasks = trace.find("task")
        assert tasks, "no task spans recorded"
        for task in tasks:
            assert task.attributes["backend"] == backend
            assert task.attributes["instance_key"]
            assert task.children, "worker spans not re-parented"
            names = {c.name for c in task.walk()}
            assert "invariant.build" in names
            assert_well_nested(task, eps=EPS)
        if backend == "processes":
            worker_pids = {
                child.pid for task in tasks for child in task.children
            }
            assert worker_pids and os.getpid() not in worker_pids, (
                "process-backend spans must come from worker interpreters"
            )

    def test_trace_feeds_stats_rollup(self):
        corpus = mixed_corpus(4, seed=5)
        with tracing.tracing() as tracer:
            InvariantPipeline().compute_batch(corpus)
        trace = tracer.finish()
        rollup = trace.self_times()
        assert "invariant.build" in rollup
        assert rollup["task"]["calls"] >= 1
        assert trace.critical_path()[0].name == "pipeline.compute_batch"

    def test_self_times_sum_to_the_batch_span(self):
        with tracing.tracing() as tracer:
            InvariantPipeline().compute_batch(mixed_corpus(6, seed=5))
        trace = tracer.finish()
        (root,) = trace.roots
        assert root.name == "pipeline.compute_batch"
        self_total = sum(
            cell["self_seconds"] for cell in trace.self_times().values()
        )
        assert self_total == pytest.approx(root.duration, abs=1e-3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_spans_carry_kernel_counters(self, backend):
        corpus = mixed_corpus(6, seed=21)
        with tracing.tracing(capture_counters=True) as serial:
            InvariantPipeline().compute_batch(corpus)
        (root,) = serial.finish().find("pipeline.compute_batch")
        with InvariantPipeline(backend=backend, workers=2) as pipe:
            with tracing.tracing(capture_counters=True) as tracer:
                pipe.compute_batch(corpus)
        builds = tracer.finish().find("invariant.build")
        assert builds
        for build in builds:
            assert _kernel_total(build) > 0, build
        if backend == "processes":
            # One task per worker at a time: the worker-side deltas
            # partition the batch's kernel work exactly.
            assert sum(_kernel_total(b) for b in builds) == _kernel_total(
                root
            )

    def test_forked_workers_start_untraced(self):
        with InvariantPipeline(backend="processes", workers=2) as pipe:
            with tracing.tracing():
                # The pool's workers are forked inside this batch.
                pipe.compute_batch(mixed_corpus(6, seed=5))
            probe = pipe._process_pool().submit(_worker_sees_tracer)
            assert probe.result(timeout=60) is False

    def test_retry_events_annotated(self):
        from repro.faults import Fault

        corpus = mixed_corpus(3, seed=7)
        plan = FaultPlan(Fault("invariant_raises", times=1))
        pipe = InvariantPipeline(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0, sleep=lambda s: None)
        )
        with inject(plan), tracing.tracing() as tracer:
            pipe.compute_batch(corpus)
        events = [
            ev
            for span in tracer.finish().spans()
            for ev in span.events
        ]
        assert any(ev["name"] == "retry" for ev in events)


# -- differential: tracing never changes results ------------------------------


FIGURE_CORPUS = sorted(all_figures().items())


def _hashes(result):
    return [canonical_hash(t) for t in result]


class TestDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compute_batch_bit_identical_with_tracing(self, backend):
        corpus = [inst for _name, inst in FIGURE_CORPUS] + mixed_corpus(
            6, seed=11
        )
        plain = InvariantPipeline(backend=backend, workers=2)
        traced = InvariantPipeline(backend=backend, workers=2)
        try:
            off = _hashes(plain.compute_batch(corpus))
            with tracing.tracing() as tracer:
                on = _hashes(traced.compute_batch(corpus))
        finally:
            plain.close()
            traced.close()
        assert on == off
        assert len(tracer.finish()) > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compute_batch_identical_under_seeded_faults(self, backend):
        corpus = mixed_corpus(8, seed=13)
        from repro.invariant.canonical import instance_key

        keys = [instance_key(inst) for inst in corpus]
        results = {}
        for mode in ("off", "on"):
            plan = FaultPlan.seeded(
                42, keys, faults=4, max_times=2, hang_seconds=0.01
            )
            with InvariantPipeline(
                backend=backend,
                workers=2,
                retry=RetryPolicy(
                    max_attempts=4, backoff_base=0.0, sleep=lambda s: None
                ),
            ) as pipe:
                with inject(plan), (
                    tracing.tracing() if mode == "on" else nullcontext()
                ):
                    batch = pipe.compute_batch(corpus, on_error="collect")
            results[mode] = [
                (out.key, canonical_hash(out.value)) if out.ok else
                (out.key, None)
                for out in batch
            ]
        # Any key that succeeded in both runs is bit-identical.
        for (key, on_hash), (off_key, off_hash) in zip(
            results["on"], results["off"]
        ):
            assert key == off_key
            if on_hash is not None and off_hash is not None:
                assert on_hash == off_hash, key
        assert any(h is not None for _, h in results["on"])
        if backend == "serial":
            # Serial execution is fully deterministic (submit, retry,
            # and fault-draw order are all the loop order), so there
            # the whole ok/failed pattern must match exactly — on the
            # pool backend which key absorbs a key-less fault or gets
            # charged for observing a pool break is a scheduling race,
            # with or without tracing.
            assert results["on"] == results["off"]

    @pytest.mark.parametrize(
        "text",
        [
            "exists r . subset(r, A) and subset(r, B)",
            "forall s . subset(s, A) -> connect(s, B)",
            "exists r, s . subset(r, A) and subset(s, B) and meet(r, s)",
        ],
    )
    def test_evaluate_cells_identical_with_tracing(self, text):
        query = parse(text)
        for name, inst in FIGURE_CORPUS:
            if not {"A", "B"} <= set(inst.names()):
                continue
            clear_universe_cache()
            off = evaluate_cells(query, inst)
            clear_universe_cache()
            with tracing.tracing() as tracer:
                on = evaluate_cells(query, inst)
            assert on == off, (name, text)
            assert tracer.finish().find("query.evaluate_cells")
