"""The per-layer metrics: which end-to-end metric each should move, on
which workload, and how they are computed from span tallies.

Kept free of ``repro`` imports so the runner can turn the tally of a
phase interpreter into metrics without importing the library itself.
"""

from __future__ import annotations

# Per-layer metric -> the end-to-end metric it should move, and where.
# "(report line)" marks a serve measure printed in the report line but
# not among the end-to-end metrics: it is too unsteady to gate on.
MOVES = {
    "arrangement.builds": "ingest.inst_per_s on ingest; serve.fresh_p50_ms (report line) on serve",
    "arrangement.planarize_s": "ingest.inst_per_s on ingest; serve.fresh_p50_ms (report line) on serve; not query.warm_s",
    "arrangement.subdivision_s": "ingest.inst_per_s on ingest; serve.fresh_p50_ms (report line) on serve; not query.warm_s",
    "arrangement.labeling_s": "ingest.inst_per_s on ingest; serve.fresh_p50_ms (report line) on serve; not query.warm_s",
    "arrangement.reduce_s": "ingest.inst_per_s on ingest; serve.fresh_p50_ms (report line) on serve; not query.warm_s",
    "invariant.from_complex_s": "ingest.inst_per_s on ingest",
    "invariant.canonical_hash_s": "ingest.inst_per_s on ingest",
    "invariant.canonical_hash_calls": "ingest.inst_per_s on ingest",
    "invariant.instance_key_s": "ingest.inst_per_s on ingest",
    "invariant.instance_key_calls": "ingest.inst_per_s on ingest",
    "invariant.isomorphism_s": "serve.equivalent_p50_ms on serve",
    "invariant.isomorphism_calls": "serve.equivalent_p50_ms on serve",
    "store.put_s": "ingest.inst_per_s on ingest",
    "store.put_bytes": "ingest.inst_per_s and ingest.bytes_per_inst on ingest",
    "store.seal_s": "ingest.inst_per_s on ingest",
    "store.get_s": "serve.lookup_p50_ms and serve.equivalent_p50_ms on serve",
    "store.gets": "serve.lookup_p50_ms and serve.equivalent_p50_ms on serve",
    "pipeline.compute_batch_s": "serve.fresh_p50_ms (report line) on serve; ingest.inst_per_s on ingest",
    "pipeline.compute_batch_calls": "serve.fresh_p50_ms (report line) on serve; ingest.inst_per_s on ingest",
    "pipeline.cache_hit_frac": "serve.lookup_p50_ms on serve",
    "logic.refine_s": "serve.cells_p50_ms and serve.p99_ms (report line) on serve; query.cold_s on every workload",
    "logic.universe_s": "serve.cells_p50_ms and serve.p99_ms (report line) on serve; query.cold_s on every workload",
    "logic.universe_hit_frac": "serve.cells_p50_ms and serve.p99_ms (report line) on serve; query.cold_s on every workload",
    "logic.eval_s": "serve.cells_p50_ms on serve; query.warm_s on every workload",
    "service.self_s": "serve.p50_ms and serve.capacity_rps (report line) on serve",
    "service.coalesced_frac": "serve.p50_ms and serve.capacity_rps (report line) on serve",
    "service.queued_mean": "serve.p50_ms and serve.capacity_rps (report line) on serve",
    "gen.late_p99_ms": "none; open-loop generator lateness on serve, large values void serve.p50_ms and serve.p99_ms (report line)",
    "trace.overhead_frac": "none; traced minus untraced wall time of the same work, as a share of untraced",
}

# Span name -> the metric reporting its self time (span time minus the
# time of the spans opened under it).  arrangement.build is
# build_complex, whose self time is the reduce step.
SELF_TIME = {
    "arrangement.planarize": "arrangement.planarize_s",
    "arrangement.subdivision": "arrangement.subdivision_s",
    "arrangement.labeling": "arrangement.labeling_s",
    "arrangement.build": "arrangement.reduce_s",
    "invariant.from_complex": "invariant.from_complex_s",
    "invariant.canonical_hash": "invariant.canonical_hash_s",
    "invariant.instance_key": "invariant.instance_key_s",
    "invariant.isomorphism": "invariant.isomorphism_s",
    "store.put": "store.put_s",
    "store.seal": "store.seal_s",
    "store.get": "store.get_s",
    "pipeline.compute_batch": "pipeline.compute_batch_s",
    "logic.refine": "logic.refine_s",
    "logic.universe": "logic.universe_s",
    "logic.evaluate": "logic.eval_s",
}

# Span name -> the metric counting its calls.
CALLS = {
    "arrangement.build": "arrangement.builds",
    "invariant.canonical_hash": "invariant.canonical_hash_calls",
    "invariant.instance_key": "invariant.instance_key_calls",
    "invariant.isomorphism": "invariant.isomorphism_calls",
    "store.get": "store.gets",
    "pipeline.compute_batch": "pipeline.compute_batch_calls",
}


def layer_metrics(tally: dict) -> dict[str, float]:
    """Every per-layer metric except ``gen.late_p99_ms`` and
    ``trace.overhead_frac``, from the span tally of one traced phase
    (see ``spans.Tracer.tallies``).  A layer the phase leaves idle
    reads 0."""

    def ratio(key):
        num, den = tally[key]
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for span_name, metric in SELF_TIME.items():
        out[metric] = tally["self_s"].get(span_name, 0.0)
    for span_name, metric in CALLS.items():
        out[metric] = tally["calls"].get(span_name, 0)
    out["store.put_bytes"] = tally["put_bytes"]
    out["pipeline.cache_hit_frac"] = ratio("cache_lookups")
    out["logic.universe_hit_frac"] = ratio("universe_lookups")
    out["service.self_s"] = tally["service_self_s"]
    out["service.coalesced_frac"] = ratio("coalesced")
    out["service.queued_mean"] = ratio("queued")
    return out
