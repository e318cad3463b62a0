"""Segment-store scaling — persisting a 100k-instance corpus.

The serving layers bottom out in persistent invariant storage; this
benchmark measures the segment store doing the north-star job: one
segment file set holding a grid-class corpus of 100k+ instances, with
index probes instead of directory scans.

Workload: translated copies of a handful of template topologies laid
out on a square grid (distinct geometry — distinct ``instance_key`` —
per instance; the invariant structure repeats, which is exactly the
grid/corpus shape the paper's figure datasets scale into).  Every
record embeds its geometry via the RAI1 columnar codec, so the stored
corpus is self-contained: keys, invariants, geometries, bboxes.

Measured (all written to ``BENCH_store.json``):

* bulk-ingest throughput (records/s) and amortized bytes/instance of
  the sealed file set (record payload + envelope + footer index);
* point-lookup latency, cold (fresh open, faulting mmap pages) and
  warm, p50/p99 over a seeded sample — a lookup is the full
  ``get()``: index probe, zero-copy decode, ``T_I`` materialization;
* window-query latency through the z-order index vs. the same answer
  by linear scan over every record envelope, plus the speedup;
* pipeline ``bulk_load`` throughput (cold invariant computation
  streaming into the store) on a smaller corpus;
* online scrub: full-pass verification throughput (records/s) and the
  steady-state overhead a paced scrub (one record verified per four
  reads) adds to warm lookups;
* mirrored failover: warm read latency through a two-way
  ``MirroredStore`` vs. the read that hits a rotted replica copy
  (checksum failover + read-repair in one call);
* compaction: bytes before/after rewriting live records once a slice
  of the corpus has been overwritten and another slice deleted.

Acceptance thresholds (enforced in full *and* smoke mode):

* amortized bytes/instance <= 1 KiB for the grid-class corpus;
* warm point-lookup p99 under 1 ms;
* window query >= 10x faster than the linear scan;
* paced scrub overhead under 10% of warm read throughput;
* every sampled stored invariant has the template's canonical hash
  bit-identically.

Each threshold can be overridden via ``BENCH_STORE_*`` environment
variables (see ``THRESHOLD_ENV``).  A set-but-malformed override is a
hard error, never a silent fallback.

``--chaos`` additionally runs the seeded kill-one-replica + bitflip
sweep over a mirrored store and asserts the self-healing headline:
zero wrong answers, scrub converges to clean, and the
``store.replica_*`` / ``scrub.*`` counters all moved.

Run as a pytest benchmark (``pytest benchmarks/bench_store.py``) or as
a script::

    PYTHONPATH=src python benchmarks/bench_store.py          # 100k corpus
    PYTHONPATH=src python benchmarks/bench_store.py --smoke  # CI smoke
    PYTHONPATH=src python benchmarks/bench_store.py --smoke --chaos

The full run writes ``BENCH_store.json`` at the repo root; a smoke run
writes its JSON to a temporary directory unless ``--out`` is given.
"""

import argparse
import json
import math
import os
import random
import resource
import shutil
import tempfile
import time
from pathlib import Path

from repro import (
    InvariantPipeline,
    Rect,
    SpatialInstance,
    canonical_hash,
    instance_key,
    invariant,
)
from repro.errors import StoreError
from repro.faults import Fault, FaultPlan, inject
from repro.instrument import counter_delta, counter_snapshot
from repro.store import MirroredStore, Scrubber, SegmentStore

FULL_N = 100_000
SMOKE_N = 5_000
PIPELINE_N_FULL = 1_000
PIPELINE_N_SMOKE = 150
LOOKUP_SAMPLE = 1_000
WINDOW_REPS = 20
SCAN_REPS = 3
SCRUB_OVERHEAD_REPS = 3
SCRUB_PACE_STRIDE = 8
MIRROR_N = 2_000
CHAOS_N_FULL = 10_000
CHAOS_N_SMOKE = 2_000
CHAOS_SEED = 20260808

BYTES_PER_INSTANCE_CEIL = 1024
WARM_P99_MS_CEIL = 1.0
WINDOW_SPEEDUP_FLOOR = 10.0
SCRUB_OVERHEAD_PCT_CEIL = 10.0

#: Environment overrides for the acceptance thresholds, mapping the
#: variable name to (payload key, default).  An override that is set
#: but does not parse as a positive finite number is a hard error —
#: a typo'd threshold must fail the run loudly, not skip the check.
THRESHOLD_ENV = {
    "BENCH_STORE_BYTES_CEIL": (
        "bytes_per_instance_ceil", BYTES_PER_INSTANCE_CEIL,
    ),
    "BENCH_STORE_WARM_P99_MS": ("warm_p99_ms_ceil", WARM_P99_MS_CEIL),
    "BENCH_STORE_WINDOW_SPEEDUP": (
        "window_speedup_floor", WINDOW_SPEEDUP_FLOOR,
    ),
    "BENCH_STORE_SCRUB_OVERHEAD_PCT": (
        "scrub_overhead_pct_ceil", SCRUB_OVERHEAD_PCT_CEIL,
    ),
}

#: Cell pitch of the corpus grid; template geometries fit in one cell.
PITCH = 8


def resolve_thresholds() -> dict:
    """The acceptance thresholds with environment overrides applied.

    Raises ``SystemExit`` with the offending variable named when an
    override is set but malformed (non-numeric, non-finite, or not
    positive) — the bench must never quietly run with defaults when
    the caller thought they had changed a gate.
    """
    out = {}
    for env_name, (key, default) in THRESHOLD_ENV.items():
        raw = os.environ.get(env_name)
        if raw is None:
            out[key] = default
            continue
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value <= 0:
            raise SystemExit(
                f"malformed threshold override {env_name}={raw!r}: "
                "expected a positive number"
            )
        out[key] = value
    return out


def _percentile(samples, q):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


# -- corpus -------------------------------------------------------------------


def _templates():
    """Template geometries at the origin, each under one cell pitch."""

    def one_rect():
        inst = SpatialInstance()
        inst.add("A", Rect(0, 0, 3, 3))
        return inst

    def overlapping():
        inst = SpatialInstance()
        inst.add("A", Rect(0, 0, 4, 4))
        inst.add("B", Rect(2, 2, 6, 6))
        return inst

    def disjoint():
        inst = SpatialInstance()
        inst.add("A", Rect(0, 0, 2, 2))
        inst.add("B", Rect(4, 0, 6, 2))
        return inst

    def nested():
        inst = SpatialInstance()
        inst.add("A", Rect(0, 0, 6, 6))
        inst.add("B", Rect(2, 2, 4, 4))
        return inst

    return [one_rect(), overlapping(), disjoint(), nested()]


def _translate(template: SpatialInstance, dx: int, dy: int):
    """A rect-only translated copy plus its float bbox — cheap enough
    to build 100k times (no polygonalization, no exact bbox pass)."""
    inst = SpatialInstance()
    xmin = ymin = math.inf
    xmax = ymax = -math.inf
    for name in sorted(template.names()):
        r = template.ext(name)
        inst.add(
            name,
            Rect(r.x1 + dx, r.y1 + dy, r.x2 + dx, r.y2 + dy),
        )
        xmin = min(xmin, float(r.x1) + dx)
        ymin = min(ymin, float(r.y1) + dy)
        xmax = max(xmax, float(r.x2) + dx)
        ymax = max(ymax, float(r.y2) + dy)
    return inst, (xmin, ymin, xmax, ymax)


def build_corpus_keys(store: SegmentStore, n: int) -> tuple[list, dict]:
    """Ingest *n* grid-laid instances; returns (keys, template hashes).

    Invariants are computed once per template — a translated copy has
    the identical ``T_I`` (translation is a homeomorphism of the
    plane), so recomputing 100k of them would measure the pipeline,
    not the store.  ``instance_key`` is still derived per instance
    from the real geometry.
    """
    templates = _templates()
    tinvs = [invariant(t) for t in templates]
    thashes = [canonical_hash(t) for t in tinvs]
    side = int(math.ceil(math.sqrt(n)))
    keys = []
    expected = {}
    for i in range(n):
        template_i = i % len(templates)
        dx = (i % side) * PITCH
        dy = (i // side) * PITCH
        inst, bbox = _translate(templates[template_i], dx, dy)
        key = instance_key(inst)
        store.put(
            key,
            tinvs[template_i],
            instance=inst,
            bbox=bbox,
            canonical_hash=thashes[template_i],
        )
        keys.append(key)
        expected[key] = thashes[template_i]
    return keys, expected


# -- measurements -------------------------------------------------------------


def run(n: int, pipeline_n: int, root: Path) -> dict:
    rng = random.Random(20260808)
    row: dict = {"n": n}

    # Ingest into one segment file set.
    with SegmentStore(root / "corpus") as store:
        t0 = time.perf_counter()
        keys, expected = build_corpus_keys(store, n)
        ingest_s = time.perf_counter() - t0
    # close sealed: footer indexes persisted
    nbytes = sum(
        p.stat().st_size for p in (root / "corpus").glob("seg-*.seg")
    )
    row["ingest_seconds"] = ingest_s
    row["ingest_per_sec"] = n / ingest_s if ingest_s > 0 else 0.0
    row["file_bytes"] = nbytes
    row["bytes_per_instance"] = nbytes / n

    # Point lookups: cold (fresh open) then warm, full get() both.
    sample = rng.sample(keys, min(LOOKUP_SAMPLE, len(keys)))
    with SegmentStore(root / "corpus") as store:
        cold = []
        for key in sample:
            t0 = time.perf_counter()
            value = store.get(key)
            cold.append(time.perf_counter() - t0)
            assert value is not None
        warm = []
        hash_checks = 0
        for key in sample:
            t0 = time.perf_counter()
            value = store.get(key)
            warm.append(time.perf_counter() - t0)
            assert canonical_hash(value) == expected[key], (
                "stored invariant lost its canonical hash"
            )
            hash_checks += 1
        row["cold_lookup_p50_ms"] = _percentile(cold, 0.50) * 1e3
        row["cold_lookup_p99_ms"] = _percentile(cold, 0.99) * 1e3
        row["warm_lookup_p50_ms"] = _percentile(warm, 0.50) * 1e3
        row["warm_lookup_p99_ms"] = _percentile(warm, 0.99) * 1e3
        row["hash_checks"] = hash_checks

        # Window queries: z-order index vs linear envelope scan.
        side = int(math.ceil(math.sqrt(n))) * PITCH
        span = max(PITCH * 4, side // 20)  # ~5% of the world per axis
        windows = []
        for _ in range(WINDOW_REPS):
            wx = rng.uniform(0, side - span)
            wy = rng.uniform(0, side - span)
            windows.append((wx, wy, wx + span, wy + span))
        index_times, results = [], []
        for w in windows:
            t0 = time.perf_counter()
            results.append(store.window_query(*w))
            index_times.append(time.perf_counter() - t0)
        scan_times = []
        for w, expected_keys in list(zip(windows, results))[:SCAN_REPS]:
            t0 = time.perf_counter()
            got = store.window_query_scan(*w)
            scan_times.append(time.perf_counter() - t0)
            assert got == expected_keys, "index and scan answers diverged"
        index_mean = sum(index_times) / len(index_times)
        scan_mean = sum(scan_times) / len(scan_times)
        row["window_hits_mean"] = sum(len(r) for r in results) / len(results)
        row["window_index_ms"] = index_mean * 1e3
        row["window_scan_ms"] = scan_mean * 1e3
        row["window_speedup"] = (
            scan_mean / index_mean if index_mean > 0 else math.inf
        )

        # Online scrub, two numbers.  Full-speed: how fast one pass
        # verifies every record sha.  Paced: the steady-state cost a
        # background scrub adds to the read path, measured by
        # interleaving one verified record per four warm lookups
        # (batched every SCRUB_PACE_STRIDE reads) — the deterministic
        # rate-limit a production deployment would run.  The scrub
        # walks sealed segments, and a reopened store re-adopts its
        # newest segment as active, so this runs against its own copy
        # of the corpus rolled into ~16 sealed segments.
        seg_bytes = max(1 << 14, (n * 640) // 16)
        with SegmentStore(
            root / "scrubbed", max_segment_bytes=seg_bytes
        ) as scrub_store:
            build_corpus_keys(scrub_store, n)
        with SegmentStore(
            root / "scrubbed", max_segment_bytes=seg_bytes
        ) as scrub_store:
            assert scrub_store.sealed_segments(), "corpus never sealed"
            scrubber = Scrubber(scrub_store, records_per_step=8192)
            t0 = time.perf_counter()
            scrub_report = scrubber.run()
            scrub_s = time.perf_counter() - t0
            assert scrub_report.clean, "clean corpus scrubbed dirty"
            assert scrub_report.records_verified > 0, "scrub walked nothing"
            row["scrub_records_verified"] = scrub_report.records_verified
            row["scrub_seconds"] = scrub_s
            row["scrub_records_per_sec"] = (
                scrub_report.records_verified / scrub_s
                if scrub_s > 0
                else 0.0
            )

            def _sweep(paced=None):
                t0 = time.perf_counter()
                for i, key in enumerate(sample):
                    if paced is not None and i % SCRUB_PACE_STRIDE == 0:
                        paced.step()
                    if scrub_store.get(key) is None:  # pragma: no cover
                        raise AssertionError("lookup missed during sweep")
                return time.perf_counter() - t0

            t_plain = min(_sweep() for _ in range(SCRUB_OVERHEAD_REPS))
            # One verified record per four reads on average, batched
            # to amortize the per-step cursor cost: a full pass every
            # four read sweeps of the store.
            paced = Scrubber(
                scrub_store, records_per_step=SCRUB_PACE_STRIDE // 4
            )
            t_paced = min(_sweep(paced) for _ in range(SCRUB_OVERHEAD_REPS))
            row["scrub_overhead_pct"] = max(
                0.0, (t_paced - t_plain) / t_plain * 100.0
            )

        # Pipeline bulk load: cold invariant computation streaming in.
        corpus = []
        for i in range(pipeline_n):
            inst = SpatialInstance()
            inst.add("A", Rect(0, 0, 3 + (i % 5), 3))
            inst.add("B", Rect(2, 1, 5 + (i % 7), 4))
            corpus.append(
                _translate(inst, (i % 40) * PITCH, (i // 40) * PITCH)[0]
            )
        with SegmentStore(root / "bulk") as bulk_store, \
                InvariantPipeline() as pipeline:
            t0 = time.perf_counter()
            loaded = bulk_store.bulk_load(corpus, pipeline=pipeline)
            bulk_s = time.perf_counter() - t0
        row["bulk_load_n"] = loaded
        row["bulk_load_seconds"] = bulk_s
        row["bulk_load_per_sec"] = loaded / bulk_s if bulk_s > 0 else 0.0

        # Mirrored failover: a healthy two-way read vs. the read that
        # finds the first replica's copy rotted and must checksum-fail
        # over to the peer and read-repair, all in one call.
        mirror_n = min(n, MIRROR_N)
        with MirroredStore([root / "m0", root / "m1"]) as mirror:
            mkeys, mexpected = build_corpus_keys(mirror, mirror_n)
            msample = rng.sample(mkeys, min(200, len(mkeys)))
            healthy = []
            for key in msample:
                t0 = time.perf_counter()
                value = mirror.get(key)
                healthy.append(time.perf_counter() - t0)
                assert canonical_hash(value) == mexpected[key]
            victim = msample[0]
            first = mirror.replicas[0]
            seg, entry = first._find(bytes.fromhex(victim))
            seg.corrupt_payload_byte(entry)
            t0 = time.perf_counter()
            value = mirror.get(victim)
            failover_s = time.perf_counter() - t0
            assert canonical_hash(value) == mexpected[victim], (
                "failover read returned a wrong answer"
            )
            # The read repaired the rotted copy in passing.
            t0 = time.perf_counter()
            assert canonical_hash(first.get(victim)) == mexpected[victim]
            repaired_s = time.perf_counter() - t0
        row["mirror_n"] = mirror_n
        row["mirror_warm_p50_ms"] = _percentile(healthy, 0.50) * 1e3
        row["failover_read_ms"] = failover_s * 1e3
        row["post_repair_read_ms"] = repaired_s * 1e3

        # Compaction after churn: overwrite 10%, delete 5%.
        churn = rng.sample(keys, max(1, len(keys) // 10))
        templates = _templates()
        tinv = invariant(templates[0])
        thash = canonical_hash(tinv)
        for key in churn:
            inst = store.get_instance(key)
            store.put(key, tinv, instance=inst, canonical_hash=thash)
        deleted = rng.sample(keys, max(1, len(keys) // 20))
        for key in deleted:
            store.delete(key)
        stats = store.compact()
        row["compaction_before_bytes"] = stats["before"]
        row["compaction_after_bytes"] = stats["after"]
        row["compaction_ratio"] = (
            stats["after"] / stats["before"] if stats["before"] else 1.0
        )
        row["live_after_compaction"] = stats["live"]
        assert len(store) == n - len(set(deleted)), "compaction lost records"
        for key in deleted[:20]:
            assert store.get(key) is None, (
                "tombstone resurrected by compaction"
            )

    row["peak_rss_kib"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss
    return row


# -- chaos --------------------------------------------------------------------


def chaos_run(n: int, root: Path, seed: int = CHAOS_SEED) -> dict:
    """Seeded kill-one-replica + bitflip sweep over a mirrored store.

    Drives the headline self-healing property end to end and asserts
    it: every read under fire is bit-identical to the clean corpus or
    a structured error (here, with at most one rotted replica per key,
    there are no errors at all); a disk-full append downs one replica
    without losing the write; scrub converges to clean; and the
    ``store.replica_*`` / ``scrub.*`` counters all actually moved.
    """
    rng = random.Random(seed)
    row: dict = {"chaos_n": n, "chaos_seed": seed}
    base = counter_snapshot()
    with MirroredStore(
        [root / "c0", root / "c1"], max_segment_bytes=1 << 14
    ) as mirror:
        keys, expected = build_corpus_keys(mirror, n)
        assert mirror.replicas[0].sealed_segments(), (
            "chaos corpus too small to seal a segment"
        )

        # Bitflip sweep: seeded victims each rot on one replica only
        # (times=1 — the first replica that reads the key draws the
        # flip; the failover read on the peer does not).
        victims = rng.sample(keys, max(8, n // 50))
        vset = set(victims)
        plan = FaultPlan(
            *[Fault("store_read_bitflip", key=k, times=1) for k in victims]
        )
        wrong = structured = 0
        failover = []
        with inject(plan):
            for key in keys:
                t0 = time.perf_counter()
                try:
                    value = mirror.get(key)
                except StoreError:
                    structured += 1
                    continue
                dt = time.perf_counter() - t0
                if key in vset:
                    failover.append(dt)
                if value is None or canonical_hash(value) != expected[key]:
                    wrong += 1
        assert wrong == 0, "a chaos read returned a wrong answer"
        assert structured == 0, (
            "one rotted replica per key must never surface an error"
        )
        row["chaos_flips"] = len(victims)
        row["chaos_wrong_answers"] = wrong
        row["chaos_failover_p50_ms"] = _percentile(failover, 0.50) * 1e3

        # Kill one replica: a disk-full append marks it down.  The put
        # still succeeds on the peer, reads continue (degraded), and
        # ``repair_replica`` copies the diff and revives it.
        kill_key = rng.choice(keys)
        inst = mirror.get_instance(kill_key)
        tinv = mirror.get(kill_key)
        with inject(
            FaultPlan(Fault("store_disk_full", key=kill_key, times=1))
        ):
            mirror.put(kill_key, tinv, instance=inst)
        down = [
            i for i, s in enumerate(mirror.replica_status()) if not s["up"]
        ]
        assert len(down) == 1, "disk-full should down exactly one replica"
        # New writes while degraded land only on the up replica — the
        # diff ``repair_replica`` must copy back.
        templates = _templates()
        for j, template in enumerate(templates):
            ninst, nbbox = _translate(template, (n + j) * PITCH, n * PITCH)
            nkey = instance_key(ninst)
            tnew = invariant(template)
            mirror.put(nkey, tnew, instance=ninst, bbox=nbbox)
            keys.append(nkey)
            expected[nkey] = canonical_hash(tnew)
        for key in rng.sample(keys, min(200, len(keys))):
            assert canonical_hash(mirror.get(key)) == expected[key], (
                "a degraded read returned a wrong answer"
            )
        copied = mirror.repair_replica(down[0])
        assert copied >= len(templates), "repair missed the degraded writes"
        assert all(s["up"] for s in mirror.replica_status())
        row["chaos_replica_killed"] = down[0]
        row["chaos_repair_copied"] = copied

        # The rotted records are still on disk (shadowed by their
        # read-repairs): scrub must find, quarantine, and heal them.
        report = Scrubber(mirror, records_per_step=4096).run_until_clean()
        assert report.clean, "scrub did not converge to clean"
        row["chaos_scrub_records"] = report.records_verified

        # Healed: every key answers bit-identically, and each replica
        # answers a sample on its own.
        for key in keys:
            assert canonical_hash(mirror.get(key)) == expected[key]
        for rep in mirror.replicas:
            for key in rng.sample(keys, min(300, len(keys))):
                got = rep.get(key)
                assert got is not None
                assert canonical_hash(got) == expected[key]

    delta = counter_delta(base, counter_snapshot())
    for name in (
        "store.replica_read_errors",
        "store.replica_failovers",
        "store.replica_repairs",
        "store.replica_marked_down",
        "store.degraded_reads",
        "scrub.records_verified",
        "scrub.defects_found",
        "scrub.segments_quarantined",
        "scrub.keys_repaired",
    ):
        assert delta.get(name, 0) > 0, f"{name} never moved in the chaos run"
    row["chaos_counters"] = {
        k: v
        for k, v in sorted(delta.items())
        if k.startswith(
            ("store.replica_", "store.degraded_reads", "scrub.", "fault.store_")
        )
    }
    return row


def check_thresholds(row: dict, thresholds: dict | None = None) -> None:
    t = thresholds if thresholds is not None else resolve_thresholds()
    assert row["bytes_per_instance"] <= t["bytes_per_instance_ceil"], (
        f"{row['bytes_per_instance']:.0f} B/instance exceeds the "
        f"{t['bytes_per_instance_ceil']:.0f} B amortized ceiling"
    )
    assert row["warm_lookup_p99_ms"] < t["warm_p99_ms_ceil"], (
        f"warm lookup p99 {row['warm_lookup_p99_ms']:.3f} ms breaches "
        f"the {t['warm_p99_ms_ceil']} ms SLO"
    )
    assert row["window_speedup"] >= t["window_speedup_floor"], (
        f"window query only {row['window_speedup']:.1f}x faster than "
        f"the linear scan (floor {t['window_speedup_floor']}x)"
    )
    assert row["scrub_overhead_pct"] < t["scrub_overhead_pct_ceil"], (
        f"paced scrub costs {row['scrub_overhead_pct']:.1f}% of warm "
        f"read throughput (ceiling {t['scrub_overhead_pct_ceil']}%)"
    )
    assert row["hash_checks"] > 0


# -- pytest entry points ------------------------------------------------------


def test_store_smoke(tmp_path):
    """A miniature full pass with every threshold assert on."""
    row = run(1_500, 60, tmp_path)
    check_thresholds(row)
    assert row["peak_rss_kib"] > 0
    assert row["scrub_records_verified"] > 0
    assert row["failover_read_ms"] > 0


def test_chaos_smoke(tmp_path):
    """The seeded self-healing sweep at pytest scale."""
    row = chaos_run(700, tmp_path, seed=7)
    assert row["chaos_wrong_answers"] == 0
    assert row["chaos_repair_copied"] >= 1


def test_malformed_threshold_override_fails_loudly(monkeypatch):
    import pytest

    monkeypatch.setenv("BENCH_STORE_WARM_P99_MS", "not-a-number")
    with pytest.raises(SystemExit, match="BENCH_STORE_WARM_P99_MS"):
        resolve_thresholds()
    for bad in ("", "nan", "inf", "-1", "0"):
        monkeypatch.setenv("BENCH_STORE_WARM_P99_MS", bad)
        with pytest.raises(SystemExit):
            resolve_thresholds()


def test_threshold_override_applies(monkeypatch):
    monkeypatch.setenv("BENCH_STORE_WARM_P99_MS", "2.5")
    monkeypatch.setenv("BENCH_STORE_SCRUB_OVERHEAD_PCT", "15")
    t = resolve_thresholds()
    assert t["warm_p99_ms_ceil"] == 2.5
    assert t["scrub_overhead_pct_ceil"] == 15.0
    assert t["bytes_per_instance_ceil"] == BYTES_PER_INSTANCE_CEIL


# -- CLI ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"{SMOKE_N}-instance corpus with full thresholds "
        "(CI acceptance check)",
    )
    parser.add_argument(
        "-n",
        type=int,
        default=None,
        help="override the corpus size",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="also run the seeded kill-one-replica + bitflip sweep "
        "(asserts zero wrong answers and scrub convergence)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=(
            "where the measurements are written (default: "
            "BENCH_store.json at the repo root; a temporary directory "
            "under --smoke)"
        ),
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (
            Path(tempfile.mkdtemp(prefix="bench-store-"))
            if args.smoke
            else Path(__file__).resolve().parent.parent
        ) / "BENCH_store.json"

    # Resolve (and validate) the thresholds before the expensive run:
    # a malformed override must fail in the first second, not the
    # last.
    thresholds = resolve_thresholds()

    n = args.n or (SMOKE_N if args.smoke else FULL_N)
    pipeline_n = PIPELINE_N_SMOKE if args.smoke else PIPELINE_N_FULL
    root = Path(tempfile.mkdtemp(prefix="bench_store_"))
    chaos_row = None
    try:
        row = run(n, pipeline_n, root)
        if args.chaos:
            chaos_row = chaos_run(
                CHAOS_N_SMOKE if args.smoke else CHAOS_N_FULL,
                root / "chaos",
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    check_thresholds(row, thresholds)

    payload = {
        "benchmark": "segment_store",
        "workload": "translated grid-class templates + pipeline bulk_load",
        "mode": "smoke" if args.smoke else "full",
        "thresholds": thresholds,
        "row": row,
    }
    if chaos_row is not None:
        payload["chaos"] = chaos_row
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"n={row['n']}: {row['bytes_per_instance']:.0f} B/instance, "
        f"ingest {row['ingest_per_sec']:.0f}/s, "
        f"warm p99 {row['warm_lookup_p99_ms']:.3f} ms, "
        f"window {row['window_speedup']:.0f}x vs scan, "
        f"scrub {row['scrub_records_per_sec']:.0f} rec/s "
        f"(+{row['scrub_overhead_pct']:.1f}% paced), "
        f"failover {row['failover_read_ms']:.3f} ms, "
        f"bulk {row['bulk_load_per_sec']:.0f}/s, "
        f"compaction {row['compaction_ratio']:.2f} -> {args.out}"
    )
    if chaos_row is not None:
        print(
            f"chaos n={chaos_row['chaos_n']}: "
            f"{chaos_row['chaos_flips']} flips, "
            f"{chaos_row['chaos_wrong_answers']} wrong, "
            f"failover p50 {chaos_row['chaos_failover_p50_ms']:.3f} ms, "
            f"repair copied {chaos_row['chaos_repair_copied']}, "
            f"scrub verified {chaos_row['chaos_scrub_records']} records"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
