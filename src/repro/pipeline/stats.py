"""Pipeline accounting: what one pipeline did, plus endpoint windows.

A :class:`PipelineStats` is owned by an
:class:`~repro.pipeline.engine.InvariantPipeline` and counts the
pipeline's own work — cache hits and misses, computed invariants,
retries and degradations — and, for a service, per-endpoint
request windows.  Stage time lives in spans (:mod:`repro.tracing`) and
process-wide counters in :mod:`repro.instrument`; neither is copied
here.  All mutation is lock-guarded so a service's executor threads and
its event loop can record concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque

__all__ = ["PipelineStats"]

#: Per-endpoint latency samples retained for percentile estimation.
#: Old samples roll off so a long-lived service reports recent tail
#: behaviour rather than its whole history.
LATENCY_WINDOW = 4096


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


class PipelineStats:
    """Aggregated counters and endpoint windows for one pipeline."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0
        self.instances_seen = 0
        self.invariants_computed = 0
        self.buckets = 0
        self.isomorphism_calls = 0
        # Resilience accounting (see repro.pipeline.resilience): how
        # often the batch machinery had to retry, give up, or degrade.
        self.retries = 0
        self.timeouts = 0
        self.pool_respawns = 0
        self.victim_requeues = 0
        self.tasks_failed = 0
        self.store_write_failures = 0
        self.degradations: list[tuple[str, str]] = []
        # Service-level rollups (see repro.service): per-endpoint
        # request tallies, a rolling latency window for percentile
        # estimation, and SLO attainment against a configured target.
        self._endpoints: dict[str, dict] = {}

    # -- recording ----------------------------------------------------------

    def count(self, counter: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + delta)

    def set_gauge(self, counter: str, value: int) -> None:
        """Overwrite an attribute counter under the lock (the engine
        mirrors cache gauges like ``store_hits`` here; a bare attribute
        assignment would race with concurrent recorders)."""
        with self._lock:
            setattr(self, counter, value)

    # -- service rollups ----------------------------------------------------

    def _endpoint(self, endpoint: str) -> dict:
        """Fetch-or-create one endpoint cell (caller holds the lock)."""
        cell = self._endpoints.get(endpoint)
        if cell is None:
            cell = self._endpoints[endpoint] = {
                "statuses": defaultdict(int),
                "latencies": deque(maxlen=LATENCY_WINDOW),
                "first_ts": None,
                "last_ts": None,
                "slo_target": None,
                "slo_met": 0,
            }
        return cell

    def set_slo_target(self, endpoint: str, seconds: float) -> None:
        """Configure the latency SLO for one endpoint.  A request
        *attains* the SLO when it completes ``ok`` within the target;
        sheds, timeouts, and errors all count against attainment."""
        with self._lock:
            self._endpoint(endpoint)["slo_target"] = seconds

    def record_request(
        self, endpoint: str, seconds: float, status: str = "ok"
    ) -> None:
        """Record one finished service request.

        ``status`` is one of ``ok`` / ``shed`` / ``timeout`` / ``error``.
        Only ``ok`` latencies enter the percentile window — a shed
        request returns fast by design and would flatter the tail.
        """
        with self._lock:
            cell = self._endpoint(endpoint)
            cell["statuses"][status] += 1
            now = time.monotonic()
            if cell["first_ts"] is None:
                cell["first_ts"] = now
            cell["last_ts"] = now
            if status == "ok":
                cell["latencies"].append(seconds)
                target = cell["slo_target"]
                if target is None or seconds <= target:
                    cell["slo_met"] += 1

    def record_degradation(self, frm: str, to: str) -> None:
        """A backend fell back (``processes`` → ``serial``) after
        exhausting its recovery budget."""
        with self._lock:
            self.degradations.append((frm, to))

    # -- reporting ----------------------------------------------------------

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "store_hits": self.store_hits,
                "instances_seen": self.instances_seen,
                "invariants_computed": self.invariants_computed,
                "buckets": self.buckets,
                "isomorphism_calls": self.isomorphism_calls,
                "resilience": {
                    "retries": self.retries,
                    "timeouts": self.timeouts,
                    "pool_respawns": self.pool_respawns,
                    "victim_requeues": self.victim_requeues,
                    "tasks_failed": self.tasks_failed,
                    "store_write_failures": self.store_write_failures,
                    "degradations": [list(d) for d in self.degradations],
                },
                "service": {
                    endpoint: self._endpoint_dict(endpoint)
                    for endpoint in sorted(self._endpoints)
                },
            }

    def _endpoint_dict(self, endpoint: str) -> dict:
        """One endpoint's rollup (caller holds the lock)."""
        cell = self._endpoints[endpoint]
        statuses = dict(cell["statuses"])
        total = sum(statuses.values())
        window = list(cell["latencies"])
        elapsed = (
            (cell["last_ts"] - cell["first_ts"])
            if cell["first_ts"] is not None
            else 0.0
        )
        target = cell["slo_target"]
        return {
            "requests": total,
            "statuses": statuses,
            "p50_ms": _percentile(window, 0.50) * 1e3,
            "p99_ms": _percentile(window, 0.99) * 1e3,
            "mean_ms": (sum(window) / len(window) * 1e3) if window else 0.0,
            "throughput_rps": (total / elapsed) if elapsed > 0 else 0.0,
            "slo_target_ms": (target * 1e3) if target is not None else None,
            "slo_attainment": (cell["slo_met"] / total) if total else 1.0,
        }

    def hit_rate(self) -> float:
        """Cache hit fraction over all lookups (0.0 when none)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> str:
        """A compact human-readable report (benchmarks print this)."""
        data = self.as_dict()
        lines = [
            f"instances={data['instances_seen']} "
            f"computed={data['invariants_computed']} "
            f"cache: {data['cache_hits']} hits / "
            f"{data['cache_misses']} misses "
            f"({self.hit_rate():.0%} hit rate, "
            f"{data['store_hits']} from store)",
            f"equivalence: {data['buckets']} buckets, "
            f"{data['isomorphism_calls']} isomorphism searches",
        ]
        res = data["resilience"]
        if any(v for v in res.values()):
            chain = "".join(
                f" {frm}→{to}" for frm, to in res["degradations"]
            )
            lines.append(
                f"resilience: {res['retries']} retries, "
                f"{res['timeouts']} timeouts, "
                f"{res['pool_respawns']} pool respawns, "
                f"{res['victim_requeues']} victim requeues, "
                f"{res['tasks_failed']} failed, "
                f"{res['store_write_failures']} store write failures"
                + (f"; degraded{chain}" if chain else "")
            )
        for endpoint, cell in data["service"].items():
            if not cell["requests"]:
                continue
            slo = (
                f", SLO {cell['slo_attainment']:.1%} "
                f"of {cell['slo_target_ms']:.0f}ms"
                if cell["slo_target_ms"] is not None
                else ""
            )
            lines.append(
                f"service {endpoint}: {cell['requests']} requests "
                f"({', '.join(f'{n} {s}' for s, n in sorted(cell['statuses'].items()))}), "
                f"p50 {cell['p50_ms']:.1f}ms / p99 {cell['p99_ms']:.1f}ms, "
                f"{cell['throughput_rps']:.0f} rps{slo}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PipelineStats({self.as_dict()!r})"
