"""The repo benchmark: ``ingest`` and ``serve`` workloads through the
public ``repro`` API, with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 40 --trace 0

Run it from the repository root; nothing needs building.  Each phase
runs in a fresh interpreter with its own scratch directory.  With
``--trace 0`` a run executes all three phases untraced and time-boxed:
the other two at light size for their ``LIGHT_SHARE`` of ``--seconds``
and the named workload's phase at full size in the rest, so every run
reports every end-to-end metric of ``BENCHMARK.json``.  The phases set
up one after another and then take turns in ``SEGMENTS`` rounds.  With
``--trace 1`` only the named workload's phase runs, on a fixed amount
of work, twice: untraced and then traced.  The run reports the
per-layer metrics of the traced copy and the tracing overhead.

Output: one line per metric (name, value, unit), a JSON report line
(seed, environment, per-phase input properties and operation counts),
and last the JSON result with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``perfbench/README.md`` describes the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib import metadata
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PHASES = ("ingest", "serve", "query")
# There is no query workload: one round of the full-size query phase
# (refinement 1) takes about 12 s, and single passes that long vary by
# up to 1.7x on a shared machine, so its metrics could not be held
# within their bounds.  The light query phase runs in every workload.
WORKLOADS = ("ingest", "serve")
# Share of --seconds for a phase at light size; the named workload's
# phase gets the rest.  Serve needs the most open-loop samples: its
# fresh-write median rests on 5% of them.  Ingest and query report
# medians over rounds of short units, which hold steady with fewer.
LIGHT_SHARE = {"ingest": 0.12, "serve": 0.65, "query": 0.05}
# The phases take turns in this many segments each, so that every
# phase samples the whole run: the CPU speed a shared machine gives a
# process shifts by up to 2x in spells of several seconds, and a phase
# run in one piece can fall entirely in a slow one.
SEGMENTS = 5
# A run is stopped after this many seconds.
RUN_LIMIT_S = 170.0
# Phases run with hash randomization off.  The order of set and dict
# iteration changes how much work the query engine does (by up to 1.8x
# between hash seeds on the light query phase), which would otherwise
# swamp the difference between two commits.
HASH_SEED = "0"


class BenchmarkError(Exception):
    """A phase failed or the output is out of step with BENCHMARK.json."""


class Child:
    """One phase interpreter (``phases.py``), driven over a pipe."""

    def __init__(self, spec: dict):
        self.phase = spec["phase"]
        Path(spec["tmp"]).mkdir(parents=True)
        self.stderr = open(Path(spec["tmp"]) / "stderr.txt", "w+")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "phases.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
        )

    def expect(self, word: str) -> str:
        line = self.proc.stdout.readline().strip()
        if word and line != word or not line:
            self.stderr.seek(0)
            sys.stderr.write(self.stderr.read())
            raise BenchmarkError(
                f"the {self.phase} phase stopped (exit status {self.proc.poll()}; "
                f"a run is killed after {RUN_LIMIT_S:.0f} s)"
            )
        return line

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def segment(self, seconds: float) -> None:
        self.send(f"go {seconds:.3f}")
        self.expect("done")

    def finish(self) -> dict:
        self.send("end")
        result = json.loads(self.expect(""))
        self.proc.wait()
        return result

    def stop(self) -> None:
        """Kill the interpreter if it still runs, and wait for it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.stderr.close()


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: dict[str, str] | None = None,
) -> tuple[dict, dict, list[dict]]:
    """Run the phases.  Returns the metric values, the report and every
    phase result.  *sizes* overrides the phase input sizes (the
    self-test runs everything ``tiny``)."""
    if sizes is None:
        sizes = {p: "full" if p == workload else "light" for p in PHASES}
    shares = {p: LIGHT_SHARE[p] for p in PHASES if p != workload}
    shares[workload] = 1 - sum(shares.values())
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    children: list[Child] = []
    # A phase that hangs is killed; its pipe then closes and the run fails.
    watchdog = threading.Timer(RUN_LIMIT_S, lambda: [c.proc.kill() for c in children])
    watchdog.start()

    def start(phase: str, traced: bool) -> Child:
        child = Child(
            {
                "phase": phase,
                "size": sizes[phase],
                "seed": seed,
                "seconds": seconds * shares[phase],
                "mode": "fixed" if trace else "timed",
                "trace": traced,
                "tmp": str(scratch / f"{phase}-{int(traced)}"),
            }
        )
        children.append(child)
        child.expect("ready")
        return child

    runs: dict[str, list[dict]] = {}
    try:
        if trace:
            # The workload's own phase on a fixed amount of work, untraced
            # and then traced.
            for traced in (False, True):
                child = start(workload, traced)
                child.segment(0)
                runs.setdefault(workload, []).append(child.finish())
        else:
            # Set-ups run one after another, then the phases take turns.
            phases = {phase: start(phase, False) for phase in PHASES}
            for _ in range(SEGMENTS):
                for phase, child in phases.items():
                    child.segment(seconds * shares[phase] / SEGMENTS)
            runs = {phase: [child.finish()] for phase, child in phases.items()}
    finally:
        watchdog.cancel()
        for child in children:
            child.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    if trace:
        untraced, traced = runs[workload]
        values = layers.layer_metrics(traced["layers"])
        # Only serve has an open-loop generator; elsewhere it is never late.
        values["gen.late_p99_ms"] = traced["properties"].get("gen.late_p99_ms", 0.0)
        values["trace.overhead_frac"] = traced["work_s"] / untraced["work_s"] - 1
    else:
        # Set-up is importing the library (the median over the three
        # interpreters) plus the median set-up of the workload's phase.
        primary = runs[workload][0]
        imports = [phase_runs[0]["import_s"] for phase_runs in runs.values()]
        values = {
            "setup_s": statistics.median(imports) + primary["setup_s"],
            "peak_rss_mib": primary["peak_rss_mib"],
        }
        for phase_runs in runs.values():
            values.update(phase_runs[0]["metrics"])
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "platform": platform.platform(),
        },
        "phases": {
            phase: [
                {
                    key: r[key]
                    for key in (
                        "size",
                        "traced",
                        "attempted",
                        "failed",
                        "wrong",
                        "import_s",
                        "setup_s",
                        "ref_s",
                        "work_s",
                        "properties",
                    )
                }
                for r in phase_runs
            ]
            for phase, phase_runs in runs.items()
        },
    }
    return values, report, [r for phase_runs in runs.values() for r in phase_runs]


def result(values: dict, runs: list[dict], declared: list[dict]) -> dict:
    """The result object: every declared metric with its unit, and the
    operation counts of every phase run."""
    names = {m["name"] for m in declared}
    missing = sorted(names - set(values))
    undeclared = sorted(set(values) - names)
    if missing or undeclared:
        raise BenchmarkError(
            f"metrics out of step with BENCHMARK.json: missing {missing}, "
            f"undeclared {undeclared}"
        )
    return {
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the phase interpreters are stopped and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print(
            f"perfbench: {ROOT} is not a repro checkout "
            "(needs src/repro and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    declared = load_spec()["per_layer" if args.trace else "end_to_end"]
    try:
        values, report, runs = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        out = result(values, runs, declared)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in out["metrics"].items():
        line = f"{name:32s} {metric['value']:>14.6g} {metric['unit']}"
        if args.trace:
            line += f"  -> {layers.MOVES[name]}"
        print(line)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
