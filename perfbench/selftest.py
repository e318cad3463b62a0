"""A fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced through the same code as
``run.py``, with every phase at its tiny size, and checks that
``BENCHMARK.json`` and the code agree, that every metric is emitted
with its unit, that end-to-end values are positive, and that no
operation failed or answered wrong.  Exits non-zero on the first
violation.
"""

from __future__ import annotations

import sys

import layers
import run


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def main() -> int:
    spec = run.load_spec()
    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads differ from run.WORKLOADS",
    )
    check(
        {m["name"] for m in spec["per_layer"]} == set(layers.MOVES),
        "per-layer metrics and layers.MOVES differ",
    )
    tiny = {phase: "tiny" for phase in run.PHASES}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            declared = spec["per_layer" if trace else "end_to_end"]
            values, report, runs = run.measure(
                workload, seed=1, seconds=2, trace=trace, sizes=tiny
            )
            out = run.result(values, runs, declared)
            where = f"{workload} trace={int(trace)}"
            check(out["correct"], f"{where}: wrong answers")
            check(out["failed"] == 0, f"{where}: {out['failed']} failed")
            check(out["attempted"] > 0, f"{where}: nothing attempted")
            for m in declared:
                got = out["metrics"][m["name"]]
                check(got["unit"] == m["unit"], f"{where}: unit of {m['name']}")
                check(
                    isinstance(got["value"], (int, float)),
                    f"{where}: {m['name']} is not a number",
                )
                if not trace:
                    check(got["value"] > 0, f"{where}: {m['name']} is not positive")
            check(report["seed"] == 1 and report["env"]["numpy"], f"{where}: report")
            print(f"ok  {where}: {len(declared)} metrics, {out['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
