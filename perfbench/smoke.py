"""Smoke test of the benchmark at tiny scale.

    python3 perfbench/smoke.py

Run from the root of the source tree.  For every workload, including
``bigfit``, which BENCHMARK.json does not list, it checks that an untraced
run emits exactly the end-to-end metrics of BENCHMARK.json and a traced
run exactly its per-layer metrics, each with its unit; that two traced
runs with the same seed give identical counts; and that the benchmark
fails without printing a result when the package is absent.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# metrics that count work and must repeat exactly for a given seed
COUNTS = re.compile(r"_per_item$|evals_per_fit|map_calls$|task_bytes$|iterations_mean"
                    r"|converged_frac|\.n$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke test failed: {message}")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, expected: dict[str, str]) -> dict:
    done = run(workload, trace)
    check(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n"
                                f"{done.stderr}")
    out = json.loads(done.stdout.splitlines()[-1])
    check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(out)}")
    check(out["correct"] is True and out["attempted"] >= 1, f"{workload}: {out}")
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    check(got == expected, f"{workload} trace={trace}: metrics or units differ: "
                           f"{sorted(set(got) ^ set(expected))}")
    for name, m in out["metrics"].items():
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{workload}: {name} = {m['value']}")
    return out["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    listed = {w["name"] for w in spec["workloads"]}
    check(listed <= set(WORKLOADS), f"unknown workloads {sorted(listed - set(WORKLOADS))}")
    for workload in WORKLOADS:
        result(workload, 0, end_to_end)
        first = result(workload, 1, per_layer)
        second = result(workload, 1, per_layer)
        for name in filter(COUNTS.search, per_layer):
            check(first[name]["value"] == second[name]["value"],
                  f"{workload}: count {name} changed between runs: "
                  f"{first[name]['value']} != {second[name]['value']}")
        print(f"ok {workload}")

    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run("structural", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    check(done.returncode != 0 and not done.stdout.strip(),
          f"run without the package exited {done.returncode} printing {done.stdout!r}")
    print("ok fails cleanly without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
