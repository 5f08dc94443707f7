"""Print every benchmark metric of every workload, by name and with its unit.

    python3 perfbench/report.py

For each workload in BENCHMARK.json this runs run.py twice in fresh
interpreters, untraced and traced, with seed 1 and BENCHMARK.json's
run_seconds, and prints the end-to-end metrics, the per-layer metrics and the
tracing overhead: traced pass_s minus untraced pass_s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


SEED = 1


def run_once(workload: str, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    for workload in (w["name"] for w in bench["workloads"]):
        plain = run_once(workload, seconds, 0)
        traced = run_once(workload, seconds, 1)
        print(f"== {workload}  seed {SEED}  correct {plain['correct'] and traced['correct']}"
              f"  attempted {plain['attempted']}+{traced['attempted']}"
              f"  failed {plain['failed']}+{traced['failed']}")
        overhead = traced["metrics"]["trace.pass_s"]["value"] - plain["metrics"]["pass_s"]["value"]
        rows = list(plain["metrics"].items()) + list(traced["metrics"].items())
        rows.append(("trace.overhead_s", {"value": overhead, "unit": "s"}))
        for name, m in rows:
            print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
