"""Quick self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, untraced and traced, and asserts that
each run passes its output checks and emits exactly the metrics, with their
units, that BENCHMARK.json names. Takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] \
                    or result["attempted"] < 1:
                problems.append(f"{where}: output checks failed\n"
                                f"{proc.stdout}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            want = expected[trace]
            if units != want:
                wrong = sorted(n for n in units if want.get(n, units[n])
                               != units[n])
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json; missing "
                    f"{sorted(set(want) - set(units))}, extra "
                    f"{sorted(set(units) - set(want))}, wrong units {wrong}")
            print(f"{where}: {len(units)} metrics, "
                  f"{result['attempted']} checks", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
