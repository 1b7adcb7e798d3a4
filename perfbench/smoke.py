#!/usr/bin/env python3
"""Short smoke run of the standby benchmark.

    python3 perfbench/smoke.py

Run from the repository root. Runs every workload for one second untraced and
one workload traced, and checks that every metric BENCHMARK.json declares
prints with its unit, that the result oracle ran and passed, and that no
operation failed. Exits non-zero on the first problem.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s trace=%d exited with %d" %
                         (workload, trace, proc.returncode))
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def check(workload, trace, declared):
    lines = run(workload, trace)
    result = lines[-1]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append("metric %s missing or without unit %s" %
                            (metric["name"], metric["unit"]))
    oracle = next((l["oracle"] for l in lines if "oracle" in l), None)
    if oracle is None or oracle["checks"] == 0:
        problems.append("oracle did not run")
    elif oracle["mismatches"] != 0 or not result["correct"]:
        problems.append("oracle mismatches: %s" % oracle)
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append("attempted %s failed %s" %
                        (result["attempted"], result["failed"]))
    if trace and not any("tracing_overhead" in l for l in lines):
        problems.append("no tracing overhead line")
    status = "ok" if not problems else "FAIL: " + "; ".join(problems)
    print("%-13s trace=%d %s" % (workload, trace, status), flush=True)
    return not problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in spec["workloads"]:
        ok &= check(workload["name"], 0, spec["end_to_end"])
    ok &= check(spec["workloads"][0]["name"], 1, spec["per_layer"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
