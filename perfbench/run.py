#!/usr/bin/env python3
"""Standby benchmark runner.

    python3 perfbench/run.py --workload <scan_quiet|htap_churn|redo_catchup>
                             --seed N --seconds N --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, measures set-up several times in fresh processes, runs
the workload, checks its results, and prints one JSON object as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they are
the per-layer metrics of a traced run, and the lines before the result report
the tracing overhead against an untraced run of the same seed.
"""

import argparse
import gzip
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "standby_bench"

WORKLOADS = ("scan_quiet", "htap_churn", "redo_catchup")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "txn_p50_us": "us",
    "visible_p50_ms": "ms",
    "scan_p50_ms": "ms",
    "group_p50_ms": "ms",
    "join_p50_ms": "ms",
    "apply_rows_per_s": "rows/s",
}

PER_LAYER = {
    "txn.update_us": "us",
    "txn.commit_us": "us",
    "redo.records_per_txn": "records/txn",
    "gen.rows_per_s": "rows/s",
    "gen.late_share": "share",
    "net.bytes_per_row": "B/row",
    "net.ship_done_share": "share",
    "net.visible_ship_ms": "ms",
    "adg.dispatch_done_share": "share",
    "adg.dispatched_records_per_s": "records/s",
    "adg.worker_skew": "ratio",
    "adg.visible_dispatch_ms": "ms",
    "adg.visible_barrier_ms": "ms",
    "adg.visible_publish_ms": "ms",
    "adg.advances_per_s": "1/s",
    "adg.quiesce_us_per_advance": "us",
    "imadg.flushed_records_per_s": "records/s",
    "imadg.cooperative_share": "share",
    "imadg.mined_records_per_row": "records/row",
    "imadg.commit_table_steps_per_insert": "steps/insert",
    "imadg.commit_table_contention_per_ktxn": "count/ktxn",
    "imadg.journal_contention_per_ktxn": "count/ktxn",
    "imcs.scan_ms": "ms",
    "imcs.invalid_rows_per_query": "rows/query",
    "imcs.rowstore_row_share": "share",
    "imcs.tasks_per_query": "tasks/query",
    "imcs.repopulations_per_s": "1/s",
    "imcs.rows_populated_per_s": "rows/s",
    "imcs.row_invalidations_per_s": "rows/s",
    "imcs.bytes_per_row": "B/row",
    "db.exec_ms": "ms",
    "db.rowpath_plan_share": "share",
    "proc.query_cpu_ms": "ms",
    "proc.query_minflt": "count",
    "proc.cpu_cores": "cores",
    "host.steal_share": "share",
}

# Set-up runs in this many extra fresh processes before the workload process;
# setup_s is the median over all of them.
SETUP_CHILDREN = 2
DEADLINE_S = 170  # Whole run, build excluded.


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "standby_bench"]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.exists()


def source_stamp():
    """Git revision when available, and a digest of the program sources."""
    rev = "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def run_binary(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run deadline passed")
    proc = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise RuntimeError("standby_bench exited with %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not build():
        return 2
    deadline = time.monotonic() + DEADLINE_S
    rev, digest = source_stamp()
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds)]

    setups = []
    for _ in range(SETUP_CHILDREN):
        setups.append(run_binary(common + ["--trace", "0", "--setup-only"],
                                 deadline)["setup_s"])
    runs = [run_binary(common + ["--trace", "0"], deadline)]
    setups.append(runs[0]["e2e"]["setup_s"])
    plain = dict(runs[0]["e2e"], setup_s=statistics.median(setups))
    if opts.trace:
        trace_dir = ROOT / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans = trace_dir / ("%s-seed%d.spans.csv" % (opts.workload, opts.seed))
        runs.append(run_binary(common + ["--trace", "1", "--trace-out",
                                         str(spans)], deadline))
        if spans.exists():
            with open(spans, "rb") as raw, \
                    gzip.open(str(spans) + ".gz", "wb", compresslevel=1) as out:
                shutil.copyfileobj(raw, out)
            spans.unlink()

    final = runs[-1]
    checks = sum(r["oracle_checks"] for r in runs)
    mismatches = sum(r["oracle_mismatches"] for r in runs)
    print(json.dumps({"stamp": dict(final["stamp"], git_rev=rev,
                                    src_digest=digest,
                                    workload=opts.workload)}))
    print(json.dumps({"setup_s_samples": setups}))
    print(json.dumps({"e2e": plain}))
    print(json.dumps({"info": final["info"]}))
    print(json.dumps({"oracle": {"checks": checks, "mismatches": mismatches},
                      "failures": [f for r in runs for f in r["failures"]]}))
    if opts.trace:
        traced = final["e2e"]
        overhead = {}
        for name in END_TO_END:
            base, with_trace = plain[name], traced[name]
            overhead[name] = {
                "untraced": base, "traced": with_trace,
                "delta": with_trace - base,
                "share": (with_trace - base) / base if base else None,
            }
        print(json.dumps({"tracing_overhead": overhead}))
        metrics = {name: {"value": final["layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": plain[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    result = {
        "correct": checks > 0 and mismatches == 0,
        "attempted": int(sum(r["attempted"] for r in runs)),
        "failed": int(sum(r["failed"] for r in runs)),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError, KeyError) as err:
        log("benchmark failed: %s" % err)
        sys.exit(1)
