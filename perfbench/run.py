#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fanout --seed 7 --seconds 10 --trace 0

It builds perfbench/ (CMake, Release) into .bench_build/perfbench, runs
the measuring binary, checks the program's outputs and prints a table of
every metric with its unit, then, as the last stdout line, one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (tracing off):
    a fresh process runs the workload once (peak RSS, the simulated
    metrics and the per-subscription output check), then another repeats
    it for --seconds (host times of the best repetition, set-up time as
    the median of many set-ups).
--trace 1 reports the per-layer metrics from a separate traced run and
    writes its spans to .bench_build/traces/<workload>-<seed>.json.

The workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "rebeca_perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
WORKLOADS = ("fanout", "roam_churn", "fanout_sharded")
# Every child process is bounded so the whole run ends well inside the
# 180 s a run may take; the first build may take longer.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def build():
    if not os.path.isfile(os.path.join("src", "scenario", "scenario.hpp")):
        raise BenchError("run from the root of a checkout: no src/ here")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_child(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_child(["cmake", "--build", BUILD_DIR, "--target", "rebeca_perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)


def records(stdout, kind):
    out = []
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            rec = json.loads(line)
            if rec.get("kind") == kind:
                out.append(rec)
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    args = ["--workload", workload, "--seed", str(seed)]
    once = records(run_child([BINARY, "once"] + args, RUN_TIMEOUT_S), "once")
    if len(once) != 1:
        raise BenchError("no result from the single run")
    once = once[0]
    measured = run_child([BINARY, "measure"] + args +
                         ["--seconds", str(seconds)], RUN_TIMEOUT_S)
    reps = records(measured, "rep")
    setups = [r["setup_s"] for r in reps + records(measured, "setup")]
    if not reps:
        raise BenchError("no repetitions measured")

    # Every repetition must reproduce the fresh process's report exactly.
    digests_agree = all(r["report_digest"] == once["report_digest"]
                        for r in reps)
    failed = once["failed"]
    expected = once["expected"]
    correct = (digests_agree and failed == 0 and expected > 0 and
               once["delivered"] == once["checked_deliveries"])
    # Host-time noise on a shared host is one-sided (neighbours only ever
    # slow a rep down) and comes in bursts of seconds, so the run reports
    # its best rep: across runs it scatters far less than the median rep.
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(min(r["wall_s"] for r in reps), "s"),
        "deliveries_per_s": metric(max(
            r["deliveries"] / r["run_s"] for r in reps), "1/s"),
        "peak_rss_mb": metric(once["peak_rss_mb"], "MiB"),
    }
    metrics.update(once["simulated"])
    ok = max(0, expected - failed) / expected if expected else 0.0
    metrics["delivered_ok_ratio"] = metric(ok, "ratio")
    detail = (f"{len(reps)} reps, {len(setups)} set-ups; published "
              f"{once['published']}, expected {expected}, missing "
              f"{once['missing']}, duplicates {once['duplicates']}, spurious "
              f"{once['spurious']}, fifo violations {once['fifo_violations']}; "
              f"report digest {once['report_digest']} "
              f"({'reproduced' if digests_agree else 'NOT reproduced'} by "
              f"every rep); the report itself counts "
              f"{once['report_duplicates']} duplicates")
    return correct, max(1, expected), failed, metrics, detail


def per_layer(workload, seed, seconds):
    os.makedirs(TRACE_DIR, exist_ok=True)
    out = os.path.join(TRACE_DIR, f"{workload}-{seed}.json")
    lines = records(run_child(
        [BINARY, "trace", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out", out], RUN_TIMEOUT_S), "trace")
    if len(lines) != 1:
        raise BenchError("no result from the traced run")
    t = lines[0]
    correct = t["report_identical"] and t["failed"] == 0 and t["expected"] > 0
    detail = (f"traced report {'byte-identical to' if t['report_identical'] else 'DIFFERS from'}"
              f" the untraced run's; spans in {out}")
    return correct, max(1, t["expected"]), t["failed"], t["metrics"], detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        fn = per_layer if a.trace else end_to_end
        correct, attempted, failed, metrics, detail = fn(a.workload, a.seed,
                                                         a.seconds)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(f"# {a.workload} seed {a.seed} trace {a.trace}: {detail}")
    for name, m in metrics.items():
        print(f"#   {name:<38} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
