#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records the result lines.

    python3 perfbench/sweep.py --seeds 1-10 --out head.jsonl
    python3 perfbench/sweep.py --seeds 1-10 --root ../base --root . \\
        --out base.jsonl --out head.jsonl

Each --root is a checkout to run perfbench/run.py in (default: the
current directory); each writes to the --out file at the same position.
With two roots, every (workload, seed) runs on both, alternating which
side goes first, so the pairs compare.py counts are interleaved in time.
Each output line is {"workload", "seed", "trace", "result"}, where
result is run.py's last stdout line. Workloads default to all of
BENCHMARK.json's, the run length to its run_seconds.
"""

import argparse
import json
import os
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", action="append", default=[])
    ap.add_argument("--out", action="append", default=[])
    a = ap.parse_args()
    roots = a.root or ["."]
    if len(a.out) != len(roots) or len(roots) > 2:
        raise SystemExit("give one --out per --root (one or two roots)")
    with open(os.path.join(roots[-1], "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = ([w for w in a.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = a.seconds or bench["run_seconds"]

    outs = [open(path, "w", encoding="utf-8") for path in a.out]
    try:
        pair = 0
        for workload in workloads:
            for seed in parse_seeds(a.seeds):
                order = list(range(len(roots)))
                if pair % 2:
                    order.reverse()
                pair += 1
                for side in order:
                    result = run_one(roots[side], workload, seed, seconds,
                                     a.trace)
                    rec = {"workload": workload, "seed": seed,
                           "trace": a.trace, "result": result}
                    outs[side].write(json.dumps(rec) + "\n")
                    outs[side].flush()
                    print(f"{roots[side]}: {workload} seed {seed}: "
                          f"correct={result['correct']}", file=sys.stderr)
    finally:
        for f in outs:
            f.close()


if __name__ == "__main__":
    main()
