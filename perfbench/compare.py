#!/usr/bin/env python3
"""Compares benchmark result sets, or reports one set's spread.

    python3 perfbench/compare.py head.jsonl
    python3 perfbench/compare.py base.jsonl head.jsonl

Inputs are sweep.py output files. Bounds and directions come from
BENCHMARK.json (--bench; default: the one next to perfbench/).

With one set, each (workload, metric) row shows the median, the first
and third quartiles and the spread (q3 - q1) / median against the
metric's bound: "steady" within a third of it, "ok" within it,
"unresolved" beyond it.

With two sets, runs pair up in file order (sweep.py alternates which
side of a pair runs first). Each row shows both sides' median and
quartiles, the fraction of pairs the head won (ties count for neither)
and the change of the median, signed so that positive is worse. The
verdict is
  REGRESSION  head's median worse than base's by more than the bound;
  unresolved  either side's spread exceeds the bound, unless every head
              run beats (gain) or loses to (REGRESSION) every base run;
  gain        head won at least 9/10 of the pairs and the medians differ
              by more than base's quartile distance;
  same        otherwise.
Per-layer metrics have no bound: they get the change and pair wins only.
Exits 1 if any row is a REGRESSION.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def values(recs, name):
    return [r["result"]["metrics"][name]["value"] for r in recs
            if name in r["result"]["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def spread(v):
    q1, q2, q3 = quartiles(v)
    return (q3 - q1) / abs(q2) if q2 else (0.0 if q3 == q1 else float("inf"))


def fmt(x):
    return f"{x:.6g}"


def single(runs, metrics):
    print(f"{'workload':<15} {'metric':<36} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for workload, recs in runs.items():
        for m in metrics:
            v = values(recs, m["name"])
            if not v:
                continue
            q1, q2, q3 = quartiles(v)
            s = spread(v)
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "ok"
            else:
                verdict = "unresolved"
            print(f"{workload:<15} {m['name']:<36} {len(v):>3} {fmt(q2):>12} "
                  f"{fmt(q1):>12} {fmt(q3):>12} {s:>8.4f} "
                  f"{'' if bound is None else bound:>6}  {verdict}")
    return 0


def paired(base, head, metrics):
    regressions = 0
    print(f"{'workload':<15} {'metric':<36} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'won':>6} {'change':>8}  verdict")
    for workload in base:
        if workload not in head:
            continue
        for m in metrics:
            b = values(base[workload], m["name"])
            h = values(head[workload], m["name"])
            if not b or not h:
                continue
            lower = m["better"] == "lower"
            pairs = list(zip(b, h))
            wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
            won = wins / len(pairs)
            bq1, bq2, bq3 = quartiles(b)
            hq1, hq2, hq3 = quartiles(h)
            worse = ((hq2 - bq2) if lower else (bq2 - hq2)) / abs(bq2) if bq2 else 0.0
            bound = m.get("bound")
            all_better = (max(h) < min(b)) if lower else (min(h) > max(b))
            all_worse = (min(h) > max(b)) if lower else (max(h) < min(b))
            if bound is None:
                verdict = ""
            elif max(spread(b), spread(h)) > bound:
                verdict = ("gain" if all_better else
                           "REGRESSION" if all_worse else "unresolved")
            elif worse > bound:
                verdict = "REGRESSION"
            elif won >= 0.9 and abs(hq2 - bq2) > (bq3 - bq1):
                verdict = "gain"
            else:
                verdict = "same"
            regressions += verdict == "REGRESSION"
            bs = f"{fmt(bq2)} [{fmt(bq1)}, {fmt(bq3)}]"
            hs = f"{fmt(hq2)} [{fmt(hq1)}, {fmt(hq3)}]"
            print(f"{workload:<15} {m['name']:<36} {bs:>34} {hs:>34} "
                  f"{won:>6.2f} {worse:>+8.3f}  {verdict}")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", help="one or two sweep.py outputs")
    ap.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    a = ap.parse_args()
    if len(a.sets) > 2:
        raise SystemExit("give one or two result sets")
    with open(a.bench, encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] + bench["per_layer"]
    sets = [load(p) for p in a.sets]
    if len(sets) == 1:
        return single(sets[0], metrics)
    return paired(sets[0], sets[1], metrics)


if __name__ == "__main__":
    sys.exit(main())
