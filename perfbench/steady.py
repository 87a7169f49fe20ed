#!/usr/bin/env python3
"""Steadiness check: run workloads on several seeds and report each
metric's median, quartiles and spread (quartile distance over median).

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time,
from the root of a checkout. With --out the summary is also written as
JSON; perfbench/baseline/ keeps the summaries taken on the seed commit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    a = ap.parse_args()
    metrics = bench["per_layer" if a.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    report = {"seconds": a.seconds, "trace": a.trace, "workloads": {}}
    for w in a.workloads.split(","):
        runs = []
        for s in seeds_of(a.seeds):
            t0 = time.monotonic()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(s), "--seconds", str(a.seconds), "--trace", str(a.trace)],
                capture_output=True, text=True,
            )
            wall = time.monotonic() - t0
            if p.returncode != 0:
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                sys.exit(1)
            r = json.loads(p.stdout.strip().splitlines()[-1])
            runs.append(r)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{w} seed {s} ({wall:.0f} s) correct={r['correct']} failed={r['failed']}: {vals}", flush=True)
        summary = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        for m in metrics:
            name = m["name"]
            vals = [r["metrics"][name]["value"] for r in runs]
            summary["metrics"][name] = summarize(vals)
        report["workloads"][w] = summary
        for name, st in summary["metrics"].items():
            b = bounds.get(name)
            flag = ""
            if b is not None and st.get("spread") is not None:
                flag = "ok" if st["spread"] <= b / 3 else ("within bound" if st["spread"] <= b else "OVER BOUND")
            spread = "n/a" if st.get("spread") is None else f"{st['spread']:.3f}"
            print(f"  {w} {name}: median {st['median']:.5g} spread {spread} {flag}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
