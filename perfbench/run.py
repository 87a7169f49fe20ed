#!/usr/bin/env python3
"""Run one workload of the benchmark described in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the benchmark program
(perfbench/bench.exe) and bfly_tool from source with dune, pins the run
conditions (pool width, cache state), runs the workload, and prints the
run conditions and then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics; each metric carries the unit
BENCHMARK.json declares for it. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. Work files go to .perfbench/;
a copy of every result, with its conditions, to .perfbench/runs/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
WORK = ".perfbench"
BENCH = os.path.join("_build", "default", HERE, "bench.exe")
TOOL = os.path.join("_build", "default", "bin", "bfly_tool.exe")
# Files the benchmark needs from the repository it measures.
SOURCES = ["dune-project", "lib/serve/job.ml", "bin/bfly_tool.ml"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# The pool width of every workload, capped at the machine's cores.
DOMAINS = 2


def die(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def source_digest():
    """SHA-256 over the program's sources, standing in for a commit id in
    checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(top)
            for f in fs
            if f.endswith((".ml", ".mli", "dune", "dune-project"))
        )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", BENCH[len("_build/default/"):], TOOL[len("_build/default/"):]]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(3, f"build failed: {e}")
    if r.returncode != 0:
        die(3, "build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        die(2, f"unknown workload {a.workload!r} (one of {', '.join(names)})")
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        die(2, f"not at the root of a checkout: missing {', '.join(missing)}")
    build()

    width = min(DOMAINS, nproc())
    env = {k: v for k, v in os.environ.items() if not k.startswith("BFLY_")}
    env.update(BFLY_DOMAINS=str(width), BFLY_CACHE="on")
    cmd = [
        BENCH, "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--work", WORK, "--refs", os.path.join(HERE, "ref"), "--tool", TOOL,
    ]
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die(4, f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # bench.exe reaps its server; this catches anything left behind
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        die(5, f"bench.exe exited with code {p.returncode}")
    lines = out.strip().splitlines()
    try:
        conditions = json.loads(lines[-2])["conditions"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        die(5, "bench.exe printed no result")
    # Units come from BENCHMARK.json. A traced run reports zero for the
    # layers its workload does not reach; an untraced run must report every
    # end-to-end metric.
    declared = bench["per_layer" if a.trace else "end_to_end"]
    values = result["metrics"]
    unknown = sorted(set(values) - {m["name"] for m in declared})
    absent = [m["name"] for m in declared if m["name"] not in values]
    if unknown or (absent and not a.trace):
        die(5, f"bench.exe metrics do not match BENCHMARK.json: {', '.join(unknown + absent)}")
    result["metrics"] = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }

    conditions.update(
        nproc=nproc(), commit=commit(), source_digest=source_digest(),
        command=" ".join(sys.argv),
    )
    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    doc = os.path.join(WORK, "runs", f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(doc, "w") as f:
        json.dump({"conditions": conditions, "result": result}, f, indent=1)
    print(json.dumps({"conditions": conditions}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
