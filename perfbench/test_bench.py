#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Run from the root of a checkout; takes about a minute. Checks that
BENCHMARK.json keeps its contract and matches perfbench/metrics.json,
that the serve schedule is a pure function of the seed, that a wrong
output or a wrong probe answer fails a run, and that the benchmark
refuses to run outside a checkout.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKDIR = os.path.join(run.WORK, "test")


def load(path):
    with open(path) as f:
        return json.load(f)


def bench(*args, refs=os.path.join(run.HERE, "ref")):
    env = dict(os.environ, BFLY_DOMAINS="2")
    cmd = [run.BENCH, *args, "--work", WORKDIR, "--refs", refs, "--tool", run.TOOL]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)


def result_of(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    def setUp(self):
        self.bench = load(os.path.join(HERE, "..", "BENCHMARK.json"))
        self.meta = load(os.path.join(HERE, "metrics.json"))

    def test_benchmark_json_shape(self):
        b = self.bench
        self.assertEqual(
            set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in b[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_metadata_covers_every_metric(self):
        workloads = {w["name"] for w in self.bench["workloads"]}
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        self.assertEqual(set(self.meta["end_to_end"]), e2e)
        for name, m in self.meta["end_to_end"].items():
            self.assertTrue(set(m["workloads"]) <= workloads, name)
        grouped = [n for layer in self.meta["layers"] for n in layer["metrics"]]
        self.assertEqual(sorted(grouped), sorted(m["name"] for m in self.bench["per_layer"]))
        for layer in self.meta["layers"]:
            self.assertTrue(layer["moves"], layer["layer"])
            self.assertTrue(set(layer["on"]) <= workloads, layer["layer"])
            self.assertTrue(set(layer.get("flat_on", [])) <= workloads, layer["layer"])


class Program(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        shutil.rmtree(WORKDIR, ignore_errors=True)
        os.makedirs(WORKDIR)

    def schedule(self, seed):
        p = bench("--print-schedule", "--seed", str(seed), "--seconds", "40")
        self.assertEqual(p.returncode, 0, p.stderr)
        return p.stdout

    @staticmethod
    def mix(text):
        counts = {}
        for line in text.splitlines():
            phase, _, _, cls, _ = line.split("\t", 4)
            cls = "probe" if cls.startswith("probe") else cls
            counts.setdefault(phase, {}).setdefault(cls, 0)
            counts[phase][cls] += 1
        return counts

    def test_schedule_is_a_function_of_the_seed(self):
        a, b, c = self.schedule(7), self.schedule(7), self.schedule(8)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        ma, mc = self.mix(a), self.mix(c)
        self.assertEqual(ma.keys(), mc.keys())
        for phase in ma:
            na, nc = sum(ma[phase].values()), sum(mc[phase].values())
            self.assertEqual(na, nc, phase)
            self.assertEqual(ma[phase].keys(), mc[phase].keys(), phase)
            for cls in ma[phase]:
                share_a, share_c = ma[phase][cls] / na, mc[phase][cls] / nc
                self.assertLess(abs(share_a - share_c), 0.05, (phase, cls))

    def corrupt(self, name, old, new):
        refs = os.path.join(WORKDIR, "ref-" + name)
        shutil.copytree(os.path.join(run.HERE, "ref"), refs, dirs_exist_ok=True)
        path = os.path.join(refs, name + ".ref")
        with open(path) as f:
            text = f.read()
        self.assertIn(old, text)
        with open(path, "w") as f:
            f.write(text.replace(old, new, 1))
        return refs

    def test_wrong_output_fails_the_run(self):
        refs = self.corrupt("bisect-large", "B_1024: BW <= 1024 (spectral)", "B_1024: BW <= 1023 (spectral)")
        p = bench("--workload", "bisect-large", "--seed", "1", "--seconds", "1", "--trace", "0", refs=refs)
        self.assertEqual(p.returncode, 0, p.stderr)
        r = result_of(p)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        self.assertIn("output mismatch", p.stderr)

    def test_wrong_probe_answer_fails_the_run(self):
        refs = self.corrupt("serve-probes", "n must be a power of two", "n must be a power of three")
        p = bench("--workload", "serve-mixed", "--seed", "1", "--seconds", "1", "--trace", "0", refs=refs)
        self.assertEqual(p.returncode, 0, p.stderr)
        r = result_of(p)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertIn("probe answer differs", p.stderr)

    def test_refuses_to_run_outside_a_checkout(self):
        bare = os.path.join(WORKDIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), bare)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bisect-large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
