#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the repository).

    python3 perfbench/tests/test_perfbench.py

Builds bdbench on first use (like perfbench/run.py) and runs each workload
at the tiny self-test profile, which takes seconds. The tiny profile cannot
implant a backdoor, so its gate thresholds are zero; the paper profile's
gates are exercised by the real runs.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, seed=3, seconds=2, extra=()):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--profile", "tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s\n%s" % (
            workload, proc.returncode, proc.stdout[-3000:], proc.stderr[-3000:]))
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def digest_of(lines):
    for line in lines:
        m = re.match(r"^digest (\S+) seed \d+ ([0-9a-f]{16})", line)
        if m:
            return m.group(2)
    raise AssertionError("no digest line")


class NamesTest(unittest.TestCase):
    def test_names_are_unique_and_well_formed(self):
        spec = bench_json()
        names = [w["name"] for w in spec["workloads"]]
        metrics = spec["end_to_end"] + spec["per_layer"]
        all_names = names + [m["name"] for m in metrics]
        self.assertEqual(len(all_names), len(set(all_names)))
        for name in all_names:
            self.assertRegex(name, NAME)
        for m in metrics:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_sources_report_only_declared_metrics(self):
        spec = bench_json()
        declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        reported = set()
        src = os.path.join(BENCH, "src")
        for name in os.listdir(src):
            with open(os.path.join(src, name)) as f:
                reported |= set(re.findall(r'metric\(\s*"([^"]+)"', f.read()))
        self.assertEqual(reported, declared)


class TracingOffTest(unittest.TestCase):
    def test_clean_env_drops_repository_probes(self):
        module = load_run_module()
        os.environ["BDPROTO_TRACE"] = "1"
        os.environ["BDPROTO_METRICS"] = "1"
        try:
            env = module.clean_env()
        finally:
            del os.environ["BDPROTO_TRACE"], os.environ["BDPROTO_METRICS"]
        self.assertNotIn("BDPROTO_TRACE", env)
        self.assertNotIn("BDPROTO_METRICS", env)

    def test_timed_run_records_no_spans(self):
        lines, result = run("cell-1t", trace=0)
        prov = next(l for l in lines if l.startswith("provenance "))
        self.assertIn('"trace":0', prov)
        self.assertFalse(any(l.startswith("spans written") for l in lines))
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in bench_json()["end_to_end"]})


class SpanTreeTest(unittest.TestCase):
    def test_children_fit_their_parents(self):
        out = tempfile.mkdtemp()
        try:
            lines, result = run("cell-mt", trace=1, extra=("--spans-out", out))
            self.assertTrue(result["correct"], "\n".join(lines[-20:]))
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in bench_json()["per_layer"]})
            with open(os.path.join(out, "spans-cell-mt.json")) as f:
                doc = json.load(f)
        finally:
            shutil.rmtree(out)
        spans = doc["spans"]
        children = {}
        for s in spans:
            if s["parent"] >= 0:
                parent = spans[s["parent"]]
                self.assertGreaterEqual(s["start"], parent["start"])
                self.assertLessEqual(s["end"], parent["end"])
                self.assertEqual(s["unit"], parent["unit"])
                children.setdefault(s["parent"], []).append(s)
        self.assertTrue(children)
        for pid, kids in children.items():
            p = spans[pid]
            self.assertLessEqual(sum(k["end"] - k["start"] for k in kids),
                                 p["end"] - p["start"])
        for row in doc["tree"]:
            self.assertGreaterEqual(row["self_s"], 0.0)
            if row["unattributed_s"] is not None:
                self.assertGreaterEqual(row["unattributed_s"], 0.0)
        self.assertTrue(any(l.strip().startswith("unattributed") for l in lines))


class SmokeTest(unittest.TestCase):
    def test_each_workload_passes_its_output_checks(self):
        digests = {}
        for workload in ("cell-1t", "cell-mt", "serve-mix"):
            lines, result = run(workload, trace=0)
            self.assertTrue(result["correct"], "\n".join(lines[-30:]))
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            digests[workload] = digest_of(lines)
        self.assertEqual(digests["cell-1t"], digests["cell-mt"])


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_the_repository(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cell-1t",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170, env=env)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
