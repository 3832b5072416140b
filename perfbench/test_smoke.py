"""Smoke tests for the campaign benchmark.

Each workload at the tiny scale must pass the output checks and report every
metric BENCHMARK.json names, with its unit, traced and untraced; a wrong
pinned hash must fail the run without a result. From the source root:

    python3 -m unittest discover -s perfbench -p 'test_*.py' -v

The first test builds perfbench/ if it is not built yet.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORKLOADS = ("rtl-transient", "rtl-permanent", "iss-regfile")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=1, pins=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if pins is not None:
        cmd += ["--pins", pins]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def assert_result(self, r, section):
        self.assertEqual(r.returncode, 0, r.stderr)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        self.assertRegex(r.stdout, r"(?m)^host: \{")
        self.assertRegex(r.stdout, r"(?m)^pf .*\[\d+\.\d%, \d+\.\d%\]")

    def test_untraced_reports_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assert_result(run(w, 0), "end_to_end")

    def test_traced_reports_per_layer_metrics_and_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 1)
                self.assert_result(r, "per_layer")
                spans = [l for l in r.stdout.splitlines() if l.startswith("spans: ")]
                self.assertEqual(len(spans), 1)
                with open(os.path.join(ROOT, spans[0][len("spans: "):])) as f:
                    doc = json.load(f)
                names = {s["name"] for s in doc["spans"]}
                for layer in ("workloads.build", "engine.backend_setup",
                              "engine.run", "engine.run_site", "rtlcore.golden",
                              "iss.golden", "fault.build_fault_list",
                              "paper_suite"):
                    self.assertIn(layer, names)
                self.assertEqual({s["run_id"] for s in doc["spans"]}, {doc["run_id"]})

    def test_seed_without_pin_checks_consistency_only(self):
        self.assert_result(run("rtl-transient", 0, seed=7), "end_to_end")

    def test_wrong_pinned_hash_fails(self):
        with open(os.path.join(ROOT, "perfbench", "pins.json")) as f:
            pins = json.load(f)
        pins["tiny"]["rtl-permanent"] = "0123456789abcdef"
        os.makedirs(BUILD_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
            path = os.path.join(tmp, "pins.json")
            with open(path, "w") as f:
                json.dump(pins, f)
            r = run("rtl-permanent", 0, pins=path)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)
        self.assertIn("pinned", r.stderr)


if __name__ == "__main__":
    unittest.main()
