#!/usr/bin/env python3
"""End-to-end campaign benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload rtl-transient --seed 1 --seconds 20 --trace 0

Run it from the root of the source tree. It builds perfbench/ (the library
sources, the measuring program and the paper-figure benches) with CMake into
$CARGO_TARGET_DIR or .bench_build/, runs the measuring program on the
workload and checks its outputs:

  * at the default seed the fault::outcome_hash of the seed's first fault
    list equals the value pinned in perfbench/pins.json;
  * that hash repeats within the run (the first list runs again at its end)
    and across every run at the same seed in this build directory;
  * in a traced run the serial Worker::run_site loop and the batch_lanes = 16
    lane-pool run give the engine run's hash;
  * no site ends as an engine error;
  * the metrics are exactly those BENCHMARK.json names, with their units.

A failed check prints the reason to stderr and exits 1 without a result.
Otherwise the last stdout line is the result object: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Lines before it give
the host and build fingerprint, each (unit, model) Pf with its Wilson 95%
interval, and notes; the full record, and in a traced run the span file,
land in <build dir>/out/.

--scale tiny (smoke tests) shrinks every campaign; --pins replaces the
pinned-hash file.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 1
# Each run must end within 180 s of its start once the build is done.
RUN_BUDGET_S = 170.0


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--pins", default=os.path.join(BENCH_DIR, "pins.json"))
    return p.parse_args(argv)


def clean_env():
    """The caller's environment without the library's ISSRTL_* knobs, so a
    stray setting cannot change what a run measures."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ISSRTL_")}


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.hpp")):
        raise CheckFailed("library sources not found: run from the source tree root")
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    steps = [["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1)]]
    # Once configured, the build step re-runs CMake itself when a CMake file
    # or the source globs change.
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise CheckFailed("build failed: " + " ".join(cmd))
    return cmake_dir


def run_child(cmd, deadline, **kw):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise CheckFailed("time budget exhausted before " + os.path.basename(cmd[0]))
    try:
        return subprocess.run(cmd, env=kw.pop("env", clean_env()),
                              timeout=remaining, **kw)
    except subprocess.TimeoutExpired:
        raise CheckFailed(os.path.basename(cmd[0]) + " exceeded the time budget")


def wilson(k, n, z=1.96):
    """Wilson score 95% interval for k detected out of n classified."""
    if n == 0:
        return 0.0, 0.0
    p = k / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def fingerprint(report):
    """Host and build identity carried by every result."""
    cpu, flags = "unknown", ""
    try:
        with open("/proc/cpuinfo") as f:
            info = f.read()
        m = re.search(r"^model name\s*:\s*(.*)$", info, re.M)
        cpu = m.group(1).strip() if m else platform.processor() or "unknown"
        m = re.search(r"^flags\s*:\s*(.*)$", info, re.M)
        flags = m.group(1) if m else ""
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "avx512f": "avx512f" in flags.split(),
        "compiler": report["compiler"],
        "build_type": report["build_type"],
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def source_digest():
    """SHA-256 over the benchmarked sources, so a result names its code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def paper_suite(cmake_dir, scale, spans_file, deadline):
    """Time each built bench_fig* / bench_table1_* / bench_ext_* once as a
    subprocess; informational only."""
    paper_dir = os.path.join(cmake_dir, "paper")
    env = clean_env()
    if scale == "tiny":
        env["ISSRTL_SAMPLES"] = "2"
    times, failed = {}, []
    spans = []
    for name in sorted(os.listdir(paper_dir)):
        t0 = time.monotonic_ns()
        r = run_child([os.path.join(paper_dir, name)], deadline, env=env,
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        t1 = time.monotonic_ns()
        times[name] = (t1 - t0) / 1e9
        spans.append((name, t0, t1))
        if r.returncode != 0:
            failed.append(name)
    with open(spans_file) as f:
        doc = json.load(f)
    base = max((s["end_ns"] for s in doc["spans"]), default=0)
    root_id = len(doc["spans"])
    start = spans[0][1] if spans else 0
    total = sum(times.values())
    doc["spans"].append({"run_id": doc["run_id"], "id": root_id, "parent": -1,
                         "name": "paper_suite", "start_ns": base,
                         "end_ns": base + (spans[-1][2] - start if spans else 0)})
    for i, (name, t0, t1) in enumerate(spans):
        doc["spans"].append({"run_id": doc["run_id"], "id": root_id + 1 + i,
                             "parent": root_id, "name": "paper." + name,
                             "start_ns": base + t0 - start,
                             "end_ns": base + t1 - start})
        doc["self_s"]["paper." + name] = times[name]
    with open(spans_file, "w") as f:
        json.dump(doc, f, indent=0)
    return total, times, failed


def check(report, args, pins, trace, history_file):
    hashes = report["campaign_hashes"]
    if not hashes:
        raise CheckFailed("no campaign completed")
    if len(set(hashes)) != 1:
        raise CheckFailed("outcome_hash of the first fault list changed within "
                          "the run: %s"
                          % sorted(set(hashes)))
    h = hashes[0]
    if args.seed == pins["default_seed"]:
        pinned = pins[args.scale].get(args.workload)
        if pinned is None:
            raise CheckFailed("no pinned outcome_hash for %s at scale %s"
                              % (args.workload, args.scale))
        if h != pinned:
            raise CheckFailed("outcome_hash %s != pinned %s for %s"
                              % (h, pinned, args.workload))
    key = "%s/%s/%d" % (args.scale, args.workload, args.seed)
    history = {}
    if os.path.exists(history_file):
        with open(history_file) as f:
            history = json.load(f)
    if history.get(key, h) != h:
        raise CheckFailed("outcome_hash %s differs from an earlier run at the "
                          "same seed (%s, recorded in %s)"
                          % (h, history[key], history_file))
    history[key] = h
    with open(history_file, "w") as f:
        json.dump(history, f, indent=1, sort_keys=True)
    if trace:
        c = report["check_hashes"]
        if c["serial_loop"] != h:
            raise CheckFailed("serial run_site loop hash %s != engine hash %s"
                              % (c["serial_loop"], h))
        if c["lanepool"] != c["lanepool_base"]:
            raise CheckFailed("batch_lanes 16 hash %s != batch_lanes 1 hash %s"
                              % (c["lanepool"], c["lanepool_base"]))
        if args.seed == pins["default_seed"] and \
                c["lanepool_base"] != pins[args.scale]["rtl-transient"]:
            raise CheckFailed("lane-pool base hash %s != pinned rtl-transient %s"
                              % (c["lanepool_base"], pins[args.scale]["rtl-transient"]))
    if report["errors"] != 0:
        raise CheckFailed("%d of %d sites ended as engine errors (error_share %.6f)"
                          % (report["errors"], report["attempted"],
                             report["errors"] / report["attempted"]))
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise CheckFailed("metrics differ from BENCHMARK.json: missing %s, "
                          "unexpected %s, wrong unit %s" % (missing, extra, wrong))
    for k, v in report["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            raise CheckFailed("metric %s is not a finite number" % k)


def main(argv):
    args = parse_args(argv)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Compilers and the children write their temporary files inside the
    # build directory, not the system temp directory.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    cmake_dir = build(build_dir)
    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(args.pins) as f:
        pins = json.load(f)

    run_id = "%s-s%d-t%d-%s-%d" % (args.workload, args.seed, args.trace,
                                   args.scale, os.getpid())
    cmd = [os.path.join(cmake_dir, "campaign_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out-dir", out_dir, "--run-id", run_id]
    r = run_child(cmd, deadline, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise CheckFailed("campaign_bench exited with %d" % r.returncode)
    report = json.loads(r.stdout.strip().splitlines()[-1])

    spans_file = os.path.join(out_dir, "spans-%s.json" % run_id)
    if args.trace:
        total, times, failed = paper_suite(cmake_dir, args.scale, spans_file, deadline)
        report["metrics"]["paper_suite_s"] = {"value": total, "unit": "s"}
        report["notes"].append("paper suite: " + ", ".join(
            "%s %.2f s" % kv for kv in sorted(times.items())))
        if failed:
            report["notes"].append("paper benches exiting non-zero: "
                                   + ", ".join(failed))

    check(report, args, pins, args.trace, os.path.join(out_dir, "hashes.json"))

    host = fingerprint(report)
    print("host: " + json.dumps(host, sort_keys=True))
    print("workload %s seed %d scale %s threads %d outcome_hash %s"
          % (args.workload, args.seed, args.scale, report["threads"],
             report["campaign_hashes"][0]))
    print("error_share: %d/%d = 0" % (report["errors"], report["attempted"]))
    for p in report["pf"]:
        k, n = p["detected"], p["classified"]
        lo, hi = wilson(k, n)
        print("pf %s %s: %.1f%% [%.1f%%, %.1f%%] (%d/%d, Wilson 95%%)"
              % (p["unit"], p["model"], 100.0 * k / n if n else 0.0,
                 100.0 * lo, 100.0 * hi, k, n))
    for note in report["notes"]:
        print("note: " + note)
    if args.trace:
        print("spans: " + os.path.relpath(spans_file, ROOT))
    result = {
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["errors"],
        "metrics": report["metrics"],
    }
    with open(os.path.join(out_dir, "result-%s.json" % run_id), "w") as f:
        json.dump({"host": host, "report": report, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except CheckFailed as e:
        log("check failed: %s" % e)
        sys.exit(1)
