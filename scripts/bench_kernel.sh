#!/usr/bin/env bash
# Run the RTL-kernel perf benchmark and emit a BENCH_kernel.json point.
#
# Usage: scripts/bench_kernel.sh [build-dir] [output-json]
#        scripts/bench_kernel.sh --check [build-dir] [output-json] [ref-json]
#
# The default output lands inside the (gitignored) build dir so a run never
# dirties the committed reference snapshot at the repo root; pass an explicit
# path — and ISSRTL_BENCH_BASELINE=pr1 on the reference box — to regenerate
# that snapshot. Knobs (env): ISSRTL_SAMPLES (default 200 — the headline
# engine section), ISSRTL_THREADS (default 4), ISSRTL_SEED, and for the
# checkpoint-ladder section ISSRTL_SITES x ISSRTL_INSTANTS (default 25 x 8)
# plus ISSRTL_CKPT_STRIDE / ISSRTL_CKPT_MB, and for the ISS section
# ISSRTL_ITERS (default 8). CI runs this on a fixed small workload and
# archives the JSON as the per-commit perf trajectory point.
#
# --check mode additionally compares the fresh run against the committed
# reference snapshot (default: BENCH_kernel.json at the repo root) and fails
# loudly when the kernel regressed past tolerance:
# * rtl_ns_per_cycle may not exceed reference * (1 + ISSRTL_BENCH_TOL) —
#   but only when the fresh run's host fingerprint (CPU model, hardware
#   threads, AVX-512F) matches the snapshot's. Absolute timings do not
#   carry across hosts, so on any other host the gate prints that it was
#   skipped instead of failing for a host reason;
# * the in-tree ISS fast/baseline ratio may not fall below
#   reference * (1 - ISSRTL_BENCH_TOL) and must also stay >= 1.0 * (1 - tol);
# * every determinism flag must be true.
# The default tolerance (ISSRTL_BENCH_TOL=0.5) is deliberately loose — CI
# boxes are noisy — so only a real regression (a kernel slowdown of 1.5x+)
# trips it, not run-to-run jitter.
set -euo pipefail

check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
  shift
fi

build_dir="${1:-build}"
out_json="${2:-${build_dir}/BENCH_kernel.json}"
ref_json="${3:-BENCH_kernel.json}"
bench="${build_dir}/bench_simtime_speedup"

if [[ ! -x "${bench}" ]]; then
  echo "error: ${bench} not built (google-benchmark missing?)" >&2
  exit 1
fi

ISSRTL_BENCH_JSON="${out_json}" "${bench}" --benchmark_filter=nomatch
echo "--- ${out_json} ---"
cat "${out_json}"

if [[ "${check}" == "1" ]]; then
  if [[ ! -f "${ref_json}" ]]; then
    echo "error: reference snapshot ${ref_json} not found" >&2
    exit 1
  fi
  echo "--- check against ${ref_json} (tol ${ISSRTL_BENCH_TOL:-0.5}) ---"
  python3 - "${out_json}" "${ref_json}" <<'PY'
import json
import os
import sys

out_path, ref_path = sys.argv[1], sys.argv[2]
tol = float(os.environ.get("ISSRTL_BENCH_TOL", "0.5"))
out = json.load(open(out_path))
ref = json.load(open(ref_path))

failures = []

def ceil_check(name, got, reference):
    bound = reference * (1.0 + tol)
    ok = got <= bound
    print(f"  {name}: {got:.3f} (ref {reference:.3f}, max {bound:.3f})"
          f" {'ok' if ok else 'REGRESSED'}")
    if not ok:
        failures.append(name)

def floor_check(name, got, reference):
    bound = reference * (1.0 - tol)
    ok = got >= bound
    print(f"  {name}: {got:.2f} (ref {reference:.2f}, min {bound:.2f})"
          f" {'ok' if ok else 'REGRESSED'}")
    if not ok:
        failures.append(name)

host_keys = ("cpu_model", "nproc", "avx512f")
out_host = out.get("host", {})
ref_host = ref.get("host", {})
same_host = bool(ref_host) and all(
    out_host.get(k) == ref_host.get(k) for k in host_keys)
if same_host:
    ceil_check("rtl_ns_per_cycle", out["rtl_ns_per_cycle"],
               ref["rtl_ns_per_cycle"])
else:
    print("  rtl_ns_per_cycle: skipped, host differs from the snapshot's "
          f"(this host {out_host or 'unrecorded'}, "
          f"snapshot {ref_host or 'unrecorded'})")
if "iss_section" in ref:
    floor_check("iss_section.fast_vs_baseline_ratio",
                out["iss_section"]["fast_vs_baseline_ratio"],
                ref["iss_section"]["fast_vs_baseline_ratio"])
    # Absolute floor: the decoded-basic-block fast path must stay an
    # outright win over the in-tree single-step decoder on any box.
    floor_check("iss_section.fast_vs_baseline_ratio >= 1.0",
                out["iss_section"]["fast_vs_baseline_ratio"], 1.0)
    # Reference-box snapshots additionally carry the tree-over-tree ratio
    # against the committed pre-fast-path ISS (PR 7's iss_ns_per_instr);
    # the PR that introduced the fast path required >= 3x there.
    if "fast_vs_pr7_iss_ratio" in out["iss_section"]:
        floor_check("iss_section.fast_vs_pr7_iss_ratio >= 3.0",
                    out["iss_section"]["fast_vs_pr7_iss_ratio"], 3.0)

for section, key in (("ladder_section",
                      "outcomes_identical_1_3_bench_threads"),
                     ("iss_section", "iss_state_identical")):
    if section in out and not out[section].get(key, True):
        print(f"  {section}.{key}: false — determinism broke")
        failures.append(f"{section}.{key}")

if failures:
    print("bench check FAILED:", ", ".join(failures))
    sys.exit(1)
print("bench check passed")
PY
fi
