// Shared plumbing for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper and prints
// the same rows/series the paper reports. Scale knobs (environment
// variables) trade fidelity for wall-clock:
//   ISSRTL_SAMPLES  — injection trials per (workload, unit, model); default 60
//   ISSRTL_ITERS    — workload iterations for campaign runs; default 1
//   ISSRTL_SEED     — campaign seed; default 2015
//   ISSRTL_THREADS  — engine worker threads; default 0 = all hardware
//                     threads (results are bit-identical for any count)
// The checkpoint-ladder knobs are also honoured where noted:
//   ISSRTL_CKPT_STRIDE — rung spacing in cycles ('auto' default, 0 = off)
//   ISSRTL_CKPT_MB     — ladder byte cap in MiB (default 256)
//   ISSRTL_SITES / ISSRTL_INSTANTS — multi-instant sweep shape of the
//                     bench_simtime_speedup ladder section (25 x 8)
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/report.hpp"
#include "workloads/workload.hpp"

namespace issrtl::bench {

/// Alternating min-of-N timing for an A/B wall-clock comparison: both sides
/// run interleaved within each rep and each keeps its fastest rep, so slow
/// clock drift (turbo decay, a neighbour stealing the core) biases neither
/// side — a single-shot pair reads the drift as a ratio swing of up to
/// ±30% on the reference box. Returns {best_a_seconds, best_b_seconds}.
/// Side effects of the callables (capturing the last run's result) are
/// fine; every rep runs both sides exactly once, in order.
template <typename FnA, typename FnB>
inline std::pair<double, double> min_alternating(int reps, FnA&& a, FnB&& b) {
  double a_best = 0.0, b_best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    a();
    const auto t1 = std::chrono::steady_clock::now();
    b();
    const auto t2 = std::chrono::steady_clock::now();
    const double da = std::chrono::duration<double>(t1 - t0).count();
    const double db = std::chrono::duration<double>(t2 - t1).count();
    if (r == 0 || da < a_best) a_best = da;
    if (r == 0 || db < b_best) b_best = db;
  }
  return {a_best, b_best};
}

inline std::size_t env_size(const char* name, std::size_t def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

inline std::size_t samples() { return env_size("ISSRTL_SAMPLES", 60); }
inline unsigned campaign_iters() {
  return static_cast<unsigned>(env_size("ISSRTL_ITERS", 1));
}
inline u64 seed() { return env_size("ISSRTL_SEED", 2015); }
inline unsigned threads() {
  return static_cast<unsigned>(env_size("ISSRTL_THREADS", 0));
}

inline void banner(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("samples=%zu iters=%u seed=%llu (ISSRTL_SAMPLES/ITERS/SEED)\n",
              samples(), campaign_iters(),
              static_cast<unsigned long long>(seed()));
  std::printf("==============================================================\n");
}

/// A table cell for one model's Pf with its 95% Wilson interval, e.g.
/// "8.3% [3.6%, 18.1%]".
inline std::string pf_cell(const fault::CampaignStats& s) {
  return fault::pf_with_ci(s.pf(), s.pf_ci95());
}

/// Run one campaign with the bench-wide knobs applied, on the parallel
/// engine (ISSRTL_THREADS workers; identical results at any thread count).
inline fault::CampaignResult campaign(const std::string& workload,
                                      const std::string& unit,
                                      std::vector<rtl::FaultModel> models,
                                      u64 data_seed = 1) {
  const auto prog = workloads::build(
      workload, {.iterations = campaign_iters(), .data_seed = data_seed});
  fault::CampaignConfig cfg;
  cfg.unit_prefix = unit;
  cfg.models = std::move(models);
  cfg.samples = samples();
  cfg.seed = seed();
  engine::EngineOptions opts;
  opts.threads = threads();
  return engine::run_rtl_campaign(prog, cfg, {}, opts);
}

}  // namespace issrtl::bench
