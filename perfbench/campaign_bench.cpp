// campaign_bench — the measuring program of the end-to-end campaign
// benchmark. perfbench/run.py builds it, runs it once per benchmark run and
// turns its report into the benchmark's result line; run it directly only
// to debug a workload:
//
//   campaign_bench --workload rtl-transient --seed 1 --seconds 10 --trace 0
//                  [--scale full|tiny] [--out-dir DIR] [--run-id ID]
//
// It drives the library only through its public entry points —
// workloads::build, the engine backends' constructors, CampaignEngine::run,
// backend.finish, Worker::run_site, fault::build_fault_list,
// engine::OutcomeJournal, bare rtlcore::Leon3Core / iss::Emulator runs and
// fault::outcome_hash — and times the calls from outside.
//
// Every campaign takes the default product path: the serial per-site ladder
// engine (batch_lanes = 1) with one worker thread per hardware thread. The
// seed picks the fault lists (CampaignConfig::seed); the program image is
// fixed (rspeed, 4 iterations, data seed 1), so golden-run work is the same
// at every seed and only the sampled sites differ.
//
// --trace 0 repeats the whole campaign (build -> construct -> run -> finish)
// on fresh fault lists drawn from the seed until --seconds have passed,
// reports medians, and finally re-runs the seed's first list, whose hash
// must repeat. --trace 1 runs the first list once, traced, plus the
// per-layer probes, and writes its spans to <out-dir>/spans-<run-id>.json.
// Either way the last stdout line is one JSON object (the raw report);
// run.py applies the output checks.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/iss_backend.hpp"
#include "engine/journal.hpp"
#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/iss_campaign.hpp"
#include "iss/emulator.hpp"
#include "rtlcore/core.hpp"
#include "workloads/workload.hpp"

#ifndef ISSRTL_BENCH_BUILD_TYPE
#define ISSRTL_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ISSRTL_BENCH_COMPILER
#define ISSRTL_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace issrtl;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// The highest of the usual percentiles that still has at least ten samples
/// above it, so a tail figure is never one or two outliers; p50 when the
/// sample is too small for any of them.
double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double at = std::ceil(p / 100.0 * static_cast<double>(n));
    if (static_cast<double>(n) - at >= 10.0) return p;
  }
  return 50.0;
}

// ---- minimal JSON writer ----------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

/// Named metrics in insertion order, each with its unit.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i != 0) out += ",";
      out += json_str(items_[i].name) + ":{\"value\":" +
             json_num(items_[i].value) + ",\"unit\":" +
             json_str(items_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder: name, start, end and parent of each timed call,
/// written out once at the end of the run. A null Tracer* disables
/// recording, so the untraced path pays one branch per call site.
class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  int open(const std::string& name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({id, stack_.empty() ? -1 : stack_.back(), name,
                      Clock::now(), {}});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    stack_.pop_back();
  }

  /// Summed self time per span name: each span's duration minus the part of
  /// it its direct children cover (children never overlap — one thread).
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] +=
            seconds_between(s.start, s.end);
      }
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      out[s.name] += seconds_between(s.start, s.end) -
                     child[static_cast<std::size_t>(s.id)];
    }
    return out;
  }

  void write(const fs::path& path, const std::string& workload, u64 seed) const {
    std::FILE* f = std::fopen(path.string().c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write span file " + path.string());
    }
    const Clock::time_point t0 =
        spans_.empty() ? Clock::now() : spans_.front().start;
    auto ns = [&](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
          .count();
    };
    std::fprintf(f, "{\"run_id\":%s,\"workload\":%s,\"seed\":%llu,\"spans\":[",
                 json_str(run_id_).c_str(), json_str(workload).c_str(),
                 static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n{\"run_id\":%s,\"id\":%d,\"parent\":%d,\"name\":%s,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}",
                   i == 0 ? "" : ",", json_str(run_id_).c_str(), s.id, s.parent,
                   json_str(s.name).c_str(), static_cast<long long>(ns(s.start)),
                   static_cast<long long>(ns(s.end)));
    }
    std::fprintf(f, "\n],\"self_s\":{");
    bool first = true;
    for (const auto& [name, self] : self_times()) {
      std::fprintf(f, "%s\n%s:%s", first ? "" : ",", json_str(name).c_str(),
                   json_num(self).c_str());
      first = false;
    }
    std::fprintf(f, "\n}}\n");
    if (std::fclose(f) != 0) {
      throw std::runtime_error("cannot write span file " + path.string());
    }
  }

 private:
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is null.
class SpanScope {
 public:
  SpanScope(Tracer* t, const std::string& name)
      : t_(t), id_(t != nullptr ? t->open(name) : -1) {}
  ~SpanScope() { end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Close the span before the scope ends (idempotent).
  void end() {
    if (t_ != nullptr) t_->close(id_);
    t_ = nullptr;
  }

 private:
  Tracer* t_;
  int id_;
};

// ---- workloads --------------------------------------------------------------

constexpr const char* kProgram = "rspeed";
constexpr unsigned kIterations = 4;
constexpr unsigned kLanePoolLanes = 16;
constexpr std::size_t kTransientInstants = 8;

/// Sampled sites per (unit, model); 0 means every bit of the unit. At the
/// full size rtl-transient covers every iu.ex bit: with sampled bits the
/// few bits whose flips run long decided campaign time more than anything
/// measured. tiny is the smoke-test size.
struct Sizes {
  std::size_t transient = 0;  ///< node bits, each at kTransientInstants
  std::size_t permanent = 0;  ///< per unit and model
  std::size_t iss = 0;        ///< per model
};

Sizes sizes_for(const std::string& scale) {
  if (scale == "full") return {0, 40, 500};
  if (scale == "tiny") return {4, 2, 8};
  throw std::invalid_argument("unknown --scale '" + scale + "'");
}

/// One backend construction + engine run of a workload.
struct Job {
  std::string unit;
  bool iss = false;
  fault::CampaignConfig rtl;
  fault::IssCampaignConfig iss_cfg;
};

fault::CampaignConfig transient_config(u64 seed, const Sizes& sz) {
  fault::CampaignConfig cfg;
  cfg.unit_prefix = "iu.ex";
  cfg.models = {rtl::FaultModel::kTransientBitFlip};
  cfg.samples = sz.transient;
  cfg.instants_per_site = kTransientInstants;
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  cfg.instant_window = fault::InstantWindow::kFull;
  cfg.seed = seed;
  return cfg;
}

std::vector<Job> jobs_for(const std::string& workload, u64 seed,
                          const Sizes& sz) {
  std::vector<Job> jobs;
  if (workload == "rtl-transient") {
    jobs.push_back({"iu.ex", false, transient_config(seed, sz), {}});
  } else if (workload == "rtl-permanent") {
    for (const char* unit : {"iu", "cmem"}) {
      Job j;
      j.unit = unit;
      j.rtl.unit_prefix = unit;
      j.rtl.models = {rtl::FaultModel::kStuckAt0, rtl::FaultModel::kStuckAt1,
                      rtl::FaultModel::kOpenLine};
      j.rtl.samples = sz.permanent;
      j.rtl.inject_time = fault::InjectTime::kEarly;
      j.rtl.seed = seed;
      jobs.push_back(std::move(j));
    }
  } else if (workload == "iss-regfile") {
    Job j;
    j.unit = "regfile";
    j.iss = true;
    j.iss_cfg.models = {iss::IssFaultModel::kBitFlip,
                        iss::IssFaultModel::kStuckAt1};
    j.iss_cfg.samples = sz.iss;
    j.iss_cfg.seed = seed;
    jobs.push_back(std::move(j));
  } else {
    throw std::invalid_argument("unknown --workload '" + workload + "'");
  }
  return jobs;
}

isa::Program build_program() {
  return workloads::build(kProgram,
                          {.iterations = kIterations, .data_seed = 1});
}

engine::EngineOptions product_options() {
  engine::EngineOptions opts;
  opts.threads = 0;  // one worker per hardware thread
  return opts;
}

// ---- normalised results -------------------------------------------------------

struct PfRow {
  std::string unit;
  std::string model;
  std::size_t detected = 0;    ///< failures + hangs
  std::size_t classified = 0;  ///< runs minus engine errors
};

/// What the benchmark keeps of a finished job: the records reduced to
/// (outcome, latency) — exactly what fault::outcome_hash covers — plus the
/// per-model Pf rows and the replay counters.
struct JobOutcome {
  std::vector<fault::InjectionResult> runs;
  std::vector<PfRow> pf;
  fault::ReplayCounters replay;
  std::size_t transient_sites = 0;
};

std::string rtl_model_name(rtl::FaultModel m) {
  switch (m) {
    case rtl::FaultModel::kStuckAt0: return "sa0";
    case rtl::FaultModel::kStuckAt1: return "sa1";
    case rtl::FaultModel::kOpenLine: return "open";
    case rtl::FaultModel::kTransientBitFlip: return "flip";
    case rtl::FaultModel::kBridge: return "bridge";
  }
  return "?";
}

std::string iss_model_name(iss::IssFaultModel m) {
  switch (m) {
    case iss::IssFaultModel::kStuckAt0: return "sa0";
    case iss::IssFaultModel::kStuckAt1: return "sa1";
    case iss::IssFaultModel::kOpenLine: return "open";
    case iss::IssFaultModel::kBitFlip: return "flip";
  }
  return "?";
}

fault::Outcome iss_outcome(const fault::IssInjectionResult& r) {
  return r.engine_error ? fault::Outcome::kEngineError
         : r.failure    ? fault::Outcome::kFailure
         : r.latent     ? fault::Outcome::kLatent
                        : fault::Outcome::kSilent;
}

JobOutcome normalise(const fault::CampaignResult& r, const std::string& unit) {
  JobOutcome out;
  out.runs = r.runs;
  out.replay = r.replay;
  for (const fault::CampaignStats& s : r.per_model) {
    out.pf.push_back({unit, rtl_model_name(s.model), s.failures + s.hangs,
                      s.runs - s.errors});
  }
  for (const fault::InjectionResult& run : r.runs) {
    if (run.site.model == rtl::FaultModel::kTransientBitFlip) {
      ++out.transient_sites;
    }
  }
  return out;
}

JobOutcome normalise(const fault::IssCampaignResult& r, const std::string& unit) {
  JobOutcome out;
  out.replay = r.replay;
  out.runs.reserve(r.runs.size());
  for (const fault::IssInjectionResult& run : r.runs) {
    fault::InjectionResult x;
    x.outcome = iss_outcome(run);
    x.latency_cycles = run.latency_instr;
    out.runs.push_back(std::move(x));
    if (run.fault.model == iss::IssFaultModel::kBitFlip) ++out.transient_sites;
  }
  for (const fault::IssCampaignStats& s : r.per_model) {
    out.pf.push_back({unit, iss_model_name(s.model), s.failures,
                      s.runs - s.errors});
  }
  return out;
}

/// fault::outcome_hash over every job's records, in job then site order.
u64 workload_hash(const std::vector<JobOutcome>& jobs) {
  fault::CampaignResult all;
  for (const JobOutcome& j : jobs) {
    all.runs.insert(all.runs.end(), j.runs.begin(), j.runs.end());
  }
  return fault::outcome_hash(all);
}

std::size_t count_errors(const std::vector<JobOutcome>& jobs) {
  std::size_t n = 0;
  for (const JobOutcome& j : jobs) {
    for (const fault::InjectionResult& r : j.runs) {
      n += r.outcome == fault::Outcome::kEngineError ? 1 : 0;
    }
  }
  return n;
}

std::unique_ptr<engine::RtlCampaignBackend> make_backend(
    const isa::Program& prog, const fault::CampaignConfig& cfg,
    const engine::EngineOptions& opts) {
  return std::make_unique<engine::RtlCampaignBackend>(prog, cfg,
                                                      rtlcore::CoreConfig{}, opts);
}

std::unique_ptr<engine::IssCampaignBackend> make_backend(
    const isa::Program& prog, const fault::IssCampaignConfig& cfg,
    const engine::EngineOptions& opts) {
  return std::make_unique<engine::IssCampaignBackend>(prog, cfg, opts);
}

// ---- one campaign -------------------------------------------------------------

struct CampaignSample {
  double campaign_s = 0.0;  ///< build -> aggregated result
  double build_s = 0.0;     ///< workloads::build alone
  double run_s = 0.0;       ///< CampaignEngine::run only
  std::size_t sites = 0;
  std::vector<JobOutcome> jobs;
};

template <class Config>
JobOutcome run_job(const isa::Program& prog, const Config& cfg,
                   const std::string& unit, const engine::EngineOptions& opts,
                   Tracer* tr, CampaignSample& sample) {
  std::unique_ptr backend = [&] {
    SpanScope s(tr, "engine.backend_setup");
    return make_backend(prog, cfg, opts);
  }();
  engine::CampaignEngine eng(opts);
  const Clock::time_point t1 = Clock::now();
  auto run = [&] {
    SpanScope s(tr, "engine.run");
    return eng.run(*backend);
  }();
  const Clock::time_point t2 = Clock::now();
  JobOutcome out = [&] {
    SpanScope s(tr, "engine.finish");
    return normalise(backend->finish(std::move(run)), unit);
  }();
  sample.run_s += seconds_between(t1, t2);
  sample.sites += out.runs.size();
  return out;
}

/// One whole campaign of `jobs`: workloads::build, then per job the backend
/// constructor, CampaignEngine::run and backend.finish. `journal_dir`
/// non-empty turns the write-ahead journal on (fresh directory per call).
CampaignSample run_campaign(const std::vector<Job>& jobs,
                            const std::string& journal_dir, Tracer* tr) {
  CampaignSample sample;
  SpanScope root(tr, "campaign");
  const Clock::time_point t0 = Clock::now();
  const isa::Program prog = [&] {
    SpanScope s(tr, "workloads.build");
    return build_program();
  }();
  sample.build_s = seconds_between(t0, Clock::now());
  engine::EngineOptions opts = product_options();
  opts.journal_dir = journal_dir;
  for (const Job& j : jobs) {
    sample.jobs.push_back(j.iss ? run_job(prog, j.iss_cfg, j.unit, opts, tr, sample)
                                : run_job(prog, j.rtl, j.unit, opts, tr, sample));
  }
  sample.campaign_s = seconds_between(t0, Clock::now());
  return sample;
}

/// Every backend constructor of `jobs`, the objects discarded.
void construct_all(const isa::Program& prog, const std::vector<Job>& jobs) {
  const engine::EngineOptions opts = product_options();
  for (const Job& j : jobs) {
    if (j.iss) {
      make_backend(prog, j.iss_cfg, opts);
    } else {
      make_backend(prog, j.rtl, opts);
    }
  }
}

/// Set-up alone: build + every backend constructor.
void setup_only(const std::vector<Job>& jobs) {
  construct_all(build_program(), jobs);
}

/// Shortest span one set-up sample covers. On a shared host the speed of a
/// core flips between a fast and a slow phase (tens of percent apart) from
/// one second to the next, so single 15-130 ms set-ups form two clusters and
/// their median jumps between them; a sample that averages back-to-back
/// set-ups over a fifth of a second sits between the clusters.
constexpr double kSetupSampleS = 0.2;

/// One set-up sample: the mean time of back-to-back set-ups lasting at least
/// kSetupSampleS.
double setup_sample(const std::vector<Job>& jobs) {
  const Clock::time_point t0 = Clock::now();
  std::size_t n = 0;
  do {
    setup_only(jobs);
    ++n;
  } while (seconds_between(t0, Clock::now()) < kSetupSampleS);
  return seconds_between(t0, Clock::now()) / static_cast<double>(n);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- opt-in-mode field access ---------------------------------------------------
// The lane pool and the staged pipeline are opt-in modes slated for a
// keep-or-delete decision. Their knobs and counters are read through these
// accessors so that the benchmark still builds, and reports zeros, once a
// mode is gone.

template <class Opts>
bool set_batch_lanes(Opts& o, unsigned lanes) {
  if constexpr (requires { o.batch_lanes; }) {
    o.batch_lanes = lanes;
    return true;
  } else {
    return false;
  }
}

#define ISSRTL_BENCH_COUNTER(field)                        \
  template <class R>                                       \
  double counter_##field(const R& r) {                     \
    if constexpr (requires { r.field; }) {                 \
      return static_cast<double>(r.field);                 \
    } else {                                               \
      return 0.0;                                          \
    }                                                      \
  }
ISSRTL_BENCH_COUNTER(simd_rounds)
ISSRTL_BENCH_COUNTER(live_lane_rounds)
ISSRTL_BENCH_COUNTER(veceval_lane_cycles)
ISSRTL_BENCH_COUNTER(veceval_escapes)
ISSRTL_BENCH_COUNTER(restores_prefetched)
ISSRTL_BENCH_COUNTER(restores_demand)
ISSRTL_BENCH_COUNTER(snapshot_waits)
#undef ISSRTL_BENCH_COUNTER

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---- report ------------------------------------------------------------------

struct Report {
  std::string workload;
  std::string scale;
  u64 seed = 0;
  unsigned threads = 0;
  std::size_t attempted = 0;
  std::size_t errors = 0;
  std::vector<u64> campaign_hashes;
  std::map<std::string, u64> check_hashes;  ///< traced-run hash pairs
  std::vector<PfRow> pf;
  MetricSet metrics;
  std::vector<std::string> notes;
  std::map<std::string, std::vector<double>> samples;  ///< per-repetition
};

void print_report(const Report& r) {
  std::string out = "{\"workload\":" + json_str(r.workload) +
                    ",\"scale\":" + json_str(r.scale) +
                    ",\"seed\":" + std::to_string(r.seed) +
                    ",\"threads\":" + std::to_string(r.threads) +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"errors\":" + std::to_string(r.errors) +
                    ",\"build_type\":" + json_str(ISSRTL_BENCH_BUILD_TYPE) +
                    ",\"compiler\":" + json_str(ISSRTL_BENCH_COMPILER) +
                    ",\"campaign_hashes\":[";
  for (std::size_t i = 0; i < r.campaign_hashes.size(); ++i) {
    out += (i == 0 ? "" : ",") + json_hex(r.campaign_hashes[i]);
  }
  out += "],\"check_hashes\":{";
  bool first = true;
  for (const auto& [name, h] : r.check_hashes) {
    out += (first ? "" : ",") + json_str(name) + ":" + json_hex(h);
    first = false;
  }
  out += "},\"pf\":[";
  for (std::size_t i = 0; i < r.pf.size(); ++i) {
    const PfRow& p = r.pf[i];
    out += std::string(i == 0 ? "" : ",") + "{\"unit\":" + json_str(p.unit) +
           ",\"model\":" + json_str(p.model) +
           ",\"detected\":" + std::to_string(p.detected) +
           ",\"classified\":" + std::to_string(p.classified) + "}";
  }
  out += "],\"notes\":[";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    out += (i == 0 ? "" : ",") + json_str(r.notes[i]);
  }
  out += "],\"samples\":{";
  first = true;
  for (const auto& [name, v] : r.samples) {
    out += (first ? "" : ",") + json_str(name) + ":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i == 0 ? "" : ",") + json_num(v[i]);
    }
    out += "]";
    first = false;
  }
  out += "},\"metrics\":" + r.metrics.json() + "}";
  std::printf("%s\n", out.c_str());
}

void collect_pf(Report& r, const CampaignSample& s) {
  for (const JobOutcome& j : s.jobs) {
    r.pf.insert(r.pf.end(), j.pf.begin(), j.pf.end());
  }
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scale = "full";
  std::string out_dir = ".bench_build/out";
  std::string run_id = "run";
};

/// Fresh journal directory for one campaign repetition.
std::string journal_dir_for(const Args& a, const std::string& tag) {
  return (fs::path(a.out_dir) / ("journal-" + a.run_id + "-" + tag)).string();
}

// ---- --trace 0 ---------------------------------------------------------------

/// Minimum campaign repetitions per run, whatever --seconds says: a median
/// needs a few samples to mean anything.
constexpr std::size_t kMinReps = 3;
/// Set-up samples per run, interleaved with the campaign repetitions so that
/// they spread over the whole run.
constexpr std::size_t kSetupSamples = 15;

/// Fault-list seed of campaign repetition `rep`. Repetition 0 uses the run's
/// seed itself (the list whose hash is pinned); every later one draws a
/// fresh list from the same seed. Campaign time depends on the list — a
/// handful of long sites and how they fall into the shards moves a
/// rtl-transient campaign by tens of percent — so a run reports the median
/// over many lists instead of one list's time.
u64 list_seed(u64 seed, std::size_t rep) {
  if (rep == 0) return seed;
  engine::Fingerprint fp;
  fp.mix(seed);
  fp.mix(rep);
  return fp.h;
}

Report measure(const Args& a) {
  const Sizes sz = sizes_for(a.scale);
  const bool journal = a.workload == "rtl-transient";
  Report r;
  const Clock::time_point start = Clock::now();
  auto elapsed_share = [&] {
    return a.seconds <= 0.0 ? 1.0
                            : seconds_between(start, Clock::now()) / a.seconds;
  };
  const std::vector<Job> first = jobs_for(a.workload, a.seed, sz);
  std::vector<double> setup_s, campaign_s, rate;
  double rss_mb = 0.0;
  auto campaign = [&](const std::vector<Job>& jobs) {
    const std::string dir =
        journal ? journal_dir_for(a, std::to_string(campaign_s.size())) : "";
    const CampaignSample s = run_campaign(jobs, dir, nullptr);
    if (!dir.empty()) fs::remove_all(dir);
    // Peak RSS as one campaign in a fresh process leaves it: later
    // repetitions only add allocator arenas and fragmentation, and how many
    // fit into --seconds varies from run to run.
    if (campaign_s.empty()) rss_mb = peak_rss_mb();
    campaign_s.push_back(s.campaign_s);
    rate.push_back(ratio(static_cast<double>(s.sites), s.run_s));
    r.attempted += s.sites;
    r.errors += count_errors(s.jobs);
    if (r.pf.empty()) collect_pf(r, s);
    return workload_hash(s.jobs);
  };
  r.campaign_hashes.push_back(campaign(first));
  while (campaign_s.size() < kMinReps || elapsed_share() < 1.0) {
    while (static_cast<double>(setup_s.size()) <
           static_cast<double>(kSetupSamples) * std::min(1.0, elapsed_share())) {
      setup_s.push_back(setup_sample(first));
    }
    campaign(jobs_for(a.workload, list_seed(a.seed, campaign_s.size()), sz));
  }
  while (setup_s.size() < kSetupSamples) setup_s.push_back(setup_sample(first));
  // The first list once more: its hash must repeat within the run.
  r.campaign_hashes.push_back(campaign(first));

  r.metrics.add("campaign_s", median(campaign_s), "s");
  r.metrics.add("setup_s", median(setup_s), "s");
  r.metrics.add("injections_per_s", median(rate), "1/s");
  r.metrics.add("peak_rss_mb", rss_mb, "MB");
  r.metrics.add("classified_share",
                1.0 - ratio(static_cast<double>(r.errors),
                            static_cast<double>(r.attempted)),
                "share");
  r.notes.push_back("campaign repetitions: " + std::to_string(campaign_s.size()) +
                    " over " + std::to_string(campaign_s.size() - 1) +
                    " fault lists, set-up samples: " +
                    std::to_string(setup_s.size()));
  r.samples["campaign_s"] = campaign_s;
  r.samples["setup_s"] = setup_s;
  r.samples["injections_per_s"] = rate;
  return r;
}

// ---- --trace 1 ---------------------------------------------------------------

struct SerialLoop {
  std::vector<JobOutcome> jobs;
  std::vector<double> site_ms;
  std::map<fault::Outcome, double> busy_s;
  std::map<fault::Outcome, std::size_t> sites;
  std::vector<double> append_us;
  double recover_s = 0.0;
  double journal_bytes = 0.0;
};

/// Serial loop over make_worker(0)->run_site(i) in instant order on a fresh
/// backend, timing each site; then every record is re-appended into a fresh
/// OutcomeJournal (timing each append) and the journal is reopened with
/// resume (timing recovery).
template <class Config>
void serial_job(const isa::Program& prog, const Config& cfg,
                const std::string& unit, const std::string& journal_dir,
                Tracer& tr, SerialLoop& out) {
  const engine::EngineOptions opts = product_options();
  auto backend = [&] {
    SpanScope s(&tr, "engine.serial.backend_setup");
    return make_backend(prog, cfg, opts);
  }();
  using Backend = typename decltype(backend)::element_type;
  using Record = typename Backend::Record;
  const std::size_t n = backend->site_count();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return backend->site_instant(x) < backend->site_instant(y);
  });
  engine::EngineRun<Record> run;
  run.records.resize(n);
  run.done.assign(n, 1);
  run.completed = n;
  {
    SpanScope loop(&tr, "engine.serial_loop");
    auto worker = backend->make_worker(0);
    for (const std::size_t i : order) {
      const Clock::time_point t0 = Clock::now();
      {
        SpanScope s(&tr, "engine.run_site");
        run.records[i] = worker->run_site(i);
      }
      const double dt = seconds_between(t0, Clock::now());
      out.site_ms.push_back(dt * 1e3);
      fault::Outcome o;
      if constexpr (std::is_same_v<Record, fault::IssInjectionResult>) {
        o = iss_outcome(run.records[i]);
      } else {
        o = run.records[i].outcome;
      }
      out.busy_s[o] += dt;
      ++out.sites[o];
    }
  }
  {
    SpanScope s(&tr, "engine.journal");
    fs::remove_all(journal_dir);
    {
      engine::OutcomeJournal j(journal_dir, backend->campaign_key(), n, false);
      for (std::size_t i = 0; i < n; ++i) {
        const engine::JournalEntry e = backend->journal_entry(i, run.records[i]);
        const Clock::time_point t0 = Clock::now();
        j.append(e);
        out.append_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      }
      out.journal_bytes += static_cast<double>(fs::file_size(j.path()));
    }
    const Clock::time_point t0 = Clock::now();
    std::size_t recovered = 0;
    {
      SpanScope r(&tr, "engine.journal.recover");
      engine::OutcomeJournal j(journal_dir, backend->campaign_key(), n, true);
      recovered = j.recovered().size();
    }
    out.recover_s += seconds_between(t0, Clock::now());
    fs::remove_all(journal_dir);
    if (recovered != n) {
      throw std::runtime_error("journal recovered " + std::to_string(recovered) +
                               " of " + std::to_string(n) + " records");
    }
  }
  out.jobs.push_back(normalise(backend->finish(std::move(run)), unit));
}

/// Wall time of fn(), recorded as a span.
template <class Fn>
double timed(Tracer& tr, const std::string& name, Fn&& fn) {
  SpanScope s(&tr, name);
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Repetitions of each bare layer probe in a traced run (medians reported).
constexpr int kProbeReps = 5;

/// Medians of the bare layer calls on the workload's program image.
struct LayerProbes {
  double rtl_s = 0.0;         ///< bare Leon3Core run to halt
  double iss_s = 0.0;         ///< bare fast-path Emulator run to halt
  double ctor_s = 0.0;        ///< every backend constructor of the workload
  double fault_list_s = 0.0;  ///< fault::build_fault_list, summed over lists
  u64 cycles = 0;
  u64 instret = 0;
  std::size_t fault_sites = 0;
};

/// The golden-run probes alternate with backend constructions, so that the
/// medians the ladder-capture share is derived from see the same host
/// conditions.
LayerProbes probe_layers(const isa::Program& prog, const std::vector<Job>& jobs,
                         const std::vector<fault::CampaignConfig>& fault_cfgs,
                         Tracer& tr) {
  LayerProbes out;
  std::vector<double> rtl_t, iss_t, ctor_t;
  for (int i = 0; i < kProbeReps; ++i) {
    rtl_t.push_back(timed(tr, "rtlcore.golden", [&] {
      Memory mem;
      rtlcore::Leon3Core core(mem);
      core.load(prog);
      if (core.run() != iss::HaltReason::kHalted) {
        throw std::runtime_error("bare Leon3Core run did not halt cleanly");
      }
      out.cycles = core.cycles();
    }));
    iss_t.push_back(timed(tr, "iss.golden", [&] {
      Memory mem;
      iss::Emulator emu(mem);
      emu.set_fast_path(true);
      emu.load(prog);
      if (emu.run() != iss::HaltReason::kHalted) {
        throw std::runtime_error("bare Emulator run did not halt cleanly");
      }
      out.instret = emu.instret();
    }));
    ctor_t.push_back(timed(tr, "engine.backend_setup.probe",
                           [&] { construct_all(prog, jobs); }));
  }
  out.rtl_s = median(std::move(rtl_t));
  out.iss_s = median(std::move(iss_t));
  out.ctor_s = median(std::move(ctor_t));

  Memory mem;
  rtlcore::Leon3Core core(mem);
  for (const fault::CampaignConfig& cfg : fault_cfgs) {
    std::size_t n = 0;
    std::vector<double> t;
    for (int i = 0; i < kProbeReps; ++i) {
      t.push_back(timed(tr, "fault.build_fault_list", [&] {
        n = fault::build_fault_list(core.sim(), cfg, out.cycles).size();
      }));
    }
    out.fault_list_s += median(std::move(t));
    out.fault_sites += n;
  }
  return out;
}

/// The opt-in lane pool on the rtl-transient sites: batch_lanes = 16 (lane
/// pool + veceval + staged pipeline at their defaults) against the default
/// batch_lanes = 1 engine run of the same sites, both at nproc threads and
/// without a journal. Evidence for the keep-or-delete decision on a mode
/// that is off by default, so it is reported, never gated on.
struct LanePoolRun {
  bool available = false;  ///< EngineOptions still has batch_lanes
  double run_s = 0.0;
  double base_run_s = 0.0;
  u64 hash = 0;
  u64 base_hash = 0;
  fault::ReplayCounters replay;  ///< of the batch_lanes = 16 run
};

LanePoolRun lanepool_evidence(const isa::Program& prog,
                              const fault::CampaignConfig& cfg, Tracer& tr) {
  SpanScope s(&tr, "engine.lanepool");
  LanePoolRun out;
  auto run_at = [&](const engine::EngineOptions& opts, double& run_s, u64& hash,
                    fault::ReplayCounters& counters) {
    auto backend = make_backend(prog, cfg, opts);
    engine::CampaignEngine eng(opts);
    const Clock::time_point t0 = Clock::now();
    auto run = eng.run(*backend);
    run_s = seconds_between(t0, Clock::now());
    const fault::CampaignResult res = backend->finish(std::move(run));
    hash = fault::outcome_hash(res);
    counters = res.replay;
  };
  fault::ReplayCounters base_replay;
  run_at(product_options(), out.base_run_s, out.base_hash, base_replay);
  engine::EngineOptions opts = product_options();
  out.available = set_batch_lanes(opts, kLanePoolLanes);
  if (out.available) run_at(opts, out.run_s, out.hash, out.replay);
  return out;
}

Report traced(const Args& a) {
  const Sizes sz = sizes_for(a.scale);
  const std::vector<Job> jobs = jobs_for(a.workload, a.seed, sz);
  const bool journal = a.workload == "rtl-transient";
  Report r;
  Tracer tr(a.run_id);
  SpanScope root(&tr, "workload_run");

  // Untraced baseline for the tracing overhead.
  std::vector<double> base;
  for (std::size_t i = 0; i < kMinReps; ++i) {
    const std::string dir = journal ? journal_dir_for(a, "base") : "";
    base.push_back(run_campaign(jobs, dir, nullptr).campaign_s);
    if (!dir.empty()) fs::remove_all(dir);
  }

  // The traced campaign.
  const std::string dir = journal ? journal_dir_for(a, "traced") : "";
  const CampaignSample camp = run_campaign(jobs, dir, &tr);
  if (!dir.empty()) fs::remove_all(dir);
  const u64 campaign_hash = workload_hash(camp.jobs);
  r.campaign_hashes.push_back(campaign_hash);
  r.attempted = camp.sites;
  r.errors = count_errors(camp.jobs);
  collect_pf(r, camp);
  fault::ReplayCounters replay;
  std::size_t transient_sites = 0;
  double prefetched = 0, demand = 0, waits = 0;
  for (const JobOutcome& j : camp.jobs) {
    const fault::ReplayCounters& c = j.replay;
    replay.ladder_rungs += c.ladder_rungs;
    replay.ladder_bytes += c.ladder_bytes;
    replay.ladder_evicted += c.ladder_evicted;
    replay.ladder_restores += c.ladder_restores;
    replay.rolling_restores += c.rolling_restores;
    replay.cold_resets += c.cold_resets;
    replay.fast_forward_cycles += c.fast_forward_cycles;
    replay.convergence_cutoffs += c.convergence_cutoffs;
    transient_sites += j.transient_sites;
    prefetched += counter_restores_prefetched(c);
    demand += counter_restores_demand(c);
    waits += counter_snapshot_waits(c);
  }

  // fault::build_fault_list for every RTL job; the ISS backend enumerates
  // its register-file list inside its constructor, so iss-regfile times the
  // rtl-transient list on the same program as the reference figure.
  const isa::Program prog = build_program();
  std::vector<fault::CampaignConfig> rtl_cfgs;
  for (const Job& j : jobs) {
    if (!j.iss) rtl_cfgs.push_back(j.rtl);
  }
  if (rtl_cfgs.empty()) {
    rtl_cfgs.push_back(transient_config(a.seed, sz));
    r.notes.push_back("fault.*: rtl-transient fault list on the same program "
                      "(the ISS list is enumerated inside its constructor)");
  }
  const LayerProbes probe = probe_layers(prog, jobs, rtl_cfgs, tr);

  // Serial worker loop + journal re-append, one fresh backend per job.
  SerialLoop serial;
  {
    SpanScope s(&tr, "engine.serial");
    for (const Job& j : jobs) {
      const std::string jdir = journal_dir_for(a, "reappend-" + j.unit);
      if (j.iss) {
        serial_job(prog, j.iss_cfg, j.unit, jdir, tr, serial);
      } else {
        serial_job(prog, j.rtl, j.unit, jdir, tr, serial);
      }
    }
  }
  const u64 serial_hash = workload_hash(serial.jobs);

  const LanePoolRun lp = lanepool_evidence(prog, transient_config(a.seed, sz), tr);
  if (!lp.available) {
    r.notes.push_back("lane pool: EngineOptions::batch_lanes is gone; "
                      "engine.lanepool.* report 0");
  }
  root.end();

  r.check_hashes["campaign"] = campaign_hash;
  r.check_hashes["serial_loop"] = serial_hash;
  r.check_hashes["lanepool_base"] = lp.base_hash;
  r.check_hashes["lanepool"] = lp.available ? lp.hash : lp.base_hash;

  const unsigned threads = engine::resolve_threads(0, camp.sites);
  const double engine_run_s = camp.run_s;
  const double serial_work_s =
      std::accumulate(serial.site_ms.begin(), serial.site_ms.end(), 0.0) / 1e3;
  // Constructor time minus what the bare probes say its golden run and
  // fault-list enumeration cost: the ladder-capture share of set-up. Each
  // RTL job's constructor runs the golden reference once.
  const bool iss_workload = jobs.front().iss;
  const double build_s = camp.build_s;
  const double ladder_capture_s =
      iss_workload
          ? probe.ctor_s - probe.iss_s
          : probe.ctor_s - probe.rtl_s * static_cast<double>(jobs.size()) -
                probe.fault_list_s;

  MetricSet& m = r.metrics;
  m.add("workloads.build_s", build_s, "s");
  m.add("rtlcore.golden_s", probe.rtl_s, "s");
  m.add("rtlcore.golden_cycles", static_cast<double>(probe.cycles), "count");
  m.add("rtlcore.cycles_per_s",
        ratio(static_cast<double>(probe.cycles), probe.rtl_s), "1/s");
  m.add("iss.golden_s", probe.iss_s, "s");
  m.add("iss.golden_instret", static_cast<double>(probe.instret), "count");
  m.add("iss.instr_per_s",
        ratio(static_cast<double>(probe.instret), probe.iss_s), "1/s");
  m.add("fault.fault_list_s", probe.fault_list_s, "s");
  m.add("fault.sites", static_cast<double>(probe.fault_sites), "count");
  m.add("engine.backend_setup_s", probe.ctor_s, "s");
  m.add("engine.ladder.capture_s", ladder_capture_s, "s");
  m.add("engine.ladder.rungs", static_cast<double>(replay.ladder_rungs), "count");
  m.add("engine.ladder.bytes", static_cast<double>(replay.ladder_bytes), "B");
  m.add("engine.ladder.evicted", static_cast<double>(replay.ladder_evicted),
        "count");
  m.add("engine.replay.ladder_restores",
        static_cast<double>(replay.ladder_restores), "count");
  m.add("engine.replay.rolling_restores",
        static_cast<double>(replay.rolling_restores), "count");
  m.add("engine.replay.cold_resets", static_cast<double>(replay.cold_resets),
        "count");
  m.add("engine.replay.fast_forward_cycles",
        static_cast<double>(replay.fast_forward_cycles), "count");
  m.add("engine.replay.convergence_cutoffs",
        static_cast<double>(replay.convergence_cutoffs), "count");
  m.add("engine.replay.cutoff_share",
        ratio(static_cast<double>(replay.convergence_cutoffs),
              static_cast<double>(transient_sites)),
        "share");

  const double tail = tail_percentile(serial.site_ms.size());
  m.add("engine.site_ms.p50", percentile(serial.site_ms, 50.0), "ms");
  m.add("engine.site_ms.high", percentile(serial.site_ms, tail), "ms");
  m.add("engine.site_ms.high_pct", tail, "%");
  m.add("engine.site_ms.samples", static_cast<double>(serial.site_ms.size()),
        "count");
  const std::pair<const char*, fault::Outcome> kinds[] = {
      {"silent", fault::Outcome::kSilent},
      {"latent", fault::Outcome::kLatent},
      {"failure", fault::Outcome::kFailure},
      {"hang", fault::Outcome::kHang}};
  for (const auto& [name, o] : kinds) {
    m.add(std::string("engine.site_busy_share.") + name,
          ratio(serial.busy_s[o], serial_work_s), "share");
  }
  for (const auto& [name, o] : kinds) {
    m.add(std::string("engine.sites.") + name,
          static_cast<double>(serial.sites[o]), "count");
  }
  m.add("engine.serial_work_s", serial_work_s, "s");
  m.add("engine.shard_efficiency",
        ratio(serial_work_s, static_cast<double>(threads) * engine_run_s),
        "share");

  const double append_tail = tail_percentile(serial.append_us.size());
  m.add("engine.journal.append_us.p50", percentile(serial.append_us, 50.0), "us");
  m.add("engine.journal.append_us.high",
        percentile(serial.append_us, append_tail), "us");
  m.add("engine.journal.recover_s", serial.recover_s, "s");
  m.add("engine.journal.bytes", serial.journal_bytes, "B");

  m.add("engine.pipeline.restores_prefetched", prefetched, "count");
  m.add("engine.pipeline.restores_demand", demand, "count");
  m.add("engine.pipeline.snapshot_waits", waits, "count");

  const double simd_rounds = counter_simd_rounds(lp.replay);
  const double lowered = counter_veceval_lane_cycles(lp.replay);
  m.add("engine.lanepool.run_s", lp.run_s, "s");
  m.add("engine.lanepool.vs_serial", ratio(lp.run_s, lp.base_run_s), "x");
  m.add("engine.lanepool.simd_rounds", simd_rounds, "count");
  m.add("engine.lanepool.mean_live_lanes",
        ratio(counter_live_lane_rounds(lp.replay), simd_rounds), "count");
  m.add("engine.lanepool.hash_equal",
        lp.available && lp.hash == lp.base_hash ? 1.0 : 0.0, "bool");
  m.add("rtl.veceval.lowered_share",
        ratio(lowered, lowered + counter_veceval_escapes(lp.replay)), "share");

  m.add("trace.campaign_s", camp.campaign_s, "s");
  m.add("trace.overhead_s", camp.campaign_s - median(base), "s");

  r.notes.push_back("engine.site_ms.high is p" + json_num(tail) + " of " +
                    std::to_string(serial.site_ms.size()) + " serial sites");
  r.notes.push_back("engine.journal.append_us.high is p" +
                    json_num(append_tail) + " of " +
                    std::to_string(serial.append_us.size()) + " appends");
  r.notes.push_back("engine.lanepool.vs_serial = batch_lanes 16 run / "
                    "batch_lanes 1 run, same rtl-transient sites, " +
                    std::to_string(threads) + " threads (>1: lane pool slower)");
  for (const auto& [name, o] : kinds) {
    r.notes.push_back(std::string("serial busy ") + name + ": " +
                      json_num(serial.busy_s[o]) + " s");
  }
  tr.write(fs::path(a.out_dir) / ("spans-" + a.run_id + ".json"), a.workload,
           a.seed);
  return r;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--scale") a.scale = v;
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--run-id") a.run_id = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    fs::create_directories(a.out_dir);
    Report r = a.trace ? traced(a) : measure(a);
    r.workload = a.workload;
    r.scale = a.scale;
    r.seed = a.seed;
    r.threads = engine::resolve_threads(0, ~std::size_t{0});
    print_report(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
