// Campaign-engine tests: determinism under sharding (N-thread runs must be
// bit-identical to serial), checkpoint/restore correctness for both
// simulation vehicles, and equivalence of the engine's fast paths
// (checkpointing, early divergence cut-off) with the naive serial algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/iss_backend.hpp"
#include "engine/rtl_backend.hpp"
#include "engine/stats.hpp"
#include "isa/assembler.hpp"
#include "workloads/workload.hpp"

namespace issrtl::engine {
namespace {

using fault::CampaignConfig;
using fault::CampaignResult;
using fault::IssCampaignConfig;
using rtl::FaultModel;

isa::Program small_workload() {
  return workloads::build("a2time_x", {.iterations = 1, .data_seed = 1});
}

CampaignConfig rtl_cfg(std::size_t samples) {
  CampaignConfig cfg;
  cfg.samples = samples;
  cfg.models = {FaultModel::kStuckAt1, FaultModel::kOpenLine};
  // Spread inject instants so the rolling checkpoint actually has to move.
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  return cfg;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.golden_cycles, b.golden_cycles);
  EXPECT_EQ(a.golden_instret, b.golden_instret);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const fault::InjectionResult& x = a.runs[i];
    const fault::InjectionResult& y = b.runs[i];
    EXPECT_EQ(x.site.node, y.site.node) << i;
    EXPECT_EQ(x.site.bit, y.site.bit) << i;
    EXPECT_EQ(x.site.inject_cycle, y.site.inject_cycle) << i;
    EXPECT_EQ(x.node_name, y.node_name) << i;
    EXPECT_EQ(x.outcome, y.outcome) << i;
    EXPECT_EQ(x.latency_cycles, y.latency_cycles) << i;
    EXPECT_EQ(x.halt, y.halt) << i;
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    EXPECT_EQ(a.per_model[m].failures, b.per_model[m].failures);
    EXPECT_EQ(a.per_model[m].hangs, b.per_model[m].hangs);
    EXPECT_EQ(a.per_model[m].latent, b.per_model[m].latent);
    EXPECT_EQ(a.per_model[m].silent, b.per_model[m].silent);
    EXPECT_EQ(a.per_model[m].max_latency, b.per_model[m].max_latency);
    EXPECT_DOUBLE_EQ(a.per_model[m].mean_latency, b.per_model[m].mean_latency);
    EXPECT_DOUBLE_EQ(a.per_model[m].pf(), b.per_model[m].pf());
  }
}

// ---- determinism under sharding ---------------------------------------------

TEST(Engine, RtlParallelBitIdenticalToSerial) {
  const auto prog = small_workload();
  const auto cfg = rtl_cfg(40);
  EngineOptions serial;
  serial.threads = 1;
  EngineOptions parallel;
  parallel.threads = 4;
  const CampaignResult a = run_rtl_campaign(prog, cfg, {}, serial);
  const CampaignResult b = run_rtl_campaign(prog, cfg, {}, parallel);
  expect_identical(a, b);
}

TEST(Engine, IssParallelBitIdenticalToSerial) {
  const auto prog = small_workload();
  IssCampaignConfig cfg;
  cfg.samples = 60;
  cfg.models = {iss::IssFaultModel::kStuckAt1, iss::IssFaultModel::kBitFlip};
  EngineOptions serial;
  serial.threads = 1;
  EngineOptions parallel;
  parallel.threads = 4;
  const auto a = run_iss_campaign_engine(prog, cfg, serial);
  const auto b = run_iss_campaign_engine(prog, cfg, parallel);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].failure, b.runs[i].failure) << i;
    EXPECT_EQ(a.runs[i].latent, b.runs[i].latent) << i;
    EXPECT_EQ(a.runs[i].latency_instr, b.runs[i].latency_instr) << i;
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    EXPECT_EQ(a.per_model[m].failures, b.per_model[m].failures);
    EXPECT_EQ(a.per_model[m].latent, b.per_model[m].latent);
    EXPECT_DOUBLE_EQ(a.per_model[m].pf(), b.per_model[m].pf());
  }
}

TEST(Engine, FaultListSeedAndShardStable) {
  // The engine assigns site i to shard i % threads and stores record i in
  // slot i — the fault list itself must not depend on who consumes it.
  Memory mem;
  rtlcore::Leon3Core core(mem);
  const auto cfg = rtl_cfg(64);
  const auto a = fault::build_fault_list(core.sim(), cfg, 10000);
  const auto b = fault::build_fault_list(core.sim(), cfg, 10000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].bit, b[i].bit);
    EXPECT_EQ(a[i].inject_cycle, b[i].inject_cycle);
    EXPECT_EQ(a[i].model, b[i].model);
  }
}

// ---- fast-path equivalence --------------------------------------------------

TEST(Engine, CheckpointingDoesNotChangeResults) {
  const auto prog = small_workload();
  const auto cfg = rtl_cfg(30);
  EngineOptions naive;
  naive.threads = 1;
  naive.checkpoint = false;
  naive.early_stop = false;
  EngineOptions checkpointed;
  checkpointed.threads = 1;
  checkpointed.checkpoint = true;
  checkpointed.early_stop = false;
  expect_identical(run_rtl_campaign(prog, cfg, {}, naive),
                   run_rtl_campaign(prog, cfg, {}, checkpointed));
}

TEST(Engine, EarlyStopPreservesClassification) {
  const auto prog = small_workload();
  const auto cfg = rtl_cfg(30);
  EngineOptions slow;
  slow.threads = 1;
  slow.early_stop = false;
  EngineOptions fast;
  fast.threads = 1;
  fast.early_stop = true;
  const CampaignResult a = run_rtl_campaign(prog, cfg, {}, slow);
  const CampaignResult b = run_rtl_campaign(prog, cfg, {}, fast);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    // halt may legitimately differ (early-stopped runs keep kRunning);
    // outcome, latency and therefore pf() may not.
    EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome) << i;
    EXPECT_EQ(a.runs[i].latency_cycles, b.runs[i].latency_cycles) << i;
  }
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    EXPECT_DOUBLE_EQ(a.per_model[m].pf(), b.per_model[m].pf());
  }
}

TEST(Engine, HangFastForwardPreservesClassification) {
  // Fetch-unit faults are the hang factory: a stuck fetch_pc or redirect
  // bit freezes or derails the front end. Exhaustive over iu.fe.
  const auto prog = small_workload();
  CampaignConfig cfg;
  cfg.unit_prefix = "iu.fe";
  cfg.samples = 0;  // exhaustive: every bit, 66 sites
  cfg.models = {FaultModel::kStuckAt0};
  EngineOptions slow;
  slow.threads = 1;
  slow.hang_fast_forward = false;
  EngineOptions fast;
  fast.threads = 1;
  fast.hang_fast_forward = true;
  const CampaignResult a = run_rtl_campaign(prog, cfg, {}, slow);
  const CampaignResult b = run_rtl_campaign(prog, cfg, {}, fast);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  std::size_t hangs = 0;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome) << a.runs[i].node_name;
    EXPECT_EQ(a.runs[i].latency_cycles, b.runs[i].latency_cycles) << i;
    hangs += b.runs[i].outcome == fault::Outcome::kHang;
  }
  EXPECT_GT(hangs, 0u) << "expected at least one hang among fetch faults";
}

// Cross-refactor regression fixture: per-model outcome counts and a hash of
// the full (outcome, latency) sequence captured from the pre-SoA-kernel
// serial driver (PR 1) for this exact (workload, config, seed). The campaign
// is fully deterministic, so any divergence — at any thread count, and at
// any checkpoint-ladder configuration (disabled, auto, explicit stride) —
// means a semantic change in the kernel, the memory model or the engine.
TEST(Engine, ResultsBitIdenticalToPreRefactorBaseline) {
  const auto prog = workloads::build("rspeed", {.iterations = 1, .data_seed = 1});
  CampaignConfig cfg;
  cfg.unit_prefix = "iu";
  cfg.samples = 60;
  cfg.models = {FaultModel::kStuckAt1};
  cfg.inject_time = fault::InjectTime::kUniformRandom;

  for (const unsigned threads : {1u, 3u}) {
    for (const u64 stride : {u64{0}, kLadderStrideAuto, u64{977}}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.ladder_stride = stride;
      const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
      EXPECT_EQ(r.golden_cycles, 134966u) << threads;
      EXPECT_EQ(r.golden_instret, 41181u) << threads;
      const fault::CampaignStats s = r.stats_for(FaultModel::kStuckAt1);
      EXPECT_EQ(s.runs, 60u) << threads;
      EXPECT_EQ(s.failures, 13u) << threads;
      EXPECT_EQ(s.hangs, 0u) << threads;
      EXPECT_EQ(s.latent, 2u) << threads;
      EXPECT_EQ(s.silent, 45u) << threads;
      EXPECT_EQ(s.max_latency, 131258u) << threads;
      EXPECT_EQ(fault::outcome_hash(r), 53577475502873108ull)
          << threads << " threads, stride " << stride;
    }
  }
}

// ---- activation oracle ------------------------------------------------------

// Permanent faults on the whole design (iu and cmem), every permanent model,
// two uniformly drawn instants per site.
CampaignConfig oracle_cfg() {
  CampaignConfig cfg;
  cfg.unit_prefix = "";
  cfg.samples = 40;
  cfg.models = {FaultModel::kStuckAt0, FaultModel::kStuckAt1,
                FaultModel::kOpenLine};
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  cfg.instants_per_site = 2;
  return cfg;
}

// Every site the oracle classifies without simulating it, re-simulated from
// reset on a bare core with its fault armed, is indistinguishable from the
// golden run: same halt cycle, writes, architectural state and memory. The
// decided sites include port-read register-file and cache-array sites whose
// golden value leaves the stuck value after the instant — sites only the
// read-activated watch can decide.
TEST(ActivationOracle, ClassifiedSitesAreSilentFromReset) {
  const auto prog = small_workload();
  const CampaignConfig cfg = oracle_cfg();
  EngineOptions opts;
  opts.threads = 2;
  RtlCampaignBackend backend(prog, cfg, {}, opts);
  CampaignEngine engine(opts);
  const CampaignResult r = backend.finish(engine.run(backend));
  ASSERT_EQ(r.runs.size(), backend.site_count());

  Memory golden_mem;
  rtlcore::Leon3Core golden(golden_mem);
  golden.load(prog);
  ASSERT_EQ(golden.run(), iss::HaltReason::kHalted);

  std::size_t oracle = 0;
  std::set<std::string> units;
  std::set<std::string> port_read_units;
  std::set<FaultModel> models;
  std::vector<fault::FaultSite> port_read_sites;
  for (std::size_t i = 0; i < backend.site_count(); ++i) {
    if (!backend.never_activated(i)) continue;
    ++oracle;
    const fault::FaultSite& site = backend.sites()[i];
    const fault::InjectionResult& rec = r.runs[i];
    units.insert(rec.unit.substr(0, rec.unit.find('.')));
    models.insert(site.model);
    if (golden.sim().port_read(site.node)) {
      port_read_units.insert(rec.unit);
      port_read_sites.push_back(site);
    }
    EXPECT_EQ(rec.outcome, fault::Outcome::kSilent) << i;
    EXPECT_EQ(rec.latency_cycles, 0u) << i;
    EXPECT_EQ(rec.halt, iss::HaltReason::kHalted) << i;

    Memory mem;
    rtlcore::Leon3Core core(mem);
    core.load(prog);
    while (core.cycles() < site.inject_cycle &&
           core.halt_reason() == iss::HaltReason::kRunning) {
      core.step();
    }
    core.sim().arm_fault(site.node, site.model, site.bit);
    SCOPED_TRACE(rec.node_name + " bit " + std::to_string(site.bit) + " @" +
                 std::to_string(site.inject_cycle));
    EXPECT_EQ(core.run(2 * golden.cycles()), iss::HaltReason::kHalted);
    EXPECT_EQ(core.cycles(), golden.cycles());
    EXPECT_EQ(core.offcore().writes().size(), golden.offcore().writes().size());
    EXPECT_FALSE(core.offcore().compare_writes(golden.offcore()).diverged);
    EXPECT_EQ(core.arch_state(), golden.arch_state());
    EXPECT_TRUE(core.memory().equals(golden_mem));
  }
  EXPECT_GT(oracle, 0u);
  EXPECT_LT(oracle, backend.site_count());
  EXPECT_EQ(units, (std::set<std::string>{"cmem", "iu"}));
  // Stuck-at-1 sites are decided too: a register-file or cache entry idling
  // at 0 is harmless until a port reads it.
  EXPECT_EQ(models, (std::set<FaultModel>{FaultModel::kStuckAt0,
                                          FaultModel::kStuckAt1,
                                          FaultModel::kOpenLine}));
  EXPECT_EQ(port_read_units.count("iu.regfile"), 1u);
  EXPECT_TRUE(port_read_units.count("cmem.icache") +
                  port_read_units.count("cmem.dcache") >
              0);
  EXPECT_EQ(r.replay.activation_port_read, port_read_sites.size());

  // One more golden pass: count the decided port-read sites whose golden
  // value has the bit off v (open-line: the bit at the instant) at some
  // cycle boundary at or after the instant. The value watch activates on
  // such a boundary value, so only the read-activated watch decides them.
  std::sort(port_read_sites.begin(), port_read_sites.end(),
            [](const fault::FaultSite& a, const fault::FaultSite& b) {
              return a.inject_cycle < b.inject_cycle;
            });
  std::vector<u32> want(port_read_sites.size());
  std::vector<bool> off_at_boundary(port_read_sites.size(), false);
  Memory mem;
  rtlcore::Leon3Core core(mem);
  core.load(prog);
  std::size_t armed = 0;
  for (;;) {
    const rtl::SimContext& sim = core.sim();
    while (armed < port_read_sites.size() &&
           std::min(port_read_sites[armed].inject_cycle, golden.cycles()) ==
               core.cycles()) {
      const fault::FaultSite& s = port_read_sites[armed];
      const u32 mask = 1u << s.bit;
      want[armed++] = s.model == FaultModel::kStuckAt1   ? mask
                      : s.model == FaultModel::kOpenLine ? sim.value(s.node) & mask
                                                         : 0;
    }
    for (std::size_t k = 0; k < armed; ++k) {
      const fault::FaultSite& s = port_read_sites[k];
      if ((sim.value(s.node) & (1u << s.bit)) != want[k]) {
        off_at_boundary[k] = true;
      }
    }
    if (core.halt_reason() != iss::HaltReason::kRunning) break;
    core.step();
  }
  EXPECT_EQ(armed, port_read_sites.size());
  EXPECT_GT(std::count(off_at_boundary.begin(), off_at_boundary.end(), true),
            0);
  EXPECT_EQ(r.replay.activation_silent, oracle);
  EXPECT_GE(r.replay.activation_candidates, oracle);
  EXPECT_GT(r.replay.activation_scan_cycles, 0u);
}

// The oracle leaves every record schedule-invariant: the same hash at any
// thread count and ladder stride (the rung filter differs per stride; stride
// 0 scans every permanent site), and the same sites classified.
TEST(ActivationOracle, HashInvariantAcrossThreadsAndStride) {
  const auto prog = small_workload();
  const CampaignConfig cfg = oracle_cfg();
  u64 ref_hash = 0;
  u64 ref_silent = 0;
  bool have_ref = false;
  for (const unsigned threads : {1u, 3u}) {
    for (const u64 stride : {u64{0}, kLadderStrideAuto, u64{977}}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.ladder_stride = stride;
      const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
      SCOPED_TRACE(std::to_string(threads) + " threads, stride " +
                   std::to_string(stride));
      if (!have_ref) {
        ref_hash = fault::outcome_hash(r);
        ref_silent = r.replay.activation_silent;
        have_ref = true;
      }
      EXPECT_EQ(fault::outcome_hash(r), ref_hash);
      EXPECT_EQ(r.replay.activation_silent, ref_silent);
      EXPECT_GT(r.replay.activation_silent, 0u);
      if (stride == 0) {
        EXPECT_EQ(r.replay.activation_candidates, r.runs.size());
      }
    }
  }
}

// Transient faults never reach the oracle.
TEST(ActivationOracle, OffForTransients) {
  const auto prog = small_workload();
  CampaignConfig cfg = oracle_cfg();
  cfg.samples = 12;
  cfg.models = {FaultModel::kTransientBitFlip};
  EngineOptions opts;
  opts.threads = 1;
  RtlCampaignBackend backend(prog, cfg, {}, opts);
  CampaignEngine engine(opts);
  const CampaignResult t = backend.finish(engine.run(backend));
  for (std::size_t i = 0; i < backend.site_count(); ++i) {
    EXPECT_FALSE(backend.never_activated(i)) << i;
  }
  EXPECT_EQ(t.replay.activation_candidates, 0u);
  EXPECT_EQ(t.replay.activation_silent, 0u);
}

// ---- register-liveness oracle (ISS) -----------------------------------------

using Liveness = IssCampaignBackend::Liveness;

/// The golden run of `prog` on a bare emulator with its register-file
/// accesses logged per instruction: steps[k-1] holds instruction k's reads
/// (physical register -> value read) and writes.
struct IssGolden {
  struct Step {
    std::map<unsigned, u32> reads;
    std::set<unsigned> writes;
  };
  std::vector<Step> steps;
  OffCoreTrace trace;
  iss::ArchState state;
  u64 instret = 0;
};

IssGolden iss_golden(const isa::Program& prog) {
  struct Log final : iss::RegAccessObserver {
    std::vector<IssGolden::Step>* steps = nullptr;
    void on_read(unsigned p, u32 v) override { steps->back().reads[p] = v; }
    void on_write(unsigned p) override { steps->back().writes.insert(p); }
  };
  IssGolden g;
  Memory mem;
  iss::Emulator e(mem);
  e.load(prog);
  Log log;
  log.steps = &g.steps;
  while (e.halt_reason() == iss::HaltReason::kRunning) {
    g.steps.emplace_back();
    e.step_observed(log);
  }
  EXPECT_EQ(e.halt_reason(), iss::HaltReason::kHalted);
  g.trace = e.offcore();
  g.state = e.state();
  g.instret = e.instret();
  return g;
}

/// Site `f` simulated from reset on a bare emulator and classified like the
/// serial driver (same watchdog): the record an oracle verdict must equal.
/// `reg_at_instant` receives the golden value of the site's register at its
/// instant.
fault::IssInjectionResult simulate_from_reset(const isa::Program& prog,
                                              const IssGolden& g,
                                              const iss::IssFault& f,
                                              double watchdog_factor,
                                              u32& reg_at_instant) {
  Memory mem;
  iss::Emulator e(mem);
  e.load(prog);
  e.advance(f.inject_at_instr);
  reg_at_instant = e.state().regs[f.phys_reg];
  e.arm_fault(f);
  const u64 watchdog = static_cast<u64>(
      static_cast<double>(g.instret) * watchdog_factor + 1000);
  const iss::HaltReason halt = e.run(watchdog - e.instret());
  fault::IssInjectionResult r;
  r.fault = f;
  const TraceDivergence div = e.offcore().compare_writes(g.trace);
  if (div.diverged || halt != iss::HaltReason::kHalted) {
    r.failure = true;
    r.latency_instr = div.diverged && div.cycle > f.inject_at_instr
                          ? div.cycle - f.inject_at_instr
                          : 0;
  } else {
    r.latent = !(e.state().regs == g.state.regs && e.state().icc == g.state.icc &&
                 e.state().y == g.state.y);
  }
  return r;
}

/// The oracle's rule restated over the full access log (instructions t+1
/// onward count). `edge` names the boundary case the site exercises, if any.
Liveness expected_liveness(const IssGolden& g, const iss::IssFault& f,
                           u32 reg_at_instant, std::string& edge) {
  const u64 t = f.inject_at_instr;
  const unsigned p = f.phys_reg;
  const auto bit = [&f](u32 v) { return ((v >> f.bit) & 1u) != 0; };
  if (f.model == iss::IssFaultModel::kBitFlip) {
    for (u64 k = t + 1; k <= g.steps.size(); ++k) {
      const IssGolden::Step& s = g.steps[k - 1];
      if (s.reads.count(p) != 0) {
        if (k == t + 1) edge = "flip read by instruction t+1";
        return Liveness::kSimulate;
      }
      if (s.writes.count(p) != 0) {
        edge = "flip then write";
        return Liveness::kSilent;
      }
    }
    if (t >= 1 && g.steps[t - 1].writes.count(p) != 0) {
      edge = "written by instruction t, then untouched";
    }
    return Liveness::kLatent;
  }
  const bool v = f.model == iss::IssFaultModel::kStuckAt1 ||
                 (f.model == iss::IssFaultModel::kOpenLine &&
                  bit(reg_at_instant));
  bool read = false;
  for (u64 k = t + 1; k <= g.steps.size(); ++k) {
    const auto it = g.steps[k - 1].reads.find(p);
    if (it == g.steps[k - 1].reads.end()) continue;
    if (bit(it->second) != v) return Liveness::kSimulate;
    read = true;
  }
  if (read) edge = "stuck bit read only while the golden bit equals it";
  return bit(g.state.regs[p]) != v ? Liveness::kLatent : Liveness::kSilent;
}

struct OracleCheck {
  std::map<std::string, std::size_t> edges;  ///< edge case -> sites
  std::set<iss::IssFaultModel> models;       ///< models with decided sites
  std::size_t silent = 0;
  std::size_t latent = 0;
  u64 hash = 0;
};

/// Run `cfg` on the engine, then check every site's oracle verdict against
/// the restated rule and every decided site's record against a simulation
/// from reset.
OracleCheck check_iss_oracle(const isa::Program& prog,
                             const IssCampaignConfig& cfg) {
  OracleCheck out;
  EngineOptions opts;
  opts.threads = 2;
  IssCampaignBackend backend(prog, cfg, opts);
  CampaignEngine engine(opts);
  const fault::IssCampaignResult r = backend.finish(engine.run(backend));
  EXPECT_EQ(r.runs.size(), backend.site_count());
  out.hash = fault::outcome_hash(r);
  const IssGolden g = iss_golden(prog);
  EXPECT_EQ(g.instret, r.golden_instret);
  for (std::size_t i = 0; i < backend.site_count(); ++i) {
    const iss::IssFault& f = backend.faults()[i];
    const Liveness got = backend.liveness(i);
    u32 reg_at_instant = 0;
    const fault::IssInjectionResult ref =
        simulate_from_reset(prog, g, f, cfg.watchdog_factor, reg_at_instant);
    std::string edge;
    const Liveness want = expected_liveness(g, f, reg_at_instant, edge);
    SCOPED_TRACE("site " + std::to_string(i) + ": model " +
                 std::to_string(static_cast<int>(f.model)) + " p" +
                 std::to_string(f.phys_reg) + " bit " + std::to_string(f.bit) +
                 " @" + std::to_string(f.inject_at_instr));
    EXPECT_EQ(got, want);
    if (!edge.empty()) ++out.edges[edge];
    if (got == Liveness::kSimulate) continue;
    out.models.insert(f.model);
    ++(got == Liveness::kLatent ? out.latent : out.silent);
    const fault::IssInjectionResult& rec = r.runs[i];
    EXPECT_FALSE(rec.engine_error);
    EXPECT_EQ(rec.failure, ref.failure);
    EXPECT_EQ(rec.latent, ref.latent);
    EXPECT_EQ(rec.latency_instr, ref.latency_instr);
    EXPECT_EQ(rec.latent, got == Liveness::kLatent);
  }
  EXPECT_EQ(r.replay.activation_silent, out.silent);
  EXPECT_EQ(r.replay.activation_latent, out.latent);
  EXPECT_EQ(r.replay.activation_candidates, backend.site_count());
  EXPECT_GT(r.replay.activation_scan_cycles, 0u);
  return out;
}

IssCampaignConfig all_iss_models(std::size_t samples) {
  IssCampaignConfig cfg;
  cfg.samples = samples;
  cfg.models = {iss::IssFaultModel::kBitFlip, iss::IssFaultModel::kStuckAt0,
                iss::IssFaultModel::kStuckAt1, iss::IssFaultModel::kOpenLine};
  return cfg;
}

// Every model on two real workloads: the oracle decides a share of each
// model's sites, each decided record equals a simulation from reset, and
// the verdicts follow the rule exactly.
TEST(IssOracle, ClassifiedSitesMatchSimulationFromReset) {
  for (const char* name : {"rspeed", "a2time_x"}) {
    SCOPED_TRACE(name);
    const auto prog = workloads::build(name, {.iterations = 1, .data_seed = 1});
    const OracleCheck c = check_iss_oracle(prog, all_iss_models(40));
    EXPECT_EQ(c.models.size(), 4u);
    EXPECT_GT(c.latent, 0u);
  }
}

// A hand-written program dense in the boundary cases: dead writes (a flip
// armed right after one is latent), overwrites without a read (silent), an
// operand read by the very next instruction (simulated), and a register
// whose later reads all agree with a stuck bit (decided). The sampled
// sites must hit every case.
TEST(IssOracle, BoundaryCases) {
  isa::Assembler a("oracle_edges");
  using isa::Reg;
  const u32 buf = a.data_zero(16);
  a.set32(Reg::l0, buf);
  a.mov(Reg::o0, 0x70);
  a.mov(Reg::o1, 1);  // never accessed again
  a.mov(Reg::o2, 2);  // never accessed again
  a.mov(Reg::o3, 3);  // overwritten below before any read
  a.add(Reg::o4, Reg::o0, 1);
  a.st(Reg::o4, Reg::l0, 0);
  a.mov(Reg::l1, 4);  // never accessed again
  a.add(Reg::o5, Reg::o0, Reg::o0);
  a.mov(Reg::o3, 5);
  a.st(Reg::o3, Reg::l0, 4);
  a.mov(Reg::l2, 6);  // never accessed again
  a.or_(Reg::l3, Reg::o0, 0x70);
  a.st(Reg::o0, Reg::l0, 8);
  a.mov(Reg::o4, 0);
  a.mov(Reg::o5, 0);
  a.st(Reg::l3, Reg::l0, 12);
  // Instants are drawn from the first half of the run: pad it so they
  // cover all of the above.
  for (int i = 0; i < 20; ++i) a.nop();
  a.halt();
  const isa::Program prog = a.finalize();
  const OracleCheck c = check_iss_oracle(prog, all_iss_models(6000));
  EXPECT_EQ(c.models.size(), 4u);
  EXPECT_GT(c.silent, 0u);
  EXPECT_GT(c.latent, 0u);
  for (const char* edge :
       {"flip read by instruction t+1", "flip then write",
        "written by instruction t, then untouched",
        "stuck bit read only while the golden bit equals it"}) {
    EXPECT_EQ(c.edges.count(edge), 1u) << edge;
  }
}

// The oracle leaves every record schedule-invariant: the same hash and the
// same decided sites at any thread count, ladder stride (stride 0 scans
// from reset) and ISS fast-path setting.
TEST(IssOracle, HashInvariantAcrossThreadsStrideAndFastPath) {
  const auto prog = workloads::build("rspeed", {.iterations = 1, .data_seed = 1});
  const IssCampaignConfig cfg = all_iss_models(30);
  u64 ref_hash = 0;
  u64 ref_decided = 0;
  bool have_ref = false;
  for (const unsigned threads : {1u, 3u}) {
    for (const u64 stride : {u64{0}, kLadderStrideAuto, u64{977}}) {
      for (const bool fast : {false, true}) {
        EngineOptions opts;
        opts.threads = threads;
        opts.ladder_stride = stride;
        opts.iss_fast_path = fast;
        const auto r = run_iss_campaign_engine(prog, cfg, opts);
        SCOPED_TRACE(std::to_string(threads) + " threads, stride " +
                     std::to_string(stride) + ", fast path " +
                     std::to_string(fast));
        const u64 decided =
            r.replay.activation_silent + r.replay.activation_latent;
        if (!have_ref) {
          ref_hash = fault::outcome_hash(r);
          ref_decided = decided;
          have_ref = true;
        }
        EXPECT_EQ(fault::outcome_hash(r), ref_hash);
        EXPECT_EQ(decided, ref_decided);
        EXPECT_GT(decided, r.runs.size() / 2);
      }
    }
  }
}

// Sites that do read their flipped register still run, and the bit-flip
// convergence cut-off still ends some of them at a ladder rung.
TEST(IssOracle, ConvergenceCutoffStillFires) {
  const auto prog = workloads::build("rspeed", {.iterations = 1, .data_seed = 1});
  IssCampaignConfig cfg;
  cfg.samples = 200;
  cfg.models = {iss::IssFaultModel::kBitFlip};
  EngineOptions opts;
  opts.threads = 2;
  const auto r = run_iss_campaign_engine(prog, cfg, opts);
  EXPECT_GT(r.replay.convergence_cutoffs, 0u);
  EXPECT_LT(r.replay.activation_silent + r.replay.activation_latent,
            r.runs.size());
}

// A watchdog shorter than the golden run turns the oracle off: the golden
// run is then no longer what an unactivated fault's run would do.
TEST(IssOracle, OffWhenWatchdogIsShorterThanGoldenRun) {
  const auto prog = workloads::build("rspeed", {.iterations = 1, .data_seed = 1});
  IssCampaignConfig cfg = all_iss_models(8);
  cfg.watchdog_factor = 0.25;
  EngineOptions opts;
  opts.threads = 1;
  IssCampaignBackend backend(prog, cfg, opts);
  CampaignEngine engine(opts);
  const auto r = backend.finish(engine.run(backend));
  for (std::size_t i = 0; i < backend.site_count(); ++i) {
    EXPECT_EQ(backend.liveness(i), Liveness::kSimulate) << i;
  }
  EXPECT_EQ(r.replay.activation_candidates, 0u);
  EXPECT_EQ(r.replay.activation_silent, 0u);
  EXPECT_EQ(r.replay.activation_latent, 0u);
  EXPECT_EQ(r.replay.activation_scan_cycles, 0u);
}

// ---- convergence cut-off ---------------------------------------------------

// Exhaustive iu.ex bit flips on rspeed at two instants per site drawn from
// the whole golden run: a campaign in which some runs rejoin the golden
// state a few cycles early or late (a flip on the multicycle countdown
// changes a stall length), so the cut-off fires at shifted rungs.
CampaignConfig shifted_cutoff_cfg() {
  CampaignConfig cfg;
  cfg.unit_prefix = "iu.ex";
  cfg.samples = 0;
  cfg.instants_per_site = 2;
  cfg.instant_window = fault::InstantWindow::kFull;
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  cfg.models = {FaultModel::kTransientBitFlip};
  return cfg;
}

// Every record of a campaign whose cut-off fires at shifted rungs equals,
// site by site, the record of the same campaign simulated to the end with
// the cut-off off — at 1 and 3 threads, auto and explicit ladder strides.
TEST(ConvergenceCutoff, ShiftedMatchesFullSimulation) {
  const auto prog = workloads::build("rspeed", {.iterations = 1,
                                                .data_seed = 1});
  const CampaignConfig cfg = shifted_cutoff_cfg();
  EngineOptions full;
  full.threads = 3;
  full.converge_cutoff = false;
  const CampaignResult reference = run_rtl_campaign(prog, cfg, {}, full);
  EXPECT_EQ(reference.replay.convergence_cutoffs, 0u);
  EXPECT_EQ(fault::outcome_hash(reference), 0xa27115eab30b4e3dull);
  for (const unsigned threads : {1u, 3u}) {
    for (const u64 stride : {kLadderStrideAuto, u64{977}}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, stride " +
                   std::to_string(stride));
      EngineOptions opts;
      opts.threads = threads;
      opts.ladder_stride = stride;
      const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
      expect_identical(r, reference);
      EXPECT_GT(r.replay.shifted_cutoffs, 0u);
      EXPECT_GT(r.replay.convergence_cutoffs, r.replay.shifted_cutoffs);
    }
  }
}

// With the watchdog two cycles past the golden halt, a run that rejoins the
// golden state late would halt past the watchdog: its match must be refused
// and the run simulated into the hang record the watchdog rule gives. With
// the watchdog below the golden halt, every match is refused. The records,
// hangs and their latencies included, equal the uncut run's.
TEST(ConvergenceCutoff, RefusedPastWatchdog) {
  const auto prog = workloads::build("rspeed", {.iterations = 1,
                                                .data_seed = 1});
  CampaignConfig cfg = shifted_cutoff_cfg();
  cfg.instants_per_site = 1;  // one late rejoin among 325 sites is enough
  EngineOptions opts;
  opts.threads = 3;
  const CampaignResult roomy = run_rtl_campaign(prog, cfg, {}, opts);
  // watchdog = golden * factor + 1000 (truncated).
  const double golden = static_cast<double>(roomy.golden_cycles);
  for (const double watchdog : {golden + 2.0, 0.9 * golden}) {
    SCOPED_TRACE("watchdog " + std::to_string(watchdog));
    cfg.watchdog_factor = (watchdog - 1000.0 + 0.5) / golden;
    EngineOptions full = opts;
    full.converge_cutoff = false;
    const CampaignResult reference = run_rtl_campaign(prog, cfg, {}, full);
    const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
    expect_identical(r, reference);
    const fault::CampaignStats s =
        r.stats_for(FaultModel::kTransientBitFlip);
    EXPECT_GT(s.hangs, 0u);
    EXPECT_LT(r.replay.shifted_cutoffs, roomy.replay.shifted_cutoffs);
  }
}

// The rung-state predicate behind the cut-off accepts the golden core at the
// rung's cycle and rejects a state that differs from it in one component
// only. In a campaign, memory never differs once every write has matched
// (all stores go through the bus record), so only this test sees the
// memory half of the predicate.
TEST(ConvergenceCutoff, RungPredicateComparesEveryComponent) {
  const auto prog = workloads::build("rspeed", {.iterations = 1,
                                                .data_seed = 1});
  CampaignConfig cfg = shifted_cutoff_cfg();
  cfg.samples = 1;
  const RtlCampaignBackend backend(prog, cfg, {}, EngineOptions{});
  const auto& rungs = backend.ladder().rungs();
  ASSERT_GT(rungs.size(), 2u);
  const auto& rung = rungs[rungs.size() / 2];
  const RtlCampaignBackend::GoldenSnapshot& g = *rung.snap;

  Memory mem;
  prog.load_into(mem);
  rtlcore::Leon3Core core(mem);
  core.reset(prog.entry);
  while (core.cycles() < rung.instant) core.step();
  EXPECT_TRUE(matches(g, core));
  const rtlcore::CoreCheckpoint ck = core.checkpoint();

  const u32 word = mem.load_u32(prog.code_base);
  mem.store_u32(prog.code_base, word ^ 1u);
  EXPECT_FALSE(matches(g, core)) << "memory word";
  mem.store_u32(prog.code_base, word);
  EXPECT_TRUE(matches(g, core));

  const auto expect_rejected = [&](const char* what, auto&& perturb) {
    rtlcore::CoreCheckpoint bad = ck;
    perturb(bad);
    core.restore(bad);
    EXPECT_FALSE(matches(g, core)) << what;
  };
  expect_rejected("slot seq", [](auto& c) { ++c.slot_seq[2]; });
  expect_rejected("next fetch seq", [](auto& c) { ++c.next_fetch_seq; });
  expect_rejected("redirect seq", [](auto& c) { ++c.redirect_after_seq; });
  expect_rejected("annul seq", [](auto& c) { ++c.annul_seq; });
  expect_rejected("node value", [](auto& c) { c.node_values[0] ^= 1u; });
  expect_rejected("bus writes", [](auto& c) { c.offcore = OffCoreTrace{}; });
  core.restore(ck);
  EXPECT_TRUE(matches(g, core));
}

// ---- checkpoint correctness -------------------------------------------------

// The full-window instant draw (InstantWindow::kFull) must reach the second
// half of the golden run — the states the legacy half-window draw could
// never sample — while the default keeps the historical draw bit-identical.
// Late instants stay schedule-invariant.
TEST(Engine, InstantWindowFullReachesSecondHalf) {
  const auto prog = small_workload();
  CampaignConfig cfg;
  cfg.unit_prefix = "iu.fe";
  cfg.samples = 40;
  cfg.instants_per_site = 3;
  cfg.models = {FaultModel::kTransientBitFlip, FaultModel::kStuckAt0};
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  CampaignConfig full = cfg;
  full.instant_window = fault::InstantWindow::kFull;

  EngineOptions opts;
  opts.threads = 1;
  const CampaignResult rh = run_rtl_campaign(prog, cfg, {}, opts);
  const CampaignResult rf = run_rtl_campaign(prog, full, {}, opts);
  u64 half_max = 0, full_max = 0;
  for (const auto& run : rh.runs) {
    half_max = std::max(half_max, run.site.inject_cycle);
  }
  for (const auto& run : rf.runs) {
    full_max = std::max(full_max, run.site.inject_cycle);
  }
  // Legacy window: never past golden/2. Full window: each of the ~240
  // draws lands in the second half with probability 1/2.
  EXPECT_LE(half_max, rh.golden_cycles / 2);
  EXPECT_GT(full_max, rf.golden_cycles / 2);

  EngineOptions threaded = opts;
  threaded.threads = 3;
  expect_identical(rf, run_rtl_campaign(prog, full, {}, threaded));
}

TEST(Checkpoint, RtlCoreResumesToIdenticalRun) {
  const auto prog = small_workload();

  Memory ref_mem;
  rtlcore::Leon3Core ref(ref_mem);
  ref.load(prog);
  ASSERT_EQ(ref.run(), iss::HaltReason::kHalted);

  Memory mem;
  rtlcore::Leon3Core core(mem);
  core.load(prog);
  const u64 mid = ref.cycles() / 2;
  while (core.cycles() < mid) core.step();
  const rtlcore::CoreCheckpoint ck = core.checkpoint();
  const Memory ck_mem = mem.clone();

  // Run to completion once...
  ASSERT_EQ(core.run(), iss::HaltReason::kHalted);
  const u64 cycles_a = core.cycles();
  const auto writes_a = core.offcore().writes();
  const iss::ArchState state_a = core.arch_state();

  // ...then rewind to the checkpoint and run again.
  core.sim().clear_faults();
  core.restore(ck);
  mem = ck_mem.clone();
  EXPECT_EQ(core.cycles(), mid);
  ASSERT_EQ(core.run(), iss::HaltReason::kHalted);

  EXPECT_EQ(core.cycles(), cycles_a);
  EXPECT_EQ(core.instret(), ref.instret());
  const auto& writes_b = core.offcore().writes();
  ASSERT_EQ(writes_a.size(), writes_b.size());
  for (std::size_t i = 0; i < writes_a.size(); ++i) {
    EXPECT_TRUE(writes_a[i].same_payload(writes_b[i])) << i;
    EXPECT_EQ(writes_a[i].cycle, writes_b[i].cycle) << i;
  }
  EXPECT_EQ(state_a, core.arch_state());
  EXPECT_TRUE(core.memory().equals(ref_mem));
  EXPECT_FALSE(core.offcore().compare_writes(ref.offcore()).diverged);
}

TEST(Checkpoint, IssEmulatorResumesToIdenticalRun) {
  const auto prog = small_workload();

  Memory ref_mem;
  iss::Emulator ref(ref_mem);
  ref.load(prog);
  ASSERT_EQ(ref.run(), iss::HaltReason::kHalted);

  Memory mem;
  iss::Emulator emu(mem);
  emu.load(prog);
  const u64 mid = ref.instret() / 2;
  while (emu.instret() < mid) emu.step();
  const iss::EmuCheckpoint ck = emu.checkpoint();
  const Memory ck_mem = mem.clone();

  ASSERT_EQ(emu.run(), iss::HaltReason::kHalted);
  const u64 instret_a = emu.instret();
  const auto writes_a = emu.offcore().writes();
  const iss::ArchState state_a = emu.state();
  const unsigned diversity_a = emu.trace().diversity();

  emu.clear_faults();
  emu.restore(ck);
  mem = ck_mem.clone();
  EXPECT_EQ(emu.instret(), mid);
  ASSERT_EQ(emu.run(), iss::HaltReason::kHalted);

  EXPECT_EQ(emu.instret(), instret_a);
  EXPECT_EQ(emu.trace().diversity(), diversity_a);
  const auto& writes_b = emu.offcore().writes();
  ASSERT_EQ(writes_a.size(), writes_b.size());
  for (std::size_t i = 0; i < writes_a.size(); ++i) {
    EXPECT_TRUE(writes_a[i].same_payload(writes_b[i])) << i;
  }
  EXPECT_EQ(state_a, emu.state());
  EXPECT_TRUE(emu.memory().equals(ref_mem));
}

TEST(Checkpoint, RestoreRejectsForeignRegistry) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  rtlcore::CoreCheckpoint ck = core.checkpoint();
  ck.node_values.pop_back();
  EXPECT_THROW(core.restore(ck), std::invalid_argument);
}

// ---- engine plumbing --------------------------------------------------------

TEST(Engine, ProgressIsMonotonicAndComplete) {
  const auto prog = small_workload();
  CampaignConfig cfg;
  cfg.samples = 12;
  EngineOptions opts;
  opts.threads = 2;
  opts.progress_stride = 1;
  std::size_t last = 0;
  std::size_t calls = 0;
  std::size_t final_total = 0;
  opts.on_progress = [&](const EngineProgress& p) {
    EXPECT_GE(p.completed, last);  // serialized under the engine's lock
    last = p.completed;
    final_total = p.total;
    ++calls;
  };
  const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
  EXPECT_EQ(r.runs.size(), 12u);
  EXPECT_EQ(last, 12u);
  EXPECT_EQ(final_total, 12u);
  EXPECT_GE(calls, 2u);
}

TEST(Engine, ResolveThreadsClampsToSites) {
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_EQ(resolve_threads(2, 100), 2u);
  EXPECT_GE(resolve_threads(0, 100), 1u);
}

// RAII helper: set an environment variable for one test, restore after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

TEST(Engine, OptionsFromEnvParsesValidValues) {
  ScopedEnv t("ISSRTL_THREADS", "6");
  ScopedEnv s("ISSRTL_CKPT_STRIDE", "977");
  ScopedEnv m("ISSRTL_CKPT_MB", "64");
  const EngineOptions opts = options_from_env();
  EXPECT_EQ(opts.threads, 6u);
  EXPECT_EQ(opts.ladder_stride, 977u);
  EXPECT_EQ(opts.ladder_max_bytes, std::size_t{64} << 20);
}

TEST(Engine, OptionsFromEnvAcceptsAutoStrideAndZero) {
  {
    ScopedEnv s("ISSRTL_CKPT_STRIDE", "auto");
    EXPECT_EQ(options_from_env().ladder_stride, kLadderStrideAuto);
  }
  {
    ScopedEnv s("ISSRTL_CKPT_STRIDE", "0");
    EXPECT_EQ(options_from_env().ladder_stride, 0u);
  }
}

TEST(Engine, OptionsFromEnvLeavesUnsetAndEmptyAlone) {
  ScopedEnv t("ISSRTL_THREADS", nullptr);
  ScopedEnv s("ISSRTL_CKPT_STRIDE", "");
  EngineOptions base;
  base.threads = 3;
  base.ladder_stride = 55;
  const EngineOptions opts = options_from_env(base);
  EXPECT_EQ(opts.threads, 3u);
  EXPECT_EQ(opts.ladder_stride, 55u);
}

TEST(Engine, OptionsFromEnvRejectsMalformedValues) {
  // strtoul-style parsing used to fold all of these into 0 or a wrapped
  // huge number and silently run a misconfigured campaign.
  const char* bad[] = {"abc", "-4", "4x", " 4", "+4", "0x10",
                       "99999999999999999999999999"};
  for (const char* v : bad) {
    ScopedEnv t("ISSRTL_THREADS", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
  {
    ScopedEnv s("ISSRTL_CKPT_STRIDE", "fast");  // only "auto" is special
    EXPECT_THROW(options_from_env(), std::invalid_argument);
  }
  {
    ScopedEnv m("ISSRTL_CKPT_MB", "12MB");
    EXPECT_THROW(options_from_env(), std::invalid_argument);
  }
  {
    // Error messages must name the offending variable, or the user cannot
    // tell which of the four knobs to fix.
    ScopedEnv t("ISSRTL_THREADS", "abc");
    try {
      options_from_env();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ISSRTL_THREADS"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos)
          << e.what();
    }
  }
}

// The knobs of the deleted lane-pool and staged-pipeline schedulers and of
// the deleted mixed-fidelity mode fail loudly, by name, whatever their
// value: a script still setting one must not silently get an engine it did
// not ask for.
TEST(Engine, OptionsFromEnvRejectsRemovedSchedulerKnobs) {
  for (const char* name :
       {"ISSRTL_BATCH", "ISSRTL_SIMD", "ISSRTL_SIMD_TILE",
        "ISSRTL_SIMD_MIN_LIVE", "ISSRTL_REFILL", "ISSRTL_VECEVAL",
        "ISSRTL_PIPELINE", "ISSRTL_PREFETCH_DEPTH", "ISSRTL_MIXED"}) {
    for (const char* v : {"0", "1", "16", "auto"}) {
      ScopedEnv k(name, v);
      try {
        options_from_env();
        FAIL() << "expected std::invalid_argument for " << name << "=" << v;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find("removed"), std::string::npos) << what;
      }
    }
    {
      ScopedEnv k(name, "");  // empty counts as unset, like every knob
      EXPECT_NO_THROW(options_from_env()) << name;
    }
  }
}

TEST(Engine, OptionsFromEnvParsesJournalAndResume) {
  {
    ScopedEnv j("ISSRTL_JOURNAL", "/tmp/issrtl-env-journal");
    EXPECT_EQ(options_from_env().journal_dir, "/tmp/issrtl-env-journal");
  }
  {
    ScopedEnv j("ISSRTL_JOURNAL", nullptr);
    EngineOptions base;
    base.journal_dir = "keep";
    EXPECT_EQ(options_from_env(base).journal_dir, "keep");  // unset: untouched
  }
  {
    ScopedEnv r("ISSRTL_RESUME", "1");
    EXPECT_TRUE(options_from_env().resume);
  }
  {
    ScopedEnv r("ISSRTL_RESUME", "0");
    EXPECT_FALSE(options_from_env().resume);
  }
  // Resume is a boolean switch, not a count — anything but 0/1 is a typo
  // that must not silently decide whether journaled work is trusted.
  for (const char* v : {"2", "x", "yes", "-1", "true", "01x"}) {
    ScopedEnv r("ISSRTL_RESUME", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
}

TEST(Engine, OptionsFromEnvParsesIssFastPath) {
  {
    ScopedEnv f("ISSRTL_ISS_FAST", "0");
    EXPECT_FALSE(options_from_env().iss_fast_path);
  }
  {
    ScopedEnv f("ISSRTL_ISS_FAST", "1");
    EXPECT_TRUE(options_from_env().iss_fast_path);
  }
  {
    ScopedEnv f("ISSRTL_ISS_FAST", nullptr);
    EngineOptions base;
    base.iss_fast_path = false;
    EXPECT_FALSE(options_from_env(base).iss_fast_path);  // unset: untouched
  }
  for (const char* v : {"2", "fast", "-1", "true", "1 "}) {
    ScopedEnv f("ISSRTL_ISS_FAST", v);
    try {
      options_from_env();
      FAIL() << "expected std::invalid_argument for '" << v << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ISSRTL_ISS_FAST"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Engine, OptionsFromEnvParsesDeadline) {
  {
    ScopedEnv d("ISSRTL_DEADLINE_MS", "1500");
    EXPECT_EQ(options_from_env().deadline_ms, 1500u);
  }
  {
    ScopedEnv d("ISSRTL_DEADLINE_MS", "0");  // 0 = no deadline
    EXPECT_EQ(options_from_env().deadline_ms, 0u);
  }
  for (const char* v : {"-1", "1x", "abc", " 5", "0x10", "1.5"}) {
    ScopedEnv d("ISSRTL_DEADLINE_MS", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
}

TEST(Engine, OptionsFromEnvValidatesFailSiteEagerly) {
  {
    ScopedEnv f("ISSRTL_FAIL_SITE", "3:once,7");
    EXPECT_EQ(options_from_env().fail_sites, "3:once,7");
  }
  // A typo'd hook must fail at option parse time, by variable name — not
  // silently inject (or fail to inject) faults mid-campaign.
  for (const char* v : {"a", "3:twice", "3,", ",3", "3::once", "-1", ":once",
                        "3:bogus", "3:once:once", "3:once:"}) {
    ScopedEnv f("ISSRTL_FAIL_SITE", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
}

TEST(Engine, ParseFailSitesSpec) {
  EXPECT_TRUE(parse_fail_sites("").empty());
  const FailSiteSpec s = parse_fail_sites("3:once,7");
  ASSERT_NE(s.find(3), nullptr);
  EXPECT_TRUE(s.find(3)->once);
  ASSERT_NE(s.find(7), nullptr);
  EXPECT_FALSE(s.find(7)->once);
  EXPECT_EQ(s.find(5), nullptr);
}

// The stage tags of the deleted staged pipeline are gone with it: the throw
// always fires right after the fault is armed.
TEST(Engine, ParseFailSitesRejectsStageTags) {
  for (const char* v : {"1:restore", "2:arm", "3:step", "4:classify",
                        "4:classify:once", "4:once:classify"}) {
    EXPECT_THROW(parse_fail_sites(v), std::invalid_argument) << v;
    ScopedEnv f("ISSRTL_FAIL_SITE", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
}

TEST(Engine, AccumulatorCountsAndPackagesStats) {
  OutcomeAccumulator acc;
  acc.add(fault::Outcome::kFailure, 10);
  acc.add(fault::Outcome::kHang, 0);
  acc.add(fault::Outcome::kFailure, 30);
  acc.add(fault::Outcome::kSilent, 0);
  EXPECT_EQ(acc.runs, 4u);
  EXPECT_EQ(acc.max_latency, 30u);
  EXPECT_DOUBLE_EQ(acc.mean_latency(), 20.0);
  const fault::CampaignStats s = acc.to_stats(FaultModel::kStuckAt1);
  EXPECT_EQ(s.failures, 2u);
  EXPECT_EQ(s.hangs, 1u);
  EXPECT_EQ(s.silent, 1u);
  EXPECT_DOUBLE_EQ(s.pf(), 3.0 / 4.0);
}

// ---- replay economics -------------------------------------------------------

// The replay counters a positioning change moves, in one comparable row.
std::vector<u64> replay_row(const fault::ReplayCounters& rc) {
  return {rc.ladder_rungs,          rc.ladder_bytes,
          rc.ladder_evicted,        rc.ladder_restores,
          rc.rolling_restores,      rc.cold_resets,
          rc.fast_forward_cycles,   rc.convergence_cutoffs,
          rc.shifted_cutoffs,       rc.activation_candidates,
          rc.activation_silent,     rc.activation_port_read,
          rc.activation_latent,     rc.activation_scan_cycles};
}

// At one thread, where each site resumes its prefix (ladder rung, rolling
// checkpoint or cold reset), how far it fast-forwards, where a transient is
// cut off and which sites an oracle decides are a function of the campaign
// alone. The records cannot show a change in these choices, which only cost
// or save time, so they are pinned here for an RTL transient campaign, an
// RTL permanent campaign without a ladder and an ISS campaign.
TEST(Replay, SerialRestoreChoicesPinned) {
  const auto prog = workloads::build("rspeed", {.iterations = 1,
                                                .data_seed = 1});
  const EngineOptions opts;
  EXPECT_EQ(replay_row(run_rtl_campaign(prog, shifted_cutoff_cfg(), {}, opts)
                           .replay),
            (std::vector<u64>{527, 2419984, 1025, 374, 275, 1, 57663, 570, 12,
                              0, 0, 0, 0, 0}));

  CampaignConfig stuck;
  stuck.unit_prefix = "iu";
  stuck.samples = 40;
  stuck.models = {FaultModel::kStuckAt1};
  stuck.inject_time = fault::InjectTime::kUniformRandom;
  EngineOptions no_ladder = opts;
  no_ladder.ladder_stride = 0;
  EXPECT_EQ(replay_row(run_rtl_campaign(prog, stuck, {}, no_ladder).replay),
            (std::vector<u64>{0, 0, 0, 0, 15, 1, 64958, 0, 0, 40, 24, 24, 0,
                              134966}));

  IssCampaignConfig iss;
  iss.samples = 60;
  iss.models = {iss::IssFaultModel::kBitFlip, iss::IssFaultModel::kStuckAt1};
  EXPECT_EQ(replay_row(run_iss_campaign_engine(prog, iss, opts).replay),
            (std::vector<u64>{643, 967072, 0, 18, 1, 0, 648, 1, 0, 120, 16, 0,
                              85, 40989}));
}

}  // namespace
}  // namespace issrtl::engine
