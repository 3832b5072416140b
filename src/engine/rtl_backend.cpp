#include "engine/rtl_backend.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/stats.hpp"

namespace issrtl::engine {

namespace {

/// Complete architectural + memory state comparison for the latent check.
bool states_match(const rtlcore::Leon3Core& faulty,
                  const iss::ArchState& golden_state, const Memory& golden_mem,
                  bool compare_memory) {
  const iss::ArchState fs = faulty.arch_state();
  if (fs.regs != golden_state.regs) return false;
  if (fs.cwp != golden_state.cwp) return false;
  if (!(fs.icc == golden_state.icc)) return false;
  if (fs.y != golden_state.y) return false;
  if (compare_memory && !faulty.memory().equals(golden_mem)) return false;
  return true;
}

}  // namespace

RtlCampaignBackend::RtlCampaignBackend(const isa::Program& prog,
                                       const fault::CampaignConfig& cfg,
                                       const rtlcore::CoreConfig& core_cfg,
                                       const EngineOptions& opts)
    : prog_(prog),
      cfg_(cfg),
      core_cfg_(core_cfg),
      opts_(opts),
      golden_(prog, opts) {
  // The golden run gets Leon3Core::run's default bound, 50M cycles.
  rtlcore::Leon3Core golden(golden_.mem, core_cfg_);
  const iss::HaltReason golden_halt =
      golden_.record(golden, 50'000'000, cfg_.watchdog_factor);
  if (golden_halt != iss::HaltReason::kHalted) {
    throw std::runtime_error("golden run did not halt cleanly: " +
                             std::string(iss::halt_reason_name(golden_halt)));
  }
  golden_cycles_ = golden.cycles();
  golden_instret_ = golden.instret();
  golden_state_ = golden.arch_state();
  sites_ = fault::build_fault_list(golden.sim(), cfg_, golden_cycles_);
  fail_spec_ = parse_fail_sites(opts_.fail_sites);
  // Snapshot the node metadata so finish() can label records without the
  // golden core (and without workers copying strings in the per-site loop).
  const rtl::SimContext& sim = golden.sim();
  node_names_.reserve(sim.node_count());
  node_units_.reserve(sim.node_count());
  node_port_read_.reserve(sim.node_count());
  for (rtl::NodeId id = 0; id < sim.node_count(); ++id) {
    node_names_.push_back(sim.name(id));
    node_units_.push_back(sim.unit(id));
    node_port_read_.push_back(sim.port_read(id) ? 1 : 0);
  }
}

bool matches(const RtlCampaignBackend::GoldenSnapshot& g,
             const rtlcore::Leon3Core& c) {
  const rtlcore::CoreActivityScalars sc = c.activity_scalars();
  const rtlcore::CoreCheckpoint& k = g.ckpt;
  return sc.instret == k.instret && sc.slot_seq == k.slot_seq &&
         sc.next_fetch_seq == k.next_fetch_seq &&
         sc.redirect_after_seq == k.redirect_after_seq &&
         sc.annul_seq == k.annul_seq && sc.bus_writes == g.writes &&
         c.node_values_equal(k.node_values) && c.memory().equals(g.mem);
}

std::unique_ptr<RtlCampaignBackend::Worker> RtlCampaignBackend::make_worker(
    unsigned shard) const {
  return std::make_unique<Worker>(*this, shard);
}

u64 RtlCampaignBackend::campaign_key() const {
  Fingerprint fp;
  fp.mix_str("issrtl-rtl-campaign-v1");
  mix_program(fp, prog_);
  // Campaign config: every field that shapes the fault list or the
  // classification of a site.
  fp.mix_str(cfg_.unit_prefix);
  fp.mix(cfg_.models.size());
  for (const rtl::FaultModel m : cfg_.models) fp.mix(static_cast<u64>(m));
  fp.mix(cfg_.samples);
  fp.mix(cfg_.instants_per_site);
  fp.mix(cfg_.seed);
  fp.mix(static_cast<u64>(cfg_.inject_time));
  fp.mix(static_cast<u64>(cfg_.instant_window));
  fp.mix(cfg_.fixed_cycle);
  fp.mix_bytes(&cfg_.watchdog_factor, sizeof(cfg_.watchdog_factor));
  fp.mix(static_cast<u64>(cfg_.compare_memory));
  // Retired mixed-fidelity flag, always false: mixing the constant keeps
  // the key every existing journal was written under.
  fp.mix(u64{0});
  // Golden-run summary: a cheap proxy for the core config and simulator
  // semantics — any change to either moves these and retires the journal.
  fp.mix(golden_cycles_);
  fp.mix(golden_instret_);
  fp.mix(golden_.trace.writes().size());
  fp.mix(sites_.size());
  return fp.h;
}

u64 RtlCampaignBackend::site_key(std::size_t i) const {
  const fault::FaultSite& s = sites_[i];
  Fingerprint fp;
  fp.mix_str("issrtl-rtl-site-v1");
  fp.mix(i);
  fp.mix(s.node);
  fp.mix(s.bit);
  fp.mix(static_cast<u64>(s.model));
  fp.mix(s.inject_cycle);
  return fp.h;
}

JournalEntry RtlCampaignBackend::journal_entry(std::size_t i,
                                               const Record& r) const {
  JournalEntry e;
  e.index = i;
  e.site_key = site_key(i);
  e.outcome = static_cast<u32>(r.outcome);
  e.latency = r.latency_cycles;
  e.halt = static_cast<u32>(r.halt);
  e.error = r.error;
  return e;
}

RtlCampaignBackend::Record RtlCampaignBackend::record_from_journal(
    const JournalEntry& e) const {
  Record r;
  r.site = sites_[e.index];
  r.outcome = static_cast<fault::Outcome>(e.outcome);
  r.latency_cycles = e.latency;
  r.halt = static_cast<iss::HaltReason>(e.halt);
  r.error = e.error;
  return r;
}

RtlCampaignBackend::Record RtlCampaignBackend::error_record(
    std::size_t i, const std::string& what) const {
  Record r;
  r.site = sites_[i];
  r.outcome = fault::Outcome::kEngineError;
  r.halt = iss::HaltReason::kRunning;  // the simulation never concluded
  r.error = what;
  return r;
}

bool RtlCampaignBackend::oracle_applies(
    const fault::FaultSite& s) const noexcept {
  // A watchdog below the golden length would end even the golden run as a
  // hang.
  if (golden_.watchdog < golden_cycles_) return false;
  return s.model == rtl::FaultModel::kStuckAt0 ||
         s.model == rtl::FaultModel::kStuckAt1 ||
         s.model == rtl::FaultModel::kOpenLine;
}

bool RtlCampaignBackend::never_activated(std::size_t i) const {
  if (!oracle_applies(sites_.at(i))) return false;
  std::call_once(activation_once_, [this] { build_activation_table(); });
  return never_activated_[i] != 0;
}

void RtlCampaignBackend::build_activation_table() const {
  never_activated_.assign(sites_.size(), 0);
  // A prefix never steps past the golden halt, so a later instant arms
  // there.
  const auto instant = [this](std::size_t i) {
    return std::min(sites_[i].inject_cycle, golden_cycles_);
  };
  // Rung filter: a rung at or after the instant whose bit is off the stuck
  // value (for open-line: off the first such rung's value) is a golden
  // boundary value that activates the fault, so only sites that agree with
  // every later rung are worth a replay. Port-read sites skip it: their
  // watch fires on reads, about which a rung value says nothing.
  const auto& rungs = golden_.ladder.rungs();
  std::vector<std::size_t> cands;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const fault::FaultSite& s = sites_[i];
    if (!oracle_applies(s)) continue;
    if (node_port_read_[s.node] != 0) {
      cands.push_back(i);
      continue;
    }
    auto it = std::lower_bound(
        rungs.begin(), rungs.end(), s.inject_cycle,
        [](const auto& r, u64 t) { return r.instant < t; });
    const u32 mask = 1u << s.bit;
    u32 want = s.model == rtl::FaultModel::kStuckAt1 ? mask : 0;
    if (s.model == rtl::FaultModel::kOpenLine && it != rungs.end()) {
      want = it->snap->ckpt.node_values[s.node] & mask;
    }
    bool same = true;
    for (; same && it != rungs.end(); ++it) {
      same = (it->snap->ckpt.node_values[s.node] & mask) == want;
    }
    if (same) cands.push_back(i);
  }
  golden_.tally.activation_candidates = cands.size();
  if (cands.empty()) return;
  std::stable_sort(cands.begin(), cands.end(),
                   [&](std::size_t a, std::size_t b) {
                     return instant(a) < instant(b);
                   });

  // Replay the golden run from the rung at or below the earliest instant,
  // arming each candidate's watch at its instant, until every watch has
  // activated or the run halts.
  Memory mem;
  rtlcore::Leon3Core core(mem, core_cfg_);
  golden_.restore(core, mem, golden_.rung_at_or_below(instant(cands.front())));
  rtl::SimContext& sim = core.sim();
  std::vector<std::size_t> handles(cands.size());
  std::size_t armed = 0;
  u64 stepped = 0;
  for (;;) {
    while (armed < cands.size() && instant(cands[armed]) == core.cycles()) {
      const fault::FaultSite& s = sites_[cands[armed]];
      handles[armed++] = sim.watch_activation(s.node, s.model, s.bit);
    }
    if ((armed == cands.size() && sim.watches_pending() == 0) ||
        core.halt_reason() != iss::HaltReason::kRunning) {
      break;
    }
    core.step();
    ++stepped;
    sim.sweep_watches();
  }
  for (std::size_t k = 0; k < armed; ++k) {
    never_activated_[cands[k]] = sim.activated(handles[k]) ? 0 : 1;
  }
  golden_.tally.activation_scan_cycles = stepped;
}

RtlCampaignBackend::Worker::Worker(const RtlCampaignBackend& backend,
                                   unsigned /*shard*/)
    : b_(backend),
      core_(mem_, backend.core_cfg_),
      pos_(backend.golden_) {}

fault::InjectionResult RtlCampaignBackend::Worker::run_site(
    std::size_t index) {
  const fault::FaultSite site = b_.sites_[index];
  if (b_.never_activated(index)) {
    // The faulty run is the golden run: nothing to position or step.
    maybe_fail_site(b_.fail_spec_, fail_attempts_, index);
    bump(b_.golden_.tally.activation_silent);
    if (b_.node_port_read_[site.node] != 0) {
      bump(b_.golden_.tally.activation_port_read);
    }
    fault::InjectionResult result;
    result.site = site;
    result.outcome = fault::Outcome::kSilent;
    result.halt = iss::HaltReason::kHalted;
    return result;
  }
  pos_.position(core_, mem_, site.inject_cycle);
  core_.sim().arm_fault(site.node, site.model, site.bit);
  maybe_fail_site(b_.fail_spec_, fail_attempts_, index);

  // Convergence cut-off. A transient fault leaves no armed overlay behind,
  // so once the faulty run's full state (node values, activity scalars,
  // memory, all writes matched so far) equals a golden rung's state, the
  // rest of the run is the golden remainder from that rung — shifted by
  // delta = c - c_r when the faulty run reaches it at cycle c instead of
  // the rung's cycle c_r (a flip that lengthened or shortened a stall).
  // The shift is exact because the core reads cycle_ only to timestamp bus
  // records, and classification compares write payloads only. Rungs are
  // ascending in instret, so a cursor follows the faulty instret and only
  // rungs at exactly that instret pay for the compare.
  bool converge = b_.opts_.converge_cutoff && b_.golden_.ladder.enabled() &&
                  site.model == rtl::FaultModel::kTransientBitFlip;
  // A prefix already at or past the watchdog classifies as a hang at once.
  SuffixMonitor monitor(b_.golden_, core_, b_.opts_.early_stop);
  // Cursor: the first rung whose instret is not below the faulty run's,
  // and that rung's instret (~0 past the last rung).
  const auto& rungs = b_.golden_.ladder.rungs();
  std::size_t next_rung = rungs.size();
  if (converge) {
    next_rung = static_cast<std::size_t>(
        std::lower_bound(rungs.begin(), rungs.end(), core_.instret(),
                         [](const auto& r, u64 v) {
                           return r.snap->ckpt.instret < v;
                         }) -
        rungs.begin());
  }
  const auto instret_of = [&rungs](std::size_t k) {
    return k < rungs.size() ? rungs[k].snap->ckpt.instret : ~u64{0};
  };
  u64 next_instret = instret_of(next_rung);
  rtlcore::CoreActivityScalars scalars_prev;
  bool scalars_valid = false;
  bool nodes_valid = false;
  iss::HaltReason halt = core_.halt_reason();
  while (monitor.running(halt)) {
    core_.step();
    halt = core_.halt_reason();
    monitor.stepped(core_.offcore());
    if (converge && !monitor.mismatch() && halt == iss::HaltReason::kRunning &&
        core_.instret() >= next_instret) {
      const u64 instret = core_.instret();
      while (next_instret < instret) next_instret = instret_of(++next_rung);
      for (std::size_t k = next_rung; instret_of(k) == instret; ++k) {
        if (!matches(*rungs[k].snap, core_)) continue;
        // The golden run halts golden_cycles_ - c_r cycles after the rung.
        // Shifted, that halt must still fall within the watchdog; if not,
        // the run is a hang whose record (shifted write timestamps
        // included) only the simulation gives, and no later rung can match
        // at another shift, so the probe retires for this site.
        const u64 c_r = rungs[k].instant;
        if (core_.cycles() + (b_.golden_cycles_ - c_r) <= b_.golden_.watchdog) {
          bump(b_.golden_.tally.convergence_cutoffs);
          if (core_.cycles() != c_r) {
            bump(b_.golden_.tally.shifted_cutoffs);
          }
          fault::InjectionResult result;
          result.site = site;
          result.outcome = fault::Outcome::kSilent;
          result.halt = iss::HaltReason::kHalted;
          return result;
        }
        converge = false;
        break;
      }
    }
    // A run that outlived the golden cycle count is headed for the
    // watchdog; probe for a fixed point and, once found, skip the
    // remaining cycles — they are provably identical. The scalar
    // counters act as a filter: a spin-loop hang keeps fetching (so
    // next_fetch_seq advances every cycle) and never pays for the
    // node-array half of the probe.
    if (b_.opts_.hang_fast_forward && halt == iss::HaltReason::kRunning &&
        core_.cycles() > b_.golden_cycles_) {
      const rtlcore::CoreActivityScalars scalars = core_.activity_scalars();
      if (!scalars_valid || !(scalars == scalars_prev)) {
        scalars_prev = scalars;
        scalars_valid = true;
        nodes_valid = false;
      } else if (!nodes_valid) {
        core_.save_node_values(probe_nodes_);
        nodes_valid = true;
      } else if (core_.node_values_equal(probe_nodes_)) {
        halt = iss::HaltReason::kStepLimit;  // stuck: watchdog is certain
        break;
      } else {
        core_.save_node_values(probe_nodes_);
      }
    }
  }
  halt = monitor.final_halt(halt);

  fault::InjectionResult result;
  result.site = site;
  result.halt = halt;  // node_name/unit are resolved once, in finish()

  const TraceDivergence div =
      core_.offcore().compare_writes(b_.golden_.trace);
  if (div.diverged) {
    result.outcome = halt == iss::HaltReason::kStepLimit &&
                             div.index >= core_.offcore().writes().size()
                         ? fault::Outcome::kHang
                         : fault::Outcome::kFailure;
    result.latency_cycles =
        div.cycle > site.inject_cycle ? div.cycle - site.inject_cycle : 0;
  } else if (halt == iss::HaltReason::kStepLimit) {
    result.outcome = fault::Outcome::kHang;
    result.latency_cycles = b_.golden_.watchdog - site.inject_cycle;
  } else if (states_match(core_, b_.golden_state_, b_.golden_.mem,
                          b_.cfg_.compare_memory)) {
    result.outcome = fault::Outcome::kSilent;
  } else {
    result.outcome = fault::Outcome::kLatent;
  }
  return result;
}

fault::CampaignResult RtlCampaignBackend::finish(EngineRun<Record> run) const {
  fault::CampaignResult result;
  result.workload = prog_.name;
  result.unit_prefix = cfg_.unit_prefix;
  result.golden_cycles = golden_cycles_;
  result.golden_instret = golden_instret_;
  collect(result, run, golden_);
  for (fault::InjectionResult& r : result.runs) {
    r.node_name = node_names_[r.site.node];
    r.unit = node_units_[r.site.node];
  }
  for (const rtl::FaultModel model : cfg_.models) {
    OutcomeAccumulator acc;
    for (const fault::InjectionResult& r : result.runs) {
      if (r.site.model == model) acc.add(r.outcome, r.latency_cycles);
    }
    result.per_model.push_back(acc.to_stats(model));
  }
  return result;
}

fault::CampaignResult run_rtl_campaign(const isa::Program& prog,
                                       const fault::CampaignConfig& cfg,
                                       const rtlcore::CoreConfig& core_cfg,
                                       const EngineOptions& opts) {
  RtlCampaignBackend backend(prog, cfg, core_cfg, opts);
  CampaignEngine engine(opts);
  return backend.finish(engine.run(backend));
}

}  // namespace issrtl::engine
