#include "engine/iss_backend.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "engine/stats.hpp"

namespace issrtl::engine {

namespace {

/// Register-liveness scan state (see IssCampaignBackend::liveness): the
/// sites still undecided, listed under their physical register, and the
/// verdict table they resolve into. Fed by an observed golden replay; holds
/// no per-access log.
class LivenessScan final : public iss::RegAccessObserver {
 public:
  using Liveness = IssCampaignBackend::Liveness;

  LivenessScan(const std::vector<iss::IssFault>& faults,
               std::vector<Liveness>& verdict)
      : faults_(faults), verdict_(verdict) {}

  /// Watch site `i` from the current golden instant, at which its register
  /// holds `golden_value` (an open-line fault freezes that bit).
  void arm(std::size_t i, u32 golden_value) {
    const iss::IssFault& f = faults_[i];
    const bool value = f.model == iss::IssFaultModel::kStuckAt1 ||
                       (f.model == iss::IssFaultModel::kOpenLine &&
                        ((golden_value >> f.bit) & 1u) != 0);
    by_reg_[f.phys_reg].push_back(
        {i, f.bit, f.model == iss::IssFaultModel::kBitFlip, value});
    ++pending_;
  }

  /// A read makes a flipped bit visible, and a stuck bit too unless the
  /// golden value already holds it: those sites need simulating (the
  /// verdict table's default).
  void on_read(unsigned phys_reg, u32 value) override {
    drop(phys_reg, [value](const Watch& w) {
      return w.flip || (((value >> w.bit) & 1u) != 0) != w.value;
    });
  }

  /// A flipped bit overwritten before any read is gone, so the faulty run
  /// is the golden run from here. An instruction reports its reads before
  /// its write, so a flip this instruction also read (e.g. SWAP's rd) was
  /// already dropped above.
  void on_write(unsigned phys_reg) override {
    drop(phys_reg, [this](const Watch& w) {
      if (w.flip) verdict_[w.site] = Liveness::kSilent;
      return w.flip;
    });
  }

  /// At the golden halt: every site still pending ran as the golden run
  /// with only its bit forced, so it is latent iff that bit differs from
  /// the golden final value.
  void finish(const std::array<u32, iss::ArchState::kPhysRegs>& final_regs) {
    for (unsigned p = 0; p < by_reg_.size(); ++p) {
      for (const Watch& w : by_reg_[p]) {
        const bool golden_bit = ((final_regs[p] >> w.bit) & 1u) != 0;
        verdict_[w.site] = w.flip || golden_bit != w.value
                               ? Liveness::kLatent
                               : Liveness::kSilent;
      }
      by_reg_[p].clear();
    }
    pending_ = 0;
  }

  std::size_t pending() const noexcept { return pending_; }

 private:
  struct Watch {
    std::size_t site;
    unsigned bit;
    bool flip;
    bool value;  ///< the stuck (or frozen) bit value; unused for flips
  };

  template <class Pred>
  void drop(unsigned phys_reg, Pred pred) {
    std::vector<Watch>& list = by_reg_[phys_reg];
    const auto kept = std::remove_if(list.begin(), list.end(), pred);
    pending_ -= static_cast<std::size_t>(list.end() - kept);
    list.erase(kept, list.end());
  }

  const std::vector<iss::IssFault>& faults_;
  std::vector<Liveness>& verdict_;
  std::array<std::vector<Watch>, iss::ArchState::kPhysRegs> by_reg_;
  std::size_t pending_ = 0;
};

}  // namespace

IssCampaignBackend::IssCampaignBackend(const isa::Program& prog,
                                       const fault::IssCampaignConfig& cfg,
                                       const EngineOptions& opts)
    : prog_(prog),
      cfg_(cfg),
      opts_(opts),
      golden_(prog, opts) {
  // The golden run gets Emulator::run's default bound, 10M instructions.
  iss::Emulator golden(golden_.mem);
  golden.set_fast_path(opts_.iss_fast_path);
  if (golden_.record(golden, 10'000'000, cfg_.watchdog_factor) !=
      iss::HaltReason::kHalted) {
    throw std::runtime_error("ISS golden run did not halt cleanly");
  }
  golden_instret_ = golden.instret();
  golden_state_ = golden.state();

  // Same draw order as the original serial driver (models outer, samples
  // inner, three draws per site) so fault lists stay bit-identical.
  Xoshiro256 rng(cfg_.seed);
  faults_.reserve(cfg_.models.size() * cfg_.samples);
  for (const iss::IssFaultModel model : cfg_.models) {
    for (std::size_t i = 0; i < cfg_.samples; ++i) {
      iss::IssFault f;
      f.phys_reg = 1 + static_cast<unsigned>(
                           rng.next_below(iss::ArchState::kPhysRegs - 1));
      f.bit = static_cast<unsigned>(rng.next_below(32));
      f.model = model;
      f.inject_at_instr =
          1 + rng.next_below(std::max<u64>(1, golden_instret_ / 2));
      faults_.push_back(f);
    }
  }
  fail_spec_ = parse_fail_sites(opts_.fail_sites);
}

u64 IssCampaignBackend::campaign_key() const {
  Fingerprint fp;
  fp.mix_str("issrtl-iss-campaign-v1");
  mix_program(fp, prog_);
  fp.mix(cfg_.models.size());
  for (const iss::IssFaultModel m : cfg_.models) fp.mix(static_cast<u64>(m));
  fp.mix(cfg_.samples);
  fp.mix(cfg_.seed);
  fp.mix_bytes(&cfg_.watchdog_factor, sizeof(cfg_.watchdog_factor));
  fp.mix(golden_instret_);
  fp.mix(golden_.trace.writes().size());
  fp.mix(faults_.size());
  return fp.h;
}

u64 IssCampaignBackend::site_key(std::size_t i) const {
  const iss::IssFault& f = faults_[i];
  Fingerprint fp;
  fp.mix_str("issrtl-iss-site-v1");
  fp.mix(i);
  fp.mix(f.phys_reg);
  fp.mix(f.bit);
  fp.mix(static_cast<u64>(f.model));
  fp.mix(f.inject_at_instr);
  return fp.h;
}

JournalEntry IssCampaignBackend::journal_entry(std::size_t i,
                                               const Record& r) const {
  JournalEntry e;
  e.index = i;
  e.site_key = site_key(i);
  e.outcome = static_cast<u32>(r.outcome());
  e.latency = r.latency_instr;
  e.halt = 0;  // the ISS record does not keep a halt reason
  e.error = r.error;
  return e;
}

IssCampaignBackend::Record IssCampaignBackend::record_from_journal(
    const JournalEntry& e) const {
  Record r;
  r.fault = faults_[e.index];
  const auto outcome = static_cast<fault::Outcome>(e.outcome);
  r.engine_error = outcome == fault::Outcome::kEngineError;
  r.failure = outcome == fault::Outcome::kFailure;
  r.latent = outcome == fault::Outcome::kLatent;
  r.latency_instr = e.latency;
  r.error = e.error;
  return r;
}

IssCampaignBackend::Record IssCampaignBackend::error_record(
    std::size_t i, const std::string& what) const {
  Record r;
  r.fault = faults_[i];
  r.engine_error = true;
  r.error = what;
  return r;
}

IssCampaignBackend::Liveness IssCampaignBackend::liveness(
    std::size_t i) const {
  // A watchdog below the golden length would end even the golden run
  // early, so the golden run would not be the faulty run's twin.
  if (golden_.watchdog < golden_instret_) return Liveness::kSimulate;
  std::call_once(liveness_once_, [this] { build_liveness_table(); });
  return liveness_.at(i);
}

void IssCampaignBackend::build_liveness_table() const {
  liveness_.assign(faults_.size(), Liveness::kSimulate);
  // A site arms before instruction t+1 runs, so only instants short of the
  // golden halt can be watched.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (faults_[i].inject_at_instr < golden_instret_) order.push_back(i);
  }
  golden_.tally.activation_candidates = order.size();
  if (order.empty()) return;
  const auto instant = [this](std::size_t i) {
    return faults_[i].inject_at_instr;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return instant(a) < instant(b);
                   });

  // Replay the golden run from the rung at or below the earliest instant,
  // arming each site at its instant, until every site is decided or the run
  // halts. Stretches with nothing pending take the fast loop.
  Memory mem;
  iss::Emulator emu(mem);
  emu.set_fast_path(opts_.iss_fast_path);
  golden_.restore(emu, mem, golden_.rung_at_or_below(instant(order.front())));
  const u64 start = emu.instret();
  LivenessScan scan(faults_, liveness_);
  std::size_t armed = 0;
  while (emu.halt_reason() == iss::HaltReason::kRunning) {
    while (armed < order.size() && instant(order[armed]) == emu.instret()) {
      const std::size_t i = order[armed++];
      scan.arm(i, emu.state().regs[faults_[i].phys_reg]);
    }
    if (scan.pending() == 0) {
      if (armed == order.size()) break;
      emu.advance(instant(order[armed]) - emu.instret());
      continue;
    }
    emu.step_observed(scan);
  }
  if (emu.halt_reason() == iss::HaltReason::kHalted) {
    scan.finish(emu.state().regs);
  }
  golden_.tally.activation_scan_cycles = emu.instret() - start;
}

std::unique_ptr<IssCampaignBackend::Worker> IssCampaignBackend::make_worker(
    unsigned shard) const {
  return std::make_unique<Worker>(*this, shard);
}

IssCampaignBackend::Worker::Worker(const IssCampaignBackend& backend,
                                   unsigned /*shard*/)
    : b_(backend),
      emu_(mem_),
      pos_(backend.golden_) {
  emu_.set_fast_path(backend.opts_.iss_fast_path);
}

fault::IssInjectionResult IssCampaignBackend::Worker::run_site(
    std::size_t index) {
  const iss::IssFault fault = b_.faults_[index];
  const Liveness verdict = b_.liveness(index);
  if (verdict != Liveness::kSimulate) {
    // The faulty run is the golden run but for the faulted bit: nothing to
    // position or step.
    maybe_fail_site(b_.fail_spec_, fail_attempts_, index);
    const bool latent = verdict == Liveness::kLatent;
    fault::ReplayCounters& tally = b_.golden_.tally;
    bump(latent ? tally.activation_latent : tally.activation_silent);
    fault::IssInjectionResult result;
    result.fault = fault;
    result.latent = latent;
    return result;
  }
  pos_.position(emu_, mem_, fault.inject_at_instr);
  emu_.arm_fault(fault);
  maybe_fail_site(b_.fail_spec_, fail_attempts_, index);

  // The final comparison, like the monitor, resumes after the prefix writes.
  const std::size_t prefix_writes = emu_.offcore().writes().size();
  // A bit-flip is applied once and never enforced again, so a faulty run
  // whose architectural state and memory coincide with the golden run at
  // the same retired-instruction count is provably identical from there
  // on: compare against ladder rungs as they are crossed.
  const bool converge = b_.opts_.converge_cutoff &&
                        b_.golden_.ladder.enabled() &&
                        fault.model == iss::IssFaultModel::kBitFlip;
  SuffixMonitor monitor(b_.golden_, emu_, b_.opts_.early_stop);
  const u64 rung_stride = b_.golden_.ladder.stride();
  iss::HaltReason halt = emu_.halt_reason();
  while (monitor.running(halt)) {
    halt = emu_.step();
    monitor.stepped(emu_.offcore());
    if (converge && !monitor.mismatch() && halt == iss::HaltReason::kRunning &&
        emu_.instret() > fault.inject_at_instr &&
        emu_.instret() % rung_stride == 0) {
      if (const auto* rung = b_.golden_.ladder.at(emu_.instret())) {
        const GoldenSnapshot& g = *rung->snap;
        if (emu_.offcore().writes().size() == g.writes &&
            emu_.state() == g.ckpt.state && emu_.memory().equals(g.mem)) {
          bump(b_.golden_.tally.convergence_cutoffs);
          fault::IssInjectionResult result;
          result.fault = fault;  // silent: failure/latent stay false
          return result;
        }
      }
    }
  }
  halt = monitor.final_halt(halt);

  fault::IssInjectionResult result;
  result.fault = fault;
  const TraceDivergence div =
      emu_.offcore().compare_writes(b_.golden_.trace, prefix_writes);
  if (div.diverged || halt != iss::HaltReason::kHalted) {
    result.failure = true;
    result.latency_instr = div.diverged && div.cycle > fault.inject_at_instr
                               ? div.cycle - fault.inject_at_instr
                               : 0;
  } else {
    // Clean halt with matching writes: latent if any register differs.
    const iss::ArchState& fs = emu_.state();
    result.latent = !(fs.regs == b_.golden_state_.regs &&
                      fs.icc == b_.golden_state_.icc &&
                      fs.y == b_.golden_state_.y);
  }
  return result;
}

fault::IssCampaignResult IssCampaignBackend::finish(EngineRun<Record> run) const {
  fault::IssCampaignResult result;
  result.workload = prog_.name;
  result.golden_instret = golden_instret_;
  collect(result, run, golden_);
  // Aggregate by each record's own model (not by fault-list position: a
  // truncated run holds an arbitrary done-subset of the site list).
  for (const iss::IssFaultModel model : cfg_.models) {
    OutcomeAccumulator acc;
    for (const fault::IssInjectionResult& r : result.runs) {
      if (r.fault.model != model) continue;
      acc.add(r.outcome(), r.latency_instr);
    }
    fault::IssCampaignStats stats;
    stats.model = model;
    stats.runs = acc.runs;
    stats.failures = acc.failures;
    stats.latent = acc.latent;
    stats.errors = acc.errors;
    result.per_model.push_back(stats);
  }
  return result;
}

fault::IssCampaignResult run_iss_campaign_engine(
    const isa::Program& prog, const fault::IssCampaignConfig& cfg,
    const EngineOptions& opts) {
  IssCampaignBackend backend(prog, cfg, opts);
  CampaignEngine engine(opts);
  return backend.finish(engine.run(backend));
}

}  // namespace issrtl::engine
