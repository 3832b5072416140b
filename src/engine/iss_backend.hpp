// ISS fault backend for CampaignEngine: classical register-file injection
// (the paper's [7][20] style) behind the same enumerate → ladder →
// faulty-suffix → classify shape as the RTL backend, used for the §4.2
// "Simulation time" comparison. The golden replay (ladder, positioning,
// write monitor, tally) is engine/golden.hpp.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/golden.hpp"
#include "engine/journal.hpp"
#include "fault/campaign.hpp"
#include "fault/iss_campaign.hpp"

namespace issrtl::engine {

class IssCampaignBackend {
 public:
  using Record = fault::IssInjectionResult;

  /// One ladder rung: the golden emulator at an instruction boundary.
  using GoldenSnapshot = SnapshotOf<iss::Emulator>;

  IssCampaignBackend(const isa::Program& prog,
                     const fault::IssCampaignConfig& cfg,
                     const EngineOptions& opts);

  std::size_t site_count() const noexcept { return faults_.size(); }
  u64 site_instant(std::size_t i) const noexcept {
    return faults_[i].inject_at_instr;
  }
  const std::vector<iss::IssFault>& faults() const noexcept { return faults_; }
  const CheckpointLadder<GoldenSnapshot>& ladder() const noexcept {
    return golden_.ladder;
  }

  /// Durability hooks (see engine.hpp): campaign identity over (workload
  /// image, config, seed, golden run) — engine options excluded, records
  /// are schedule-invariant — plus per-site keys and the Record <->
  /// JournalEntry conversions. Outcome codes in the journal follow
  /// fault::Outcome: 0 silent, 1 latent, 2 failure, 4 engine error.
  u64 campaign_key() const;
  u64 site_key(std::size_t i) const;
  JournalEntry journal_entry(std::size_t i, const Record& r) const;
  Record record_from_journal(const JournalEntry& e) const;
  Record error_record(std::size_t i, const std::string& what) const;

  /// Register-liveness oracle verdict for one site.
  enum class Liveness : u8 {
    kSimulate = 0,  ///< the golden run cannot decide it: simulate
    kSilent,        ///< record {failure = false, latent = false, latency 0}
    kLatent,        ///< record {failure = false, latent = true, latency 0}
  };

  /// Register-liveness oracle: decides site `i` from the golden run's
  /// register-file accesses after its instant when they prove the faulty
  /// run equals the golden run up to the faulted bit. A bit flip whose
  /// register is next written (not read) is silent, one never accessed
  /// again is latent; a stuck-at or open-line fault whose every later
  /// golden read already sees the stuck value is silent or latent by the
  /// golden final value of that bit. Anything else is kSimulate. Builds
  /// the backend's table on first use (one observed golden replay,
  /// thread-safe); always kSimulate when the watchdog is shorter than the
  /// golden run.
  Liveness liveness(std::size_t i) const;

  class Worker {
   public:
    Worker(const IssCampaignBackend& backend, unsigned shard);
    /// Restore the golden prefix, arm the fault, step the faulty suffix
    /// under the per-instruction monitor (early stop on a definite write
    /// divergence, convergence cut-off at ladder rungs) and classify the
    /// outcome against the golden run. A site the register-liveness oracle
    /// decides returns its record without any of that.
    Record run_site(std::size_t index);

   private:
    const IssCampaignBackend& b_;
    Memory mem_;
    iss::Emulator emu_;
    Positioner<iss::Emulator> pos_;
    std::map<std::size_t, unsigned> fail_attempts_;  ///< ISSRTL_FAIL_SITE
  };

  std::unique_ptr<Worker> make_worker(unsigned shard) const;

  /// Golden metadata + per-model aggregation over the run's completed
  /// records (done sites only, in site order; see
  /// fault::IssCampaignResult on truncation).
  fault::IssCampaignResult finish(EngineRun<Record> run) const;

 private:
  friend class Worker;

  /// Fill liveness_: replay the golden run from the rung at or below the
  /// earliest instant, reporting register-file accesses, with every site
  /// pending on its physical register from its instant on.
  void build_liveness_table() const;

  isa::Program prog_;
  fault::IssCampaignConfig cfg_;
  EngineOptions opts_;

  u64 golden_instret_ = 0;
  GoldenRun<iss::Emulator> golden_;
  iss::ArchState golden_state_;
  std::vector<iss::IssFault> faults_;
  FailSiteSpec fail_spec_;  ///< parsed from opts_.fail_sites (test hook)
  // Register-liveness oracle table, built once by the first site.
  mutable std::once_flag liveness_once_;
  mutable std::vector<Liveness> liveness_;  ///< site-indexed
};

/// Full engine-backed ISS campaign. fault::run_iss_campaign is the serial
/// thin wrapper over this.
fault::IssCampaignResult run_iss_campaign_engine(
    const isa::Program& prog, const fault::IssCampaignConfig& cfg,
    const EngineOptions& opts = {});

}  // namespace issrtl::engine
