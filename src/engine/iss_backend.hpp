// ISS fault backend for CampaignEngine: classical register-file injection
// (the paper's [7][20] style) behind the same enumerate → ladder →
// faulty-suffix → classify shape as the RTL backend, used for the §4.2
// "Simulation time" comparison.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/ladder.hpp"
#include "fault/campaign.hpp"
#include "fault/iss_campaign.hpp"

namespace issrtl::engine {

class IssCampaignBackend {
 public:
  using Record = fault::IssInjectionResult;

  /// One ladder rung: the golden emulator at an instruction boundary.
  /// `emu` is a checkpoint_lite() snapshot (no trace copy); `mem` a COW
  /// clone of the golden memory; `writes`/`reads` the golden bus-trace
  /// prefix lengths at that instant.
  struct GoldenSnapshot {
    iss::EmuCheckpoint emu;
    Memory mem;
    std::size_t writes = 0;
    std::size_t reads = 0;
  };

  IssCampaignBackend(const isa::Program& prog,
                     const fault::IssCampaignConfig& cfg,
                     const EngineOptions& opts);

  std::size_t site_count() const noexcept { return faults_.size(); }
  u64 site_instant(std::size_t i) const noexcept {
    return faults_[i].inject_at_instr;
  }
  const std::vector<iss::IssFault>& faults() const noexcept { return faults_; }
  const CheckpointLadder<GoldenSnapshot>& ladder() const noexcept {
    return ladder_;
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
    /// Position the emulator fault-free at `inject_at_instr`: from the
    /// rolling shard checkpoint or the best ladder rung — whichever is not
    /// ahead of us and closer — or from reset when neither exists.
    void prepare(u64 inject_at_instr);

    const IssCampaignBackend& b_;
    Memory mem_;
    iss::Emulator emu_;
    // Rolling checkpoint: checkpoint_lite() + golden-trace prefix lengths
    // (fault-free prefixes only, so the trace is a golden prefix).
    bool have_checkpoint_ = false;
    iss::EmuCheckpoint checkpoint_;
    Memory checkpoint_mem_;
    std::size_t checkpoint_writes_ = 0;
    std::size_t checkpoint_reads_ = 0;
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
  u64 watchdog_ = 0;
  OffCoreTrace golden_trace_;
  iss::ArchState golden_state_;
  Memory initial_mem_;  ///< loaded program image, COW ancestor of all runs
  Memory golden_mem_;
  CheckpointLadder<GoldenSnapshot> ladder_;
  std::vector<iss::IssFault> faults_;
  FailSiteSpec fail_spec_;  ///< parsed from opts_.fail_sites (test hook)
  // Replay economics (informational only — see fault::ReplayCounters).
  mutable std::atomic<u64> ladder_restores_{0};
  mutable std::atomic<u64> rolling_restores_{0};
  mutable std::atomic<u64> cold_resets_{0};
  mutable std::atomic<u64> fast_forward_instrs_{0};
  mutable std::atomic<u64> convergence_cutoffs_{0};
  mutable std::atomic<u64> activation_silent_{0};
  mutable std::atomic<u64> activation_latent_{0};
  // Register-liveness oracle table, built once by the first site.
  mutable std::once_flag liveness_once_;
  mutable std::vector<Liveness> liveness_;  ///< site-indexed
  mutable u64 activation_candidates_ = 0;
  mutable u64 activation_scan_instrs_ = 0;
};

/// Full engine-backed ISS campaign. fault::run_iss_campaign is the serial
/// thin wrapper over this.
fault::IssCampaignResult run_iss_campaign_engine(
    const isa::Program& prog, const fault::IssCampaignConfig& cfg,
    const EngineOptions& opts = {});

}  // namespace issrtl::engine
