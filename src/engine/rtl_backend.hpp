// RTL fault backend for CampaignEngine: enumerate sites with
// fault::build_fault_list, record a checkpoint ladder while running the
// golden reference, then run each faulty suffix from the nearest snapshot
// and classify against the golden run — the §4.1 methodology without the
// per-fault golden-prefix re-simulation of the serial driver. The golden
// replay (ladder, positioning, write monitor, tally) is engine/golden.hpp.
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
#include "iss/state.hpp"

namespace issrtl::engine {

class RtlCampaignBackend {
 public:
  using Record = fault::InjectionResult;

  /// One ladder rung: the golden core at a cycle boundary.
  using GoldenSnapshot = SnapshotOf<rtlcore::Leon3Core>;

  /// Runs the golden reference (recording ladder rungs every
  /// opts.ladder_stride cycles) and enumerates the fault list (both
  /// deterministic); throws if the golden run does not halt cleanly.
  RtlCampaignBackend(const isa::Program& prog,
                     const fault::CampaignConfig& cfg,
                     const rtlcore::CoreConfig& core_cfg,
                     const EngineOptions& opts);

  std::size_t site_count() const noexcept { return sites_.size(); }
  u64 site_instant(std::size_t i) const noexcept {
    return sites_[i].inject_cycle;
  }

  const std::vector<fault::FaultSite>& sites() const noexcept {
    return sites_;
  }
  const CheckpointLadder<GoldenSnapshot>& ladder() const noexcept {
    return golden_.ladder;
  }

  /// Campaign identity for the write-ahead journal: an FNV-1a fingerprint
  /// of the workload image, the campaign config (every field that shapes
  /// the fault list or classification), the seed and the golden run.
  /// Engine options (threads, ladder, …) are deliberately excluded —
  /// resuming under a different schedule must hit the same journal file,
  /// because the records are schedule-invariant.
  u64 campaign_key() const;
  /// Per-site fingerprint (node, bit, model, instant, index) cross-checked
  /// against each journal record before import.
  u64 site_key(std::size_t i) const;
  JournalEntry journal_entry(std::size_t i, const Record& r) const;
  Record record_from_journal(const JournalEntry& e) const;
  /// Record for a site whose simulation threw twice (worker isolation):
  /// Outcome::kEngineError carrying the exception text.
  Record error_record(std::size_t i, const std::string& what) const;

  /// Activation oracle: true when site `i` is a stuck-at or open-line
  /// fault whose bit never differs from the stuck value in any value a
  /// consumer can read, from its instant to the golden halt — on a
  /// port-read node (register file, cache arrays), in any port read of
  /// it (rtl::SimContext::mark_port_read). Its faulty
  /// run is the golden run, so its record is {kSilent, kHalted, latency 0}
  /// without simulating it. Builds the backend's table on first use (one
  /// golden-suffix replay, thread-safe); always false for transient and
  /// bridge faults.
  bool never_activated(std::size_t i) const;

  /// One per worker thread: owns a core + memory and its Positioner.
  class Worker {
   public:
    Worker(const RtlCampaignBackend& backend, unsigned shard);
    /// Restore the golden prefix, arm the site's fault, step the faulty
    /// suffix under the per-cycle monitor (early stop on a definite write
    /// divergence, convergence cut-off at a ladder rung's state — reached at
    /// the rung's cycle or shifted from it — and hang fast-forward) and
    /// classify the outcome against the golden run. A site the
    /// activation oracle proves never activated returns the golden record
    /// without any of that.
    Record run_site(std::size_t index);

   private:
    const RtlCampaignBackend& b_;
    Memory mem_;
    rtlcore::Leon3Core core_;
    Positioner<rtlcore::Leon3Core> pos_;
    // Scratch buffer for the hang fast-forward fixed-point probe.
    std::vector<u32> probe_nodes_;
    std::map<std::size_t, unsigned> fail_attempts_;  ///< ISSRTL_FAIL_SITE
  };

  std::unique_ptr<Worker> make_worker(unsigned shard) const;

  /// Golden metadata + shared per-model aggregation over the run's
  /// completed records (done sites only, kept in site order — an early
  /// stop yields a truncated result whose records are each bit-identical
  /// to their uninterrupted counterparts).
  fault::CampaignResult finish(EngineRun<Record> run) const;

 private:
  friend class Worker;

  /// Whether the activation oracle may decide site `s` (see
  /// never_activated()).
  bool oracle_applies(const fault::FaultSite& s) const noexcept;
  /// Fill never_activated_: filter the oracle's sites by the ladder rungs
  /// (port-read sites pass unfiltered), then replay the golden run under
  /// rtl::SimContext activation watches.
  void build_activation_table() const;

  isa::Program prog_;
  fault::CampaignConfig cfg_;
  rtlcore::CoreConfig core_cfg_;
  EngineOptions opts_;

  u64 golden_cycles_ = 0;
  u64 golden_instret_ = 0;
  GoldenRun<rtlcore::Leon3Core> golden_;
  iss::ArchState golden_state_;
  std::vector<fault::FaultSite> sites_;
  FailSiteSpec fail_spec_;  ///< parsed from opts_.fail_sites (test hook)
  // Node metadata snapshot (NodeId-indexed) for labelling results in
  // finish(); the golden core itself does not outlive the constructor.
  std::vector<std::string> node_names_;
  std::vector<std::string> node_units_;
  std::vector<u8> node_port_read_;  ///< rtl::SimContext::port_read per node
  // Activation oracle table, built once by the first permanent site.
  mutable std::once_flag activation_once_;
  mutable std::vector<u8> never_activated_;  ///< site-indexed
};

/// Whether core `c` holds rung `g`'s state, at whatever cycle: a cheap
/// scalar gate (instret, slot/fetch/redirect/annul sequence numbers,
/// bus-write count), then the node array and memory. Bus reads are
/// diagnostics, not state the core evolves from, and are not compared; the
/// write payloads are the caller's to match.
bool matches(const RtlCampaignBackend::GoldenSnapshot& g,
             const rtlcore::Leon3Core& c);

/// Full engine-backed RTL campaign. fault::run_campaign is the serial thin
/// wrapper over this; examples and benches pass threads/options directly.
fault::CampaignResult run_rtl_campaign(const isa::Program& prog,
                                       const fault::CampaignConfig& cfg,
                                       const rtlcore::CoreConfig& core_cfg = {},
                                       const EngineOptions& opts = {});

}  // namespace issrtl::engine
