// Golden-replay layer shared by both campaign backends (§4.1/§4.2): record
// the golden run and its checkpoint ladder, position a simulator fault-free
// at each injection instant, step the faulty suffix under the watchdog while
// matching its off-core writes against the golden ones, and tally what the
// replay cost. Written once against a simulator type `Sim`; the overload set
// below covers where rtlcore::Leon3Core and iss::Emulator differ. Oracles,
// convergence predicates, RTL hang fast-forward, classification and record
// types mean different things per backend and stay there.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/bus.hpp"
#include "common/memory.hpp"
#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/ladder.hpp"
#include "fault/campaign.hpp"
#include "isa/program.hpp"
#include "iss/emulator.hpp"
#include "rtlcore/core.hpp"

namespace issrtl::engine {

// ---- per-simulator overload set ---------------------------------------------

inline u64 instant(const rtlcore::Leon3Core& c) noexcept { return c.cycles(); }
inline u64 instant(const iss::Emulator& e) noexcept { return e.instret(); }
inline u64 instant(const rtlcore::CoreCheckpoint& c) noexcept {
  return c.cycle;
}
inline u64 instant(const iss::EmuCheckpoint& c) noexcept { return c.instret; }
inline void clear_faults(rtlcore::Leon3Core& c) { c.sim().clear_faults(); }
inline void clear_faults(iss::Emulator& e) { e.clear_faults(); }
/// Run fault-free up to instant `target`, or to the halt if that is sooner:
/// a step loop on the RTL, the block-walk advance() on the ISS.
inline void run_to(rtlcore::Leon3Core& c, u64 target) {
  while (c.cycles() < target && c.halt_reason() == iss::HaltReason::kRunning) {
    c.step();
  }
}
inline void run_to(iss::Emulator& e, u64 target) {
  if (e.instret() < target && e.halt_reason() == iss::HaltReason::kRunning) {
    e.advance(target - e.instret());
  }
}
/// Heap bytes a checkpoint_lite() snapshot holds beyond its own sizeof.
inline std::size_t heap_bytes(const rtlcore::CoreCheckpoint& c) noexcept {
  return c.node_values.size() * sizeof(u32);
}
inline std::size_t heap_bytes(const iss::EmuCheckpoint&) noexcept { return 0; }

// ---- the golden run ---------------------------------------------------------

/// A simulator state on the golden run: a ladder rung, or a worker's rolling
/// checkpoint. `ckpt` is a checkpoint_lite() snapshot (no trace copy); `mem`
/// a COW clone of the golden memory; `writes`/`reads` the golden bus-trace
/// prefix lengths at that instant, from which restores rebuild the trace.
template <class Checkpoint>
struct GoldenSnapshot {
  Checkpoint ckpt;
  Memory mem;
  std::size_t writes = 0;
  std::size_t reads = 0;
};

template <class Sim>
using SnapshotOf =
    GoldenSnapshot<decltype(std::declval<const Sim&>().checkpoint_lite())>;

/// Fill `s` with the state of `sim`, whose memory is `mem`. Assigning in
/// place (rather than moving a built snapshot in) keeps the allocation
/// order of the golden pass, which its set-up time is sensitive to.
template <class Sim>
void capture(SnapshotOf<Sim>& s, const Sim& sim, const Memory& mem) {
  s.ckpt = sim.checkpoint_lite();
  s.mem = mem.clone();
  s.writes = sim.offcore().writes().size();
  s.reads = sim.offcore().reads().size();
}

/// Count `n` more of a replay counter (informational only, see
/// fault::ReplayCounters) that several workers bump at once.
inline void bump(u64& counter, u64 n = 1) noexcept {
  std::atomic_ref<u64>(counter).fetch_add(n, std::memory_order_relaxed);
}

/// What every replay of the golden run starts from: the loaded program
/// image (COW ancestor of every run, so pages no run touches stay shared and
/// Memory::equals short-circuits them by pointer), the golden memory and
/// off-core trace at the halt, the ladder recorded on the way there, the
/// watchdog it sets, and the tally of what the replays cost. The workers
/// bump the tally; the oracle scan's two totals are written once, by the
/// thread that builds the oracle table.
template <class Sim>
struct GoldenRun {
  using Snapshot = SnapshotOf<Sim>;

  GoldenRun(const isa::Program& prog, const EngineOptions& opts)
      : entry(prog.entry),
        keep_rolling(opts.checkpoint),
        ladder(opts.checkpoint ? initial_ladder_stride(opts.ladder_stride) : 0,
               opts.ladder_max_bytes, ladder_rung_limit(opts.ladder_stride)) {
    prog.load_into(image);
    mem = image.clone();
  }

  /// Reset `sim`, built on `mem`, and run it to its halt or `max_instant`,
  /// recording a rung at each point of the stride grid; the watchdog is the
  /// golden span times `watchdog_factor`, plus 1000. Returns the halt
  /// reason, kStepLimit when `max_instant` ran out first.
  iss::HaltReason record(Sim& sim, u64 max_instant, double watchdog_factor) {
    sim.reset(entry);
    while (instant(sim) < max_instant &&
           sim.halt_reason() == iss::HaltReason::kRunning) {
      if (ladder.wants(instant(sim))) {
        auto snap = std::make_shared<Snapshot>();
        capture(*snap, sim, mem);
        // COW pages are shared with the golden image, so a rung is charged
        // the pointer-copy cost per page, not 4 KiB: the bytes a later
        // store forces to be copied are the writer's.
        const std::size_t bytes = sizeof(Snapshot) + heap_bytes(snap->ckpt) +
                                  snap->mem.allocated_pages() * 64;
        ladder.record(instant(sim), std::move(snap), bytes);
      }
      // The stride may double as the auto ladder thins itself, so it is
      // re-read every lap.
      u64 target = max_instant;
      if (ladder.enabled()) {
        const u64 stride = ladder.stride();
        target = std::min(target, (instant(sim) / stride + 1) * stride);
      }
      run_to(sim, target);
    }
    trace = sim.offcore();
    watchdog = static_cast<u64>(
        static_cast<double>(instant(sim)) * watchdog_factor + 1000);
    return sim.halt_reason() == iss::HaltReason::kRunning
               ? iss::HaltReason::kStepLimit
               : sim.halt_reason();
  }

  /// The best rung at or below instant `t`, or nullptr.
  const Snapshot* rung_at_or_below(u64 t) const noexcept {
    const auto* rung = ladder.best_at_or_below(t);
    return rung != nullptr ? rung->snap.get() : nullptr;
  }

  /// Put `sim`, built on `m`, at snapshot `s`, or at reset for nullptr.
  void restore(Sim& sim, Memory& m, const Snapshot* s) const {
    if (s == nullptr) {
      m = image.clone();
      sim.reset(entry);
      return;
    }
    sim.restore(s->ckpt, trace, s->writes, s->reads);
    m = s->mem.clone();
  }

  Memory image;
  u32 entry = 0;
  bool keep_rolling = true;  ///< workers keep a rolling checkpoint
  Memory mem;
  OffCoreTrace trace;
  CheckpointLadder<Snapshot> ladder;
  u64 watchdog = 0;
  mutable fault::ReplayCounters tally;
};

/// Fill `result` from an engine run: its completed records (done sites only,
/// kept in site order; a truncated run holds an arbitrary done-subset of the
/// site list, each record bit-identical to the uninterrupted run's), the
/// truncation counts, and the tally, ladder and durability counters.
template <class Result, class Record, class Sim>
void collect(Result& result, EngineRun<Record>& run,
             const GoldenRun<Sim>& golden) {
  fault::ReplayCounters& rc = result.replay;
  rc = golden.tally;
  rc.ladder_rungs = golden.ladder.rung_count();
  rc.ladder_bytes = golden.ladder.total_bytes();
  rc.ladder_evicted = golden.ladder.evicted_count();
  rc.journal_hits = run.journal_hits;
  rc.journal_dropped = run.journal_dropped;
  rc.sites_retried = run.sites_retried;
  rc.sites_engine_error = run.engine_errors;
  result.truncated = run.truncated;
  result.completed_sites = run.completed;
  result.total_sites = run.records.size();
  result.runs.reserve(run.completed);
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    if (run.done[i] != 0) result.runs.push_back(std::move(run.records[i]));
  }
}

// ---- per-worker positioning and the suffix monitor --------------------------

/// One per worker: puts its simulator fault-free at an injection instant,
/// resumed from the closer of the rolling checkpoint (the last instant
/// positioned at; a shard walks its sites in instant order) and the best
/// rung at or below it, or from reset, then fast-forwarded. The rolling
/// checkpoint is a fault-free golden prefix, so a GoldenSnapshot like a rung.
template <class Sim>
class Positioner {
 public:
  explicit Positioner(const GoldenRun<Sim>& golden) : golden_(golden) {}

  void position(Sim& sim, Memory& mem, u64 target) {
    fault::ReplayCounters& tally = golden_.tally;
    clear_faults(sim);
    const SnapshotOf<Sim>* from = golden_.rung_at_or_below(target);
    u64* choice = from != nullptr ? &tally.ladder_restores : &tally.cold_resets;
    if (rolling_ && instant(rolling_->ckpt) <= target &&
        (from == nullptr || instant(from->ckpt) <= instant(rolling_->ckpt))) {
      from = &*rolling_;
      choice = &tally.rolling_restores;
    }
    if (from == nullptr) rolling_.reset();
    golden_.restore(sim, mem, from);
    bump(*choice);
    const u64 resumed = instant(sim);
    run_to(sim, target);
    if (instant(sim) != resumed) {
      bump(tally.fast_forward_cycles, instant(sim) - resumed);
    }
    if (golden_.keep_rolling &&
        (!rolling_ || instant(rolling_->ckpt) != instant(sim))) {
      if (!rolling_) rolling_.emplace();
      capture(*rolling_, sim, mem);
    }
  }

 private:
  const GoldenRun<Sim>& golden_;
  std::optional<SnapshotOf<Sim>> rolling_;
};

/// The faulty suffix's watchdog budget and off-core write monitor, stepped
/// once per cycle (RTL) or instruction (ISS). The prefix consumed its
/// instants of the watchdog, so one already at or past it gets no steps.
/// Prefix writes replayed the golden run, so matching resumes after them.
class SuffixMonitor {
 public:
  template <class Sim>
  SuffixMonitor(const GoldenRun<Sim>& golden, const Sim& sim, bool early_stop)
      : golden_(golden.trace.writes()),
        budget_(golden.watchdog > instant(sim) ? golden.watchdog - instant(sim)
                                               : 0),
        matched_(sim.offcore().writes().size()),
        early_stop_(early_stop) {}

  bool running(iss::HaltReason halt) const noexcept {
    return budget_ > 0 && halt == iss::HaltReason::kRunning && !abandoned();
  }

  /// Spend one step of budget and match the writes it added. A wrong or
  /// extra write can never heal: the run is a failure whatever it does
  /// next, so it is abandoned (early stop) or at least no longer compared
  /// (convergence is off the table).
  void stepped(const OffCoreTrace& trace) {
    --budget_;
    const std::vector<BusRecord>& writes = trace.writes();
    while (!mismatch_ && matched_ < writes.size()) {
      if (matched_ >= golden_.size() ||
          !writes[matched_].same_payload(golden_[matched_])) {
        mismatch_ = true;
      } else {
        ++matched_;
      }
    }
  }

  bool mismatch() const noexcept { return mismatch_; }

  /// The suffix's halt once its loop ends: a run still going hit the
  /// watchdog, unless it was abandoned at a definite divergence.
  iss::HaltReason final_halt(iss::HaltReason halt) const noexcept {
    return halt == iss::HaltReason::kRunning && !abandoned()
               ? iss::HaltReason::kStepLimit
               : halt;
  }

 private:
  bool abandoned() const noexcept { return mismatch_ && early_stop_; }

  const std::vector<BusRecord>& golden_;
  u64 budget_;
  std::size_t matched_;
  bool early_stop_;
  bool mismatch_ = false;
};

/// Mix a workload image (name, layout and every code/data byte) into a
/// campaign fingerprint.
inline void mix_program(Fingerprint& fp, const isa::Program& prog) {
  fp.mix_str(prog.name);
  fp.mix(prog.code_base);
  fp.mix(prog.data_base);
  fp.mix(prog.entry);
  fp.mix(prog.code.size());
  for (const u32 w : prog.code) fp.mix(w);
  fp.mix(prog.data.size());
  fp.mix_bytes(prog.data.data(), prog.data.size());
}

}  // namespace issrtl::engine
