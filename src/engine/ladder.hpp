// Checkpoint ladder: periodic golden-run snapshots shared by every worker.
//
// PR 1's engine kept one *rolling* checkpoint per worker: the golden prefix
// was re-simulated from the previous injection instant up to the next one,
// so each shard still paid O(max instant) fault-free cycles per campaign —
// per worker, and again for every thread added. The ladder removes that
// cost class: while the backend runs the golden reference (which it does
// exactly once anyway), it records a full snapshot — "rung" — every
// `stride` instants. Each injection then restores from the highest rung at
// or below its instant and fast-forwards only `instant mod stride` cycles,
// independent of thread count and of how the instants are distributed.
//
// Rungs are cheap because of the PR 2 state layout: the RTL node half is a
// 4·N-byte memcpy (rtl::SimContext::save_values), the memory half is a
// copy-on-write clone (O(pages) shared_ptr copies, Memory::clone), and the
// O(instant) bus trace is *not* stored — a rung taken on the golden run has
// by construction a trace that is a prefix of the golden trace, so the rung
// keeps two prefix lengths and the restore path rebuilds the trace from the
// backend's golden copy (OffCoreTrace::assign_prefix).
//
// Rungs double as a *golden state oracle*: a faulty run whose state becomes
// bit-identical to a rung's (all writes matched so far) is provably silent
// for the rest of the run — see the backends' convergence cut-off, which
// is what turns masked transients from full-suffix replays into O(stride)
// ones. The RTL backend matches a rung at any cycle (the run is then the
// golden remainder, shifted); the ISS backend at the rung's instant.
//
// Thread safety: the ladder is built single-threaded during the golden run
// and is immutable afterwards; workers only read it. Snapshots are
// held by shared_ptr-to-const, so restoring never copies a rung, and the
// COW page control blocks make the concurrent Memory::clone calls safe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>

#include "common/types.hpp"

namespace issrtl::engine {

/// EngineOptions::ladder_stride value meaning "pick a stride automatically":
/// recording starts at kAutoInitialStride and the ladder doubles its stride
/// (thinning itself) whenever it outgrows kAutoMaxRungs, so the final
/// spacing adapts to the golden span without knowing it up front. 0
/// disables the ladder entirely.
inline constexpr u64 kLadderStrideAuto = ~0ull;
inline constexpr u64 kAutoInitialStride = 64;
inline constexpr std::size_t kAutoMaxRungs = 1024;

/// Stride the recording loop starts from: 0 stays 0 (disabled),
/// kLadderStrideAuto starts at kAutoInitialStride, anything else is used
/// verbatim.
u64 initial_ladder_stride(u64 requested);

/// Rung-count limit that triggers stride doubling: kAutoMaxRungs in auto
/// mode, 0 (never double — the byte cap alone bounds memory) for an
/// explicit stride.
std::size_t ladder_rung_limit(u64 requested);

/// Byte-capped ladder of golden-run snapshots, ordered by instant.
///
/// `Snapshot` is the backend's rung payload (core checkpoint + COW memory
/// clone + trace prefix lengths). The ladder owns eviction, two-tier:
///
///  * **stride doubling** (auto mode, `max_rungs` != 0): when the rung
///    count outgrows `max_rungs`, the stride doubles and rungs off the new
///    grid are dropped — spacing degrades geometrically, coverage of the
///    whole golden span is kept;
///  * **byte cap**: when the summed rung sizes exceed `max_bytes`, whole
///    rungs are dropped **oldest-first** (never the most recent one), so
///    under hard memory pressure the survivors stay dense at the hot end of
///    the golden run — the instants a still-recording pass reaches next.
///
/// Sizes are supplied by the caller at record() time; the ladder never
/// inspects the payload.
template <class Snapshot>
class CheckpointLadder {
 public:
  /// One recorded snapshot. `snap` is shared with every worker that
  /// restores from it; `bytes` is the caller's size estimate used for the
  /// eviction cap.
  struct Rung {
    u64 instant = 0;
    std::size_t bytes = 0;
    std::shared_ptr<const Snapshot> snap;
  };

  CheckpointLadder() = default;
  CheckpointLadder(u64 stride, std::size_t max_bytes,
                   std::size_t max_rungs = 0)
      : stride_(stride), max_bytes_(max_bytes), max_rungs_(max_rungs) {}

  /// A ladder with stride 0 never wants or stores rungs.
  bool enabled() const noexcept { return stride_ != 0; }
  u64 stride() const noexcept { return stride_; }

  /// True when the recording loop should snapshot at `instant`: ladder
  /// enabled, instant on the stride grid (and not the trivial reset state),
  /// and strictly past the newest rung.
  bool wants(u64 instant) const noexcept {
    return enabled() && instant != 0 && instant % stride_ == 0 &&
           (rungs_.empty() || rungs_.back().instant < instant);
  }

  /// Append a rung (instants must be recorded in increasing order), then
  /// apply eviction: stride doubling past `max_rungs` (auto mode), and
  /// oldest-first drops while the byte cap is exceeded. The newest rung is
  /// never evicted, even if it alone exceeds the cap.
  void record(u64 instant, std::shared_ptr<const Snapshot> snap,
              std::size_t bytes) {
    rungs_.push_back(Rung{instant, bytes, std::move(snap)});
    total_bytes_ += bytes;
    while (max_rungs_ != 0 && rungs_.size() > max_rungs_) {
      stride_ *= 2;
      thin_to_stride();
    }
    while (total_bytes_ > max_bytes_ && rungs_.size() > 1) {
      total_bytes_ -= rungs_.front().bytes;
      rungs_.pop_front();
      ++evicted_;
    }
  }

  /// Highest rung with rung.instant <= instant, or nullptr when every rung
  /// is above `instant` (or the ladder is empty). The pointer is valid
  /// until the next record() call; after recording finishes, forever.
  const Rung* best_at_or_below(u64 instant) const noexcept {
    const auto it = std::upper_bound(
        rungs_.begin(), rungs_.end(), instant,
        [](u64 v, const Rung& r) { return v < r.instant; });
    return it == rungs_.begin() ? nullptr : &*std::prev(it);
  }

  /// Rung exactly at `instant`, or nullptr. Used by the ISS backend's
  /// convergence cut-off, whose instants are retired instructions; the RTL
  /// cut-off walks rungs() by instret instead, to match shifted states.
  const Rung* at(u64 instant) const noexcept {
    const Rung* r = best_at_or_below(instant);
    return r != nullptr && r->instant == instant ? r : nullptr;
  }

  std::size_t rung_count() const noexcept { return rungs_.size(); }
  /// Every rung, ascending by instant.
  const std::deque<Rung>& rungs() const noexcept { return rungs_; }
  std::size_t total_bytes() const noexcept { return total_bytes_; }
  /// Rungs dropped so far, by either eviction tier.
  u64 evicted_count() const noexcept { return evicted_; }

 private:
  /// Drop every rung off the (just doubled) stride grid. The newest rung is
  /// always retained so the ladder keeps its hottest restore point.
  void thin_to_stride() {
    std::deque<Rung> kept;
    for (std::size_t i = 0; i < rungs_.size(); ++i) {
      if (rungs_[i].instant % stride_ == 0 || i + 1 == rungs_.size()) {
        kept.push_back(std::move(rungs_[i]));
      } else {
        total_bytes_ -= rungs_[i].bytes;
        ++evicted_;
      }
    }
    rungs_.swap(kept);
  }

  u64 stride_ = 0;
  std::size_t max_bytes_ = 0;
  std::size_t max_rungs_ = 0;
  std::size_t total_bytes_ = 0;
  u64 evicted_ = 0;
  std::deque<Rung> rungs_;  ///< ascending by instant
};

}  // namespace issrtl::engine
