// Per-color bookkeeping shared by ΔLRU, EDF, and ΔLRU-EDF (the "common
// aspects" of Section 3.1 of the paper).
//
// For each color ℓ the table maintains:
//   cnt        - the job counter; arrival of x jobs adds x; reaching Δ wraps
//                the counter (cnt mod Δ), a *counter wrapping event*, and
//                makes ℓ eligible.
//   dd         - the color deadline: set to k + D_ℓ at every integral
//                multiple k of D_ℓ (arrival-phase step 1).
//   eligible   - colors start ineligible; a wrapping event makes them
//                eligible; the drop phase of a boundary round makes an
//                eligible, *uncached* color ineligible again (and zeroes cnt).
//   timestamp  - the ΔLRU timestamp (Section 3.1.1): the latest round
//                strictly before the most recent multiple of D_ℓ in which a
//                wrapping event occurred (0 if none). Implemented as a
//                current value plus a pending wrap that is *promoted* at the
//                next boundary; a promotion is a "timestamp update event"
//                (Section 3.4).
//
// The table also keeps the analysis counters used to test Lemmas 3.2-3.4:
// epoch counts (an epoch of ℓ ends when ℓ becomes ineligible), eligible vs
// ineligible drop costs, wrapping events, and timestamp update events.
//
// Colors sharing a delay bound form a delay group: they reach boundaries
// together and carry the same deadline, so both are kept per group.
// Eligibility is stored as a color bitset and the wrap-pending predicate is
// mirrored as one, so boundary processing visits only the colors that
// transition.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "obs/metrics.h"
#include "snapshot/codec.h"

namespace rrs {

class ColorStateTable {
 public:
  // Events produced by boundary processing, consumed by the policies to keep
  // their caching structures (LruTracker etc.) in sync. Both lists are in
  // (delay group, ascending color) order.
  struct BoundaryEvents {
    std::vector<ColorId> became_ineligible;   // eligible & uncached -> ineligible
    std::vector<ColorId> timestamp_updated;   // pending wrap promoted
  };

  void Reset(const Instance& instance, uint64_t delta);

  // ---- Phase processing (called from policy hooks) ----------------------

  // Record drop-phase drops for eligible/ineligible accounting. Must be
  // called before ProcessBoundary for the same round (the paper classifies a
  // dropped job by the color's eligibility at drop time, before the
  // drop-phase state transition).
  void RecordDrop(ColorId c, uint64_t count);

  // Runs the boundary bookkeeping of round k (both the drop-phase eligibility
  // transition and the arrival-phase step-1 deadline/timestamp updates) for
  // every delay group with k ≡ 0 (mod D):
  //   1. every color of the group in eligible & ~cached becomes ineligible,
  //      cnt = 0 (ends the current epoch of ℓ);
  //   2. every color of the group in the wrap-pending set promotes its wrap
  //      into the timestamp (a timestamp update event);
  //   3. the group's deadline becomes k + D.
  // `cached` is the cache's color bitset (CacheSlots::cached_words()). Steps
  // 1-2 walk the set bits of the group mask intersected with the eligible
  // and wrap-pending bitsets, so colors that do not transition cost nothing.
  void ProcessBoundary(Round k, std::span<const uint64_t> cached,
                       BoundaryEvents& events);

  // Arrival-phase steps 2-3 for one color: cnt += count; on reaching Δ, wrap
  // (cnt mod Δ) and make the color eligible. Returns true if the color
  // transitioned ineligible -> eligible in this call.
  bool OnArrivals(Round k, ColorId c, uint64_t count);

  // ---- Single-color boundary steps (lane-fused kernel) -------------------
  // The batched fleet kernel (sched/lane_kernels.h) tracks both boundary
  // predicates as per-color lane bitmasks and applies only the lanes that
  // actually transition, so it needs the three steps of ProcessBoundary
  // individually. Each caller must have established the step's precondition
  // itself; the color bitsets are kept in step.

  // Step 1 for one color: ends the epoch (caller established eligible(c) and
  // !cached(c)).
  void BoundaryExpire(ColorId c) {
    state_[c].cnt = 0;
    ++epochs_completed_;
    eligible_list_dirty_ = true;
    eligible_bits_[c / 64] &= ~(uint64_t{1} << (c % 64));
  }

  // Step 2 for one color: promotes the pending wrap (caller established
  // pending_wrap(c) >= 0). Returns the promoted timestamp.
  Round BoundaryPromoteWrap(ColorId c) {
    State& s = state_[c];
    s.timestamp = s.pending_wrap;
    s.pending_wrap = -1;
    ++timestamp_update_events_;
    wrap_bits_[c / 64] &= ~(uint64_t{1} << (c % 64));
    return s.timestamp;
  }

  // Step 3 for one delay group: dd = k + D, precomputed by the caller (it is
  // lane-invariant across a slab).
  void SetGroupDeadline(uint32_t group, Round dd) { group_dd_[group] = dd; }

  // ---- Queries -----------------------------------------------------------

  bool eligible(ColorId c) const {
    return (eligible_bits_[c / 64] >> (c % 64) & 1) != 0;
  }
  uint64_t counter(ColorId c) const { return state_[c].cnt; }
  Round deadline(ColorId c) const { return group_dd_[group_of_[c]]; }
  Round timestamp(ColorId c) const { return state_[c].timestamp; }
  Round pending_wrap(ColorId c) const { return state_[c].pending_wrap; }
  Round delay_bound(ColorId c) const { return instance_->delay_bound(c); }

  // All currently eligible colors (unordered; lazily compacted).
  const std::vector<ColorId>& eligible_colors() const;

  // ---- Color bitsets -----------------------------------------------------
  // Bit c % 64 of word c / 64; padding bits past num_colors() stay zero.

  size_t num_words() const { return eligible_bits_.size(); }
  // Colors with eligible(c): the eligibility state itself, saved and
  // restored one word per color like the rest of State.
  std::span<const uint64_t> eligible_words() const { return eligible_bits_; }
  // Colors with pending_wrap(c) >= 0: derived from State, kept in step by
  // every transition above, rebuilt by LoadState and never serialized.
  std::span<const uint64_t> wrap_words() const { return wrap_bits_; }

  // ---- Delay groups ------------------------------------------------------
  // The colors sharing one delay bound D, groups indexed in ascending D.
  // Boundary membership (k ≡ 0 mod D) is a property of a whole group, and
  // so is the color deadline: every color of a group carries dd = the last
  // boundary round + D (0 before the first boundary), stored once per group.

  uint32_t num_groups() const {
    return static_cast<uint32_t>(group_delay_.size());
  }
  Round group_delay(uint32_t g) const { return group_delay_[g]; }
  Round group_deadline(uint32_t g) const { return group_dd_[g]; }
  uint32_t group_of(ColorId c) const { return group_of_[c]; }
  // The group's member colors as a bitset of num_words() words.
  std::span<const uint64_t> group_members(uint32_t g) const {
    return std::span<const uint64_t>(group_members_).subspan(
        g * num_words(), num_words());
  }

  size_t num_colors() const { return state_.size(); }
  uint64_t delta() const { return delta_; }

  // ---- Analysis counters (Lemmas 3.2-3.4 instrumentation) ---------------

  // Total epochs: completed epochs (eligible->ineligible transitions) plus
  // the trailing incomplete epoch of every color that received any job.
  uint64_t num_epochs() const;
  uint64_t epochs_completed() const { return epochs_completed_; }
  uint64_t eligible_drops() const { return eligible_drops_; }
  uint64_t ineligible_drops() const { return ineligible_drops_; }
  uint64_t wrap_events() const { return wrap_events_; }
  uint64_t timestamp_update_events() const { return timestamp_update_events_; }

  // Registers the analysis counters (epochs_completed, num_epochs,
  // eligible_drops, ineligible_drops, wrap_events, timestamp_update_events)
  // into the structured metrics registry.
  void ExportMetrics(obs::Registry& registry) const;

  // Checkpoint/restore of all mutable state: per-color State (eligibility
  // included), deadlines (one word per color), the eligible list (order and staleness included —
  // compaction order is observable through eligible_colors()), and the
  // analysis counters. The delay groups and the wrap bitset are derived:
  // Reset builds the groups from the instance and LoadState rebuilds the
  // wrap bits, so LoadState requires a table Reset against the same instance
  // and delta.
  void SaveState(snapshot::Writer& w) const;
  void LoadState(snapshot::Reader& r);

 private:
  struct State {
    uint64_t cnt = 0;
    Round timestamp = 0;
    Round pending_wrap = -1;  // wrap round awaiting boundary promotion
    bool saw_jobs = false;
  };

  // Rebuilds wrap_bits_ from state_.
  void RebuildWrapBits();

  const Instance* instance_ = nullptr;
  uint64_t delta_ = 1;
  std::vector<State> state_;
  std::vector<uint64_t> eligible_bits_;  // eligible(c), see eligible_words()
  std::vector<uint64_t> wrap_bits_;
  // Delay groups (see group_members()): sorted distinct D, per-group color
  // deadline, color -> group, and the member bitsets, num_words() per group.
  // Buffers keep their capacity across Resets.
  std::vector<Round> group_delay_;
  std::vector<Round> group_dd_;
  std::vector<uint32_t> group_of_;
  std::vector<uint64_t> group_members_;

  mutable std::vector<ColorId> eligible_list_;  // lazily compacted
  mutable std::vector<uint8_t> in_eligible_list_;
  // True when eligible_list_ may contain stale (now-ineligible) entries;
  // eligible_colors() skips its compaction scan otherwise.
  mutable bool eligible_list_dirty_ = false;

  uint64_t epochs_completed_ = 0;
  uint64_t colors_with_jobs_ = 0;
  uint64_t eligible_drops_ = 0;
  uint64_t ineligible_drops_ = 0;
  uint64_t wrap_events_ = 0;
  uint64_t timestamp_update_events_ = 0;
};

}  // namespace rrs
