// DlruEdfLaneKernel: the lane-fused ΔLRU-EDF phase processing used by the
// batched fleet engine (fleet/batch_engine.h).
//
// A slab runs up to 64 same-shape tenants ("lanes") in lock-step, one round
// at a time. Each lane owns a full DlruEdfPolicy (so snapshots, telemetry
// and per-lane parameters stay exactly the scalar ones); the kernel replaces
// the policy's *virtual phase hooks* with direct calls that share the
// lane-invariant work across the slab and skip per-lane work that provably
// cannot change the outcome:
//
//  - the boundary set of round k (the delay groups with k % D == 0) depends
//    only on the delay layout, which is part of the slab shape: the due
//    groups' member bitsets are walked once per round, applying each color's
//    transitions to every lane's ColorStateTable at once;
//  - color deadlines are lane-invariant (dd = k - k%D + D is set
//    unconditionally at boundary rounds), so the EDF class order is computed
//    and sorted once per round and reused by every lane and mini-round;
//  - the LRU top-k is memoized per lane behind a tracker-dirty flag: the
//    kernel performs every tracker mutation itself, so it knows exactly when
//    TopK can change; when the desired set is unchanged the demote/mark
//    loops are skipped (they are no-ops by the is_lru == desired invariant);
//  - the EDF candidate scan runs once over the shared class order for all
//    lanes simultaneously, as masked updates over per-color lane bitmasks
//    (eligible, LRU, backlog) instead of per-lane walks;
//  - the eviction machinery (victims build + rank sort) runs only when a
//    lane actually needs an insertion — the scalar policy rebuilds and
//    re-sorts it every mini-round whether or not anything changes.
//
// Lanes with params_.random_evict take the full scalar sequence every
// mini-round (the shuffle consumes the RNG stream, which must replay
// byte-identically), and every skip above is a proven no-op, so a fused lane
// is bit-identical to the same tenant on a scalar Engine — including
// snapshot bytes and the telemetry counters. Pinned by
// tests/batch_engine_test.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "sched/dlru_edf.h"

namespace rrs {

class DlruEdfLaneKernel {
 public:
  static constexpr uint32_t kMaxLanes = 64;

  // Re-arms the kernel for a slab shape: `num_colors` colors, `width` lanes,
  // and the slab's backlog bitmask table (bit l of backlog_bits[c] set iff
  // lane l has pending jobs of color c; maintained by the batch engine
  // inline with every pending-count mutation). Keeps lane bindings; the
  // batch engine calls this whenever the slab adopts a shape or the table
  // storage moves.
  void SetShape(size_t num_colors, uint32_t width,
                const uint64_t* backlog_bits);

  // Binds lane `lane` to a freshly Reset policy. The policy must outlive the
  // binding.
  void BindLane(uint32_t lane, DlruEdfPolicy* policy);
  void UnbindLane(uint32_t lane);

  // Rebuilds the lane's mirrors and invalidates its memos after the policy
  // state changed out of band (LoadState on a restored lane).
  void ResyncLane(uint32_t lane);

  // Writes the shared group deadlines back into the lane's ColorStateTable.
  // Deadlines are lane-invariant, so the kernel keeps one copy (shared_dd_)
  // and lane tables go stale during a run; the batch engine flushes before a
  // lane snapshot so the serialized bytes match the scalar engine's.
  void FlushDeadlines(uint32_t lane) const;

  // ---- Phase hooks, mirroring BatchedSchedulerBase/DlruEdfPolicy ---------

  // Drop-phase accounting for one (lane, color) expiry. The batch engine
  // guarantees collect_ineligible_jobs() is false for fused lanes, so the
  // dropped ids are not needed here.
  void OnJobsDropped(uint32_t lane, Round k, ColorId c, uint64_t count) {
    lanes_[lane].policy->table_.RecordDrop(c, count);
    (void)k;
  }

  // Boundary processing for every lane in `mask`: one shared walk of the
  // due groups, per-lane transitions and tracker maintenance.
  void AfterDropPhase(Round k, uint64_t mask);

  // Arrival-phase update for one (lane, color) run.
  void OnArrivals(uint32_t lane, Round k, ColorId c, uint64_t count) {
    DlruEdfPolicy& p = *lanes_[lane].policy;
    if (p.table_.OnArrivals(k, c, count)) {
      p.tracker_.Insert(c, p.table_.timestamp(c));
      eligible_bits_[c] |= uint64_t{1} << lane;
      tracker_dirty_ |= uint64_t{1} << lane;
    }
    // Keep the pending-wrap mirror in step (a wrap may occur without an
    // eligibility change; the load hits the State line OnArrivals just
    // touched).
    if (p.table_.pending_wrap(c) >= 0) {
      wrap_bits_[c] |= uint64_t{1} << lane;
    }
  }

  // Reconfiguration of mini-round (k, mini) for every lane in `mask`.
  // `views[lane]` is the lane's ResourceView.
  void Reconfigure(Round k, int mini, uint64_t mask,
                   ResourceView* const* views);

 private:
  struct LaneState {
    DlruEdfPolicy* policy = nullptr;
    // EDF budget (slots capacity - lru_capacity), cached at bind time so the
    // shared scan does not touch the policy object per admission.
    uint32_t edf_cap = 0;
    std::vector<ColorId> desired;  // memoized TopK(lru_capacity)
  };

  // Runs the scalar policy's full eviction/insertion sequence for one lane
  // (victims build + sort [+ shuffle], LRU then EDF insertions, ApplyTo),
  // keeping cached_bits_ in step with the slot mutations.
  void ApplySlow(uint32_t lane, LaneState& lane_state, ResourceView& view);

  uint32_t width_ = 0;
  // Engine-maintained per-color lane bitmask of nonzero pending counts: the
  // EDF scan's idleness test is one load instead of a strided walk over the
  // pending row.
  const uint64_t* backlog_ = nullptr;
  LaneState lanes_[kMaxLanes];

  // Per-lane memo flags as lane bitmasks, so a round in which a lane's
  // tracker did not mutate skips that lane without touching its LaneState
  // cache lines.
  uint64_t tracker_dirty_ = 0;    // tracker mutated since desired was memoized
  uint64_t desired_valid_ = 0;    // desired holds a memoized TopK
  uint64_t desired_changed_ = 0;  // this mini's TopK changed the desired set
  uint64_t random_evict_ = 0;     // params_.random_evict lanes (always slow)

  // Per-mini EDF admission lists, SoA across lanes: lane l's admissions are
  // ranked_colors_[l * num_colors .. l * num_colors + ranked_len_[l]).
  // Resetting all lanes is one 64-byte clear instead of 64 vector clears.
  std::vector<ColorId> ranked_colors_;
  uint32_t ranked_len_[kMaxLanes] = {};
  size_t ranked_stride_ = 0;

  // The slab's group deadlines: dd = k - k mod D + D is set unconditionally
  // at boundary rounds, which depend only on the shared delay layout, so
  // every lane's table would hold exactly these values. One store per due
  // group replaces one per lane; FlushDeadlines restores a lane's copy on
  // demand.
  std::vector<Round> shared_dd_;

  // Per-color lane bitmask mirrors of per-lane policy state, maintained by
  // the kernel (it performs every mutation for fused lanes). AfterDropPhase
  // evaluates both boundary predicates as mask intersections, so lanes that
  // do not transition at a boundary cost nothing.
  std::vector<uint64_t> eligible_bits_;  // table_.eligible(c)
  std::vector<uint64_t> lru_bits_;       // policy is_lru(c)
  std::vector<uint64_t> cached_bits_;    // slots_.IsCached(c)
  std::vector<uint64_t> wrap_bits_;      // table_.pending_wrap(c) >= 0

  // Shared per-round scratch.
  Round class_order_round_ = -1;
  std::vector<std::pair<Round, uint32_t>> class_order_;
  std::vector<ColorId> topk_scratch_;
  std::vector<std::pair<ColorRankKey, ColorId>> victims_;
};

}  // namespace rrs
