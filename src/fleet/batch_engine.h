// BatchEngine: a lane-parallel execution core for fleets of same-shape
// tenants.
//
// A slab holds up to `width` (≤ 64) concurrently live replay sessions
// ("lanes") that advance in lock-step, one round at a time, through the
// model's four phases. Lanes must agree on the *shape* — color count,
// resource count, mini-rounds per round, Δ, and the per-color delay-bound
// layout — which is what lets the slab amortize the lane-invariant work:
//
//  - per-color pending counts live in one SoA table indexed
//    [color * width + lane], exposed to every lane's policy through the
//    strided ResourceView fast path;
//  - expiring deadlines are tracked in one shared timing wheel whose slot
//    entries are (color, lane) pairs in push order, so round k's drop phase
//    is a single scan of slot k mod W for the whole slab, and filtering by
//    lane reproduces the scalar engine's per-lane expiry order exactly;
//  - execution advances as a masked walk over colors: per color, a lane
//    bitmask of lanes with resources of that color, each popping
//    min(resources, pending) jobs;
//  - lanes running the stock ΔLRU-EDF policy are handed to the lane-fused
//    kernel (sched/lane_kernels.h), which shares boundary collection and the
//    EDF class order across the slab; any other registry policy runs through
//    its ordinary virtual hooks per lane ("generic" lanes), so the slab
//    supports every policy.
//
// Sessions stay bit-identical to the scalar Engine: per-lane RunResults
// (cost, drops, telemetry counters), snapshot byte streams, and restore
// compatibility are pinned against Engine by tests/batch_engine_test.cpp.
// The slab is a Session (core/session.h): lanes rebind in place, the arena
// performs no steady-state allocation once warm, and SnapshotLane /
// RestoreLane interoperate with Engine::SnapshotRun / RestoreRun at round
// cuts.
//
// Restrictions (the fleet falls back to a scalar Engine otherwise):
// record_schedule must be off and no per-run obs scope may be attached —
// both are per-resource-grained observers with no batched equivalent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost.h"
#include "core/engine.h"
#include "core/instance.h"
#include "core/job_ring.h"
#include "core/policy.h"
#include "obs/scope.h"
#include "sched/lane_kernels.h"
#include "snapshot/codec.h"
#include "workload/arrival_source.h"

namespace rrs {
namespace fleet {

class BatchEngine {
 public:
  static constexpr uint32_t kMaxLanes = DlruEdfLaneKernel::kMaxLanes;

  explicit BatchEngine(uint32_t width);
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  uint32_t width() const { return width_; }
  bool empty() const { return open_mask_ == 0; }
  uint64_t open_mask() const { return open_mask_; }
  Round next_round() const { return next_round_; }

  bool lane_open(uint32_t lane) const {
    return (open_mask_ >> lane & 1) != 0;
  }
  // An open lane whose horizon is exhausted (ready for FinishLane).
  bool lane_done(uint32_t lane) const;

  // Whether a slab can run a tenant with these options at all: no schedule
  // recording, no obs scope, and a well-formed resource/mini-round/Δ setup.
  static bool Batchable(const EngineOptions& options);

  // Whether a tenant can join the slab: batchable options and, unless the
  // slab is empty (an empty slab adopts any shape), the slab's exact shape.
  bool LaneCompatible(const Instance& instance,
                      const EngineOptions& options) const;

  // Opens lane `lane` (must be free) on a tenant. All lanes step in
  // lock-step from round 0, so opening is only legal while the slab has not
  // stepped (next_round() == 0). The instance and policy must outlive the
  // lane's run.
  void OpenLane(uint32_t lane, const Instance& instance,
                const EngineOptions& options, SchedulerPolicy& policy);

  // Opens a lane on a streaming source (same compatibility rules against
  // source.shape()). The source is Reset and its rounds are pulled by the
  // slab's arrival phase; it must outlive the lane's run.
  void OpenLane(uint32_t lane, workload::ArrivalSource& source,
                const EngineOptions& options, SchedulerPolicy& policy);

  // Advances every open lane by up to max_rounds rounds in lock-step (lanes
  // whose horizon is exhausted stop participating). Returns true while any
  // open lane has rounds remaining.
  bool StepRounds(Round max_rounds);

  // Closes a finished lane (lane_done) and fills `result` exactly as
  // Engine::FinishRun would. When the last lane closes the slab resets to
  // round 0 for reuse.
  void FinishLane(uint32_t lane, RunResult& result);

  // Abandons an open lane mid-run (its wheel entries are ignored from then
  // on).
  void AbortLane(uint32_t lane);

  // Serializes the lane's run state in Engine::SnapshotRun's exact byte
  // format (shared-wheel entries are remapped into the scalar per-lane wheel
  // layout), so a lane snapshot restores into a scalar Engine and vice
  // versa.
  void SnapshotLane(uint32_t lane, snapshot::Writer& w) const;

  // Opens lane `lane` from a scalar-format snapshot. The snapshot's round
  // must equal the slab's current round; an empty slab adopts the snapshot's
  // round.
  void RestoreLane(uint32_t lane, const Instance& instance,
                   const EngineOptions& options, SchedulerPolicy& policy,
                   snapshot::Reader& r);

  // Restore onto a streaming source. With `source_state` the source loads
  // its saved kTagArrivalSource section(s) from that reader; without it the
  // source is repositioned by deterministic replay (SeekRound).
  void RestoreLane(uint32_t lane, workload::ArrivalSource& source,
                   const EngineOptions& options, SchedulerPolicy& policy,
                   snapshot::Reader& r,
                   snapshot::Reader* source_state = nullptr);

  // ---- Mid-run observation hooks (SLO tracking) --------------------------
  // The lane's cost accumulated so far; valid while the lane is open.
  const CostBreakdown& lane_cost(uint32_t lane) const;
  // Jobs the lane has executed so far; valid while the lane is open.
  uint64_t lane_executed(uint32_t lane) const;
  // Rounds the lane has actually advanced: the slab round clamped to the
  // lane's own horizon (a done lane stops participating in lock-step).
  Round lane_rounds(uint32_t lane) const;

  // ---- Occupancy counters (cumulative over the slab's lifetime) ----------
  uint64_t lane_rounds_stepped() const { return lane_rounds_; }
  uint64_t slab_rounds_stepped() const { return slab_rounds_; }
  uint64_t fused_lane_opens() const { return fused_lane_opens_; }
  uint64_t generic_lane_opens() const { return generic_lane_opens_; }

 private:
  struct Lane;
  class LaneView;

  struct WheelEntry {
    ColorId color;
    uint32_t lane;
  };

  // Binds the slab's shape arrays (pending SoA, wheel, kernel) to a new
  // shape. Only legal while the slab is empty.
  void AdoptShape(const Instance& instance, const EngineOptions& options);

  // Shared lane initialization for OpenLane and RestoreLane: binds the
  // tenant (source == nullptr means instance-fed via the lane's own
  // InstanceSource), clears the lane's arena and resets the policy.
  void InitLane(uint32_t lane, const Instance& shape,
                workload::ArrivalSource* source, const EngineOptions& options,
                SchedulerPolicy& policy);

  // Shared tail of the two OpenLane overloads (fused-kernel binding).
  void BindOpenedLane(uint32_t lane, SchedulerPolicy& policy);
  // Shared body of the two RestoreLane overloads.
  void RestoreLaneImpl(uint32_t lane, snapshot::Reader& r,
                       snapshot::Reader* source_state);

  // Buckets the live wheel entries by lane into snap_entries_ (unless the
  // wheel is unchanged since the last call), so that snapshotting every lane
  // of a slab scans the shared wheel once rather than once per lane.
  void BucketWheelByLane() const;

  // Releases a lane and, when it was the last one, resets the slab.
  void CloseLane(uint32_t lane);

  void DropPhase(Round k, uint64_t stepping);
  void ArrivalPhase(Round k, uint64_t stepping);
  void ReconfigPhase(Round k, int mini, uint64_t stepping);
  void ExecPhase(uint64_t stepping);

  uint32_t width_ = 0;
  uint64_t open_mask_ = 0;
  uint64_t fused_mask_ = 0;
  Round next_round_ = 0;

  // Slab shape (valid while any lane is open; retained for capacity reuse).
  size_t num_colors_ = 0;
  uint32_t num_resources_ = 0;
  int mini_rounds_ = 1;
  uint64_t delta_ = 1;
  std::vector<Round> delay_bounds_;
  Round max_delay_ = 1;

  std::vector<Lane> lanes_;  // by value: the hot phases index it per entry
  std::vector<std::unique_ptr<LaneView>> views_;
  std::vector<ResourceView*> view_ptrs_;

  // SoA state indexed [color * width_ + lane].
  std::vector<uint64_t> pending_;
  std::vector<uint32_t> colored_count_;  // resources per (color, lane)
  // Lanes with at least one resource of the color.
  std::vector<uint64_t> colored_bits_;
  // Lanes with pending jobs of the color (pending_[c][lane] != 0): the
  // execution phase intersects it with colored_bits_, so drained
  // (color, lane) pairs cost nothing — the dominant case late in a session.
  std::vector<uint64_t> backlog_bits_;

  // Shared timing wheel: slot (k mod size) holds the slab-wide expiries of
  // round k, appended in push order (arrival phases run lanes in ascending
  // lane order, so the per-lane subsequence equals the scalar push order).
  // The effective slot count (wheel_mask_ + 1) is max_delay_+1 rounded up to
  // a power of two, so the per-arrival slot index is a mask, not a division;
  // wheel_ itself is grow-only and may be larger than the effective size.
  std::vector<std::vector<WheelEntry>> wheel_;
  uint64_t wheel_mask_ = 0;
  // Bumped by every wheel mutation (stepping, restores, shape adoption, the
  // last-lane reset); keys the SnapshotLane bucketing below.
  uint64_t wheel_version_ = 0;

  // StepRounds scratch: (horizon, lane bit) expiries, sorted ascending, so
  // the per-round stepping mask updates incrementally instead of rescanning
  // every open lane each round. arrival_scratch_ does the same for the last
  // arrival round of fused lanes: once a fused lane drains past it, its
  // arrival phase is a proven no-op and the lane is masked out of it.
  std::vector<std::pair<Round, uint64_t>> expiry_scratch_;
  std::vector<std::pair<Round, uint64_t>> arrival_scratch_;

  // Bumped once per reconfiguration phase; LaneView compacts its nonidle
  // list lazily when its seen epoch is behind (replaces a per-lane
  // invalidation loop per mini-round).
  uint64_t phase_epoch_ = 0;

  std::vector<JobId> dropped_scratch_;  // wrapped drop spans only
  // SnapshotLane scratch: lane wheel slots rebuilt from the shared wheel,
  // and the wheel's (slab slot, color) entries bucketed by lane — lane l's
  // are snap_entries_[snap_lane_begin_[l] .. snap_lane_begin_[l + 1]) — as
  // of wheel version snap_version_.
  mutable std::vector<std::vector<ColorId>> snap_slots_;
  mutable uint64_t snap_version_ = ~uint64_t{0};
  mutable std::vector<uint32_t> snap_lane_begin_;
  mutable std::vector<uint32_t> snap_cursor_;
  mutable std::vector<std::pair<uint32_t, ColorId>> snap_entries_;
  std::vector<ColorId> snap_colors_scratch_;  // RestoreLane slot reads

  DlruEdfLaneKernel kernel_;

  uint64_t lane_rounds_ = 0;
  uint64_t slab_rounds_ = 0;
  uint64_t fused_lane_opens_ = 0;
  uint64_t generic_lane_opens_ = 0;
};

}  // namespace fleet
}  // namespace rrs
