#include "fleet/batch_engine.h"

#include <algorithm>
#include <bit>
#include <typeinfo>

#include "core/run_telemetry.h"
#include "util/check.h"

#if defined(RRS_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace rrs {
namespace fleet {

namespace {

inline Round PosMod(Round a, Round m) {
  const Round r = a % m;
  return r < 0 ? r + m : r;
}

}  // namespace

// Per-lane session arena: the same fields as the scalar Engine's SimState,
// minus what the slab shares (the pending table and the timing wheel) and
// minus the schedule/obs machinery batched lanes forbid. Buffers are
// assigned (not reconstructed) per tenant, so capacity carries over and a
// warm lane opens with zero allocation (Session rules 1-2).
struct BatchEngine::Lane {
  const Instance* instance = nullptr;  // shape (full instance when source-less)
  EngineOptions options;
  SchedulerPolicy* policy = nullptr;
  bool fused = false;
  Round horizon = 0;
  Round request_rounds = 0;
  uint64_t arrived = 0;  // dense JobId counter, mirrors scalar SimState
  // Arrival feed: an external streaming source, or the lane's own adapter
  // over `instance` (exactly the scalar Engine's arrangement).
  workload::ArrivalSource* source = nullptr;
  workload::InstanceSource own_source;

  workload::ArrivalSource& src() {
    if (source != nullptr) return *source;
    return own_source;
  }
  // The scalar-equivalent wheel size, carried for snapshot emission (a
  // restored lane keeps its snapshot's wheel size so a re-snapshot matches
  // the scalar session's bytes).
  uint64_t wheel_size = 0;

  std::vector<ColorId> resource_color;
  std::vector<JobRing> rings;
  std::vector<ColorId> nonidle_list;  // lazily compacted
  std::vector<uint8_t> in_nonidle_list;
  std::vector<Round> last_wheel_push;

  CostBreakdown cost;
  uint64_t executed = 0;
  std::vector<uint64_t> drops_per_color;
  obs::RunInstruments instruments;
#if RRS_OBS_LEVEL >= 1
  std::vector<uint64_t> reconfigs_per_color;
#endif
};

// The lane's window onto the slab: strided pending fast path, per-lane
// resource colors and cost accounting. SetColor additionally maintains the
// slab's per-(color, lane) resource histogram, which is what the masked
// execution phase walks instead of rescanning resource_color per mini-round.
class BatchEngine::LaneView final : public ResourceView {
 public:
  LaneView(BatchEngine& be, uint32_t lane)
      : ResourceView(be.pending_.data() + lane, be.width_),
        be_(be),
        lane_(lane) {}

  void Rebind() { set_pending_table(be_.pending_.data() + lane_, be_.width_); }

  uint32_t num_resources() const final {
    return lane().options.num_resources;
  }

  ColorId color_of(ResourceId r) const final {
    RRS_DCHECK(r < lane().resource_color.size());
    return lane().resource_color[r];
  }

  void SetColor(ResourceId r, ColorId c) final {
    Lane& l = lane();
    RRS_CHECK_LT(r, l.resource_color.size());
    RRS_CHECK(c == kNoColor || c < l.instance->num_colors())
        << "SetColor to unknown color " << c;
    const ColorId old = l.resource_color[r];
    if (old == c) return;
    l.resource_color[r] = c;
    ++l.cost.reconfigurations;
#if RRS_OBS_LEVEL >= 1
    if (c != kNoColor) ++l.reconfigs_per_color[c];
#endif
    const uint64_t bit = uint64_t{1} << lane_;
    if (old != kNoColor) {
      uint32_t& count =
          be_.colored_count_[static_cast<size_t>(old) * be_.width_ + lane_];
      if (--count == 0) be_.colored_bits_[old] &= ~bit;
    }
    if (c != kNoColor) {
      uint32_t& count =
          be_.colored_count_[static_cast<size_t>(c) * be_.width_ + lane_];
      if (count++ == 0) be_.colored_bits_[c] |= bit;
    }
  }

  Round earliest_deadline(ColorId c) const final {
    RRS_CHECK(!lane().rings[c].empty())
        << "earliest_deadline on idle color " << c;
    return lane().rings[c].front_deadline();
  }

  const std::vector<ColorId>& nonidle_colors() const final {
    Lane& l = lane();
    if (seen_epoch_ != be_.phase_epoch_) {
      size_t out = 0;
      for (size_t i = 0; i < l.nonidle_list.size(); ++i) {
        const ColorId c = l.nonidle_list[i];
        if (be_.pending_[static_cast<size_t>(c) * be_.width_ + lane_] != 0) {
          l.nonidle_list[out++] = c;
        } else {
          l.in_nonidle_list[c] = 0;
        }
      }
      l.nonidle_list.resize(out);
      seen_epoch_ = be_.phase_epoch_;
    }
    return l.nonidle_list;
  }

 private:
  Lane& lane() const { return be_.lanes_[lane_]; }

  BatchEngine& be_;
  uint32_t lane_;
  mutable uint64_t seen_epoch_ = ~uint64_t{0};
};

BatchEngine::BatchEngine(uint32_t width) : width_(width) {
  RRS_CHECK_GE(width, 1u);
  RRS_CHECK_LE(width, kMaxLanes);
  lanes_.resize(width);
  expiry_scratch_.reserve(width);
}

BatchEngine::~BatchEngine() = default;

bool BatchEngine::lane_done(uint32_t lane) const {
  return lane_open(lane) && next_round_ > lanes_[lane].horizon;
}

bool BatchEngine::Batchable(const EngineOptions& options) {
  return !options.record_schedule && options.obs_scope == nullptr &&
         options.num_resources >= 1 && options.mini_rounds_per_round >= 1 &&
         options.cost_model.delta >= 1;
}

bool BatchEngine::LaneCompatible(const Instance& instance,
                                 const EngineOptions& options) const {
  if (!Batchable(options)) return false;
  if (open_mask_ == 0) return true;  // an empty slab adopts any shape
  if (instance.num_colors() != num_colors_ ||
      options.num_resources != num_resources_ ||
      options.mini_rounds_per_round != mini_rounds_ ||
      options.cost_model.delta != delta_) {
    return false;
  }
  for (size_t c = 0; c < num_colors_; ++c) {
    if (instance.delay_bound(static_cast<ColorId>(c)) != delay_bounds_[c]) {
      return false;
    }
  }
  return true;
}

void BatchEngine::AdoptShape(const Instance& instance,
                             const EngineOptions& options) {
  RRS_CHECK_EQ(open_mask_, 0u);
  num_colors_ = instance.num_colors();
  num_resources_ = options.num_resources;
  mini_rounds_ = options.mini_rounds_per_round;
  delta_ = options.cost_model.delta;
  delay_bounds_.resize(num_colors_);
  max_delay_ = 1;
  for (size_t c = 0; c < num_colors_; ++c) {
    delay_bounds_[c] = instance.delay_bound(static_cast<ColorId>(c));
    max_delay_ = std::max(max_delay_, delay_bounds_[c]);
  }

  pending_.assign(num_colors_ * width_, 0);
  colored_count_.assign(num_colors_ * width_, 0);
  colored_bits_.assign(num_colors_, 0);
  backlog_bits_.assign(num_colors_, 0);

  // Power-of-two slot count: the slot index (deadline & wheel_mask_) in the
  // per-arrival hot path is a mask instead of a division. Any effective size
  // ≥ max_delay_+1 keeps deadline residues unique over the live window, so
  // the snapshot remap is unaffected.
  const size_t wheel_size =
      std::bit_ceil(static_cast<size_t>(max_delay_) + 1);
  wheel_mask_ = wheel_size - 1;
  if (wheel_.size() < wheel_size) wheel_.resize(wheel_size);
  ++wheel_version_;

  if (views_.empty()) {
    views_.reserve(width_);
    view_ptrs_.reserve(width_);
    for (uint32_t lane = 0; lane < width_; ++lane) {
      views_.push_back(std::make_unique<LaneView>(*this, lane));
      view_ptrs_.push_back(views_.back().get());
    }
  } else {
    for (auto& view : views_) view->Rebind();
  }
  kernel_.SetShape(num_colors_, width_, backlog_bits_.data());
}

void BatchEngine::InitLane(uint32_t lane, const Instance& shape,
                           workload::ArrivalSource* source,
                           const EngineOptions& options,
                           SchedulerPolicy& policy) {
  Lane& l = lanes_[lane];
  l.instance = &shape;
  l.source = source;
  if (source == nullptr) l.own_source.Bind(shape);
  workload::ArrivalSource& src = l.src();
  src.Reset();
  l.options = options;
  l.policy = &policy;
  l.horizon = src.horizon();
  l.request_rounds = src.num_request_rounds();
  l.arrived = 0;
  l.wheel_size = static_cast<uint64_t>(max_delay_) + 1;

  l.resource_color.assign(num_resources_, kNoColor);
  if (l.rings.size() < num_colors_) l.rings.resize(num_colors_);
  for (auto& ring : l.rings) ring.clear();
  uint32_t max_backlog_any = 0;
  const uint64_t bit = uint64_t{1} << lane;
  for (size_t c = 0; c < num_colors_; ++c) {
    const uint32_t bound = src.max_backlog(static_cast<ColorId>(c));
    l.rings[c].Reserve(bound);
    max_backlog_any = std::max(max_backlog_any, bound);
    pending_[c * width_ + lane] = 0;
    backlog_bits_[c] &= ~bit;
    if (colored_count_[c * width_ + lane] != 0) {
      colored_count_[c * width_ + lane] = 0;
      colored_bits_[c] &= ~bit;
    }
  }
  if (dropped_scratch_.capacity() < max_backlog_any) {
    dropped_scratch_.reserve(max_backlog_any);
  }
  l.nonidle_list.clear();
  l.nonidle_list.reserve(num_colors_);
  l.in_nonidle_list.assign(num_colors_, 0);
  l.last_wheel_push.assign(num_colors_, -1);
  l.cost = CostBreakdown{};
  l.executed = 0;
  l.drops_per_color.assign(num_colors_, 0);
#if RRS_OBS_LEVEL >= 1
  l.reconfigs_per_color.assign(num_colors_, 0);
#endif
  l.instruments.Rebind(nullptr, "engine");
  policy.Reset(shape, options);
}

void BatchEngine::OpenLane(uint32_t lane, const Instance& instance,
                           const EngineOptions& options,
                           SchedulerPolicy& policy) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(!lane_open(lane)) << "OpenLane on an occupied lane";
  RRS_CHECK_EQ(next_round_, 0) << "OpenLane into a stepped slab";
  RRS_CHECK(LaneCompatible(instance, options))
      << "tenant incompatible with the slab shape";
  if (open_mask_ == 0) AdoptShape(instance, options);
  InitLane(lane, instance, nullptr, options, policy);
  BindOpenedLane(lane, policy);
}

void BatchEngine::OpenLane(uint32_t lane, workload::ArrivalSource& source,
                           const EngineOptions& options,
                           SchedulerPolicy& policy) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(!lane_open(lane)) << "OpenLane on an occupied lane";
  RRS_CHECK_EQ(next_round_, 0) << "OpenLane into a stepped slab";
  RRS_CHECK(LaneCompatible(source.shape(), options))
      << "tenant incompatible with the slab shape";
  if (open_mask_ == 0) AdoptShape(source.shape(), options);
  InitLane(lane, source.shape(), &source, options, policy);
  BindOpenedLane(lane, policy);
}

void BatchEngine::BindOpenedLane(uint32_t lane, SchedulerPolicy& policy) {
  Lane& l = lanes_[lane];
  l.fused = typeid(policy) == typeid(DlruEdfPolicy) &&
            !static_cast<DlruEdfPolicy&>(policy).collect_ineligible_jobs();
  open_mask_ |= uint64_t{1} << lane;
  if (l.fused) {
    fused_mask_ |= uint64_t{1} << lane;
    kernel_.BindLane(lane, static_cast<DlruEdfPolicy*>(&policy));
    ++fused_lane_opens_;
  } else {
    ++generic_lane_opens_;
  }
}

bool BatchEngine::StepRounds(Round max_rounds) {
  RRS_CHECK(open_mask_ != 0) << "StepRounds on an empty slab";
  RRS_CHECK_GE(max_rounds, 1);
  Round max_horizon = -1;
  uint64_t stepping = 0;
  expiry_scratch_.clear();
  for (uint64_t m = open_mask_; m != 0; m &= m - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    const Round horizon = lanes_[lane].horizon;
    max_horizon = std::max(max_horizon, horizon);
    if (horizon >= next_round_) {
      stepping |= uint64_t{1} << lane;
      expiry_scratch_.emplace_back(horizon, uint64_t{1} << lane);
    }
  }
  if (next_round_ > max_horizon) return false;
  std::sort(expiry_scratch_.begin(), expiry_scratch_.end());
  size_t expiry_next = 0;
  // Fused lanes drop out of the arrival phase once k passes their last
  // arrival round: the phase body is a no-op on an empty round and
  // DlruEdfPolicy has no AfterArrivalPhase hook. Generic lanes always run
  // it — an arbitrary policy may act on the empty phase.
  uint64_t arrivals_live = stepping;
  arrival_scratch_.clear();
  for (uint64_t m = stepping & fused_mask_; m != 0; m &= m - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    arrival_scratch_.emplace_back(lanes_[lane].request_rounds,
                                  uint64_t{1} << lane);
  }
  std::sort(arrival_scratch_.begin(), arrival_scratch_.end());
  size_t arrival_next = 0;
  // Overflow-safe "min(max_horizon, next + max - 1)".
  const Round last = (max_rounds - 1 >= max_horizon - next_round_)
                         ? max_horizon
                         : next_round_ + max_rounds - 1;

  ++wheel_version_;
  for (Round k = next_round_; k <= last; ++k) {
    lane_rounds_ += static_cast<uint64_t>(std::popcount(stepping));
    ++slab_rounds_;

    DropPhase(k, stepping);
    while (arrival_next < arrival_scratch_.size() &&
           arrival_scratch_[arrival_next].first <= k) {
      arrivals_live &= ~arrival_scratch_[arrival_next++].second;
    }
    ArrivalPhase(k, arrivals_live & stepping);
    for (int mini = 0; mini < mini_rounds_; ++mini) {
      ReconfigPhase(k, mini, stepping);
      ExecPhase(stepping);
    }
    while (expiry_next < expiry_scratch_.size() &&
           expiry_scratch_[expiry_next].first == k) {
      stepping &= ~expiry_scratch_[expiry_next++].second;
    }
  }
  next_round_ = last + 1;
  return next_round_ <= max_horizon;
}

void BatchEngine::DropPhase(Round k, uint64_t stepping) {
  auto& slot = wheel_[static_cast<size_t>(k) & wheel_mask_];
  if (!slot.empty()) {
    for (const WheelEntry& e : slot) {
      // Entries of aborted lanes linger until their slot comes around; skip
      // them (finished lanes cannot have future entries — every deadline
      // lies within the lane's horizon).
      if ((stepping >> e.lane & 1) == 0) continue;
      Lane& l = lanes_[e.lane];
      auto& ring = l.rings[e.color];
      uint32_t n = 0;
      const uint32_t sz = ring.size();
      while (n < sz && ring.deadline_at(n) == k) ++n;
      if (n == 0) continue;
      l.cost.drops += n;
      l.cost.weighted_drops += n * l.instance->drop_cost(e.color);
      l.drops_per_color[e.color] += n;
      if (l.fused) {
        // Fused lanes never collect dropped ids (OpenLane requires it), so
        // the span need not be materialized.
        kernel_.OnJobsDropped(e.lane, k, e.color, n);
      } else {
        std::span<const JobId> jobs;
        if (ring.front_contiguous(n)) {
          jobs = std::span<const JobId>(ring.front_ptr(), n);
        } else {
          dropped_scratch_.clear();
          for (uint32_t i = 0; i < n; ++i) {
            dropped_scratch_.push_back(ring.job_at(i));
          }
          jobs = dropped_scratch_;
        }
        l.policy->OnJobsDropped(k, e.color, n, jobs);
      }
      ring.pop_n(n);
      uint64_t& pend = pending_[static_cast<size_t>(e.color) * width_ + e.lane];
      pend -= n;
      if (pend == 0) backlog_bits_[e.color] &= ~(uint64_t{1} << e.lane);
    }
    slot.clear();
  }

  kernel_.AfterDropPhase(k, stepping & fused_mask_);
  for (uint64_t m = stepping & ~fused_mask_; m != 0; m &= m - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    lanes_[lane].policy->AfterDropPhase(k);
  }
}

void BatchEngine::ArrivalPhase(Round k, uint64_t stepping) {
  for (uint64_t m = stepping; m != 0; m &= m - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    Lane& l = lanes_[lane];
    if (k < l.request_rounds) {
      workload::ArrivalSource& src = l.src();
      RRS_DCHECK(src.cursor() == k);
      for (const auto& [c, count64] : src.NextRound()) {
        if (count64 == 0) continue;
        const Round deadline = k + delay_bounds_[c];
        RRS_CHECK_LE(deadline, l.horizon);
        const uint32_t count = static_cast<uint32_t>(count64);
        // Scalar SimState::AddRun against the slab's shared structures.
        uint64_t& pend = pending_[static_cast<size_t>(c) * width_ + lane];
        if (pend == 0 && !l.in_nonidle_list[c]) {
          l.in_nonidle_list[c] = 1;
          l.nonidle_list.push_back(c);
        }
        l.rings[c].push_run(static_cast<JobId>(l.arrived), deadline, count);
        l.arrived += count;
        pend += count;
        backlog_bits_[c] |= uint64_t{1} << lane;
        if (l.last_wheel_push[c] != deadline) {
          l.last_wheel_push[c] = deadline;
          wheel_[static_cast<size_t>(deadline) & wheel_mask_].push_back(
              {c, lane});
        }
        if (l.fused) {
          kernel_.OnArrivals(lane, k, c, count);
        } else {
          l.policy->OnArrivals(k, c, count);
        }
      }
    }
    // DlruEdfPolicy does not override AfterArrivalPhase; fused lanes skip it.
    if (!l.fused) l.policy->AfterArrivalPhase(k);
  }
}

void BatchEngine::ReconfigPhase(Round k, int mini, uint64_t stepping) {
  ++phase_epoch_;
  for (uint64_t m = stepping & ~fused_mask_; m != 0; m &= m - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    lanes_[lane].policy->Reconfigure(k, mini, *views_[lane]);
  }
  kernel_.Reconfigure(k, mini, stepping & fused_mask_, view_ptrs_.data());
}

void BatchEngine::ExecPhase(uint64_t stepping) {
  // Masked walk over colors: each lane with resources of color c executes
  // min(resources, pending) of the color's earliest pending jobs —
  // equivalent to the scalar engine's per-lane histogram pass, amortized
  // across the slab via the maintained colored_count/colored_bits tables.
  auto exec_color = [&](size_t c) {
    // Lanes with both resources of the color and a backlog: take ≥ 1.
    uint64_t m = colored_bits_[c] & backlog_bits_[c] & stepping;
    if (m == 0) return;
    const size_t base = c * width_;
    for (; m != 0; m &= m - 1) {
      const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
      uint64_t& pend = pending_[base + lane];
      const uint64_t take =
          std::min<uint64_t>(colored_count_[base + lane], pend);
      Lane& l = lanes_[lane];
      l.rings[c].pop_n(static_cast<uint32_t>(take));
      pend -= take;
      if (pend == 0) backlog_bits_[c] &= ~(uint64_t{1} << lane);
      l.executed += take;
    }
  };
  size_t c = 0;
#if defined(RRS_SIMD) && defined(__AVX2__)
  // Four colors per compare over the lane-bitmask tables: a block with no
  // (colored ∩ backlog) lane anywhere — the common case while a session
  // drains — is skipped on one testz. Identical per-color processing below.
  for (; c + 4 <= num_colors_; c += 4) {
    const __m256i colored = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(colored_bits_.data() + c));
    const __m256i backlog = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(backlog_bits_.data() + c));
    const __m256i live = _mm256_and_si256(colored, backlog);
    if (_mm256_testz_si256(live, live) != 0) continue;
    exec_color(c);
    exec_color(c + 1);
    exec_color(c + 2);
    exec_color(c + 3);
  }
#endif
  for (; c < num_colors_; ++c) exec_color(c);
}

void BatchEngine::FinishLane(uint32_t lane, RunResult& result) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(lane_done(lane)) << "FinishLane before the lane's horizon";
  Lane& l = lanes_[lane];

  result.cost = l.cost;
  result.executed = l.executed;
  result.arrived = l.arrived;
  result.rounds_simulated = l.horizon + 1;
  result.drops_per_color = l.drops_per_color;
  RRS_CHECK_EQ(result.executed + result.cost.drops, result.arrived)
      << "batch engine accounting mismatch";
#if RRS_OBS_LEVEL >= 1
  internal::FinalizeRunTelemetry(*l.policy, l.instruments,
                                 l.reconfigs_per_color, result);
#else
  internal::FinalizeRunTelemetry(*l.policy, l.instruments, {}, result);
#endif
  result.schedule.reset();
  CloseLane(lane);
}

const CostBreakdown& BatchEngine::lane_cost(uint32_t lane) const {
  RRS_CHECK(lane_open(lane)) << "lane_cost on a free lane";
  return lanes_[lane].cost;
}

uint64_t BatchEngine::lane_executed(uint32_t lane) const {
  RRS_CHECK(lane_open(lane)) << "lane_executed on a free lane";
  return lanes_[lane].executed;
}

Round BatchEngine::lane_rounds(uint32_t lane) const {
  RRS_CHECK(lane_open(lane)) << "lane_rounds on a free lane";
  return std::min(next_round_, lanes_[lane].horizon + 1);
}

void BatchEngine::AbortLane(uint32_t lane) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(lane_open(lane)) << "AbortLane on a free lane";
  CloseLane(lane);
}

void BatchEngine::CloseLane(uint32_t lane) {
  Lane& l = lanes_[lane];
  const uint64_t bit = uint64_t{1} << lane;
  if (l.fused) kernel_.UnbindLane(lane);
  open_mask_ &= ~bit;
  fused_mask_ &= ~bit;
  // Scrub the lane's SoA columns (an aborted lane leaves pending jobs and
  // resource colors behind).
  for (size_t c = 0; c < num_colors_; ++c) {
    pending_[c * width_ + lane] = 0;
    backlog_bits_[c] &= ~bit;
    if (colored_count_[c * width_ + lane] != 0) {
      colored_count_[c * width_ + lane] = 0;
      colored_bits_[c] &= ~bit;
    }
  }
  l.policy = nullptr;
  l.instance = nullptr;
  l.source = nullptr;
  l.fused = false;
  if (open_mask_ == 0) {
    // Last lane out: reset for reuse. Clearing the wheel drops any stale
    // entries aborted lanes left in not-yet-visited slots.
    next_round_ = 0;
    for (auto& slot : wheel_) slot.clear();
    ++wheel_version_;
  }
}

void BatchEngine::BucketWheelByLane() const {
  if (snap_version_ == wheel_version_) return;
  snap_version_ = wheel_version_;
  // Counting sort of the live slots' entries by lane, stable in (slot,
  // push) order.
  snap_lane_begin_.assign(width_ + 1, 0);
  for (size_t j = 0; j <= wheel_mask_; ++j) {
    for (const WheelEntry& e : wheel_[j]) ++snap_lane_begin_[e.lane + 1];
  }
  for (uint32_t lane = 0; lane < width_; ++lane) {
    snap_lane_begin_[lane + 1] += snap_lane_begin_[lane];
  }
  snap_entries_.resize(snap_lane_begin_[width_]);
  snap_cursor_.assign(snap_lane_begin_.begin(), snap_lane_begin_.end() - 1);
  for (size_t j = 0; j <= wheel_mask_; ++j) {
    for (const WheelEntry& e : wheel_[j]) {
      snap_entries_[snap_cursor_[e.lane]++] = {static_cast<uint32_t>(j),
                                               e.color};
    }
  }
}

void BatchEngine::SnapshotLane(uint32_t lane, snapshot::Writer& w) const {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(lane_open(lane)) << "SnapshotLane on a free lane";
  const Lane& l = lanes_[lane];

  w.BeginSection(snapshot::kTagEngine);
  w.PutU64(num_colors_);
  w.PutU32(num_resources_);
  w.PutI64(next_round_);
  w.PutVec(l.resource_color);
  for (size_t c = 0; c < num_colors_; ++c) l.rings[c].SaveState(w);
  w.PutU64(num_colors_);
  for (size_t c = 0; c < num_colors_; ++c) {
    w.PutU64(pending_[c * width_ + lane]);
  }
  w.PutVec(l.nonidle_list);
  w.PutVec(l.in_nonidle_list);

  // Rebuild the lane's scalar wheel from the shared one. An entry of slab
  // slot j carries the unique deadline d ≡ j (mod slab wheel size) in the
  // live window [next_round_, next_round_ + max_delay - 1], so d lands in
  // exactly one lane slot d mod l.wheel_size; sources map to distinct
  // targets, and per-slot order is slab push order == the lane's scalar
  // push order.
  w.PutU64(l.wheel_size);
  snap_slots_.resize(l.wheel_size);
  for (auto& slot : snap_slots_) slot.clear();
  BucketWheelByLane();
  // The effective slot count, not wheel_.size(): the storage is grow-only
  // and may exceed the current shape's power-of-two size.
  const Round slab_size = static_cast<Round>(wheel_mask_) + 1;
  for (uint32_t i = snap_lane_begin_[lane]; i < snap_lane_begin_[lane + 1];
       ++i) {
    const auto [j, color] = snap_entries_[i];
    const Round d =
        next_round_ + PosMod(static_cast<Round>(j) - next_round_, slab_size);
    snap_slots_[static_cast<size_t>(d) % l.wheel_size].push_back(color);
  }
  for (const auto& slot : snap_slots_) w.PutVec(slot);

  w.PutVec(l.last_wheel_push);
  w.PutU64(l.cost.reconfigurations);
  w.PutU64(l.cost.drops);
  w.PutU64(l.cost.weighted_drops);
  w.PutU64(l.executed);
  w.PutVec(l.drops_per_color);
#if RRS_OBS_LEVEL >= 1
  w.PutBool(true);
  w.PutVec(l.reconfigs_per_color);
#else
  w.PutBool(false);
#endif
  w.EndSection();

  // A fused lane's deadline table lives in the kernel during the run; flush
  // it so the policy serializes the bytes a scalar session would.
  if (l.fused) kernel_.FlushDeadlines(lane);
  l.policy->SaveState(w);
}

void BatchEngine::RestoreLane(uint32_t lane, const Instance& instance,
                              const EngineOptions& options,
                              SchedulerPolicy& policy, snapshot::Reader& r) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(!lane_open(lane)) << "RestoreLane on an occupied lane";
  RRS_CHECK(LaneCompatible(instance, options))
      << "snapshot tenant incompatible with the slab shape";
  if (open_mask_ == 0) AdoptShape(instance, options);
  InitLane(lane, instance, nullptr, options, policy);
  RestoreLaneImpl(lane, r, nullptr);
}

void BatchEngine::RestoreLane(uint32_t lane, workload::ArrivalSource& source,
                              const EngineOptions& options,
                              SchedulerPolicy& policy, snapshot::Reader& r,
                              snapshot::Reader* source_state) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(!lane_open(lane)) << "RestoreLane on an occupied lane";
  RRS_CHECK(LaneCompatible(source.shape(), options))
      << "snapshot tenant incompatible with the slab shape";
  if (open_mask_ == 0) AdoptShape(source.shape(), options);
  InitLane(lane, source.shape(), &source, options, policy);
  RestoreLaneImpl(lane, r, source_state);
}

void BatchEngine::RestoreLaneImpl(uint32_t lane, snapshot::Reader& r,
                                  snapshot::Reader* source_state) {
  Lane& l = lanes_[lane];
  SchedulerPolicy& policy = *l.policy;
  const uint64_t bit = uint64_t{1} << lane;

  r.BeginSection(snapshot::kTagEngine);
  RRS_CHECK_EQ(r.GetU64(), num_colors_)
      << "snapshot restored against a different color universe";
  RRS_CHECK_EQ(r.GetU32(), num_resources_)
      << "snapshot restored with a different resource count";
  const Round k = r.GetI64();
  RRS_CHECK_LE(k, l.horizon + 1);
  if (open_mask_ == 0) {
    next_round_ = k;
  } else {
    RRS_CHECK_EQ(k, next_round_)
        << "lane snapshot from a different round than the slab";
  }
  r.GetVec(l.resource_color);
  RRS_CHECK_EQ(l.resource_color.size(), num_resources_);
  for (ResourceId res = 0; res < num_resources_; ++res) {
    const ColorId c = l.resource_color[res];
    if (c == kNoColor) continue;
    RRS_CHECK_LT(c, num_colors_);
    if (colored_count_[static_cast<size_t>(c) * width_ + lane]++ == 0) {
      colored_bits_[c] |= bit;
    }
  }
  for (size_t c = 0; c < num_colors_; ++c) {
    l.rings[c].LoadState(r);
    pending_[c * width_ + lane] = l.rings[c].size();
    if (l.rings[c].size() != 0) backlog_bits_[c] |= bit;
  }
  RRS_CHECK_EQ(r.GetU64(), num_colors_);
  for (size_t c = 0; c < num_colors_; ++c) {
    RRS_CHECK_EQ(r.GetU64(), pending_[c * width_ + lane])
        << "snapshot pending count disagrees with ring contents for color "
        << c;
  }
  r.GetVec(l.nonidle_list);
  r.GetVec(l.in_nonidle_list);

  const uint64_t snap_wheel_size = r.GetU64();
  // The remap below needs unique deadline residues over the live window,
  // which any wheel a scalar session could have had satisfies.
  RRS_CHECK_GE(snap_wheel_size, static_cast<uint64_t>(max_delay_) + 1)
      << "snapshot wheel smaller than the shape's max delay bound";
  l.wheel_size = snap_wheel_size;
  ++wheel_version_;
  for (uint64_t j = 0; j < snap_wheel_size; ++j) {
    r.GetVec(snap_colors_scratch_);
    if (snap_colors_scratch_.empty()) continue;
    const Round d =
        k + PosMod(static_cast<Round>(j) - k,
                   static_cast<Round>(snap_wheel_size));
    RRS_CHECK_LE(d, k + max_delay_ - 1)
        << "snapshot wheel entry outside the live deadline window";
    auto& slot = wheel_[static_cast<size_t>(d) & wheel_mask_];
    for (const ColorId c : snap_colors_scratch_) {
      RRS_CHECK_LT(c, num_colors_);
      slot.push_back({c, lane});
    }
  }

  r.GetVec(l.last_wheel_push);
  l.cost.reconfigurations = r.GetU64();
  l.cost.drops = r.GetU64();
  l.cost.weighted_drops = r.GetU64();
  l.executed = r.GetU64();
  r.GetVec(l.drops_per_color);
  const bool obs_fields = r.GetBool();
#if RRS_OBS_LEVEL >= 1
  RRS_CHECK(obs_fields)
      << "snapshot from an RRS_OBS_LEVEL=0 build lacks telemetry state";
  r.GetVec(l.reconfigs_per_color);
#else
  RRS_CHECK(!obs_fields)
      << "snapshot carries telemetry state this RRS_OBS_LEVEL=0 build drops";
#endif
  r.EndSection();

  // The snapshot byte format predates streaming sources and does not carry
  // an arrival counter; every arrived job is executed, dropped, or pending.
  uint64_t pending_total = 0;
  for (size_t c = 0; c < num_colors_; ++c) {
    pending_total += pending_[c * width_ + lane];
  }
  l.arrived = l.executed + l.cost.drops + pending_total;

  policy.LoadState(r);

  if (source_state != nullptr) {
    l.src().LoadState(*source_state);
    RRS_CHECK_EQ(l.src().cursor(), std::min(k, l.request_rounds))
        << "restored source state disagrees with the lane round";
  } else {
    l.src().SeekRound(k);
  }

  l.fused = typeid(policy) == typeid(DlruEdfPolicy) &&
            !static_cast<DlruEdfPolicy&>(policy).collect_ineligible_jobs();
  open_mask_ |= bit;
  if (l.fused) {
    fused_mask_ |= bit;
    kernel_.BindLane(lane, static_cast<DlruEdfPolicy*>(&policy));
    ++fused_lane_opens_;
  } else {
    ++generic_lane_opens_;
  }
}

}  // namespace fleet
}  // namespace rrs
