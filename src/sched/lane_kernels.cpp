#include "sched/lane_kernels.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace rrs {

void DlruEdfLaneKernel::SetShape(size_t num_colors, uint32_t width,
                                 const uint64_t* backlog_bits) {
  RRS_CHECK_GE(width, 1u);
  RRS_CHECK_LE(width, kMaxLanes);
  width_ = width;
  backlog_ = backlog_bits;
  eligible_bits_.assign(num_colors, 0);
  lru_bits_.assign(num_colors, 0);
  cached_bits_.assign(num_colors, 0);
  wrap_bits_.assign(num_colors, 0);
  ranked_stride_ = num_colors;
  ranked_colors_.assign(num_colors * kMaxLanes, 0);
  shared_dd_.clear();
  class_order_round_ = -1;
  // Rebuild the bitmask mirrors of any surviving bindings (shape adoption
  // with open lanes never changes num_colors, but the storage may have been
  // cleared above).
  for (uint32_t lane = 0; lane < kMaxLanes; ++lane) {
    if (lanes_[lane].policy != nullptr) ResyncLane(lane);
  }
}

void DlruEdfLaneKernel::BindLane(uint32_t lane, DlruEdfPolicy* policy) {
  RRS_CHECK_LT(lane, width_);
  RRS_CHECK(policy != nullptr);
  lanes_[lane].policy = policy;
  ResyncLane(lane);
}

void DlruEdfLaneKernel::UnbindLane(uint32_t lane) {
  LaneState& lane_state = lanes_[lane];
  if (lane_state.policy == nullptr) return;
  const uint64_t bit = uint64_t{1} << lane;
  const uint64_t clear = ~bit;
  for (size_t c = 0; c < eligible_bits_.size(); ++c) {
    eligible_bits_[c] &= clear;
    lru_bits_[c] &= clear;
    cached_bits_[c] &= clear;
    wrap_bits_[c] &= clear;
  }
  lane_state.policy = nullptr;
  tracker_dirty_ |= bit;
  desired_valid_ &= clear;
  random_evict_ &= clear;
}

void DlruEdfLaneKernel::ResyncLane(uint32_t lane) {
  LaneState& lane_state = lanes_[lane];
  DlruEdfPolicy& p = *lane_state.policy;
  RRS_CHECK_EQ(p.table_.num_colors(), eligible_bits_.size());
  const uint64_t bit = uint64_t{1} << lane;
  for (size_t c = 0; c < eligible_bits_.size(); ++c) {
    const ColorId color = static_cast<ColorId>(c);
    if (p.table_.eligible(color)) {
      eligible_bits_[c] |= bit;
    } else {
      eligible_bits_[c] &= ~bit;
    }
    if (p.is_lru(color)) {
      lru_bits_[c] |= bit;
    } else {
      lru_bits_[c] &= ~bit;
    }
    if (p.slots_.IsCached(color)) {
      cached_bits_[c] |= bit;
    } else {
      cached_bits_[c] &= ~bit;
    }
    if (p.table_.pending_wrap(color) >= 0) {
      wrap_bits_[c] |= bit;
    } else {
      wrap_bits_[c] &= ~bit;
    }
  }
  // The deadline table is a deterministic function of (round, layout), so
  // any lane's fresh copy — a Reset policy at round 0, or a restored
  // snapshot at the slab's round — is the shared one.
  shared_dd_.resize(p.table_.num_groups());
  for (uint32_t g = 0; g < p.table_.num_groups(); ++g) {
    shared_dd_[g] = p.table_.group_deadline(g);
  }
  tracker_dirty_ |= bit;
  desired_valid_ &= ~bit;
  if (p.params_.random_evict) {
    random_evict_ |= bit;
  } else {
    random_evict_ &= ~bit;
  }
  lane_state.edf_cap =
      static_cast<uint32_t>(p.slots_.capacity()) - p.lru_capacity_;
  // A (re)bound lane may carry a different deadline table than the previous
  // occupant of the slab; recompute the shared per-round scratch.
  class_order_round_ = -1;
}

void DlruEdfLaneKernel::AfterDropPhase(Round k, uint64_t mask) {
  if (mask == 0) return;
  // The delay groups depend only on the delay layout, which is uniform
  // across the slab: walk the first lane's.
  const uint32_t first = static_cast<uint32_t>(std::countr_zero(mask));
  const ColorStateTable& t0 = lanes_[first].policy->table_;

  // Color-major over the due groups' members: both per-lane predicates are
  // exact mask intersections, so lanes that do not transition pay only the
  // shared mask loads. Per-lane step order (expire, then promote, color by
  // color in (group, ascending color) order) matches the scalar
  // ProcessBoundary because operations on distinct lanes and colors
  // commute.
  for (uint32_t g = 0; g < t0.num_groups(); ++g) {
    const Round d = t0.group_delay(g);
    if (k % d != 0) continue;
    const std::span<const uint64_t> members = t0.group_members(g);
    for (size_t w = 0; w < members.size(); ++w) {
      for (uint64_t colors = members[w]; colors != 0; colors &= colors - 1) {
        const ColorId c =
            static_cast<ColorId>(w * 64 + std::countr_zero(colors));
        // Step 1: eligible & uncached lanes end the color's epoch.
        uint64_t expire = mask & eligible_bits_[c] & ~cached_bits_[c];
        eligible_bits_[c] &= ~expire;
        lru_bits_[c] &= ~expire;
        tracker_dirty_ |= expire;  // the tracker Remove below always mutates
        for (; expire != 0; expire &= expire - 1) {
          const uint32_t lane = static_cast<uint32_t>(std::countr_zero(expire));
          DlruEdfPolicy& p = *lanes_[lane].policy;
          p.table_.BoundaryExpire(c);
          // Mirrors DlruEdfPolicy::OnBecameIneligible.
          p.tracker_.Remove(c);
          p.ClearLru(c);
          p.evict_first_[c] = 0;
        }
        // Step 2: promote pending wraps into timestamps.
        uint64_t wraps = mask & wrap_bits_[c];
        wrap_bits_[c] &= ~wraps;
        for (; wraps != 0; wraps &= wraps - 1) {
          const uint32_t lane = static_cast<uint32_t>(std::countr_zero(wraps));
          DlruEdfPolicy& p = *lanes_[lane].policy;
          const Round ts = p.table_.BoundaryPromoteWrap(c);
          // Mirrors DlruEdfPolicy::OnTimestampUpdated.
          if (p.tracker_.Contains(c)) {
            p.tracker_.Touch(c, ts);
            tracker_dirty_ |= uint64_t{1} << lane;
          }
        }
      }
    }
    // Step 3: dd = k + D, lane-invariant: one shared store per group. Lane
    // tables go stale here; FlushDeadlines restores them before snapshots.
    shared_dd_[g] = k + d;
  }
}

void DlruEdfLaneKernel::FlushDeadlines(uint32_t lane) const {
  ColorStateTable& table = lanes_[lane].policy->table_;
  for (uint32_t g = 0; g < shared_dd_.size(); ++g) {
    table.SetGroupDeadline(g, shared_dd_[g]);
  }
}

void DlruEdfLaneKernel::ApplySlow(uint32_t lane, LaneState& lane_state,
                                  ResourceView& view) {
  DlruEdfPolicy& p = *lane_state.policy;
  const uint64_t bit = uint64_t{1} << lane;
  // Scalar Reconfigure, from the victims build onward (the demote/mark
  // section already ran, the ranked list is in lane_state.ranked). Rank keys
  // read the shared deadline table — identical values to the lane's RankOf.
  victims_.clear();
  for (ColorId c : p.slots_.cached_colors()) {
    if (!p.is_lru(c)) {
      victims_.emplace_back(
          ColorRankKey{view.pending_count(c) == 0 ? uint8_t{1} : uint8_t{0},
                       shared_dd_[p.table_.group_of(c)],
                       p.instance_->delay_bound(c), c},
          c);
    }
  }
  std::sort(victims_.begin(), victims_.end(),
            [&p](const auto& a, const auto& b) {
              bool ea = p.evict_first_[a.second], eb = p.evict_first_[b.second];
              if (ea != eb) return ea > eb;
              return b.first < a.first;  // worst rank first
            });
  if (p.params_.random_evict && victims_.size() > 1) {
    p.evict_rng_.Shuffle(victims_);
  }
  size_t next_victim = 0;
  auto evict_one = [&]() {
    while (next_victim < victims_.size() &&
           !p.slots_.IsCached(victims_[next_victim].second)) {
      ++next_victim;
    }
    RRS_CHECK_LT(next_victim, victims_.size())
        << "dlru-edf: no non-LRU eviction candidate";
    const ColorId victim = victims_[next_victim++].second;
    p.slots_.Evict(victim);
    cached_bits_[victim] &= ~bit;
  };
  for (ColorId c : lane_state.desired) {
    if (!p.slots_.IsCached(c)) {
      if (p.slots_.full()) evict_one();
      p.slots_.Insert(c);
      cached_bits_[c] |= bit;
    }
  }
  const ColorId* ranked = ranked_colors_.data() + lane * ranked_stride_;
  for (uint32_t r = 0; r < ranked_len_[lane]; ++r) {
    const ColorId c = ranked[r];
    if (p.slots_.IsCached(c)) continue;
    if (p.slots_.full()) evict_one();
    p.slots_.Insert(c);
    cached_bits_[c] |= bit;
  }
  p.slots_.ApplyTo(view);
}

void DlruEdfLaneKernel::Reconfigure(Round k, int mini, uint64_t mask,
                                    ResourceView* const* views) {
  (void)mini;
  if (mask == 0) return;

  // ---- ΔLRU side: memoized TopK, demote/mark on change. ------------------
  // Only lanes whose tracker mutated since the last memoization (or that
  // have no memo yet) are visited at all; in a quiet round the whole section
  // is two mask operations.
  desired_changed_ &= ~mask;
  for (uint64_t m = mask & (tracker_dirty_ | ~desired_valid_); m != 0;
       m &= m - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    const uint64_t bit = uint64_t{1} << lane;
    LaneState& lane_state = lanes_[lane];
    DlruEdfPolicy& p = *lane_state.policy;
    p.tracker_.TopK(p.lru_capacity_, topk_scratch_);
    const bool changed =
        (desired_valid_ & bit) == 0 || topk_scratch_ != lane_state.desired;
    if (!changed) continue;
    lane_state.desired = topk_scratch_;
    desired_changed_ |= bit;
    // Scalar demote/mark, with the lane-bit mirror kept in step. When the
    // desired set is unchanged these loops are no-ops (the LRU set equals
    // the desired set between phases), which is why they only run on change.
    for (ColorId c : lane_state.desired) {
      p.desired_bits_[c / 64] |= uint64_t{1} << (c % 64);
    }
    const std::span<const uint64_t> cached = p.slots_.cached_words();
    for (size_t w = 0; w < p.lru_bits_.size(); ++w) {
      uint64_t demote = p.lru_bits_[w] & cached[w] & ~p.desired_bits_[w];
      p.lru_bits_[w] &= ~demote;
      for (; demote != 0; demote &= demote - 1) {
        const size_t c = w * 64 + std::countr_zero(demote);
        lru_bits_[c] &= ~bit;
        if (p.params_.exit_policy == LruExitPolicy::kEvictFirst) {
          p.evict_first_[c] = 1;
        }
      }
    }
    for (ColorId c : lane_state.desired) {
      p.SetLru(c);
      lru_bits_[c] |= bit;
      p.evict_first_[c] = 0;
      p.desired_bits_[c / 64] &= ~(uint64_t{1} << (c % 64));
    }
  }
  tracker_dirty_ &= ~mask;
  desired_valid_ |= mask;

  // ---- EDF side: one masked scan over the shared class order. ------------
  // Color deadlines are lane-invariant (set unconditionally at boundary
  // rounds, which depend only on the delay layout), so the (dd, class) walk
  // order is shared by every lane and constant across the round's
  // mini-rounds.
  if (class_order_round_ != k) {
    class_order_.clear();
    for (uint32_t g = 0; g < shared_dd_.size(); ++g) {
      class_order_.emplace_back(shared_dd_[g], g);
    }
    std::sort(class_order_.begin(), class_order_.end());
    class_order_round_ = k;
  }

  uint64_t need = mask;
  // Lanes with at least one EDF admission that is not currently cached —
  // exactly the lanes whose apply step must run the eviction machinery.
  uint64_t edf_missing = 0;
  std::memset(ranked_len_, 0, sizeof(ranked_len_));
  // The delay groups are derived from the slab-uniform delay layout, so any
  // lane's table describes every lane.
  const ColorStateTable& t0 = lanes_[std::countr_zero(mask)].policy->table_;
  for (const auto& [dd, g] : class_order_) {
    const std::span<const uint64_t> members = t0.group_members(g);
    for (size_t w = 0; w < members.size() && need != 0; ++w) {
      for (uint64_t colors = members[w]; colors != 0; colors &= colors - 1) {
        const ColorId c =
            static_cast<ColorId>(w * 64 + std::countr_zero(colors));
        uint64_t cand = need & eligible_bits_[c] & ~lru_bits_[c] & backlog_[c];
        if (cand == 0) continue;
        edf_missing |= cand & ~cached_bits_[c];
        for (; cand != 0; cand &= cand - 1) {
          const uint32_t lane = static_cast<uint32_t>(std::countr_zero(cand));
          ranked_colors_[lane * ranked_stride_ + ranked_len_[lane]++] = c;
          if (ranked_len_[lane] == lanes_[lane].edf_cap) {
            need &= ~(uint64_t{1} << lane);
          }
        }
        if (need == 0) break;
      }
    }
    if (need == 0) break;
  }

  // ---- Apply: only lanes that actually need a slot change. ---------------
  // A fast-path lane (no missing EDF admission, desired colors all cached)
  // has an empty slot dirty list, so even its ApplyTo would be a no-op: it
  // is skipped without touching any per-lane state. Lanes whose TopK changed
  // must first check the fresh desired colors against the cache mirror.
  uint64_t slow = mask & (random_evict_ | edf_missing);
  for (uint64_t m = mask & desired_changed_ & ~slow; m != 0; m &= m - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    const uint64_t bit = uint64_t{1} << lane;
    for (ColorId c : lanes_[lane].desired) {
      if ((cached_bits_[c] & bit) == 0) {
        slow |= bit;
        break;
      }
    }
  }
  for (uint64_t m = slow; m != 0; m &= m - 1) {
    const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
    ApplySlow(lane, lanes_[lane], *views[lane]);
  }
}

}  // namespace rrs
