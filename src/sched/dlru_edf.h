// Algorithm ΔLRU-EDF (Section 3.1.3) — the paper's main contribution.
//
// The cache holds P = n/2 distinct colors (each replicated in two of the n
// locations) split between two aspects:
//
//  - the ΔLRU side caches the n/4 eligible colors with the most recent
//    timestamps (recency aspect; keeps short-delay-bound colors resident
//    between their bursts, preventing thrashing);
//  - the EDF side ranks the remaining ("non-LRU") eligible colors — nonidle
//    first, then ascending color deadline, delay bound, color order — and
//    brings every nonidle top-n/4 color in, evicting the lowest-ranked
//    cached non-LRU color to make room (deadline aspect; keeps the resources
//    utilized).
//
// Theorem 1: ΔLRU-EDF is resource competitive for rate-limited
// [Δ | 1 | D_ℓ | D_ℓ] with power-of-two delay bounds.
//
// Exit policy ablation: when a color drops out of the LRU top set the paper
// leaves the subsequent treatment to the scheme's invariant maintenance; we
// implement two variants (experiment E10):
//   kDemote     - the color stays cached as an ordinary non-LRU color and is
//                 evicted by EDF rank when room is needed (default);
//   kEvictFirst - demoted colors become preferred eviction victims, i.e.
//                 they are ordered before all other candidates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "container/lru_tracker.h"
#include "sched/batched_base.h"
#include "util/rng.h"

namespace rrs {

enum class LruExitPolicy { kDemote, kEvictFirst };

class DlruEdfPolicy : public BatchedSchedulerBase {
 public:
  struct Params {
    // Fraction of n used for the LRU side: lru_slots = n / lru_den.
    // The paper uses 4 (n/4 LRU + n/4 EDF out of n/2 primary slots).
    uint32_t lru_den = 4;
    LruExitPolicy exit_policy = LruExitPolicy::kDemote;
    // The paper replicates every cached color in two locations (P = n/2).
    // replicate = false is the E10 ablation: P = n distinct colors.
    bool replicate = true;
    // E10 ablation: evict a uniformly random cached non-LRU color instead of
    // the lowest-EDF-ranked one (tests how load-bearing the ranking is).
    bool random_evict = false;
    uint64_t random_evict_seed = 0x5eed;
  };

  DlruEdfPolicy() = default;
  explicit DlruEdfPolicy(Params params) : params_(params) {}

  std::string name() const override { return "dlru-edf"; }

  const Params& params() const { return params_; }

  void Reconfigure(Round k, int mini, ResourceView& view) override;

  // Lemma 3.2 / 3.4 instrumentation.
  uint64_t eligible_drop_cost() const { return table_.eligible_drops(); }
  uint64_t ineligible_drop_cost() const { return table_.ineligible_drops(); }
  uint64_t num_epochs() const { return table_.num_epochs(); }

  // Whether c is currently an LRU-color (cached by the ΔLRU side).
  bool is_lru(ColorId c) const {
    return (lru_bits_[c / 64] >> (c % 64) & 1) != 0;
  }
  // The LRU-colors as a color bitset (bit c % 64 of word c / 64).
  std::span<const uint64_t> lru_words() const { return lru_bits_; }

  // Checkpoint/restore: shared batched state plus the LRU membership marks
  // (one word per color), kEvictFirst demotion marks, random-evict RNG
  // stream, and the tracker.
  void SaveState(snapshot::Writer& w) const override;
  void LoadState(snapshot::Reader& r) override;

 protected:
  uint32_t PrimarySlots(uint32_t n) const override {
    return params_.replicate ? n / 2 : n;
  }
  bool Replicate() const override { return params_.replicate; }

  void OnReset() override;
  void OnBecameEligible(Round k, ColorId c) override;
  void OnBecameIneligible(Round k, ColorId c) override;
  void OnTimestampUpdated(Round k, ColorId c) override;

 private:
  void SetLru(ColorId c) { lru_bits_[c / 64] |= uint64_t{1} << (c % 64); }
  void ClearLru(ColorId c) {
    lru_bits_[c / 64] &= ~(uint64_t{1} << (c % 64));
  }

  // The lane-fused fleet kernel (sched/lane_kernels.h) reimplements this
  // policy's phase processing non-virtually over slab lanes, sharing the
  // lane-invariant work; it needs the same access the member functions have.
  friend class DlruEdfLaneKernel;

  Params params_;
  uint32_t lru_capacity_ = 0;
  LruTracker tracker_{0};

  // LRU membership as a color bitset; set and cleared only through SetLru
  // and ClearLru (the lane kernel writes it too).
  std::vector<uint64_t> lru_bits_;
  std::vector<uint8_t> evict_first_;     // kEvictFirst demotion mark
  std::vector<ColorId> lru_desired_;
  std::vector<uint64_t> desired_bits_;   // lru_desired_ as a color bitset
  std::vector<ColorId> ranked_;          // this mini's EDF admissions
  std::vector<std::pair<ColorRankKey, ColorId>> victims_;
  // Delay groups of the color table in (group deadline, D) order: every
  // color of a group shares its deadline, so the EDF scan walks groups in
  // this order and colors within a group in ascending order, which is
  // exactly rank order (dd, D, color).
  std::vector<std::pair<Round, uint32_t>> class_order_;
  Rng evict_rng_{0};
};

}  // namespace rrs
