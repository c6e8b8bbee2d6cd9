#include "sched/dlru_edf.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace rrs {

void DlruEdfPolicy::OnReset() {
  RRS_CHECK_GE(params_.lru_den, 2u);
  // lru_capacity is defined as n / lru_den; recover n from the slot count.
  const uint32_t n = slots_.capacity() * (params_.replicate ? 2 : 1);
  lru_capacity_ = n / params_.lru_den;
  RRS_CHECK_GE(lru_capacity_, 1u)
      << "dlru-edf needs n >= " << params_.lru_den << " resources";
  RRS_CHECK_LT(lru_capacity_, slots_.capacity())
      << "LRU side must leave room for the EDF side";
  const uint32_t num_colors = static_cast<uint32_t>(instance_->num_colors());
  tracker_.Reset(num_colors);
  evict_rng_ = Rng(params_.random_evict_seed);
  const size_t words = table_.num_words();
  lru_bits_.assign(words, 0);
  desired_bits_.assign(words, 0);
  evict_first_.assign(num_colors, 0);
  class_order_.reserve(table_.num_groups());
}

void DlruEdfPolicy::OnBecameEligible(Round k, ColorId c) {
  (void)k;
  tracker_.Insert(c, table_.timestamp(c));
}

void DlruEdfPolicy::OnBecameIneligible(Round k, ColorId c) {
  (void)k;
  tracker_.Remove(c);
  ClearLru(c);
  evict_first_[c] = 0;
}

void DlruEdfPolicy::OnTimestampUpdated(Round k, ColorId c) {
  (void)k;
  if (tracker_.Contains(c)) tracker_.Touch(c, table_.timestamp(c));
}

void DlruEdfPolicy::Reconfigure(Round k, int mini, ResourceView& view) {
  (void)k;
  (void)mini;
  const uint32_t edf_budget = slots_.capacity() - lru_capacity_;

  // ---- ΔLRU side: the top lru_capacity_ eligible colors by timestamp. ----
  tracker_.TopK(lru_capacity_, lru_desired_);
  for (ColorId c : lru_desired_) {
    desired_bits_[c / 64] |= uint64_t{1} << (c % 64);
  }

  // Demote cached colors that fell out of the LRU top set.
  const std::span<const uint64_t> cached = slots_.cached_words();
  for (size_t w = 0; w < lru_bits_.size(); ++w) {
    uint64_t demote = lru_bits_[w] & cached[w] & ~desired_bits_[w];
    lru_bits_[w] &= ~demote;
    if (params_.exit_policy != LruExitPolicy::kEvictFirst) continue;
    for (; demote != 0; demote &= demote - 1) {
      evict_first_[w * 64 + std::countr_zero(demote)] = 1;
    }
  }
  for (ColorId c : lru_desired_) {
    SetLru(c);
    evict_first_[c] = 0;
  }

  // Eviction candidates: cached non-LRU colors, worst first. With
  // kEvictFirst, freshly demoted colors precede everything else.
  victims_.clear();
  for (ColorId c : slots_.cached_colors()) {
    if (!is_lru(c)) victims_.emplace_back(RankOf(c, view), c);
  }
  std::sort(victims_.begin(), victims_.end(),
            [this](const auto& a, const auto& b) {
              bool ea = evict_first_[a.second], eb = evict_first_[b.second];
              if (ea != eb) return ea > eb;
              return b.first < a.first;  // worst rank first
            });
  if (params_.random_evict && victims_.size() > 1) {
    // Ablation: shuffle the candidate order instead of using EDF rank
    // (kEvictFirst demotions, if any, lose their priority too).
    evict_rng_.Shuffle(victims_);
  }
  size_t next_victim = 0;
  auto evict_one = [&]() {
    while (next_victim < victims_.size() &&
           !slots_.IsCached(victims_[next_victim].second)) {
      ++next_victim;
    }
    RRS_CHECK_LT(next_victim, victims_.size())
        << "dlru-edf: no non-LRU eviction candidate";
    slots_.Evict(victims_[next_victim++].second);
  };

  // Bring LRU-desired colors in (most recent first).
  for (ColorId c : lru_desired_) {
    if (!slots_.IsCached(c)) {
      if (slots_.full()) evict_one();
      slots_.Insert(c);
    }
  }

  // ---- EDF side: rank eligible non-LRU colors; admit the nonidle top. ----
  // Idle colors are filtered upfront — they rank behind every nonidle color
  // (idle is the leading key field) and the admission loop stopped at the
  // first idle entry, so the admitted set is the top-edf_budget among the
  // nonidle candidates either way. Rank order is (dd, D, color), and every
  // color of a delay group carries the group's deadline, so the top set
  // falls out of walking the groups in (dd, D) order and, within a group,
  // the set bits of group & eligible & ~lru in ascending color order,
  // testing backlog per candidate. The walk ends at the budget, usually
  // after a handful of candidates.
  class_order_.clear();
  for (uint32_t g = 0; g < table_.num_groups(); ++g) {
    class_order_.emplace_back(table_.group_deadline(g), g);
  }
  std::sort(class_order_.begin(), class_order_.end());
  ranked_.clear();
  const std::span<const uint64_t> eligible = table_.eligible_words();
  for (const auto& [dd, g] : class_order_) {
    const std::span<const uint64_t> members = table_.group_members(g);
    for (size_t w = 0; w < members.size() && ranked_.size() < edf_budget;
         ++w) {
      for (uint64_t cand = members[w] & eligible[w] & ~lru_bits_[w];
           cand != 0; cand &= cand - 1) {
        const ColorId c =
            static_cast<ColorId>(w * 64 + std::countr_zero(cand));
        if (view.pending_count(c) == 0) continue;
        ranked_.push_back(c);
        if (ranked_.size() == edf_budget) break;
      }
    }
    if (ranked_.size() == edf_budget) break;
  }
  for (ColorId c : ranked_) {
    if (slots_.IsCached(c)) continue;
    if (slots_.full()) evict_one();
    slots_.Insert(c);
  }

  for (ColorId c : lru_desired_) {
    desired_bits_[c / 64] &= ~(uint64_t{1} << (c % 64));
  }
  slots_.ApplyTo(view);
}

void DlruEdfPolicy::SaveState(snapshot::Writer& w) const {
  BatchedSchedulerBase::SaveState(w);
  w.BeginSection(snapshot::kTagPolicyDlruEdf);
  const size_t num_colors = table_.num_colors();
  w.PutU64(num_colors);
  for (ColorId c = 0; c < num_colors; ++c) w.PutBool(is_lru(c));
  w.PutVec(evict_first_);
  for (uint64_t word : evict_rng_.SaveState()) w.PutU64(word);
  w.EndSection();
  tracker_.SaveState(w);
}

void DlruEdfPolicy::LoadState(snapshot::Reader& r) {
  BatchedSchedulerBase::LoadState(r);
  r.BeginSection(snapshot::kTagPolicyDlruEdf);
  const size_t num_colors = instance_->num_colors();
  RRS_CHECK_EQ(r.GetU64(), num_colors)
      << "DlruEdfPolicy restored with a different color count";
  std::fill(lru_bits_.begin(), lru_bits_.end(), 0);
  for (ColorId c = 0; c < num_colors; ++c) {
    if (r.GetBool()) SetLru(c);
  }
  r.GetVec(evict_first_);
  std::array<uint64_t, 4> rng_state;
  for (uint64_t& word : rng_state) word = r.GetU64();
  evict_rng_.LoadState(rng_state);
  r.EndSection();
  tracker_.LoadState(r);
  RRS_CHECK_EQ(evict_first_.size(), num_colors);
}

}  // namespace rrs
