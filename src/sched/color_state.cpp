#include "sched/color_state.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace rrs {

void ColorStateTable::Reset(const Instance& instance, uint64_t delta) {
  RRS_CHECK_GE(delta, 1u);
  instance_ = &instance;
  delta_ = delta;
  const size_t num_colors = instance.num_colors();
  const size_t words = (num_colors + 63) / 64;
  state_.assign(num_colors, State{});
  eligible_bits_.assign(words, 0);
  wrap_bits_.assign(words, 0);

  // Pooled sessions rebind tenants with identical delay layouts constantly
  // (a batched slab requires it; sweeps and fleets commonly do). The groups
  // are a deterministic function of the layout, so when every color still
  // maps to a group of its own delay bound — an O(colors) scan — the
  // surviving groups describe the new instance exactly.
  bool layout_same = group_of_.size() == num_colors;
  for (ColorId c = 0; layout_same && c < num_colors; ++c) {
    layout_same = group_delay_[group_of_[c]] == instance.delay_bound(c);
  }
  if (!layout_same) {
    group_delay_.resize(num_colors);
    for (ColorId c = 0; c < num_colors; ++c) {
      group_delay_[c] = instance.delay_bound(c);
    }
    std::sort(group_delay_.begin(), group_delay_.end());
    group_delay_.erase(std::unique(group_delay_.begin(), group_delay_.end()),
                       group_delay_.end());
    group_of_.resize(num_colors);
    group_members_.assign(group_delay_.size() * words, 0);
    for (ColorId c = 0; c < num_colors; ++c) {
      const uint32_t g = static_cast<uint32_t>(
          std::lower_bound(group_delay_.begin(), group_delay_.end(),
                           instance.delay_bound(c)) -
          group_delay_.begin());
      group_of_[c] = g;
      group_members_[g * words + c / 64] |= uint64_t{1} << (c % 64);
    }
  }
  group_dd_.assign(group_delay_.size(), 0);

  eligible_list_.clear();
  in_eligible_list_.assign(num_colors, 0);
  eligible_list_dirty_ = false;

  epochs_completed_ = 0;
  colors_with_jobs_ = 0;
  eligible_drops_ = 0;
  ineligible_drops_ = 0;
  wrap_events_ = 0;
  timestamp_update_events_ = 0;
}

void ColorStateTable::RebuildWrapBits() {
  std::fill(wrap_bits_.begin(), wrap_bits_.end(), 0);
  for (ColorId c = 0; c < state_.size(); ++c) {
    if (state_[c].pending_wrap >= 0) {
      wrap_bits_[c / 64] |= uint64_t{1} << (c % 64);
    }
  }
}

void ColorStateTable::ProcessBoundary(Round k,
                                      std::span<const uint64_t> cached,
                                      BoundaryEvents& events) {
  events.became_ineligible.clear();
  events.timestamp_updated.clear();
  const size_t words = num_words();
  RRS_DCHECK(cached.size() == words);
  for (uint32_t g = 0; g < group_delay_.size(); ++g) {
    const Round d = group_delay_[g];
    if (k % d != 0) continue;
    const uint64_t* members = group_members_.data() + g * words;
    for (size_t w = 0; w < words; ++w) {
      uint64_t expire = members[w] & eligible_bits_[w] & ~cached[w];
      if (expire != 0) {
        eligible_bits_[w] &= ~expire;
        eligible_list_dirty_ = true;
      }
      for (; expire != 0; expire &= expire - 1) {
        const ColorId c =
            static_cast<ColorId>(w * 64 + std::countr_zero(expire));
        state_[c].cnt = 0;
        ++epochs_completed_;
        events.became_ineligible.push_back(c);
      }
      uint64_t promote = members[w] & wrap_bits_[w];
      wrap_bits_[w] &= ~promote;
      for (; promote != 0; promote &= promote - 1) {
        const ColorId c =
            static_cast<ColorId>(w * 64 + std::countr_zero(promote));
        State& s = state_[c];
        s.timestamp = s.pending_wrap;
        s.pending_wrap = -1;
        ++timestamp_update_events_;
        events.timestamp_updated.push_back(c);
      }
    }
    group_dd_[g] = k + d;
  }
}

void ColorStateTable::RecordDrop(ColorId c, uint64_t count) {
  if (eligible(c)) {
    eligible_drops_ += count;
  } else {
    ineligible_drops_ += count;
  }
}

bool ColorStateTable::OnArrivals(Round k, ColorId c, uint64_t count) {
  State& s = state_[c];
  if (!s.saw_jobs && count > 0) {
    s.saw_jobs = true;
    ++colors_with_jobs_;
  }
  s.cnt += count;
  bool became_eligible = false;
  if (s.cnt >= delta_) {
    const uint64_t bit = uint64_t{1} << (c % 64);
    s.cnt %= delta_;  // counter wrapping event
    s.pending_wrap = k;
    wrap_bits_[c / 64] |= bit;
    ++wrap_events_;
    if ((eligible_bits_[c / 64] & bit) == 0) {
      eligible_bits_[c / 64] |= bit;
      became_eligible = true;
      if (!in_eligible_list_[c]) {
        in_eligible_list_[c] = 1;
        eligible_list_.push_back(c);
      }
    }
  }
  return became_eligible;
}

const std::vector<ColorId>& ColorStateTable::eligible_colors() const {
  if (!eligible_list_dirty_) return eligible_list_;
  eligible_list_dirty_ = false;
  size_t out = 0;
  for (size_t i = 0; i < eligible_list_.size(); ++i) {
    ColorId c = eligible_list_[i];
    if (eligible(c)) {
      eligible_list_[out++] = c;
    } else {
      in_eligible_list_[c] = 0;
    }
  }
  eligible_list_.resize(out);
  return eligible_list_;
}

void ColorStateTable::SaveState(snapshot::Writer& w) const {
  w.BeginSection(snapshot::kTagColorState);
  w.PutU64(delta_);
  w.PutU64(state_.size());
  for (ColorId c = 0; c < state_.size(); ++c) {
    const State& s = state_[c];
    w.PutU64(s.cnt);
    w.PutI64(s.timestamp);
    w.PutI64(s.pending_wrap);
    w.PutBool(eligible(c));
    w.PutBool(s.saw_jobs);
  }
  // One deadline word per color (the table keeps one per delay group).
  w.PutU64(state_.size());
  for (uint32_t g : group_of_) w.PutI64(group_dd_[g]);
  w.PutVec(eligible_list_);
  w.PutVec(in_eligible_list_);
  w.PutBool(eligible_list_dirty_);
  w.PutU64(epochs_completed_);
  w.PutU64(colors_with_jobs_);
  w.PutU64(eligible_drops_);
  w.PutU64(ineligible_drops_);
  w.PutU64(wrap_events_);
  w.PutU64(timestamp_update_events_);
  w.EndSection();
}

void ColorStateTable::LoadState(snapshot::Reader& r) {
  r.BeginSection(snapshot::kTagColorState);
  RRS_CHECK_EQ(r.GetU64(), delta_)
      << "ColorStateTable restored with a different delta";
  RRS_CHECK_EQ(r.GetU64(), state_.size())
      << "ColorStateTable restored with a different color count";
  std::fill(eligible_bits_.begin(), eligible_bits_.end(), 0);
  for (ColorId c = 0; c < state_.size(); ++c) {
    State& s = state_[c];
    s.cnt = r.GetU64();
    s.timestamp = r.GetI64();
    s.pending_wrap = r.GetI64();
    if (r.GetBool()) eligible_bits_[c / 64] |= uint64_t{1} << (c % 64);
    s.saw_jobs = r.GetBool();
  }
  RRS_CHECK_EQ(r.GetU64(), state_.size())
      << "ColorStateTable restored with a different deadline count";
  // Every color of a delay group carries the group's deadline.
  std::fill(group_dd_.begin(), group_dd_.end(), Round{-1});
  for (uint32_t g : group_of_) {
    const Round dd = r.GetI64();
    RRS_CHECK_GE(dd, 0) << "ColorStateTable restored a negative deadline";
    if (group_dd_[g] < 0) group_dd_[g] = dd;
    RRS_CHECK_EQ(group_dd_[g], dd)
        << "ColorStateTable restored unequal deadlines within a delay group";
  }
  r.GetVec(eligible_list_);
  r.GetVec(in_eligible_list_);
  eligible_list_dirty_ = r.GetBool();
  epochs_completed_ = r.GetU64();
  colors_with_jobs_ = r.GetU64();
  eligible_drops_ = r.GetU64();
  ineligible_drops_ = r.GetU64();
  wrap_events_ = r.GetU64();
  timestamp_update_events_ = r.GetU64();
  r.EndSection();
  RRS_CHECK_EQ(in_eligible_list_.size(), state_.size());
  RebuildWrapBits();
}

uint64_t ColorStateTable::num_epochs() const {
  return epochs_completed_ + colors_with_jobs_;
}

void ColorStateTable::ExportMetrics(obs::Registry& registry) const {
  registry.counter("epochs_completed").Add(epochs_completed_);
  registry.counter("num_epochs").Add(num_epochs());
  registry.counter("eligible_drops").Add(eligible_drops_);
  registry.counter("ineligible_drops").Add(ineligible_drops_);
  registry.counter("wrap_events").Add(wrap_events_);
  registry.counter("timestamp_update_events").Add(timestamp_update_events_);
}

}  // namespace rrs
