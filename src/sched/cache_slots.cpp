#include "sched/cache_slots.h"

#include <algorithm>

#include "util/check.h"

namespace rrs {

void CacheSlots::Reset(uint32_t primary_slots, size_t num_colors,
                       bool replicate) {
  RRS_CHECK_GE(primary_slots, 1u);
  capacity_ = primary_slots;
  size_ = 0;
  replicate_ = replicate;
  slots_.assign(primary_slots, kNoColor);
  slot_of_.assign(num_colors, kNoSlot);
  free_slots_.clear();
  for (uint32_t s = primary_slots; s-- > 0;) free_slots_.push_back(s);
  dirty_slots_.clear();
  dirty_flag_.assign(primary_slots, 0);
  cached_.clear();
  in_cached_list_.assign(num_colors, 0);
  cached_bits_.assign((num_colors + 63) / 64, 0);
}

void CacheSlots::Insert(ColorId c) {
  RRS_CHECK_LT(c, slot_of_.size());
  RRS_CHECK(!IsCached(c)) << "color " << c << " already cached";
  RRS_CHECK(!full()) << "cache full";
  uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = c;
  slot_of_[c] = slot;
  ++size_;
  if (!dirty_flag_[slot]) {
    dirty_flag_[slot] = 1;
    dirty_slots_.push_back(slot);
  }
  in_cached_list_[c] = 1;
  cached_.push_back(c);
  cached_bits_[c / 64] |= uint64_t{1} << (c % 64);
}

void CacheSlots::Evict(ColorId c) {
  RRS_CHECK(IsCached(c)) << "color " << c << " not cached";
  uint32_t slot = slot_of_[c];
  slots_[slot] = kNoColor;
  slot_of_[c] = kNoSlot;
  free_slots_.push_back(slot);
  --size_;
  if (!dirty_flag_[slot]) {
    dirty_flag_[slot] = 1;
    dirty_slots_.push_back(slot);
  }
  in_cached_list_[c] = 0;
  cached_bits_[c / 64] &= ~(uint64_t{1} << (c % 64));
  // Lazy removal from cached_: compact now (eviction is rare relative to
  // queries, and the list is at most `capacity_ + evictions-this-phase` long).
  size_t out = 0;
  for (size_t i = 0; i < cached_.size(); ++i) {
    if (in_cached_list_[cached_[i]]) cached_[out++] = cached_[i];
  }
  cached_.resize(out);
}

void CacheSlots::ApplyTo(ResourceView& view) {
  for (uint32_t slot : dirty_slots_) {
    dirty_flag_[slot] = 0;
    ColorId c = slots_[slot];
    RRS_CHECK(c != kNoColor)
        << "slot " << slot
        << " vacated without refill; the paper's schemes only evict to make room";
    view.SetColor(slot, c);
    if (replicate_) view.SetColor(capacity_ + slot, c);
  }
  dirty_slots_.clear();
}

void CacheSlots::SaveState(snapshot::Writer& w) const {
  RRS_CHECK(dirty_slots_.empty())
      << "CacheSlots snapshot mid-phase (unapplied slot changes)";
  w.BeginSection(snapshot::kTagCacheSlots);
  w.PutU32(capacity_);
  w.PutU32(size_);
  w.PutBool(replicate_);
  w.PutVec(slots_);
  w.PutVec(slot_of_);
  w.PutVec(free_slots_);
  w.PutVec(cached_);
  w.PutVec(in_cached_list_);
  w.EndSection();
}

void CacheSlots::LoadState(snapshot::Reader& r) {
  RRS_CHECK(dirty_slots_.empty());
  r.BeginSection(snapshot::kTagCacheSlots);
  const uint32_t capacity = r.GetU32();
  RRS_CHECK_EQ(capacity, capacity_)
      << "CacheSlots restored into a different slot count";
  size_ = r.GetU32();
  replicate_ = r.GetBool();
  r.GetVec(slots_);
  r.GetVec(slot_of_);
  r.GetVec(free_slots_);
  r.GetVec(cached_);
  r.GetVec(in_cached_list_);
  r.EndSection();
  RRS_CHECK_EQ(slot_of_.size(), in_cached_list_.size());
  RRS_CHECK_EQ(cached_bits_.size(), (slot_of_.size() + 63) / 64)
      << "CacheSlots restored with a different color count";
  std::fill(cached_bits_.begin(), cached_bits_.end(), 0);
  for (ColorId c = 0; c < slot_of_.size(); ++c) {
    if (slot_of_[c] != kNoSlot) cached_bits_[c / 64] |= uint64_t{1} << (c % 64);
  }
  RRS_CHECK(CheckInvariants());
}

bool CacheSlots::CheckInvariants() const {
  uint32_t occupied = 0;
  for (uint32_t s = 0; s < capacity_; ++s) {
    ColorId c = slots_[s];
    if (c != kNoColor) {
      ++occupied;
      if (slot_of_[c] != s) return false;
    }
  }
  if (occupied != size_) return false;
  if (free_slots_.size() + occupied != capacity_) return false;
  size_t listed = 0;
  for (ColorId c : cached_) {
    if (!in_cached_list_[c] || slot_of_[c] == kNoSlot) return false;
    ++listed;
  }
  if (listed != size_) return false;
  if (cached_bits_.size() != (slot_of_.size() + 63) / 64) return false;
  for (ColorId c = 0; c < slot_of_.size(); ++c) {
    const bool bit = (cached_bits_[c / 64] >> (c % 64) & 1) != 0;
    if (bit != (slot_of_[c] != kNoSlot)) return false;
  }
  return true;
}

}  // namespace rrs
