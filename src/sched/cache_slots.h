// Slot management for the cache-structured schedulers.
//
// The paper views the online algorithm's n resources as cache locations. The
// schedulers here maintain P "primary" slots holding distinct colors; with
// replication enabled (the common scheme of Section 3.1, P = n/2) slot i is
// mirrored onto resource P + i, so each cached color occupies two locations
// and executes up to two jobs per round. Seq-EDF disables replication
// (P = n). Colors never migrate between slots while cached, so no phantom
// reconfiguration cost arises from set reshuffling.
//
// CacheSlots tracks membership and slot assignment; ApplyTo() pushes any slot
// changes of the current reconfiguration phase to the engine's ResourceView
// (which charges Δ per actual recoloring).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/policy.h"
#include "core/types.h"
#include "snapshot/codec.h"

namespace rrs {

class CacheSlots {
 public:
  void Reset(uint32_t primary_slots, size_t num_colors, bool replicate);

  uint32_t capacity() const { return capacity_; }
  uint32_t size() const { return size_; }
  bool full() const { return size_ == capacity_; }
  bool replicate() const { return replicate_; }

  bool IsCached(ColorId c) const {
    return c < slot_of_.size() && slot_of_[c] != kNoSlot;
  }

  // The color in primary slot i, or kNoColor.
  ColorId color_in_slot(uint32_t slot) const { return slots_[slot]; }

  // Currently cached colors in unspecified order.
  const std::vector<ColorId>& cached_colors() const { return cached_; }

  // The cached colors as a bitset (bit c % 64 of word c / 64). Derived from
  // the slot map, kept in step by Insert/Evict, rebuilt by Reset/LoadState
  // and not serialized.
  std::span<const uint64_t> cached_words() const { return cached_bits_; }

  // Inserts an uncached color into a free slot. Requires !full().
  void Insert(ColorId c);

  // Evicts a cached color, freeing its slot.
  void Evict(ColorId c);

  // Pushes the slot changes made since the last ApplyTo to the view:
  // SetColor on the primary resource and, with replication, its mirror.
  // Checks that no slot was left vacated-but-unfilled: the paper's schemes
  // only evict to make room, so every freed slot must be refilled within the
  // same phase (blanking a resource would bill a meaningless reconfiguration).
  void ApplyTo(ResourceView& view);

  // O(capacity + colors) consistency check, including the cached bitset;
  // test hook.
  bool CheckInvariants() const;

  // Checkpoint/restore. Everything is saved verbatim, including the
  // free-slot stack and the lazily-compacted cached list: their orders
  // decide which slot the next Insert takes and the iteration order of
  // cached_colors(), both of which downstream policies' decisions depend
  // on. LoadState requires a CacheSlots Reset to the same shape.
  void SaveState(snapshot::Writer& w) const;
  void LoadState(snapshot::Reader& r);

 private:
  static constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

  uint32_t capacity_ = 0;
  uint32_t size_ = 0;
  bool replicate_ = false;
  std::vector<ColorId> slots_;      // slot -> color (kNoColor if free)
  std::vector<uint32_t> slot_of_;   // color -> slot (kNoSlot if uncached)
  std::vector<uint32_t> free_slots_;
  std::vector<uint32_t> dirty_slots_;
  std::vector<uint8_t> dirty_flag_;
  std::vector<ColorId> cached_;     // lazily compacted on Evict
  std::vector<uint8_t> in_cached_list_;
  std::vector<uint64_t> cached_bits_;
};

}  // namespace rrs
