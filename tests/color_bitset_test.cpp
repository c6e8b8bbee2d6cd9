// Property test for the color bitsets behind the ΔLRU-EDF round.
//
// ColorStateTable's wrap-pending and delay-group masks and CacheSlots'
// cached mask are derived state: every transition keeps them in step,
// Reset/LoadState rebuild them, and snapshots never carry them. The
// eligible and LRU masks are the state itself; their padding bits must stay
// clear and the LRU set must stay the top eligible cached colors. Seeded
// random drives push the three classes through arrivals, drops, boundaries,
// reconfigurations, Reset, SaveState/LoadState, and binding to, stepping and
// finishing a BatchEngine lane (whose fused kernel writes the policy state
// directly). After every step each bitset must equal its recomputation from
// the per-color state.
#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/policy.h"
#include "fleet/batch_engine.h"
#include "sched/cache_slots.h"
#include "sched/color_state.h"
#include "sched/dlru_edf.h"
#include "snapshot/codec.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

size_t Words(size_t num_colors) { return (num_colors + 63) / 64; }

bool Bit(std::span<const uint64_t> words, size_t c) {
  return (words[c / 64] >> (c % 64) & 1) != 0;
}

// 1..130 colors, so both one-word and multi-word bitsets (and the padding
// bits of a partial last word) are exercised.
std::vector<workload::ColorSpec> RandomSpecs(Rng& rng) {
  std::vector<workload::ColorSpec> specs(1 + rng.NextBounded(130));
  for (auto& spec : specs) {
    spec.delay_bound = Round{1} << rng.NextBounded(6);
    spec.rate = rng.UniformDouble(0.02, 0.6);
  }
  return specs;
}

Instance MakeTenant(const std::vector<workload::ColorSpec>& specs,
                    Round rounds, uint64_t seed) {
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

// ---- Recomputations: "" when the bitsets match, else the first mismatch. --

std::string TableMismatch(const ColorStateTable& t, const Instance& inst) {
  std::ostringstream out;
  const size_t n = inst.num_colors();
  if (t.num_words() != Words(n) || t.eligible_words().size() != Words(n) ||
      t.wrap_words().size() != Words(n)) {
    return "bitset word count";
  }
  std::vector<Round> delays;
  for (ColorId c = 0; c < n; ++c) delays.push_back(inst.delay_bound(c));
  std::sort(delays.begin(), delays.end());
  delays.erase(std::unique(delays.begin(), delays.end()), delays.end());
  if (t.num_groups() != delays.size()) return "group count";
  for (uint32_t g = 0; g < delays.size(); ++g) {
    if (t.group_delay(g) != delays[g]) return "group delay order";
    if (t.group_members(g).size() != Words(n)) return "group word count";
  }
  for (size_t c = 0; c < Words(n) * 64; ++c) {
    const ColorId color = static_cast<ColorId>(c);
    const bool live = c < n;
    if (!live && Bit(t.eligible_words(), c)) {
      out << "eligible padding bit " << c;
      return out.str();
    }
    if (Bit(t.wrap_words(), c) != (live && t.pending_wrap(color) >= 0)) {
      out << "wrap bit of color " << c;
      return out.str();
    }
    for (uint32_t g = 0; g < delays.size(); ++g) {
      if (Bit(t.group_members(g), c) !=
          (live && inst.delay_bound(color) == delays[g])) {
        out << "group " << g << " member bit of color " << c;
        return out.str();
      }
    }
    if (live && t.group_delay(t.group_of(color)) != inst.delay_bound(color)) {
      out << "group of color " << c;
      return out.str();
    }
  }
  return "";
}

std::string CacheMismatch(const CacheSlots& s, size_t num_colors) {
  if (s.cached_words().size() != Words(num_colors)) return "cached word count";
  std::vector<uint8_t> listed(num_colors, 0);
  for (ColorId c : s.cached_colors()) listed[c] = 1;
  for (size_t c = 0; c < Words(num_colors) * 64; ++c) {
    const bool live = c < num_colors;
    const bool cached = live && s.IsCached(static_cast<ColorId>(c));
    if (Bit(s.cached_words(), c) != cached || (live && listed[c] != cached)) {
      return "cached bit of color " + std::to_string(c);
    }
  }
  return "";
}

// The LRU set is always a subset of the cached, eligible colors; once a
// round's reconfiguration has run (`settled`), it is exactly the top
// lru_capacity eligible colors by (timestamp desc, color asc).
std::string LruMismatch(const DlruEdfPolicy& p, uint32_t lru_capacity,
                        bool settled) {
  const ColorStateTable& t = p.color_state();
  const size_t n = t.num_colors();
  if (p.lru_words().size() != Words(n)) return "lru word count";
  std::vector<std::pair<Round, ColorId>> eligible;
  for (size_t c = 0; c < Words(n) * 64; ++c) {
    const ColorId color = static_cast<ColorId>(c);
    const bool lru = Bit(p.lru_words(), c);
    if (c >= n) {
      if (lru) return "lru padding bit " + std::to_string(c);
      continue;
    }
    if (lru != p.is_lru(color)) return "is_lru of color " + std::to_string(c);
    if (lru && !(p.cache().IsCached(color) && t.eligible(color))) {
      return "lru color " + std::to_string(c) + " uncached or ineligible";
    }
    if (t.eligible(color)) eligible.emplace_back(t.timestamp(color), color);
  }
  if (!settled) return "";
  std::sort(eligible.begin(), eligible.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<uint8_t> top(n, 0);
  for (size_t i = 0; i < std::min<size_t>(lru_capacity, eligible.size());
       ++i) {
    top[eligible[i].second] = 1;
  }
  for (ColorId c = 0; c < n; ++c) {
    if (p.is_lru(c) != (top[c] != 0)) {
      return "lru set differs from the top-k at color " + std::to_string(c);
    }
  }
  return "";
}

std::string PolicyMismatch(const DlruEdfPolicy& p, const Instance& inst,
                           uint32_t lru_capacity, bool settled) {
  std::string m = TableMismatch(p.color_state(), inst);
  if (m.empty()) m = CacheMismatch(p.cache(), inst.num_colors());
  if (m.empty()) m = LruMismatch(p, lru_capacity, settled);
  return m;
}

// A ResourceView that only records colors (CacheSlots::ApplyTo needs one).
class StubView final : public ResourceView {
 public:
  StubView(uint32_t n, size_t colors)
      : ResourceView(nullptr), pending_(colors, 0), colors_(n, kNoColor) {
    set_pending_table(pending_.data());
  }
  uint32_t num_resources() const override {
    return static_cast<uint32_t>(colors_.size());
  }
  ColorId color_of(ResourceId r) const override { return colors_[r]; }
  void SetColor(ResourceId r, ColorId c) override { colors_[r] = c; }
  Round earliest_deadline(ColorId) const override { return 0; }
  const std::vector<ColorId>& nonidle_colors() const override {
    return nonidle_;
  }

 private:
  std::vector<uint64_t> pending_;
  std::vector<ColorId> colors_;
  std::vector<ColorId> nonidle_;
};

// ---- ColorStateTable + CacheSlots under random transitions --------------

TEST(ColorBitsets, TableAndSlotsTrackRandomTransitions) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    // Two instances: the table is Reset onto the second midway.
    std::vector<Instance> instances;
    instances.push_back(MakeTenant(RandomSpecs(rng), 8, rng.Next()));
    instances.push_back(MakeTenant(RandomSpecs(rng), 8, rng.Next()));
    const uint64_t delta = 1 + rng.NextBounded(4);
    const uint32_t primary = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    const bool replicate = rng.Bernoulli(0.5);

    const Instance* inst = &instances[0];
    ColorStateTable table;
    CacheSlots slots;
    // Reference model of the counter and eligibility (Section 3.1): a wrap
    // makes a color eligible; a boundary ends the epoch of an eligible,
    // uncached color.
    std::vector<uint64_t> ref_cnt;
    std::vector<uint8_t> ref_eligible;
    auto reset = [&](const Instance& next) {
      inst = &next;
      table.Reset(next, delta);
      slots.Reset(primary, next.num_colors(), replicate);
      ref_cnt.assign(next.num_colors(), 0);
      ref_eligible.assign(next.num_colors(), 0);
    };
    auto model_mismatch = [&]() -> std::string {
      for (ColorId c = 0; c < inst->num_colors(); ++c) {
        if (table.eligible(c) != (ref_eligible[c] != 0)) {
          return "eligible(" + std::to_string(c) + ")";
        }
        if (table.counter(c) != ref_cnt[c]) {
          return "counter(" + std::to_string(c) + ")";
        }
      }
      return "";
    };
    reset(*inst);
    StubView view(replicate ? 2 * primary : primary, 130);
    ColorStateTable::BoundaryEvents events;
    const std::string label = "seed " + std::to_string(seed);
    ASSERT_EQ(TableMismatch(table, *inst), "") << label << " after Reset";
    ASSERT_EQ(CacheMismatch(slots, inst->num_colors()), "") << label;

    for (Round k = 0; k < 240; ++k) {
      const ColorId n = static_cast<ColorId>(inst->num_colors());
      const std::string at = label + " round " + std::to_string(k);
      // Drop phase, then the boundary transition against the cache.
      for (int i = 0; i < 3; ++i) {
        table.RecordDrop(static_cast<ColorId>(rng.NextBounded(n)),
                         1 + rng.NextBounded(3));
      }
      for (ColorId c = 0; c < n; ++c) {
        if (k % inst->delay_bound(c) == 0 && ref_eligible[c] &&
            !slots.IsCached(c)) {
          ref_eligible[c] = 0;
          ref_cnt[c] = 0;
        }
      }
      table.ProcessBoundary(k, slots.cached_words(), events);
      for (ColorId c : events.became_ineligible) {
        ASSERT_FALSE(slots.IsCached(c)) << at << ": cached color expired";
        ASSERT_FALSE(table.eligible(c)) << at;
      }
      ASSERT_EQ(TableMismatch(table, *inst), "") << at << " after boundary";
      ASSERT_EQ(model_mismatch(), "") << at << " after boundary";
      // Arrival phase.
      for (int i = 0; i < 1 + static_cast<int>(n / 8); ++i) {
        const ColorId c = static_cast<ColorId>(rng.NextBounded(n));
        const uint64_t count = 1 + rng.NextBounded(2 * delta);
        ref_cnt[c] += count;
        if (ref_cnt[c] >= delta) {
          ref_cnt[c] %= delta;
          ref_eligible[c] = 1;
        }
        table.OnArrivals(k, c, count);
      }
      ASSERT_EQ(TableMismatch(table, *inst), "") << at << " after arrivals";
      ASSERT_EQ(model_mismatch(), "") << at << " after arrivals";
      // Reconfiguration: cache an eligible color, evicting one if full.
      for (int i = 0; i < 2; ++i) {
        const ColorId c = static_cast<ColorId>(rng.NextBounded(n));
        if (!table.eligible(c) || slots.IsCached(c)) continue;
        if (slots.full()) {
          const auto& cached = slots.cached_colors();
          slots.Evict(cached[rng.NextBounded(cached.size())]);
        }
        slots.Insert(c);
      }
      slots.ApplyTo(view);
      ASSERT_EQ(CacheMismatch(slots, n), "") << at << " after reconfig";
      ASSERT_TRUE(slots.CheckInvariants()) << at;

      // Checkpoint into fresh objects and continue on the restored copies.
      if (rng.Bernoulli(0.1)) {
        snapshot::Writer w;
        table.SaveState(w);
        slots.SaveState(w);
        ColorStateTable table2;
        CacheSlots slots2;
        table2.Reset(*inst, delta);
        slots2.Reset(primary, n, replicate);
        snapshot::Reader r(w.words());
        table2.LoadState(r);
        slots2.LoadState(r);
        ASSERT_TRUE(r.AtEnd()) << at;
        ASSERT_EQ(TableMismatch(table2, *inst), "") << at << " after load";
        for (ColorId c = 0; c < n; ++c) {
          ASSERT_EQ(table2.eligible(c), ref_eligible[c] != 0) << at;
        }
        ASSERT_EQ(CacheMismatch(slots2, n), "") << at << " after load";
        snapshot::Writer w2;
        table2.SaveState(w2);
        slots2.SaveState(w2);
        ASSERT_EQ(w2.words(), w.words()) << at << ": re-save differs";
        table = std::move(table2);
        slots = std::move(slots2);
      }
      if (k == 120) {
        reset(instances[1]);
        ASSERT_EQ(TableMismatch(table, *inst), "") << at << " after Reset";
        ASSERT_EQ(CacheMismatch(slots, inst->num_colors()), "") << at;
      }
    }
  }
}

// ---- DlruEdfPolicy on the scalar Engine ----------------------------------

struct PolicySetup {
  EngineOptions options;
  DlruEdfPolicy::Params params;
  uint32_t lru_capacity = 0;
};

PolicySetup RandomSetup(Rng& rng) {
  PolicySetup s;
  s.options.num_resources = 4 * (1 + static_cast<uint32_t>(rng.NextBounded(3)));
  s.options.cost_model.delta = 1 + rng.NextBounded(4);
  if (rng.Bernoulli(0.25)) s.options.mini_rounds_per_round = 2;
  if (s.options.num_resources >= 8 && rng.Bernoulli(0.3)) s.params.lru_den = 8;
  if (rng.Bernoulli(0.3)) s.params.exit_policy = LruExitPolicy::kEvictFirst;
  s.params.random_evict = rng.Bernoulli(0.2);
  s.lru_capacity = s.options.num_resources / s.params.lru_den;
  return s;
}

TEST(ColorBitsets, DlruEdfPolicyTracksScalarRunsResetsAndRestores) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(100 + seed);
    const PolicySetup setup = RandomSetup(rng);
    std::vector<Instance> instances;
    instances.push_back(MakeTenant(RandomSpecs(rng), 90, rng.Next()));
    instances.push_back(MakeTenant(RandomSpecs(rng), 60, rng.Next()));
    const Round cut = 1 + static_cast<Round>(rng.NextBounded(80));
    const std::string label = "seed " + std::to_string(seed);

    auto engine = std::make_unique<Engine>(instances[0], setup.options);
    auto policy = std::make_unique<DlruEdfPolicy>(setup.params);
    engine->BeginRun(*policy);
    ASSERT_EQ(PolicyMismatch(*policy, instances[0], setup.lru_capacity, false),
              "")
        << label << " after Reset";
    bool more = true;
    while (more) {
      more = engine->StepRounds(1);
      const std::string at =
          label + " round " + std::to_string(engine->next_round() - 1);
      ASSERT_EQ(PolicyMismatch(*policy, instances[0], setup.lru_capacity, true),
                "")
          << at;
      if (engine->next_round() == cut && more) {
        // Migrate the run into a fresh engine and policy.
        snapshot::Writer w;
        engine->SnapshotRun(w);
        auto engine2 = std::make_unique<Engine>(instances[0], setup.options);
        auto policy2 = std::make_unique<DlruEdfPolicy>(setup.params);
        snapshot::Reader r(w.words());
        engine2->RestoreRun(*policy2, r);
        ASSERT_EQ(
            PolicyMismatch(*policy2, instances[0], setup.lru_capacity, true),
            "")
            << at << " after restore";
        engine->AbortRun();
        engine = std::move(engine2);
        policy = std::move(policy2);
      }
    }
    RunResult result;
    engine->FinishRun(result);

    // The same policy object, Reset onto a different color universe.
    engine->Reset(instances[1], setup.options);
    engine->BeginRun(*policy);
    ASSERT_EQ(PolicyMismatch(*policy, instances[1], setup.lru_capacity, false),
              "")
        << label << " after Reset onto a new instance";
    while (engine->StepRounds(1)) {
      ASSERT_EQ(
          PolicyMismatch(*policy, instances[1], setup.lru_capacity, true), "")
          << label << " second run round " << engine->next_round() - 1;
    }
    engine->FinishRun(result);
  }
}

// ---- DlruEdfPolicy on BatchEngine lanes (fused kernel) -------------------

TEST(ColorBitsets, DlruEdfPolicyTracksBatchLanes) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(200 + seed);
    const PolicySetup setup = RandomSetup(rng);
    const std::vector<workload::ColorSpec> specs = RandomSpecs(rng);
    constexpr uint32_t kLanes = 6;
    std::vector<Instance> tenants;
    for (uint32_t lane = 0; lane < kLanes; ++lane) {
      tenants.push_back(MakeTenant(specs, 40 + 10 * lane, rng.Next()));
    }
    const std::string label = "seed " + std::to_string(seed);

    fleet::BatchEngine slab(8);
    std::vector<DlruEdfPolicy::Params> params(kLanes, setup.params);
    std::vector<std::unique_ptr<DlruEdfPolicy>> policies;
    for (uint32_t lane = 0; lane < kLanes; ++lane) {
      params[lane].random_evict = lane == 3;  // one full-scalar-sequence lane
      policies.push_back(std::make_unique<DlruEdfPolicy>(params[lane]));
      slab.OpenLane(lane, tenants[lane], setup.options, *policies[lane]);
      ASSERT_EQ(PolicyMismatch(*policies[lane], tenants[lane],
                               setup.lru_capacity, false),
                "")
          << label << " lane " << lane << " after bind";
    }
    const Round restore_at = 5 + static_cast<Round>(rng.NextBounded(30));
    bool more = true;
    while (more) {
      more = slab.StepRounds(1);
      for (uint32_t lane = 0; lane < kLanes; ++lane) {
        if (!slab.lane_open(lane)) continue;
        ASSERT_EQ(PolicyMismatch(*policies[lane], tenants[lane],
                                 setup.lru_capacity, true),
                  "")
            << label << " lane " << lane << " round "
            << slab.next_round() - 1;
        if (slab.lane_done(lane)) {
          RunResult result;
          slab.FinishLane(lane, result);
          ASSERT_EQ(PolicyMismatch(*policies[lane], tenants[lane],
                                   setup.lru_capacity, true),
                    "")
              << label << " lane " << lane << " after finish";
        }
      }
      // Move lane 1 onto a fresh policy through a lane snapshot.
      if (slab.next_round() == restore_at && slab.lane_open(1) &&
          !slab.lane_done(1)) {
        snapshot::Writer w;
        slab.SnapshotLane(1, w);
        slab.AbortLane(1);
        policies[1] = std::make_unique<DlruEdfPolicy>(params[1]);
        snapshot::Reader r(w.words());
        slab.RestoreLane(1, tenants[1], setup.options, *policies[1], r);
        ASSERT_EQ(PolicyMismatch(*policies[1], tenants[1], setup.lru_capacity,
                                 true),
                  "")
            << label << " lane 1 after restore";
      }
      if (slab.empty()) break;
    }
  }
}

}  // namespace
}  // namespace rrs
