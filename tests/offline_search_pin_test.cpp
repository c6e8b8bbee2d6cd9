// Pins the offline searches' effort counters, not just their costs. Over a
// fixed seeded corpus (m = 1..4, 4-6 weighted colors, Δ = 2..5, both
// pruning ablations, some budgets exhausted) every SolveOptimal and
// SolveRobust result must reproduce these recorded values exactly: bracket,
// states expanded and generated, both prune tallies, the widest layer, and
// for exact solves a digest of the reconstructed schedule. A change to how
// the searches expand states must leave all of them untouched; a change
// that moves one changed the search, not just its speed.
//
// On a mismatch the test prints the whole table as it now comes out, in
// the source format below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/instance.h"
#include "offline/optimal.h"
#include "offline/robust_optimal.h"
#include "util/rng.h"
#include "workload/uncertain.h"

namespace rrs {
namespace {

constexpr int kCases = 36;

struct Case {
  uint32_t m = 1;
  uint64_t delta = 2;
  bool prune_bound = true;
  bool prune_dominance = true;
  Instance instance;
  workload::UncertainInstance windows;
};

// Case i: m = 1 + i % 4; ablation i % 3 (0 both prunes, 1 no bound, 2 no
// dominance), so every (m, ablation) pair appears; 4-6 colors with delays
// from a mixed palette and drop weights 1-4; about 0.9·m jobs per round over
// 10-15 request rounds; half the jobs get windows widened by 0-1 rounds
// before and 0-2 after.
Case MakeCase(int i, Rng& rng) {
  Case c;
  c.m = 1 + static_cast<uint32_t>(i % 4);
  c.delta = 2 + static_cast<uint64_t>((i / 2) % 4);
  c.prune_bound = i % 3 != 1;
  c.prune_dominance = i % 3 != 2;
  static const Round kDelays[] = {1, 2, 3, 4, 6, 8};
  InstanceBuilder b;
  const size_t colors = 4 + static_cast<size_t>((i / 4) % 3);
  for (size_t k = 0; k < colors; ++k) {
    const Round d = kDelays[rng.NextBounded(6)];
    const uint64_t w = 1 + rng.NextBounded(4);
    b.AddColor(d, "", w);
    c.windows.AddColor(d, "", w);
  }
  const Round rounds = 10 + static_cast<Round>(rng.NextBounded(6));
  const uint64_t jobs = (9 * c.m * static_cast<uint64_t>(rounds)) / 10;
  for (uint64_t j = 0; j < jobs; ++j) {
    const ColorId color = static_cast<ColorId>(rng.NextBounded(colors));
    const Round r =
        static_cast<Round>(rng.NextBounded(static_cast<uint64_t>(rounds)));
    b.AddJob(color, r);
    // Half the jobs are forced (zero-width windows), so the robust lower
    // envelope is not empty.
    const bool forced = rng.NextBounded(2) == 0;
    const Round before = forced ? 0 : static_cast<Round>(rng.NextBounded(2));
    const Round after = forced ? 0 : static_cast<Round>(rng.NextBounded(3));
    c.windows.AddJob(color, std::max<Round>(0, r - before), r + after);
  }
  c.instance = b.Build();
  return c;
}

std::vector<Case> Corpus() {
  Rng rng(0x5ea4c4);
  std::vector<Case> corpus;
  for (int i = 0; i < kCases; ++i) corpus.push_back(MakeCase(i, rng));
  return corpus;
}

// FNV-1a over every reconfiguration and execution of the schedule.
uint64_t ScheduleDigest(const Schedule& s) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const ReconfigAction& a : s.reconfigs()) {
    mix(static_cast<uint64_t>(a.round));
    mix(a.resource);
    mix(static_cast<uint64_t>(a.to));
  }
  for (const ExecAction& a : s.executions()) {
    mix(static_cast<uint64_t>(a.round));
    mix(a.resource);
    mix(static_cast<uint64_t>(a.job));
  }
  return h;
}

struct OptimalRow {
  bool exact;
  uint64_t total_cost, lower_bound, upper_bound;
  uint64_t states_expanded, states_generated, pruned_bound, pruned_dominated,
      max_layer_width;
  uint64_t schedule_digest;  // 0 when the solve is not exact

  friend bool operator==(const OptimalRow&, const OptimalRow&) = default;
};

struct RobustRow {
  bool exact;
  uint64_t lower_bound, upper_bound;
  uint64_t states_expanded, states_generated, pruned_bound, pruned_dominated,
      max_layer_width;

  friend bool operator==(const RobustRow&, const RobustRow&) = default;
};

std::string Format(const OptimalRow& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {%s, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                "0x%016llxULL},",
                r.exact ? "true" : "false",
                static_cast<unsigned long long>(r.total_cost),
                static_cast<unsigned long long>(r.lower_bound),
                static_cast<unsigned long long>(r.upper_bound),
                static_cast<unsigned long long>(r.states_expanded),
                static_cast<unsigned long long>(r.states_generated),
                static_cast<unsigned long long>(r.pruned_bound),
                static_cast<unsigned long long>(r.pruned_dominated),
                static_cast<unsigned long long>(r.max_layer_width),
                static_cast<unsigned long long>(r.schedule_digest));
  return buf;
}

std::string Format(const RobustRow& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {%s, %llu, %llu, %llu, %llu, %llu, %llu, %llu},",
                r.exact ? "true" : "false",
                static_cast<unsigned long long>(r.lower_bound),
                static_cast<unsigned long long>(r.upper_bound),
                static_cast<unsigned long long>(r.states_expanded),
                static_cast<unsigned long long>(r.states_generated),
                static_cast<unsigned long long>(r.pruned_bound),
                static_cast<unsigned long long>(r.pruned_dominated),
                static_cast<unsigned long long>(r.max_layer_width));
  return buf;
}

template <typename Row>
void ExpectTable(const std::vector<Row>& got, const std::vector<Row>& want) {
  bool same = got.size() == want.size();
  for (size_t i = 0; same && i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "case " << i << ": got\n"
                                   << Format(got[i]) << "\nwant\n"
                                   << Format(want[i]);
    same = got[i] == want[i];
  }
  if (!same) {
    std::string table;
    for (const Row& r : got) table += Format(r) + "\n";
    ADD_FAILURE() << "table as it now comes out:\n" << table;
  }
}

// Recorded from the per-child expansion (each child's sections rebuilt from
// the parent span, then rescanned by Heuristic), rows in corpus order.
const std::vector<OptimalRow> kOptimal = {
    {true, 8, 8, 8, 76, 178, 18, 21, 16, 0x23d9e029c146f311ULL},
    {true, 22, 22, 22, 687, 4307, 0, 40, 103, 0x4e374bf32e527739ULL},
    {true, 26, 26, 26, 5862, 104495, 54826, 0, 1173, 0x03a28d11e06b990aULL},
    {true, 20, 20, 20, 185, 9190, 8375, 128, 69, 0xdaf7bb8a762bcdf5ULL},
    {true, 24, 24, 24, 148, 418, 0, 36, 20, 0x1de0b874156c62f4ULL},
    {true, 23, 23, 23, 1363, 14747, 6790, 0, 220, 0x25e5f21c8d46e56aULL},
    {true, 36, 36, 36, 2113, 60478, 36541, 1112, 472, 0xdb6971317299a95dULL},
    {true, 39, 39, 39, 7266, 411971, 0, 2789, 2023, 0x47de89f9f164ddd3ULL},
    {true, 15, 15, 15, 107, 286, 11, 0, 16, 0x3b18f080a51c8b7bULL},
    {true, 12, 12, 12, 866, 7841, 3317, 525, 138, 0xf0d0aa7b3e231da1ULL},
    {true, 26, 26, 26, 1522, 42548, 0, 414, 240, 0xd779a11aa5e531afULL},
    {false, 33, 18, 33, 18939, 2081864, 1250849, 0, 6939, 0x0000000000000000ULL},
    {true, 11, 11, 11, 31, 66, 20, 3, 5, 0xa3a36c6bbb81b2d5ULL},
    {true, 23, 23, 23, 348, 2370, 0, 165, 74, 0x2f8f0747487f054eULL},
    {true, 27, 27, 27, 831, 13094, 7780, 0, 149, 0x8a93807a77e10805ULL},
    {true, 22, 22, 22, 183, 11110, 10480, 268, 65, 0x3f8f03a7eeb1f551ULL},
    {true, 15, 15, 15, 78, 193, 0, 18, 10, 0xe3c238efdaaed432ULL},
    {true, 21, 21, 21, 1028, 7360, 1046, 0, 110, 0x3058709affe6825dULL},
    {true, 31, 31, 31, 1660, 23785, 1237, 298, 163, 0x6923cb67720e5c08ULL},
    {false, 40, 17, 40, 13188, 1407239, 0, 44207, 12565, 0x0000000000000000ULL},
    {true, 16, 16, 16, 43, 111, 31, 0, 12, 0x767b0fa12e5eef37ULL},
    {true, 33, 33, 33, 1020, 9885, 3061, 657, 182, 0x123048328184f650ULL},
    {false, 32, 29, 32, 14707, 693433, 0, 15756, 10350, 0x0000000000000000ULL},
    {true, 52, 52, 52, 5844, 463321, 335350, 0, 1342, 0x57965e2da2e3e13bULL},
    {true, 10, 10, 10, 33, 77, 11, 3, 9, 0x7101d553ba5839c8ULL},
    {true, 30, 30, 30, 574, 4329, 0, 97, 100, 0xdd5785778a091969ULL},
    {true, 19, 19, 19, 19067, 350992, 149524, 0, 2668, 0xedc1ed1877c6e595ULL},
    {true, 12, 12, 12, 73, 3935, 3769, 87, 16, 0xeefba74e2ff58bbaULL},
    {true, 19, 19, 19, 125, 302, 0, 18, 13, 0x493dcf29c894da15ULL},
    {true, 29, 29, 29, 911, 8339, 3698, 0, 183, 0x2e21445f2b459e24ULL},
    {true, 40, 40, 40, 5241, 130833, 10048, 2176, 810, 0x5c67eaf69b0cbad4ULL},
    {false, 44, 25, 44, 9648, 812363, 0, 51783, 22564, 0x0000000000000000ULL},
    {true, 12, 12, 12, 205, 551, 50, 0, 30, 0xd501404a45da2b92ULL},
    {true, 13, 13, 13, 805, 8478, 6029, 351, 149, 0x2fcc63c1fb5dd6d8ULL},
    {true, 26, 26, 26, 4223, 134931, 0, 2068, 662, 0x7ad0ed7451e25e03ULL},
    {false, 33, 18, 33, 5433, 633066, 153511, 0, 15038, 0x0000000000000000ULL},
};

const std::vector<RobustRow> kRobust = {
    {true, 6, 11, 194, 447, 4, 0, 32},
    {true, 14, 40, 1611, 11740, 0, 179, 306},
    {false, 12, 55, 6827, 111366, 0, 0, 7740},
    {true, 12, 43, 3702, 181045, 28137, 189, 898},
    {true, 19, 27, 283, 889, 0, 12, 47},
    {true, 17, 36, 3656, 39423, 0, 0, 853},
    {false, 35, 82, 7642, 212012, 543, 65, 1375},
    {false, 25, 92, 5733, 423625, 0, 638, 18109},
    {true, 13, 26, 145, 452, 0, 0, 20},
    {false, 10, 23, 4491, 54209, 2129, 1056, 3782},
    {true, 21, 35, 3881, 126765, 0, 293, 620},
    {false, 18, 43, 3297, 275380, 229, 0, 9452},
    {true, 6, 14, 160, 353, 53, 15, 22},
    {true, 19, 39, 770, 5250, 0, 20, 136},
    {true, 23, 55, 3491, 64480, 95, 0, 540},
    {false, 20, 50, 1879, 100260, 13118, 85, 9688},
    {true, 13, 17, 138, 353, 0, 24, 18},
    {true, 12, 38, 4495, 36566, 265, 0, 672},
    {true, 17, 51, 4280, 82148, 0, 628, 447},
    {false, 15, 62, 5232, 427190, 0, 797, 19256},
    {true, 7, 22, 130, 375, 0, 0, 25},
    {true, 25, 39, 3939, 46825, 39, 93, 553},
    {false, 20, 46, 4706, 236857, 0, 4, 19860},
    {false, 30, 95, 6810, 607449, 0, 0, 3202},
    {true, 9, 12, 65, 168, 6, 2, 19},
    {true, 18, 56, 1570, 12965, 0, 55, 335},
    {false, 12, 62, 3460, 81965, 0, 0, 4839},
    {false, 12, 92, 5157, 274260, 0, 806, 26800},
    {true, 16, 22, 179, 428, 0, 0, 20},
    {true, 15, 56, 3924, 48236, 0, 0, 860},
    {false, 23, 114, 7614, 243919, 0, 1243, 3847},
    {false, 25, 108, 2507, 137605, 0, 468, 5496},
    {true, 8, 21, 538, 1709, 0, 0, 107},
    {true, 12, 19, 7481, 89505, 13155, 275, 2001},
    {false, 17, 73, 6699, 315856, 0, 1039, 2820},
    {false, 18, 47, 5611, 838726, 0, 0, 27423},
};

TEST(OfflineSearchPin, SolveOptimalCountersAndSchedules) {
  std::vector<OptimalRow> got;
  for (const Case& c : Corpus()) {
    offline::OptimalOptions options;
    options.num_resources = c.m;
    options.cost_model.delta = c.delta;
    options.max_states = 20'000;
    options.prune_bound = c.prune_bound;
    options.prune_dominance = c.prune_dominance;
    options.reconstruct_schedule = true;
    const offline::OptimalResult r = offline::SolveOptimal(c.instance, options);
    got.push_back({r.exact, r.total_cost, r.lower_bound, r.upper_bound,
                   r.states_expanded, r.states_generated, r.pruned_bound,
                   r.pruned_dominated, r.max_layer_width,
                   r.schedule.has_value() ? ScheduleDigest(*r.schedule) : 0});
  }
  ExpectTable(got, kOptimal);
}

TEST(OfflineSearchPin, SolveRobustBracketsAndCounters) {
  std::vector<RobustRow> got;
  for (const Case& c : Corpus()) {
    offline::RobustOptions options;
    options.num_resources = c.m;
    options.cost_model.delta = c.delta;
    options.max_states = 8'000;
    options.prune_bound = c.prune_bound;
    options.prune_dominance = c.prune_dominance;
    const offline::RobustResult r = offline::SolveRobust(c.windows, options);
    got.push_back({r.exact, r.lower_bound, r.upper_bound, r.states_expanded,
                   r.states_generated, r.pruned_bound, r.pruned_dominated,
                   r.max_layer_width});
  }
  ExpectTable(got, kRobust);
}

}  // namespace
}  // namespace rrs
