// Tests for src/sched: the ColorStateTable state machine of Section 3.1,
// CacheSlots, the ranking keys, Par-EDF, and the behavior of the ΔLRU, EDF,
// ΔLRU-EDF, and baseline policies on hand-built instances.
#include <map>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "sched/cache_slots.h"
#include "sched/color_state.h"
#include "sched/dlru.h"
#include "sched/dlru_edf.h"
#include "sched/edf.h"
#include "sched/greedy.h"
#include "sched/lookahead.h"
#include "sched/par_edf.h"
#include "sched/ranking.h"
#include "sched/registry.h"
#include "util/rng.h"
#include "workload/adversary.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

// A stub ResourceView for driving CacheSlots and policies directly.
// Holds the pending table in a base subobject so it is constructed before
// ResourceView, which captures a pointer to it.
struct FakeViewPending {
  explicit FakeViewPending(size_t colors) : pending_(colors, 0) {}
  std::vector<uint64_t> pending_;
};

class FakeView : private FakeViewPending, public ResourceView {
 public:
  FakeView(uint32_t n, size_t colors)
      : FakeViewPending(colors),
        ResourceView(pending_.data()),
        colors_(n, kNoColor) {}

  uint32_t num_resources() const override {
    return static_cast<uint32_t>(colors_.size());
  }
  ColorId color_of(ResourceId r) const override { return colors_[r]; }
  void SetColor(ResourceId r, ColorId c) override {
    if (colors_[r] == c) return;
    colors_[r] = c;
    ++reconfigs_;
  }
  Round earliest_deadline(ColorId c) const override {
    return deadline_.at(c);
  }
  const std::vector<ColorId>& nonidle_colors() const override {
    nonidle_.clear();
    for (ColorId c = 0; c < pending_.size(); ++c) {
      if (pending_[c] > 0) nonidle_.push_back(c);
    }
    return nonidle_;
  }

  void set_pending(ColorId c, uint64_t n) { pending_[c] = n; }
  void set_deadline(ColorId c, Round d) { deadline_[c] = d; }
  uint64_t reconfigs() const { return reconfigs_; }
  const std::vector<ColorId>& colors() const { return colors_; }

 private:
  std::vector<ColorId> colors_;
  std::map<ColorId, Round> deadline_;
  mutable std::vector<ColorId> nonidle_;
  uint64_t reconfigs_ = 0;
};

// One-word cache bitsets for the ProcessBoundary tests (instances here have
// fewer than 64 colors).
const std::vector<uint64_t> kNoneCached = {0};
const std::vector<uint64_t> kAllCached = {~uint64_t{0}};

Instance SimpleInstance(Round d0 = 2, Round d1 = 4) {
  InstanceBuilder b;
  b.AddColor(d0);
  b.AddColor(d1);
  return b.Build();
}

// ------------------------------------------------------ ColorStateTable ----

TEST(ColorStateTable, CounterWrapMakesEligible) {
  Instance inst = SimpleInstance(2, 4);
  ColorStateTable table;
  table.Reset(inst, /*delta=*/3);

  EXPECT_FALSE(table.eligible(0));
  EXPECT_FALSE(table.OnArrivals(0, 0, 2));  // cnt = 2 < 3
  EXPECT_EQ(table.counter(0), 2u);
  EXPECT_FALSE(table.eligible(0));

  EXPECT_TRUE(table.OnArrivals(2, 0, 1));  // cnt reaches 3: wrap, eligible
  EXPECT_TRUE(table.eligible(0));
  EXPECT_EQ(table.counter(0), 0u);
  EXPECT_EQ(table.wrap_events(), 1u);
}

TEST(ColorStateTable, CounterWrapKeepsRemainder) {
  Instance inst = SimpleInstance();
  ColorStateTable table;
  table.Reset(inst, 3);
  table.OnArrivals(0, 0, 7);  // 7 mod 3 = 1
  EXPECT_EQ(table.counter(0), 1u);
  EXPECT_TRUE(table.eligible(0));
}

TEST(ColorStateTable, TimestampPromotedAtNextBoundary) {
  Instance inst = SimpleInstance(2, 4);
  ColorStateTable table;
  table.Reset(inst, 2);
  ColorStateTable::BoundaryEvents events;

  // Round 0: boundary, no wraps pending; then a wrap at round 0.
  table.ProcessBoundary(0, kNoneCached, events);
  EXPECT_TRUE(events.timestamp_updated.empty());
  table.OnArrivals(0, 0, 2);  // wrap at round 0
  EXPECT_EQ(table.timestamp(0), 0);  // not yet promoted

  // Round 2: next multiple of D_0 = 2 -> promotion.
  table.ProcessBoundary(2, kAllCached, events);
  ASSERT_EQ(events.timestamp_updated.size(), 1u);
  EXPECT_EQ(events.timestamp_updated[0], 0u);
  EXPECT_EQ(table.timestamp(0), 0);  // the wrap happened in round 0
  EXPECT_EQ(table.timestamp_update_events(), 1u);

  // A wrap at round 2, promoted at round 4.
  table.OnArrivals(2, 0, 2);
  table.ProcessBoundary(4, kAllCached, events);
  EXPECT_EQ(table.timestamp(0), 2);
}

TEST(ColorStateTable, BoundaryColorsFollowDelayBounds) {
  Instance inst = SimpleInstance(2, 4);
  ColorStateTable table;
  table.Reset(inst, 2);
  ColorStateTable::BoundaryEvents events;

  // One delay group per distinct bound, ascending D, as member bitsets.
  ASSERT_EQ(table.num_groups(), 2u);
  EXPECT_EQ(table.group_delay(0), 2);
  EXPECT_EQ(table.group_members(0)[0], 0b01u);
  EXPECT_EQ(table.group_delay(1), 4);
  EXPECT_EQ(table.group_members(1)[0], 0b10u);

  // A boundary round refreshes the deadlines of exactly its due groups.
  table.ProcessBoundary(2, kNoneCached, events);  // only D=2
  EXPECT_EQ(table.deadline(0), 4);
  EXPECT_EQ(table.deadline(1), 0);
  table.ProcessBoundary(4, kNoneCached, events);
  EXPECT_EQ(table.deadline(0), 6);
  EXPECT_EQ(table.deadline(1), 8);
  table.ProcessBoundary(3, kNoneCached, events);  // no group due
  EXPECT_EQ(table.deadline(0), 6);
  EXPECT_EQ(table.deadline(1), 8);
}

TEST(ColorStateTable, UncachedEligibleBecomesIneligibleAtBoundary) {
  Instance inst = SimpleInstance(2, 4);
  ColorStateTable table;
  table.Reset(inst, 2);
  table.OnArrivals(0, 0, 2);  // eligible
  ASSERT_TRUE(table.eligible(0));

  ColorStateTable::BoundaryEvents events;
  table.ProcessBoundary(2, kNoneCached, events);
  ASSERT_EQ(events.became_ineligible.size(), 1u);
  EXPECT_FALSE(table.eligible(0));
  EXPECT_EQ(table.counter(0), 0u);
  EXPECT_EQ(table.epochs_completed(), 1u);
}

TEST(ColorStateTable, CachedEligibleStaysEligibleAtBoundary) {
  Instance inst = SimpleInstance(2, 4);
  ColorStateTable table;
  table.Reset(inst, 2);
  table.OnArrivals(0, 0, 2);
  ColorStateTable::BoundaryEvents events;
  table.ProcessBoundary(2, kAllCached, events);
  EXPECT_TRUE(events.became_ineligible.empty());
  EXPECT_TRUE(table.eligible(0));
}

TEST(ColorStateTable, DeadlineSetAtBoundary) {
  Instance inst = SimpleInstance(2, 4);
  ColorStateTable table;
  table.Reset(inst, 2);
  ColorStateTable::BoundaryEvents events;
  table.ProcessBoundary(4, kAllCached, events);
  EXPECT_EQ(table.deadline(0), 6);  // 4 + 2
  EXPECT_EQ(table.deadline(1), 8);  // 4 + 4
}

TEST(ColorStateTable, DropClassificationByEligibility) {
  Instance inst = SimpleInstance(2, 4);
  ColorStateTable table;
  table.Reset(inst, 2);
  table.RecordDrop(0, 3);  // ineligible
  table.OnArrivals(0, 0, 2);
  table.RecordDrop(0, 5);  // now eligible
  EXPECT_EQ(table.ineligible_drops(), 3u);
  EXPECT_EQ(table.eligible_drops(), 5u);
}

TEST(ColorStateTable, NumEpochsCountsIncompleteEpochs) {
  Instance inst = SimpleInstance(2, 4);
  ColorStateTable table;
  table.Reset(inst, 2);
  EXPECT_EQ(table.num_epochs(), 0u);  // no color saw any job
  table.OnArrivals(0, 0, 1);
  EXPECT_EQ(table.num_epochs(), 1u);  // color 0's (incomplete) epoch 0
  table.OnArrivals(0, 1, 1);
  EXPECT_EQ(table.num_epochs(), 2u);
}

TEST(ColorStateTable, EligibleColorsListTracksState) {
  Instance inst = SimpleInstance(2, 2);
  ColorStateTable table;
  table.Reset(inst, 1);
  table.OnArrivals(0, 0, 1);
  table.OnArrivals(0, 1, 1);
  EXPECT_EQ(table.eligible_colors().size(), 2u);
  ColorStateTable::BoundaryEvents events;
  table.ProcessBoundary(2, std::vector<uint64_t>{0b01}, events);
  EXPECT_EQ(table.eligible_colors().size(), 1u);
  EXPECT_EQ(table.eligible_colors()[0], 0u);
}

// ----------------------------------------------------------- CacheSlots ----

TEST(CacheSlots, InsertEvictApplyWithReplication) {
  CacheSlots slots;
  slots.Reset(2, 4, /*replicate=*/true);
  FakeView view(4, 4);

  slots.Insert(1);
  slots.Insert(3);
  slots.ApplyTo(view);
  EXPECT_EQ(view.reconfigs(), 4u);  // 2 colors x 2 locations
  EXPECT_TRUE(slots.IsCached(1));
  EXPECT_TRUE(slots.full());

  slots.Evict(1);
  slots.Insert(2);
  slots.ApplyTo(view);
  EXPECT_EQ(view.reconfigs(), 6u);  // one slot recolored in 2 locations
  EXPECT_FALSE(slots.IsCached(1));
  EXPECT_TRUE(slots.IsCached(2));
  EXPECT_TRUE(slots.CheckInvariants());

  // Replica mirrors the primary.
  for (uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(view.colors()[s], view.colors()[2 + s]);
  }
}

TEST(CacheSlots, NoReplication) {
  CacheSlots slots;
  slots.Reset(2, 4, /*replicate=*/false);
  FakeView view(2, 4);
  slots.Insert(0);
  slots.ApplyTo(view);
  EXPECT_EQ(view.reconfigs(), 1u);
}

TEST(CacheSlots, EvictedSlotReusedFirst) {
  CacheSlots slots;
  slots.Reset(3, 6, true);
  FakeView view(6, 6);
  slots.Insert(0);
  slots.Insert(1);
  slots.ApplyTo(view);
  slots.Evict(0);
  slots.Insert(2);  // must land in 0's slot, leaving no vacated slot
  slots.ApplyTo(view);
  EXPECT_TRUE(slots.CheckInvariants());
  EXPECT_EQ(slots.size(), 2u);
}

TEST(CacheSlots, CachedColorsListMatches) {
  CacheSlots slots;
  slots.Reset(3, 6, false);
  slots.Insert(4);
  slots.Insert(2);
  slots.Evict(4);
  auto cached = slots.cached_colors();
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached[0], 2u);
}

// -------------------------------------------------------------- Ranking ----

TEST(Ranking, NonidleBeforeIdleThenDeadlineDelayColor) {
  ColorRankKey nonidle_early{0, 4, 2, 1};
  ColorRankKey nonidle_late{0, 8, 2, 0};
  ColorRankKey idle_early{1, 2, 2, 0};
  EXPECT_LT(nonidle_early, nonidle_late);
  EXPECT_LT(nonidle_late, idle_early);

  ColorRankKey tie_small_delay{0, 4, 2, 5};
  ColorRankKey tie_big_delay{0, 4, 8, 0};
  EXPECT_LT(tie_small_delay, tie_big_delay);

  ColorRankKey tie_color_a{0, 4, 2, 3};
  ColorRankKey tie_color_b{0, 4, 2, 7};
  EXPECT_LT(tie_color_a, tie_color_b);
}

TEST(Ranking, JobRankKeyOrder) {
  JobRankKey a{4, 2, 0, 0};
  JobRankKey b{4, 4, 0, 1};
  JobRankKey c{5, 1, 0, 2};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

// -------------------------------------------------------------- Par-EDF ----

TEST(ParEdf, ExecutesEverythingWhenCapacitySuffices) {
  InstanceBuilder b;
  ColorId c = b.AddColor(4);
  b.AddJobs(c, 0, 4);
  Instance inst = b.Build();
  auto result = RunParEdf(inst, 1);
  EXPECT_EQ(result.executed, 4u);
  EXPECT_EQ(result.drops, 0u);
}

TEST(ParEdf, DropsWhenOverloaded) {
  InstanceBuilder b;
  ColorId c = b.AddColor(2);
  b.AddJobs(c, 0, 10);  // 10 jobs, 2 executable rounds, m=1
  Instance inst = b.Build();
  auto result = RunParEdf(inst, 1);
  EXPECT_EQ(result.executed, 2u);
  EXPECT_EQ(result.drops, 8u);
}

TEST(ParEdf, MultipleResourcesScaleThroughput) {
  InstanceBuilder b;
  ColorId c = b.AddColor(2);
  b.AddJobs(c, 0, 10);
  Instance inst = b.Build();
  EXPECT_EQ(RunParEdf(inst, 5).executed, 10u);
}

TEST(ParEdf, PrefersEarlierDeadlines) {
  InstanceBuilder b;
  ColorId urgent = b.AddColor(1);
  ColorId relaxed = b.AddColor(8);
  b.AddJob(relaxed, 0);
  b.AddJob(urgent, 0);
  Instance inst = b.Build();
  auto result = RunParEdf(inst, 1);
  // Round 0 executes the urgent job; the relaxed one still fits later.
  EXPECT_EQ(result.drops, 0u);
}

TEST(ParEdf, DropLowerBoundsEnginePolicies) {
  // Par-EDF's drop count is a lower bound on the drops of every feasible
  // m-resource schedule (Lemma 3.7); engine policies produce feasible
  // schedules, so they can never drop less.
  Rng rng(211);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<workload::ColorSpec> specs = {
        {1, 0.7}, {2, 0.7}, {4, 0.5}, {8, 0.4}};
    workload::PoissonOptions gen;
    gen.rounds = 32;
    gen.seed = rng.Next();
    Instance inst = MakePoisson(specs, gen);
    const uint32_t m = 2;
    uint64_t lb = ParEdfDropCost(inst, m);
    for (const char* name : {"greedy-edf", "lazy-greedy", "static"}) {
      auto policy = MakePolicy(name);
      EngineOptions options;
      options.num_resources = m;
      RunResult r = RunPolicy(inst, *policy, options);
      EXPECT_GE(r.cost.drops, lb) << name << " trial " << trial;
    }
  }
}

// ------------------------------------------------------------- Policies ----

TEST(EdfPolicy, CachesEarliestDeadlineNonidleColors) {
  // Two colors, capacity for one (n=2 -> P=1). The D=2 color has the earlier
  // color deadline and must win the slot.
  InstanceBuilder b;
  ColorId fast = b.AddColor(2);
  ColorId slow = b.AddColor(8);
  b.AddJobs(fast, 0, 2);
  b.AddJobs(slow, 0, 2);
  Instance inst = b.Build();

  EdfPolicy policy(true);
  EngineOptions options;
  options.num_resources = 2;
  options.cost_model.delta = 1;  // every job wraps its counter immediately
  RunResult r = RunPolicy(inst, policy, options);
  // The fast color (deadline 2) is executed in round 0 on both locations.
  EXPECT_EQ(r.drops_per_color[fast], 0u);
}

TEST(SeqEdfPolicy, UsesAllCapacityDistinct) {
  InstanceBuilder b;
  ColorId c0 = b.AddColor(2);
  ColorId c1 = b.AddColor(2);
  b.AddJobs(c0, 0, 2);
  b.AddJobs(c1, 0, 2);
  Instance inst = b.Build();

  EdfPolicy policy(/*replicate=*/false);
  EngineOptions options;
  options.num_resources = 2;
  options.cost_model.delta = 1;
  RunResult r = RunPolicy(inst, policy, options);
  // Two distinct colors cached on two resources: each executes both its jobs
  // in rounds 0 and 1.
  EXPECT_EQ(r.executed, 4u);
  EXPECT_EQ(r.cost.drops, 0u);
}

TEST(DlruPolicy, KeepsRecentIdleColorCachedUnderutilizing) {
  // Appendix A in miniature: ΔLRU pins short-term colors with fresh
  // timestamps even while they are idle, dropping the long-term backlog.
  auto adv = workload::MakeDlruAdversary(/*n=*/4, /*delta=*/2, /*j=*/3,
                                         /*k=*/7);
  DlruPolicy dlru;
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 2;
  RunResult r = RunPolicy(adv.instance, dlru, options);
  // All 2^7 long-term jobs are dropped.
  EXPECT_EQ(r.drops_per_color[adv.long_color], uint64_t{1} << 7);
}

TEST(DlruEdfPolicy, ServesLongColorWhereDlruDoesNot) {
  auto adv = workload::MakeDlruAdversary(4, 2, 3, 7);
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 2;

  DlruPolicy dlru;
  RunResult dlru_run = RunPolicy(adv.instance, dlru, options);
  DlruEdfPolicy combined;
  RunResult combined_run = RunPolicy(adv.instance, combined, options);

  EXPECT_LT(combined_run.drops_per_color[adv.long_color],
            dlru_run.drops_per_color[adv.long_color]);
  EXPECT_LT(combined_run.total_cost(options.cost_model),
            dlru_run.total_cost(options.cost_model));
}

TEST(DlruEdfPolicy, AvoidsEdfThrashing) {
  auto adv = workload::MakeEdfAdversary(/*n=*/4, /*delta=*/5, /*j=*/3,
                                        /*k=*/7);
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 5;

  EdfPolicy edf(true);
  RunResult edf_run = RunPolicy(adv.instance, edf, options);
  DlruEdfPolicy combined;
  RunResult combined_run = RunPolicy(adv.instance, combined, options);

  EXPECT_LT(combined_run.cost.reconfigurations, edf_run.cost.reconfigurations);
}

TEST(DlruEdfPolicy, CountersExported) {
  auto adv = workload::MakeDlruAdversary(4, 2, 3, 6);
  DlruEdfPolicy policy;
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 2;
  RunResult r = RunPolicy(adv.instance, policy, options);
  EXPECT_TRUE(r.telemetry.counters.count("num_epochs"));
  EXPECT_TRUE(r.telemetry.counters.count("eligible_drops"));
  EXPECT_EQ(r.telemetry.counters["eligible_drops"] +
                r.telemetry.counters["ineligible_drops"],
            static_cast<double>(r.cost.drops));
}

TEST(DlruEdfPolicy, Lemma33ReconfigBound) {
  // ReconfigCost <= 4 * numEpochs * Δ (Lemma 3.3) across random inputs.
  Rng rng(223);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<workload::ColorSpec> specs = {
        {1, 0.5}, {2, 0.5}, {4, 0.5}, {8, 0.5}, {16, 0.4}};
    workload::BurstyOptions gen;
    gen.rounds = 256;
    gen.rate_limited = true;
    gen.seed = rng.Next();
    Instance inst = MakeBursty(specs, gen);
    DlruEdfPolicy policy;
    EngineOptions options;
    options.num_resources = 8;
    options.cost_model.delta = 3;
    RunResult r = RunPolicy(inst, policy, options);
    EXPECT_LE(r.cost.reconfig_cost(options.cost_model),
              4 * policy.num_epochs() * options.cost_model.delta)
        << "trial " << trial;
  }
}

TEST(DlruEdfPolicy, Lemma34IneligibleDropBound) {
  // IneligibleDropCost <= numEpochs * Δ (Lemma 3.4).
  Rng rng(227);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<workload::ColorSpec> specs = {
        {2, 0.6}, {4, 0.6}, {8, 0.4}, {16, 0.3}};
    workload::PoissonOptions gen;
    gen.rounds = 256;
    gen.rate_limited = true;
    gen.seed = rng.Next();
    Instance inst = MakePoisson(specs, gen);
    DlruEdfPolicy policy;
    EngineOptions options;
    options.num_resources = 8;
    options.cost_model.delta = 4;
    RunResult r = RunPolicy(inst, policy, options);
    EXPECT_LE(policy.ineligible_drop_cost(),
              policy.num_epochs() * options.cost_model.delta)
        << "trial " << trial;
  }
}

TEST(DlruEdfPolicy, IneligibleJobCollection) {
  auto adv = workload::MakeDlruAdversary(4, 2, 3, 6);
  DlruEdfPolicy policy;
  policy.set_collect_ineligible_jobs(true);
  EngineOptions options;
  options.num_resources = 4;
  options.cost_model.delta = 2;
  RunResult r = RunPolicy(adv.instance, policy, options);
  (void)r;
  EXPECT_EQ(policy.ineligible_job_ids().size(), policy.ineligible_drop_cost());
}

TEST(GreedyEdfPolicy, ServesUrgentFirst) {
  InstanceBuilder b;
  ColorId urgent = b.AddColor(1);
  ColorId relaxed = b.AddColor(16);
  b.AddJob(urgent, 0);
  b.AddJobs(relaxed, 0, 4);
  Instance inst = b.Build();
  GreedyEdfPolicy policy;
  EngineOptions options;
  options.num_resources = 1;
  RunResult r = RunPolicy(inst, policy, options);
  EXPECT_EQ(r.drops_per_color[urgent], 0u);
  EXPECT_EQ(r.cost.drops, 0u);  // plenty of time for the relaxed jobs after
}

TEST(LazyGreedyPolicy, ThresholdSuppressesSmallBursts) {
  InstanceBuilder b;
  ColorId c = b.AddColor(4);
  b.AddJobs(c, 0, 2);  // backlog 2 < threshold 3: never configured
  Instance inst = b.Build();
  LazyGreedyPolicy policy(3);
  EngineOptions options;
  options.num_resources = 1;
  RunResult r = RunPolicy(inst, policy, options);
  EXPECT_EQ(r.executed, 0u);
  EXPECT_EQ(r.cost.reconfigurations, 0u);
}

TEST(LazyGreedyPolicy, KeepsServingCurrentColor) {
  InstanceBuilder b;
  ColorId a = b.AddColor(16);
  ColorId z = b.AddColor(16);
  b.AddJobs(a, 0, 4);
  b.AddJobs(z, 0, 4);
  Instance inst = b.Build();
  LazyGreedyPolicy policy(1);
  EngineOptions options;
  options.num_resources = 1;
  RunResult r = RunPolicy(inst, policy, options);
  // One resource serves 8 jobs in 8 rounds (all deadlines 16): 2 reconfigs.
  EXPECT_EQ(r.executed, 8u);
  EXPECT_EQ(r.cost.reconfigurations, 2u);
}

TEST(LookaheadPolicy, ZeroWindowStillServesPending) {
  InstanceBuilder b;
  ColorId c = b.AddColor(8);
  b.AddJobs(c, 0, 4);
  Instance inst = b.Build();
  LookaheadGreedyPolicy::Params params;
  params.window = 0;
  LookaheadGreedyPolicy policy(params);
  EngineOptions options;
  options.num_resources = 1;
  options.cost_model.delta = 1;
  RunResult r = RunPolicy(inst, policy, options);
  EXPECT_EQ(r.executed, 4u);
  EXPECT_EQ(r.cost.drops, 0u);
}

TEST(LookaheadPolicy, FutureKnowledgeCutsReconfigurationsDeterministic) {
  // Fixed-seed bursty traffic: seeing future arrivals lets the policy keep
  // colors it will need again (hysteresis + anticipation), so W = 16 must
  // beat W = 0 on this deterministic instance — the E14 effect, pinned.
  std::vector<workload::ColorSpec> specs = {
      {2, 0.7}, {4, 0.7}, {8, 0.5}, {16, 0.4}, {32, 0.3}};
  workload::BurstyOptions gen;
  gen.rounds = 512;
  gen.p_off_to_on = 0.03;
  gen.p_on_to_off = 0.1;
  gen.seed = 53;
  Instance inst = MakeBursty(specs, gen);

  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 8;
  LookaheadGreedyPolicy::Params p0, p16;
  p0.window = 0;
  p16.window = 16;
  LookaheadGreedyPolicy blind(p0), sighted(p16);
  RunResult r0 = RunPolicy(inst, blind, options);
  RunResult r16 = RunPolicy(inst, sighted, options);
  EXPECT_LT(r16.total_cost(options.cost_model),
            r0.total_cost(options.cost_model));
  EXPECT_LT(r16.cost.reconfigurations, r0.cost.reconfigurations);
}

TEST(LookaheadPolicy, MoreLookaheadNeverWorseOnAverage) {
  // Not a pointwise guarantee, but across seeds the mean cost with W=16
  // must not exceed the mean cost with W=0 on bursty traffic.
  Rng rng(229);
  double cost_w0 = 0, cost_w16 = 0;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<workload::ColorSpec> specs = {
        {2, 0.7}, {4, 0.6}, {8, 0.5}, {16, 0.4}};
    workload::BurstyOptions gen;
    gen.rounds = 256;
    gen.seed = rng.Next();
    Instance inst = MakeBursty(specs, gen);
    EngineOptions options;
    options.num_resources = 4;
    options.cost_model.delta = 6;
    LookaheadGreedyPolicy::Params p0, p16;
    p0.window = 0;
    p16.window = 16;
    LookaheadGreedyPolicy a(p0), b(p16);
    cost_w0 += static_cast<double>(
        RunPolicy(inst, a, options).total_cost(options.cost_model));
    cost_w16 += static_cast<double>(
        RunPolicy(inst, b, options).total_cost(options.cost_model));
  }
  EXPECT_LE(cost_w16, cost_w0 * 1.05);
}

TEST(DsSeqEdf, Lemma39SubsequenceMonotonicity) {
  // Lemma 3.9: if DS-Seq-EDF executes j jobs on a subsequence α of σ, it
  // executes at least j jobs on σ. Verified over random (σ, α) pairs.
  Rng rng(233);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<workload::ColorSpec> specs = {
        {1, 0.6}, {2, 0.6}, {4, 0.5}, {8, 0.4}};
    workload::PoissonOptions gen;
    gen.rounds = 48;
    gen.rate_limited = true;
    gen.seed = rng.Next();
    Instance sigma = MakePoisson(specs, gen);
    if (sigma.num_jobs() == 0) continue;

    // Random subsequence α: drop each job with probability 0.4.
    InstanceBuilder ab;
    for (ColorId c = 0; c < sigma.num_colors(); ++c) {
      ab.AddColor(sigma.delay_bound(c));
    }
    for (const Job& j : sigma.jobs()) {
      if (!rng.Bernoulli(0.4)) ab.AddJob(j.color, j.arrival);
    }
    Instance alpha = ab.Build();

    EngineOptions options;
    options.num_resources = 2;
    options.mini_rounds_per_round = 2;  // double speed
    options.cost_model.delta = 2;
    EdfPolicy on_alpha(/*replicate=*/false), on_sigma(false);
    uint64_t executed_alpha = RunPolicy(alpha, on_alpha, options).executed;
    uint64_t executed_sigma = RunPolicy(sigma, on_sigma, options).executed;
    EXPECT_GE(executed_sigma, executed_alpha) << "trial " << trial;
  }
}

TEST(Registry, AllNamesConstruct) {
  for (const std::string& name : PolicyNames()) {
    auto policy = MakePolicy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name().substr(0, 3), name.substr(0, 3));
  }
  EXPECT_EQ(MakePolicy("no-such-policy"), nullptr);
}

}  // namespace
}  // namespace rrs
