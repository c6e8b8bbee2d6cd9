// ChaosFleetRunner differential suite: a fleet run under kill/evict/delay/
// rebalance churn must produce per-tenant RunResults bit-identical to a
// fault-free FleetRunner run of the same jobs — at every thread count,
// because the fault plan is a pure function of (jobs, seed) and checkpoint/
// restore is exact.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "fleet/chaos_fleet.h"
#include "fleet/fleet_runner.h"
#include "fleet/slo.h"
#include "obs/flight_recorder.h"
#include "obs/scope.h"
#include "parallel/thread_pool.h"
#include "sched/registry.h"
#include "workload/generator_spec.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

Instance ChaosTenant(uint64_t seed, Round rounds = 96) {
  std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

void ExpectSameRunResult(const RunResult& got, const RunResult& want,
                         const std::string& label) {
  EXPECT_EQ(got.cost.reconfigurations, want.cost.reconfigurations) << label;
  EXPECT_EQ(got.cost.drops, want.cost.drops) << label;
  EXPECT_EQ(got.cost.weighted_drops, want.cost.weighted_drops) << label;
  EXPECT_EQ(got.executed, want.executed) << label;
  EXPECT_EQ(got.arrived, want.arrived) << label;
  EXPECT_EQ(got.rounds_simulated, want.rounds_simulated) << label;
  EXPECT_EQ(got.drops_per_color, want.drops_per_color) << label;
  EXPECT_EQ(got.telemetry.counters, want.telemetry.counters) << label;
}

struct Workload {
  std::vector<Instance> tenants;
  std::vector<fleet::FleetJob> jobs;
};

Workload MakeWorkload(size_t num_tenants) {
  Workload w;
  for (size_t i = 0; i < num_tenants; ++i) {
    // Varied lengths so tenants finish on different ticks and the fault
    // injector sees fleets of changing size.
    w.tenants.push_back(ChaosTenant(500 + i, 48 + 16 * (i % 5)));
  }
  for (size_t i = 0; i < num_tenants; ++i) {
    fleet::FleetJob job;
    job.instance = &w.tenants[i];
    job.options.num_resources = 8;
    job.options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
    w.jobs.push_back(job);
  }
  return w;
}

// Fault-free oracle through the plain FleetRunner (itself pinned against
// fresh engines by fleet_test.cpp).
std::vector<RunResult> FaultFreeOracle(const Workload& w) {
  fleet::FleetOptions options;
  options.num_shards = 1;
  return fleet::FleetRunner(options).RunAll(w.jobs);
}

fleet::ChaosOptions AggressiveChaos(ThreadPool* pool) {
  fleet::ChaosOptions options;
  options.pool = pool;
  options.num_workers = 4;
  options.rounds_per_tick = 8;  // many tick barriers => many fault points
  options.seed = 0xfeed;
  options.kill_worker_prob = 0.4;
  options.evict_prob = 0.7;
  options.rebalance_prob = 0.4;
  options.delayed_restore_prob = 0.6;
  options.max_restore_delay_ticks = 3;
  return options;
}

// ---- Differential vs fault-free, 0/1/2/8 threads -------------------------

class ChaosDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(ChaosDifferential, ResultsMatchFaultFreeRun) {
  const size_t threads = GetParam();
  Workload w = MakeWorkload(24);
  std::vector<RunResult> oracle = FaultFreeOracle(w);

  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  fleet::ChaosFleetRunner runner(AggressiveChaos(pool.get()));
  std::vector<RunResult> chaotic = runner.RunAll(w.jobs);

  ASSERT_EQ(chaotic.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    ExpectSameRunResult(chaotic[i], oracle[i],
                        "tenant " + std::to_string(i) + " threads=" +
                            std::to_string(threads));
  }

  // The plan must actually have fired: at least three distinct fault kinds.
  const fleet::ChaosStats stats = runner.stats();
  EXPECT_GT(stats.kills, 0u) << "threads=" << threads;
  EXPECT_GT(stats.evictions, 0u) << "threads=" << threads;
  EXPECT_GT(stats.delayed_restores, 0u) << "threads=" << threads;
  EXPECT_GT(stats.restores, 0u) << "threads=" << threads;
  EXPECT_EQ(stats.sessions_completed, w.jobs.size());
}

// Same differential with the full observability plane attached: SLO tracking
// and the flight recorder are pure observation, so per-tenant results must
// stay bit-identical — and the SLO totals themselves are checked against the
// oracle's (thread-count-invariant) drop counts.
TEST_P(ChaosDifferential, ResultsMatchWithSloAndFlightRecorderEnabled) {
  const size_t threads = GetParam();
  Workload w = MakeWorkload(24);
  std::vector<RunResult> oracle = FaultFreeOracle(w);

  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  obs::Scope scope;
  fleet::SloTracker slo;
  obs::FlightRecorder recorder;
  fleet::ChaosOptions options = AggressiveChaos(pool.get());
  options.scope = &scope;
  options.slo = &slo;
  options.recorder = &recorder;
  fleet::ChaosFleetRunner runner(options);
  std::vector<RunResult> chaotic = runner.RunAll(w.jobs);

  ASSERT_EQ(chaotic.size(), oracle.size());
  uint64_t oracle_misses = 0;
  for (size_t i = 0; i < oracle.size(); ++i) {
    ExpectSameRunResult(chaotic[i], oracle[i],
                        "tenant " + std::to_string(i) + " threads=" +
                            std::to_string(threads));
    oracle_misses += oracle[i].cost.drops;
  }

  const fleet::SloTracker::Snapshot totals = slo.SnapshotTotals();
  EXPECT_EQ(totals.tenants_seen, w.jobs.size());
  EXPECT_EQ(totals.tenants_finished, w.jobs.size());
  EXPECT_EQ(totals.misses, oracle_misses);
  EXPECT_EQ(totals.miss_delay.count(), oracle_misses);
  EXPECT_EQ(totals.tenants_out_of_budget, 0);  // every window closed by Finish
  EXPECT_GT(recorder.num_rings(), 0u);  // coordinator + worker rings exist

  const auto values = scope.registry().Values();
  EXPECT_EQ(values.at("fleet.slo.tenants_finished"),
            static_cast<double>(w.jobs.size()));
  EXPECT_EQ(values.at("fleet.slo.misses"),
            static_cast<double>(oracle_misses));
}

// Streaming tenants under the same plan: a checkpoint carries the source's
// sections after the engine's, so `make_source` and `source_spec` tenants
// resume exactly on any worker.
TEST_P(ChaosDifferential, StreamingTenantsMatchFaultFreeRun) {
  const size_t threads = GetParam();
  constexpr size_t kTenants = 24;
  std::vector<workload::GeneratorSpec> specs;
  for (size_t i = 0; i < kTenants; ++i) {
    workload::PoissonOptions gen;
    gen.rounds = 48 + 16 * static_cast<Round>(i % 5);
    gen.seed = 700 + i;
    specs.push_back(workload::PoissonSpec(
        {{1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}}, gen));
  }
  std::vector<fleet::FleetJob> jobs(kTenants);
  for (size_t i = 0; i < kTenants; ++i) {
    if (i % 2 == 0) {
      jobs[i].make_source = [&specs, i] {
        return workload::MakeSource(specs[i]);
      };
    } else {
      jobs[i].source_spec = &specs[i];
    }
    jobs[i].options.num_resources = 8;
    jobs[i].options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
  }
  fleet::FleetOptions oracle_options;
  oracle_options.num_shards = 1;
  std::vector<RunResult> oracle =
      fleet::FleetRunner(oracle_options).RunAll(jobs);

  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  fleet::ChaosFleetRunner runner(AggressiveChaos(pool.get()));
  std::vector<RunResult> chaotic = runner.RunAll(jobs);

  ASSERT_EQ(chaotic.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    ExpectSameRunResult(chaotic[i], oracle[i],
                        "streaming tenant " + std::to_string(i) +
                            " threads=" + std::to_string(threads));
  }
  const fleet::ChaosStats stats = runner.stats();
  EXPECT_GT(stats.kills, 0u) << "threads=" << threads;
  EXPECT_GT(stats.restores, 0u) << "threads=" << threads;
  EXPECT_EQ(stats.sessions_completed, kTenants);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ChaosDifferential,
                         ::testing::Values(0, 1, 2, 8),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// ---- Fault plan determinism ----------------------------------------------

TEST(ChaosFleet, FaultPlanIsIdenticalAcrossThreadCounts) {
  Workload w = MakeWorkload(16);

  fleet::ChaosFleetRunner serial(AggressiveChaos(nullptr));
  serial.RunAll(w.jobs);
  const fleet::ChaosStats a = serial.stats();

  ThreadPool pool(8);
  fleet::ChaosFleetRunner threaded(AggressiveChaos(&pool));
  threaded.RunAll(w.jobs);
  const fleet::ChaosStats b = threaded.stats();

  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.delayed_restores, b.delayed_restores);
  EXPECT_EQ(a.rebalances, b.rebalances);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.noop_faults, b.noop_faults);
  EXPECT_EQ(a.snapshot_words, b.snapshot_words);
  EXPECT_EQ(a.rounds_stepped, b.rounds_stepped);
}

// Every ChaosStats field of the AggressiveChaos plan over ChaosDifferential's
// fleet, pinned exactly so a change to the tenant lifecycle cannot move it
// silently; the values hold at any thread count.
TEST(ChaosFleet, StatsArePinned) {
  Workload w = MakeWorkload(24);
  for (size_t threads : {0u, 2u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    fleet::ChaosFleetRunner runner(AggressiveChaos(pool.get()));
    runner.RunAll(w.jobs);
    const fleet::ChaosStats stats = runner.stats();
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(stats.ticks, 22u) << label;
    EXPECT_EQ(stats.kills, 4u) << label;
    EXPECT_EQ(stats.evictions, 14u) << label;
    EXPECT_EQ(stats.delayed_restores, 4u) << label;
    EXPECT_EQ(stats.rebalances, 0u) << label;
    EXPECT_EQ(stats.restores, 35u) << label;
    EXPECT_EQ(stats.migrations, 32u) << label;
    EXPECT_EQ(stats.noop_faults, 13u) << label;
    EXPECT_EQ(stats.snapshot_words, 7578u) << label;
    EXPECT_EQ(stats.sessions_completed, 24u) << label;
    EXPECT_EQ(stats.rounds_stepped, 2224u) << label;
  }
}

// Per-shard SLO state — including which window each miss landed in and the
// worst-burn rankings — is a pure function of (jobs, seed), so two runs at
// different thread counts must agree field for field, shard by shard.
TEST(ChaosFleet, SloStateIsIdenticalAcrossThreadCounts) {
  Workload w = MakeWorkload(16);

  fleet::SloTracker slo_serial;
  fleet::ChaosOptions serial_options = AggressiveChaos(nullptr);
  serial_options.slo = &slo_serial;
  fleet::ChaosFleetRunner(serial_options).RunAll(w.jobs);

  ThreadPool pool(8);
  fleet::SloTracker slo_threaded;
  fleet::ChaosOptions threaded_options = AggressiveChaos(&pool);
  threaded_options.slo = &slo_threaded;
  fleet::ChaosFleetRunner(threaded_options).RunAll(w.jobs);

  ASSERT_EQ(slo_serial.num_shards(), slo_threaded.num_shards());
  for (size_t s = 0; s < slo_serial.num_shards(); ++s) {
    const fleet::SloTracker::Snapshot a = slo_serial.SnapshotShard(s);
    const fleet::SloTracker::Snapshot b = slo_threaded.SnapshotShard(s);
    EXPECT_EQ(a.observations, b.observations) << "shard " << s;
    EXPECT_EQ(a.rounds, b.rounds) << "shard " << s;
    EXPECT_EQ(a.misses, b.misses) << "shard " << s;
    EXPECT_EQ(a.windows_closed, b.windows_closed) << "shard " << s;
    EXPECT_EQ(a.windows_breached, b.windows_breached) << "shard " << s;
    EXPECT_EQ(a.exhausted_events, b.exhausted_events) << "shard " << s;
    EXPECT_EQ(a.tenants_seen, b.tenants_seen) << "shard " << s;
    EXPECT_EQ(a.tenants_finished, b.tenants_finished) << "shard " << s;
    EXPECT_EQ(a.tenants_out_of_budget, b.tenants_out_of_budget)
        << "shard " << s;
    EXPECT_EQ(a.miss_delay.count(), b.miss_delay.count()) << "shard " << s;
    EXPECT_EQ(a.miss_delay.sum(), b.miss_delay.sum()) << "shard " << s;
    ASSERT_EQ(a.top.size(), b.top.size()) << "shard " << s;
    for (size_t i = 0; i < a.top.size(); ++i) {
      EXPECT_EQ(a.top[i].tenant, b.top[i].tenant) << "shard " << s;
      EXPECT_EQ(a.top[i].window_misses, b.top[i].window_misses)
          << "shard " << s;
    }
  }
}

// ---- Alternate policies through the chaos path ---------------------------

class ChaosEveryPolicy : public ::testing::TestWithParam<std::string> {};

TEST_P(ChaosEveryPolicy, RestoredTenantsMatchFaultFreeRun) {
  const std::string name = GetParam();
  Workload w = MakeWorkload(12);

  fleet::FleetOptions oracle_options;
  oracle_options.num_shards = 1;
  oracle_options.policy_factory = [&name] { return MakePolicy(name); };
  std::vector<RunResult> oracle =
      fleet::FleetRunner(oracle_options).RunAll(w.jobs);

  fleet::ChaosOptions chaos = AggressiveChaos(nullptr);
  chaos.policy_factory = [&name] { return MakePolicy(name); };
  fleet::ChaosFleetRunner runner(chaos);
  std::vector<RunResult> chaotic = runner.RunAll(w.jobs);

  for (size_t i = 0; i < oracle.size(); ++i) {
    ExpectSameRunResult(chaotic[i], oracle[i],
                        name + " tenant " + std::to_string(i));
  }
  EXPECT_GT(runner.stats().restores, 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ChaosEveryPolicy,
                         ::testing::ValuesIn(PolicyNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- Counters surface through obs ----------------------------------------

TEST(ChaosFleet, CountersAbsorbIntoScope) {
  Workload w = MakeWorkload(8);
  obs::Scope scope;

  fleet::ChaosOptions options = AggressiveChaos(nullptr);
  options.scope = &scope;
  fleet::ChaosFleetRunner runner(options);
  runner.RunAll(w.jobs);

  const auto values = scope.registry().Values();
  EXPECT_GT(values.at("fleet.chaos.ticks"), 0.0);
  EXPECT_GT(values.at("fleet.chaos.restores"), 0.0);
  EXPECT_EQ(values.at("fleet.chaos.sessions_completed"),
            static_cast<double>(w.jobs.size()));
}

}  // namespace
}  // namespace rrs
