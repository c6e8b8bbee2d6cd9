// Session-reuse differential suite: the core/session.h contract says a run
// through a reused (Reset) session or a pooled fleet session is
// bit-identical to a run through a freshly constructed engine. This file
// pins that, for every registry policy, for the FleetRunner at 0/1/2/8
// threads, for the pipeline session, and for the OnlineSolver.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "fleet/fleet_runner.h"
#include "fleet/tenant_host.h"
#include "parallel/thread_pool.h"
#include "reduce/distribute.h"
#include "reduce/online.h"
#include "reduce/pipeline.h"
#include "reduce/varbatch.h"
#include "sched/dlru_edf.h"
#include "sched/registry.h"
#include "workload/generator_spec.h"
#include "workload/synthetic.h"

namespace rrs {
namespace {

Instance FleetTenant(uint64_t seed, Round rounds = 96) {
  std::vector<workload::ColorSpec> specs = {
      {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
  workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  return MakePoisson(specs, gen);
}

// Bit-identical RunResult comparison over everything deterministic (phase
// wall times excluded).
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

// ---- One session object, many tenants, every registry policy -------------

TEST(SessionReuse, EveryRegistryPolicyIsLeakFreeAcrossResets) {
  std::vector<Instance> tenants;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    tenants.push_back(FleetTenant(seed));
  }

  for (const std::string& name : PolicyNames()) {
    // Oracle: fresh engine + fresh policy per tenant.
    std::vector<RunResult> fresh;
    for (size_t i = 0; i < tenants.size(); ++i) {
      EngineOptions options;
      options.num_resources = 8;
      options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
      auto policy = MakePolicy(name);
      ASSERT_NE(policy, nullptr) << name;
      fresh.push_back(RunPolicy(tenants[i], *policy, options));
    }

    // One engine session + one policy object reused across all tenants.
    Engine engine;
    auto policy = MakePolicy(name);
    for (size_t i = 0; i < tenants.size(); ++i) {
      EngineOptions options;
      options.num_resources = 8;
      options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
      engine.Reset(tenants[i], options);
      RunResult reused = engine.Run(*policy);
      ExpectSameRunResult(reused, fresh[i],
                          name + " tenant " + std::to_string(i));
    }
  }
}

TEST(SessionReuse, ShapeCanShrinkAndGrowBetweenTenants) {
  // Alternate between wide and narrow shapes so the session arena both
  // grows and serves smaller tenants from oversized buffers.
  std::vector<Instance> tenants = {FleetTenant(11, 32), FleetTenant(12, 256),
                                   FleetTenant(13, 16), FleetTenant(14, 128)};
  Engine engine;
  DlruEdfPolicy reused_policy;
  for (size_t i = 0; i < tenants.size(); ++i) {
    EngineOptions options;
    options.num_resources = 4 + 4 * static_cast<uint32_t>(i % 2);
    options.cost_model.delta = 3;
    DlruEdfPolicy fresh_policy;
    RunResult fresh = RunPolicy(tenants[i], fresh_policy, options);
    engine.Reset(tenants[i], options);
    ExpectSameRunResult(engine.Run(reused_policy), fresh,
                        "shape tenant " + std::to_string(i));
  }
}

// ---- FleetRunner differential, 0/1/2/8 threads ---------------------------

class FleetDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(FleetDifferential, ReplayFleetMatchesFreshEngines) {
  const size_t threads = GetParam();
  constexpr size_t kTenants = 24;

  std::vector<Instance> tenants;
  std::vector<fleet::FleetJob> jobs;
  std::vector<RunResult> fresh;
  for (size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(FleetTenant(100 + i));
  }
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::FleetJob job;
    job.instance = &tenants[i];
    job.options.num_resources = i % 2 == 0 ? 8 : 4;
    job.options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
    jobs.push_back(job);

    DlruEdfPolicy policy;
    fresh.push_back(RunPolicy(tenants[i], policy, jobs[i].options));
  }

  std::unique_ptr<ThreadPool> pool;
  fleet::FleetOptions options;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  options.num_shards = 3;        // deliberately != thread count
  options.rounds_per_tick = 16;  // force multi-tick interleaving
  fleet::FleetRunner runner(std::move(options));

  std::vector<RunResult> got = runner.RunAll(jobs);
  ASSERT_EQ(got.size(), kTenants);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(got[i], fresh[i],
                        "threads=" + std::to_string(threads) + " tenant " +
                            std::to_string(i));
  }

  const fleet::FleetStats stats = runner.stats();
  EXPECT_EQ(stats.sessions_completed, kTenants);
  EXPECT_GT(stats.ticks, 0u);

  // A second fleet through the same runner starts from warm pools and is
  // still bit-identical.
  std::vector<RunResult> again = runner.RunAll(jobs);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(again[i], fresh[i],
                        "rerun tenant " + std::to_string(i));
  }
  // The warm rerun served every tenant from recycled sessions: no pool
  // growth beyond the first fleet's high-water mark.
  const fleet::FleetStats warm = runner.stats();
  EXPECT_GT(warm.sessions_recycled, 0u);
  EXPECT_EQ(warm.sessions_created, stats.sessions_created);
}

TEST_P(FleetDifferential, PipelineFleetMatchesSolveOnline) {
  const size_t threads = GetParam();
  constexpr size_t kTenants = 8;

  std::vector<Instance> tenants;
  for (size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(FleetTenant(200 + i, 64));
  }

  std::vector<fleet::FleetJob> jobs;
  std::vector<CostBreakdown> fresh_cost;
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::FleetJob job;
    job.instance = &tenants[i];
    job.options.num_resources = 8;
    job.options.cost_model.delta = 3;
    job.kind = fleet::FleetJob::Kind::kPipeline;
    jobs.push_back(job);
    fresh_cost.push_back(
        reduce::SolveOnline(tenants[i], job.options).cost());
  }

  std::unique_ptr<ThreadPool> pool;
  fleet::FleetOptions options;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    options.pool = pool.get();
  }
  fleet::FleetRunner runner(std::move(options));
  std::vector<RunResult> got = runner.RunAll(jobs);
  for (size_t i = 0; i < kTenants; ++i) {
    EXPECT_EQ(got[i].cost.reconfigurations, fresh_cost[i].reconfigurations)
        << i;
    EXPECT_EQ(got[i].cost.drops, fresh_cost[i].drops) << i;
    EXPECT_EQ(got[i].arrived, tenants[i].num_jobs()) << i;
    EXPECT_EQ(got[i].executed, got[i].arrived - got[i].cost.drops) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, FleetDifferential,
                         ::testing::Values(0u, 1u, 2u, 8u));

TEST(FleetRunner, LiveSessionCapBoundsConcurrency) {
  constexpr size_t kTenants = 12;
  std::vector<Instance> tenants;
  std::vector<fleet::FleetJob> jobs;
  for (size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(FleetTenant(300 + i, 48));
  }
  std::vector<RunResult> fresh;
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::FleetJob job;
    job.instance = &tenants[i];
    job.options.num_resources = 8;
    job.options.cost_model.delta = 2;
    jobs.push_back(job);
    DlruEdfPolicy policy;
    fresh.push_back(RunPolicy(tenants[i], policy, job.options));
  }

  fleet::FleetOptions options;
  options.num_shards = 1;
  options.max_live_sessions = 3;
  options.rounds_per_tick = 8;
  fleet::FleetRunner runner(std::move(options));
  std::vector<RunResult> got = runner.RunAll(jobs);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(got[i], fresh[i], "capped tenant " + std::to_string(i));
  }
  const fleet::FleetStats stats = runner.stats();
  EXPECT_LE(stats.peak_live_sessions, 3u);
  EXPECT_EQ(stats.sessions_completed, kTenants);
  // The pool never needs more sessions than the live cap.
  EXPECT_LE(stats.sessions_created, 3u);
}

// The session economy of FleetDifferential's replay fleet — pool growth,
// recycling, peak concurrency, ticks and rounds — pinned exactly so a
// change to the tenant lifecycle cannot move it silently; the values hold
// at any thread count.
TEST(FleetRunner, SessionEconomyIsPinned) {
  constexpr size_t kTenants = 24;
  std::vector<Instance> tenants;
  std::vector<fleet::FleetJob> jobs;
  for (size_t i = 0; i < kTenants; ++i) {
    tenants.push_back(FleetTenant(100 + i));
  }
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::FleetJob job;
    job.instance = &tenants[i];
    job.options.num_resources = i % 2 == 0 ? 8 : 4;
    job.options.cost_model.delta = 2 + static_cast<uint64_t>(i % 3);
    jobs.push_back(job);
  }

  for (size_t threads : {0u, 2u}) {
    std::unique_ptr<ThreadPool> pool;
    fleet::FleetOptions options;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      options.pool = pool.get();
    }
    options.num_shards = 3;
    options.rounds_per_tick = 16;
    fleet::FleetRunner runner(std::move(options));
    runner.RunAll(jobs);
    const fleet::FleetStats stats = runner.stats();
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(stats.sessions_created, 24u) << label;
    EXPECT_EQ(stats.sessions_recycled, 0u) << label;
    EXPECT_EQ(stats.peak_live_sessions, 8u) << label;
    EXPECT_EQ(stats.ticks, 21u) << label;
    EXPECT_EQ(stats.rounds_stepped, 2600u) << label;
    EXPECT_EQ(stats.batched_sessions, 0u) << label;
    EXPECT_EQ(stats.fallback_sessions, 0u) << label;

    // A warm rerun is served entirely from recycled sessions.
    runner.RunAll(jobs);
    const fleet::FleetStats warm = runner.stats();
    EXPECT_EQ(warm.sessions_created, 24u) << label;
    EXPECT_EQ(warm.sessions_recycled, 24u) << label;
  }
}

// ---- TenantHost: lanes and scalar sessions, checkpoints across both ------

// Tenant i of the host tests: the FleetTenant(500 + i) workload, fed as a
// materialized instance for even i and as a streaming source for odd i.
struct HostTenants {
  explicit HostTenants(size_t count, Round rounds = 96) {
    std::vector<workload::ColorSpec> colors = {
        {1, 0.4}, {2, 0.5}, {4, 0.5}, {8, 0.4}, {16, 0.3}};
    for (size_t i = 0; i < count; ++i) {
      workload::PoissonOptions gen;
      gen.rounds = rounds;
      gen.seed = 500 + i;
      instances.push_back(MakePoisson(colors, gen));
      specs.push_back(workload::PoissonSpec(colors, gen));
    }
    options.num_resources = 4;
    options.cost_model.delta = 2;
  }

  // Admits tenant i into `host`, resuming from `checkpoint` when given.
  bool Admit(fleet::TenantHost& host, size_t i,
             std::span<const uint64_t> checkpoint = {}) const {
    if (i % 2 == 0) {
      return host.Admit(i, &instances[i], nullptr, options, checkpoint);
    }
    return host.Admit(i, nullptr, workload::MakeSource(specs[i]), options,
                      checkpoint);
  }

  // An uninterrupted run in the tenant's own form (a lookahead policy sees
  // no future arrivals on a streaming source).
  RunResult Oracle(size_t i, const std::string& policy) const {
    auto fresh = MakePolicy(policy);
    if (i % 2 == 0) return RunPolicy(instances[i], *fresh, options);
    const auto source = workload::MakeSource(specs[i]);
    Engine engine;
    engine.Reset(*source, options);
    return engine.Run(*fresh);
  }

  std::vector<Instance> instances;
  std::vector<workload::GeneratorSpec> specs;
  EngineOptions options;
};

fleet::TenantHost::PolicyFactory Factory(const std::string& policy) {
  return [policy] { return MakePolicy(policy); };
}

// Steps `host` in buckets of `bucket` rounds until every tenant finished,
// storing each result under its key.
void Drain(fleet::TenantHost& host, Round bucket,
           std::vector<RunResult>& results) {
  while (!host.empty()) {
    host.Step(
        bucket, [](const fleet::TenantHost::TenantView&) {},
        [&](const fleet::TenantHost::TenantView& tenant, RunResult& result) {
          results[tenant.key] = std::move(result);
        });
  }
}

// Moves every live tenant of `from` into `to` through its checkpoint words.
void MoveAll(fleet::TenantHost& from, fleet::TenantHost& to,
             const HostTenants& tenants) {
  while (!from.empty()) {
    const size_t last = from.size() - 1;
    const uint64_t key = from.view(last).key;
    const std::vector<uint64_t> words = from.Checkpoint(last);
    from.Evict(last);
    tenants.Admit(to, key, words);
  }
}

TEST(TenantHost, CheckpointsCrossBetweenLanesAndScalarSessions) {
  constexpr size_t kTenants = 6;
  const HostTenants tenants(kTenants);
  fleet::TenantHost lanes(Factory("dlru-edf"), 8);
  fleet::TenantHost scalar(Factory("dlru-edf"), 0);
  fleet::TenantHost reference(Factory("dlru-edf"), 0);
  for (size_t i = 0; i < kTenants; ++i) {
    EXPECT_TRUE(tenants.Admit(lanes, i));
    EXPECT_FALSE(tenants.Admit(reference, i));
  }
  EXPECT_EQ(lanes.slabs(), 1u);
  auto step = [](fleet::TenantHost& host, Round rounds) {
    host.Step(
        rounds, [](const fleet::TenantHost::TenantView&) {},
        [](const fleet::TenantHost::TenantView&, RunResult&) {
          FAIL() << "no tenant finishes this early";
        });
  };
  step(lanes, 20);
  step(reference, 20);

  // A lane checkpoint is the scalar session's checkpoint, word for word, and
  // the views agree.
  ASSERT_EQ(lanes.size(), kTenants);
  for (size_t i = 0; i < kTenants; ++i) {
    const size_t at = lanes.Find(i);
    ASSERT_LT(at, lanes.size());
    const fleet::TenantHost::TenantView lane = lanes.view(at);
    const fleet::TenantHost::TenantView session = reference.view(i);
    EXPECT_EQ(lane.next_round, 20);
    EXPECT_EQ(lane.next_round, session.next_round);
    EXPECT_EQ(lane.cost.drops, session.cost.drops) << i;
    EXPECT_EQ(lane.cost.reconfigurations, session.cost.reconfigurations);
    EXPECT_EQ(lane.executed, session.executed) << i;
    EXPECT_EQ(lanes.Checkpoint(at), reference.Checkpoint(i)) << i;
  }

  // Lanes -> scalar sessions -> lanes, then run out.
  MoveAll(lanes, scalar, tenants);
  EXPECT_EQ(lanes.slabs(), 0u);
  ASSERT_EQ(scalar.size(), kTenants);
  step(scalar, 12);
  MoveAll(scalar, lanes, tenants);
  EXPECT_EQ(lanes.slabs(), 1u);
  EXPECT_EQ(lanes.batched(), 2 * kTenants);
  std::vector<RunResult> results(kTenants);
  Drain(lanes, 7, results);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(results[i], tenants.Oracle(i, "dlru-edf"),
                        "moved tenant " + std::to_string(i));
  }
}

TEST(TenantHost, RestoresPackIntoSlabsByRound) {
  constexpr size_t kTenants = 6;
  const HostTenants tenants(kTenants);
  // Tenants 0..3 are cut at round 16, 4 and 5 at round 24.
  fleet::TenantHost cutter(Factory("dlru-edf"), 0);
  std::vector<std::vector<uint64_t>> words(kTenants);
  for (size_t i = 0; i < kTenants; ++i) tenants.Admit(cutter, i);
  cutter.Step(
      16, [](const fleet::TenantHost::TenantView&) {},
      [](const fleet::TenantHost::TenantView&, RunResult&) {});
  for (size_t i = 0; i < 4; ++i) words[i] = cutter.Checkpoint(i);
  cutter.Step(
      8, [](const fleet::TenantHost::TenantView&) {},
      [](const fleet::TenantHost::TenantView&, RunResult&) {});
  for (size_t i = 4; i < kTenants; ++i) words[i] = cutter.Checkpoint(i);

  fleet::TenantHost host(Factory("dlru-edf"), 4);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(tenants.Admit(host, i, words[i]));
    EXPECT_EQ(host.slabs(), 1u) << "restore " << i;
  }
  // The round-16 slab is full; a fifth round-16 tenant would open a second
  // one, and so does a restore at another round.
  EXPECT_TRUE(tenants.Admit(host, 4, words[4]));
  EXPECT_EQ(host.slabs(), 2u);
  EXPECT_TRUE(tenants.Admit(host, 5, words[5]));
  EXPECT_EQ(host.slabs(), 2u);
  EXPECT_EQ(host.view(4).next_round, 24);
  EXPECT_EQ(host.view(0).next_round, 16);

  std::vector<RunResult> results(kTenants);
  Drain(host, 16, results);
  EXPECT_EQ(host.slabs(), 0u);
  for (size_t i = 0; i < kTenants; ++i) {
    ExpectSameRunResult(results[i], tenants.Oracle(i, "dlru-edf"),
                        "restored tenant " + std::to_string(i));
  }
}

// Policies without a fused lane kernel run on generic lanes, and their
// checkpoints cross to scalar sessions and back like the fused policy's.
TEST(TenantHost, EveryRegistryPolicyRunsOnLanes) {
  constexpr size_t kTenants = 4;
  const HostTenants tenants(kTenants, 64);
  for (const std::string& policy : PolicyNames()) {
    fleet::TenantHost lanes(Factory(policy), 64);
    fleet::TenantHost scalar(Factory(policy), 0);
    for (size_t i = 0; i < kTenants; ++i) {
      EXPECT_TRUE(tenants.Admit(lanes, i)) << policy;
    }
    lanes.Step(
        24, [](const fleet::TenantHost::TenantView&) {},
        [](const fleet::TenantHost::TenantView&, RunResult&) {});
    MoveAll(lanes, scalar, tenants);
    scalar.Step(
        8, [](const fleet::TenantHost::TenantView&) {},
        [](const fleet::TenantHost::TenantView&, RunResult&) {});
    MoveAll(scalar, lanes, tenants);
    std::vector<RunResult> results(kTenants);
    Drain(lanes, 64, results);
    for (size_t i = 0; i < kTenants; ++i) {
      ExpectSameRunResult(results[i], tenants.Oracle(i, policy),
                          policy + " tenant " + std::to_string(i));
    }
  }
}

// ---- Pipeline session reuse ----------------------------------------------

TEST(PipelineSession, ReusedSessionMatchesFreeFunction) {
  reduce::PipelineSession session;
  for (uint64_t seed = 31; seed <= 35; ++seed) {
    Instance instance = FleetTenant(seed, 64);
    EngineOptions options;
    options.num_resources = 8;
    options.cost_model.delta = 3;
    reduce::PipelineResult fresh = reduce::SolveOnline(instance, options);
    const reduce::PipelineResult& reused = session.SolveOnline(instance,
                                                               options);
    EXPECT_EQ(reused.cost().reconfigurations, fresh.cost().reconfigurations)
        << seed;
    EXPECT_EQ(reused.cost().drops, fresh.cost().drops) << seed;
    EXPECT_EQ(reused.validation.executed, fresh.validation.executed) << seed;
    ExpectSameRunResult(reused.inner, fresh.inner,
                        "pipeline seed " + std::to_string(seed));
  }
  EXPECT_EQ(session.tenants_served(), 5u);
}

// ---- OnlineSolver reset-and-reuse ----------------------------------------

TEST(OnlineSolverSession, ResetAndReuseMatchesSolveOnline) {
  Instance instance = FleetTenant(41, 64);
  ASSERT_GT(instance.num_jobs(), 0u);

  EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 3;

  // Ground truth: the offline pipeline.
  auto pipeline = reduce::SolveOnline(instance, options);

  // Matching subcolor budgets so inner numbering is identical.
  auto varbatch = reduce::VarBatchInstance(instance);
  auto distribute = reduce::DistributeInstance(varbatch.transformed);
  std::vector<reduce::OnlineSolver::ColorSpec> colors;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    colors.push_back(
        {instance.delay_bound(c), distribute.subcolors_per_color[c]});
  }

  reduce::OnlineSolver solver(colors, options);
  auto drive = [&](const Instance& inst) {
    std::vector<std::pair<ColorId, uint64_t>> arrivals;
    for (Round k = 0; k < inst.num_request_rounds(); ++k) {
      arrivals.clear();
      auto jobs = inst.jobs_in_round(k);
      size_t i = 0;
      while (i < jobs.size()) {
        ColorId c = jobs[i].color;
        uint64_t count = 0;
        while (i < jobs.size() && jobs[i].color == c) {
          ++count;
          ++i;
        }
        arrivals.emplace_back(c, count);
      }
      solver.Step(arrivals);
    }
    solver.Finish();
  };

  // Tenant 1: fresh solver equals the pipeline.
  drive(instance);
  EXPECT_EQ(solver.cost().drops, pipeline.cost().drops);
  EXPECT_EQ(solver.cost().reconfigurations,
            pipeline.cost().reconfigurations);
  const uint64_t executed1 = solver.executed();

  // Tenant 2: an empty stream (exercises state clearing on a served solver).
  solver.Reset();
  EXPECT_EQ(solver.current_round(), 0);
  for (int k = 0; k < 8; ++k) solver.Step({});
  solver.Finish();
  EXPECT_EQ(solver.cost().total(options.cost_model), 0u);

  // Tenant 3: the original workload again through the same solver object —
  // identical costs to the fresh run, so nothing leaked through Reset.
  solver.Reset();
  drive(instance);
  EXPECT_EQ(solver.cost().drops, pipeline.cost().drops);
  EXPECT_EQ(solver.cost().reconfigurations,
            pipeline.cost().reconfigurations);
  EXPECT_EQ(solver.executed(), executed1);
  EXPECT_EQ(solver.arrived(), instance.num_jobs());
}

}  // namespace
}  // namespace rrs
