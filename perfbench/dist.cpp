// dist: a DistController with 2 worker processes (3 processes on 4 CPUs)
// serving streaming tenants shipped as GeneratorSpecs, with a checkpoint
// stream, scripted migrations and one scripted worker kill late in the run,
// so failover restores happen inside the timed region. Loads fleet/dist,
// net and snapshot, and the scalar engine inside the workers; bypasses the
// lane kernels.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fleet/dist/controller.h"
#include "fleet/fleet_runner.h"
#include "workload/generator_spec.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kWorkers = 2;
constexpr size_t kTenants = 1024;
constexpr size_t kDistinctSpecs = 16;
constexpr size_t kColors = 16;
constexpr rrs::Round kRounds = 512;
constexpr uint32_t kResources = 8;
constexpr uint64_t kDelta = 4;
// 512 tenants per worker in waves of 128 live sessions, 8 rounds a tick:
// about 4 waves x 68 ticks, so barrier waits are sampled hundreds of times.
constexpr rrs::Round kRoundsPerTick = 8;
constexpr uint64_t kLiveCapPerWorker = 128;
constexpr uint32_t kCheckpointEveryTicks = 8;
// One migration every 8 ticks up to the kill; the kill lands in the last
// wave, so the survivor restores a full wave from checkpoints.
constexpr uint64_t kMigrationEveryTicks = 8;
constexpr uint64_t kKillTick = 212;
constexpr size_t kKilledWorker = 1;

std::vector<rrs::workload::GeneratorSpec> MakeSpecs(uint64_t seed) {
  const rrs::Round delays[] = {1, 2, 4, 8, 16, 32};
  std::vector<rrs::workload::ColorSpec> colors;
  for (size_t c = 0; c < kColors; ++c) colors.push_back({delays[c % 6], 0.5});
  std::vector<rrs::workload::GeneratorSpec> specs;
  for (size_t i = 0; i < kDistinctSpecs; ++i) {
    rrs::workload::PoissonOptions gen;
    gen.rounds = kRounds;
    gen.rate_limited = true;
    gen.seed = SubSeed(seed, i);
    specs.push_back(rrs::workload::PoissonSpec(colors, gen));
  }
  return specs;
}

std::vector<rrs::fleet::FleetJob> MakeJobs(
    const std::vector<rrs::workload::GeneratorSpec>& specs, size_t tenants) {
  std::vector<rrs::fleet::FleetJob> jobs(tenants);
  for (size_t j = 0; j < tenants; ++j) {
    jobs[j].source_spec = &specs[j % specs.size()];
    jobs[j].options.num_resources = kResources;
    jobs[j].options.cost_model.delta = kDelta;
  }
  return jobs;
}

// One fleet lifetime: fork the workers, place the tenants, tick to
// completion under the fault plan, reap the workers.
struct Lifetime {
  double start_s = 0;
  double add_jobs_s = 0;
  double run_s = 0;
  double controller_cpu_s = 0;
  double worker_cpu_s = 0;
  uint64_t rounds = 0;
  rrs::fleet::dist::DistStats stats;
  rrs::CostBreakdown cost;
  uint64_t executed = 0;
};

Lifetime RunLifetime(const std::vector<rrs::fleet::FleetJob>& jobs,
                     const std::vector<Digest>& ref, Report& report) {
  Lifetime life;
  rrs::fleet::dist::DistOptions options;
  options.num_workers = kWorkers;
  options.worker.rounds_per_tick = kRoundsPerTick;
  options.worker.max_live_sessions = kLiveCapPerWorker;
  options.worker.checkpoint_interval_ticks = kCheckpointEveryTicks;
  const double child_cpu0 = CpuSeconds(/*children=*/true);
  std::vector<rrs::RunResult> results;
  {
    rrs::fleet::dist::DistController controller(options);
    std::string error;
    const auto t0 = Clock::now();
    if (!controller.Start(&error)) {
      std::fprintf(stderr, "dist: Start failed: %s\n", error.c_str());
      std::exit(1);
    }
    const auto t1 = Clock::now();
    controller.AddJobs(jobs);
    const auto t2 = Clock::now();
    for (uint64_t tick = kMigrationEveryTicks / 2; tick < kKillTick;
         tick += kMigrationEveryTicks) {
      controller.ScheduleMigration(tick, (tick * 131) % jobs.size(),
                                   (tick / kMigrationEveryTicks) % kWorkers);
    }
    controller.ScheduleKill(kKillTick, kKilledWorker);
    const double cpu0 = CpuSeconds();
    const auto t3 = Clock::now();
    results = controller.Run();
    life.run_s = Seconds(t3, Clock::now());
    life.controller_cpu_s = CpuSeconds() - cpu0;
    life.start_s = Seconds(t0, t1);
    life.add_jobs_s = Seconds(t1, t2);
    life.stats = controller.stats();
    controller.Shutdown();
  }
  life.worker_cpu_s = CpuSeconds(/*children=*/true) - child_cpu0;
  for (size_t j = 0; j < results.size(); ++j) {
    const rrs::RunResult& r = results[j];
    life.rounds += static_cast<uint64_t>(r.rounds_simulated);
    life.cost += r.cost;
    life.executed += r.executed;
    ++report.attempted;
    if (!(DigestOf(r) == ref[j % ref.size()])) {
      report.Fail("dist tenant " + std::to_string(j) + " " +
                  ToString(DigestOf(r)) + " vs reference " +
                  ToString(ref[j % ref.size()]));
    }
  }
  return life;
}

}  // namespace

void RunDist(const Args& args, Report& report) {
  const std::vector<rrs::workload::GeneratorSpec> specs = MakeSpecs(args.seed);
  const std::vector<rrs::fleet::FleetJob> jobs = MakeJobs(specs, kTenants);

  // Reference: an in-process, single-thread FleetRunner over one tenant per
  // distinct spec (tenant j runs spec j % kDistinctSpecs). Migration and
  // failover are bit-identical to an undisturbed run by design.
  std::vector<Digest> ref;
  {
    rrs::fleet::FleetRunner oracle({});
    for (const rrs::RunResult& r :
         oracle.RunAll(MakeJobs(specs, kDistinctSpecs))) {
      ref.push_back(DigestOf(r));
    }
  }

  // Each lifetime starts with its own set-up (Start + AddJobs); the first,
  // untimed one is the warm-up.
  std::vector<double> setup_s;
  Lifetime warm = RunLifetime(jobs, ref, report);
  setup_s.push_back(warm.start_s + warm.add_jobs_s);

  std::vector<Lifetime> lives;
  const auto loop_start = Clock::now();
  do {
    lives.push_back(RunLifetime(jobs, ref, report));
    setup_s.push_back(lives.back().start_s + lives.back().add_jobs_s);
  } while (Seconds(loop_start, Clock::now()) < args.seconds ||
           static_cast<int>(setup_s.size()) < kSetupReps);

  std::vector<double> rates, solves, start_s, add_s, run_s, tick_ms, ctl_cpu,
      worker_cpu, idle;
  for (const Lifetime& l : lives) {
    rates.push_back(static_cast<double>(l.rounds) / l.run_s);
    solves.push_back(static_cast<double>(kTenants) / l.run_s);
    start_s.push_back(l.start_s);
    add_s.push_back(l.add_jobs_s);
    run_s.push_back(l.run_s);
    tick_ms.push_back(l.run_s * 1e3 / static_cast<double>(l.stats.ticks));
    ctl_cpu.push_back(l.controller_cpu_s);
    worker_cpu.push_back(l.worker_cpu_s);
    idle.push_back(1.0 - l.worker_cpu_s /
                             (l.run_s * static_cast<double>(kWorkers)));
  }
  const double rounds_per_s = Median(rates);

  std::vector<double> traced_rates;
  if (args.trace) {
    // Nothing inside the workers can be probed from here (their sources are
    // built from specs in the worker processes); the traced loop repeats
    // the untraced one so the overhead line is measured like the others.
    const auto traced_start = Clock::now();
    do {
      const Lifetime l = RunLifetime(jobs, ref, report);
      traced_rates.push_back(static_cast<double>(l.rounds) / l.run_s);
    } while (Seconds(traced_start, Clock::now()) < args.seconds);
  }
  const double peak_rss = PeakRssMiB();

  report.EndToEnd("rounds_per_s", rounds_per_s);
  report.EndToEnd("solves_per_s", Median(solves));
  report.EndToEnd("setup_s", Median(setup_s));
  report.Layer("peak_rss_mb", peak_rss);

  const Lifetime& l = lives.back();  // counts repeat exactly per lifetime
  report.Layer("dist.start_s", Median(start_s));
  report.Layer("dist.add_jobs_s", Median(add_s));
  report.Layer("dist.run_s", Median(run_s));
  report.Layer("dist.tick_ms", Median(tick_ms));
  report.Layer("dist.ticks", static_cast<double>(l.stats.ticks));
  report.Layer("dist.controller_cpu_s", Median(ctl_cpu));
  report.Layer("dist.worker_cpu_s", Median(worker_cpu));
  report.Layer("dist.worker_idle_share", Median(idle));
  report.Layer("dist.worker_peak_rss_mb", PeakRssMiB(/*children=*/true));
  report.Layer("dist.migrations", static_cast<double>(l.stats.migrations));
  report.Layer("dist.failover_restores",
               static_cast<double>(l.stats.restored_from_checkpoint));
  report.Layer("snapshot.checkpoint_words",
               static_cast<double>(l.stats.checkpoint_words));
  report.Layer("snapshot.checkpoint_bytes",
               static_cast<double>(l.stats.checkpoint_words) * 8.0);
  report.Layer("core.reconfigs", static_cast<double>(l.cost.reconfigurations));
  report.Layer("core.drops", static_cast<double>(l.cost.drops));
  report.Layer("core.executed", static_cast<double>(l.executed));

  char line[320];
  std::snprintf(
      line, sizeof line,
      "dist: %zu lifetimes of %zu tenants x %lld rounds on %zu workers; "
      "%llu ticks, %llu migrations, %llu kills, %llu checkpoint restores, "
      "%llu scratch restarts; largest worker peak RSS %.1f MiB",
      lives.size(), kTenants, static_cast<long long>(kRounds), kWorkers,
      static_cast<unsigned long long>(l.stats.ticks),
      static_cast<unsigned long long>(l.stats.migrations),
      static_cast<unsigned long long>(l.stats.kills),
      static_cast<unsigned long long>(l.stats.restored_from_checkpoint),
      static_cast<unsigned long long>(l.stats.restarted_from_scratch),
      PeakRssMiB(/*children=*/true));
  report.Note(line);

  if (args.trace) TraceOverhead(report, rounds_per_s, Median(traced_rates));
}

}  // namespace perfbench
