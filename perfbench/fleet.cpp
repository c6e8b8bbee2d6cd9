// fleet: many streaming tenants on a FleetRunner with a pool of nproc
// threads, 64-lane batching, a live-session cap and SLO tracking — the
// sharded multi-threaded path a multi-tenant control plane runs. Loads
// BatchEngine and the lane kernels, session pools, source cloning and shard
// parallelism; touches the scalar engine (tail and pipeline tenants) a
// little and dist and offline not at all.
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "fleet/fleet_runner.h"
#include "fleet/slo.h"
#include "obs/flight_recorder.h"
#include "parallel/thread_pool.h"
#include "reduce/pipeline.h"
#include "sched/dlru_edf.h"
#include "workload/source.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kTenants = 4096;
constexpr rrs::Round kRounds = 512;
constexpr uint32_t kResources = 8;
constexpr uint64_t kDelta = 4;
// Most tenants share one 16-color shape, drawn from kMainPrototypes seeds.
constexpr size_t kMainColors = 16;
constexpr size_t kMainPrototypes = 32;
// Every 25th tenant has one of a tail of distinct shapes, too few per shard
// to fill a 64-lane slab; every 50th is a materialized Theorem-3 pipeline
// tenant.
const size_t kTailColors[] = {9, 10, 11, 12, 13, 14, 15, 17};
constexpr size_t kPipelineInstances = 4;
constexpr uint32_t kBatchWidth = 64;
constexpr size_t kLiveCapPerShard = 256;
constexpr rrs::Round kRoundsPerTick = 64;

enum class Kind { kMain, kTail, kPipeline };

Kind KindOf(size_t j) {
  if (j % 50 == 25) return Kind::kPipeline;
  if (j % 25 == 12) return Kind::kTail;
  return Kind::kMain;
}

std::vector<rrs::workload::ColorSpec> Specs(size_t colors) {
  const rrs::Round delays[] = {1, 2, 4, 8, 16, 32};
  std::vector<rrs::workload::ColorSpec> specs;
  for (size_t c = 0; c < colors; ++c) specs.push_back({delays[c % 6], 0.5});
  return specs;
}

struct Inputs {
  std::vector<std::unique_ptr<rrs::workload::ArrivalSource>> main;
  std::vector<std::unique_ptr<rrs::workload::ArrivalSource>> tail;
  std::vector<rrs::Instance> pipeline;

  // The prototype a tenant's source is cloned from (null for pipeline).
  const rrs::workload::ArrivalSource* PrototypeOf(size_t j) const {
    switch (KindOf(j)) {
      case Kind::kMain:
        return main[j % main.size()].get();
      case Kind::kTail:
        return tail[(j / 25) % tail.size()].get();
      case Kind::kPipeline:
        return nullptr;
    }
    return nullptr;
  }
  const rrs::Instance& PipelineOf(size_t j) const {
    return pipeline[(j / 50) % pipeline.size()];
  }
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  rrs::workload::PoissonOptions gen;
  gen.rounds = kRounds;
  gen.rate_limited = true;
  for (size_t i = 0; i < kMainPrototypes; ++i) {
    gen.seed = SubSeed(seed, i);
    in.main.push_back(rrs::workload::MakePoissonSource(Specs(kMainColors), gen));
  }
  for (size_t i = 0; i < std::size(kTailColors); ++i) {
    gen.seed = SubSeed(seed, 100 + i);
    in.tail.push_back(
        rrs::workload::MakePoissonSource(Specs(kTailColors[i]), gen));
  }
  // Pipeline tenants take general (unbatched) arrivals: VarBatch and
  // Distribute turn them into ΔLRU-EDF's input class.
  rrs::workload::PoissonOptions raw;
  raw.rounds = kRounds;
  for (size_t i = 0; i < kPipelineInstances; ++i) {
    raw.seed = SubSeed(seed, 200 + i);
    in.pipeline.push_back(rrs::workload::MakePoisson(Specs(8), raw));
  }
  return in;
}

rrs::EngineOptions Options() {
  rrs::EngineOptions options;
  options.num_resources = kResources;
  options.cost_model.delta = kDelta;
  return options;
}

// Traced runs wrap each tenant's source and time the clone.
struct Probes {
  NanoCounter clone_ns{0};
  NanoCounter emit_ns{0};
};

std::vector<rrs::fleet::FleetJob> MakeJobs(const Inputs& in, Probes* probes) {
  std::vector<rrs::fleet::FleetJob> jobs(kTenants);
  for (size_t j = 0; j < kTenants; ++j) {
    rrs::fleet::FleetJob& job = jobs[j];
    job.options = Options();
    const rrs::workload::ArrivalSource* proto = in.PrototypeOf(j);
    if (proto == nullptr) {
      job.kind = rrs::fleet::FleetJob::Kind::kPipeline;
      job.instance = &in.PipelineOf(j);
    } else if (probes == nullptr) {
      job.make_source = [proto] { return proto->Clone(); };
    } else {
      job.make_source = [proto, probes]()
          -> std::unique_ptr<rrs::workload::ArrivalSource> {
        const auto t0 = Clock::now();
        std::unique_ptr<rrs::workload::ArrivalSource> inner = proto->Clone();
        probes->clone_ns.fetch_add(Nanos(t0, Clock::now()),
                                   std::memory_order_relaxed);
        return std::make_unique<TimedSource>(std::move(inner),
                                             &probes->emit_ns);
      };
    }
  }
  return jobs;
}

// Single-thread oracle: a fresh engine per prototype on the materialized
// stream, and the unpooled pipeline for pipeline tenants.
struct Reference {
  std::vector<Digest> main, tail, pipeline;

  const Digest& Of(size_t j) const {
    switch (KindOf(j)) {
      case Kind::kMain:
        return main[j % main.size()];
      case Kind::kTail:
        return tail[(j / 25) % tail.size()];
      case Kind::kPipeline:
        break;
    }
    return pipeline[(j / 50) % pipeline.size()];
  }
};

Reference MakeReference(const Inputs& in) {
  Reference ref;
  const rrs::EngineOptions options = Options();
  auto replay = [&](const rrs::workload::ArrivalSource& proto) {
    const rrs::Instance instance = rrs::workload::Materialize(*proto.Clone());
    rrs::DlruEdfPolicy policy;
    return DigestOf(rrs::RunPolicy(instance, policy, options));
  };
  for (const auto& p : in.main) ref.main.push_back(replay(*p));
  for (const auto& p : in.tail) ref.tail.push_back(replay(*p));
  for (const rrs::Instance& instance : in.pipeline) {
    const rrs::reduce::PipelineResult pipe =
        rrs::reduce::SolveOnline(instance, options);
    Digest d;
    d.cost = pipe.validation.cost;
    d.arrived = instance.num_jobs();
    d.executed = d.arrived - pipe.validation.cost.drops;
    d.rounds = pipe.inner.rounds_simulated;
    ref.pipeline.push_back(d);
  }
  return ref;
}

struct Unit {
  double seconds = 0;
  double cpu_s = 0;
  uint64_t rounds = 0;
  rrs::fleet::FleetStats stats;  // delta over this RunAll
  uint64_t slo_misses = 0;
  rrs::CostBreakdown cost;
  uint64_t executed = 0;
  double skew_s = 0;  // traced runs only
};

rrs::fleet::FleetStats Delta(const rrs::fleet::FleetStats& after,
                             const rrs::fleet::FleetStats& before) {
  rrs::fleet::FleetStats d;
  d.sessions_completed = after.sessions_completed - before.sessions_completed;
  d.rounds_stepped = after.rounds_stepped - before.rounds_stepped;
  d.sessions_created = after.sessions_created - before.sessions_created;
  d.sessions_recycled = after.sessions_recycled - before.sessions_recycled;
  d.peak_live_sessions = after.peak_live_sessions;
  d.ticks = after.ticks - before.ticks;
  d.batched_sessions = after.batched_sessions - before.batched_sessions;
  d.fallback_sessions = after.fallback_sessions - before.fallback_sessions;
  d.lane_rounds_stepped =
      after.lane_rounds_stepped - before.lane_rounds_stepped;
  d.slab_rounds_stepped =
      after.slab_rounds_stepped - before.slab_rounds_stepped;
  return d;
}

// Spread of the last tick stamp across shard rings: how far apart the
// shards finished their final tick of the latest RunAll.
double ShardSkewSeconds(const rrs::obs::FlightRecorder& recorder) {
  const int fd = memfd_create("perfbench-flight", 0);
  if (fd < 0) return 0;
  std::string bytes;
  if (recorder.DumpToFd(fd)) {
    const off_t size = lseek(fd, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::max<off_t>(size, 0)));
    if (pread(fd, bytes.data(), bytes.size(), 0) !=
        static_cast<ssize_t>(bytes.size())) {
      bytes.clear();
    }
  }
  close(fd);
  rrs::obs::DecodedFlight flight;
  std::string error;
  if (bytes.empty() || !rrs::obs::DecodeFlightDump(bytes, &flight, &error)) {
    return 0;
  }
  uint64_t lo = UINT64_MAX, hi = 0;
  for (const rrs::obs::DecodedFlightRing& ring : flight.rings) {
    uint64_t last = 0;
    for (const rrs::obs::FlightEvent& e : ring.events) {
      if (e.type == rrs::obs::kFlightTick) last = std::max(last, e.ts_ns);
    }
    if (last == 0) continue;
    lo = std::min(lo, last);
    hi = std::max(hi, last);
  }
  return hi > lo ? static_cast<double>(hi - lo) * 1e-9 : 0;
}

class Fleet {
 public:
  Fleet(rrs::ThreadPool& pool, rrs::obs::FlightRecorder* recorder)
      : runner_(MakeOptions(pool, recorder)), recorder_(recorder) {}

  size_t shards() const { return runner_.num_shards(); }

  Unit Run(const std::vector<rrs::fleet::FleetJob>& jobs,
           std::vector<rrs::RunResult>& results) {
    Unit unit;
    const rrs::fleet::FleetStats before = runner_.stats();
    const double cpu0 = CpuSeconds();
    const auto t0 = Clock::now();
    results = runner_.RunAll(jobs);
    unit.seconds = Seconds(t0, Clock::now());
    unit.cpu_s = CpuSeconds() - cpu0;
    unit.stats = Delta(runner_.stats(), before);
    unit.slo_misses = slo_.SnapshotTotals().misses;
    for (const rrs::RunResult& r : results) {
      unit.rounds += static_cast<uint64_t>(r.rounds_simulated);
      unit.cost += r.cost;
      unit.executed += r.executed;
    }
    if (recorder_ != nullptr) unit.skew_s = ShardSkewSeconds(*recorder_);
    return unit;
  }

 private:
  rrs::fleet::FleetOptions MakeOptions(rrs::ThreadPool& pool,
                                       rrs::obs::FlightRecorder* recorder) {
    rrs::fleet::FleetOptions options;
    options.pool = &pool;
    options.rounds_per_tick = kRoundsPerTick;
    options.max_live_sessions = kLiveCapPerShard;
    options.batch_width = kBatchWidth;
    options.slo = &slo_;
    options.recorder = recorder;
    return options;
  }

  rrs::fleet::SloTracker slo_;  // before runner_, which points at it
  rrs::fleet::FleetRunner runner_;
  rrs::obs::FlightRecorder* recorder_;
};

void Check(const std::vector<rrs::RunResult>& results, const Reference& ref,
           Report& report) {
  for (size_t j = 0; j < results.size(); ++j) {
    ++report.attempted;
    if (!(DigestOf(results[j]) == ref.Of(j))) {
      report.Fail("fleet tenant " + std::to_string(j) + " " +
                  ToString(DigestOf(results[j])) + " vs reference " +
                  ToString(ref.Of(j)));
    }
  }
}

}  // namespace

void RunFleet(const Args& args, Report& report) {
  rrs::ThreadPool pool(UsableCpus());

  // Set-up: prototypes, the job list, a fresh runner, one warm-up RunAll.
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Fleet> fleet;
  std::vector<rrs::fleet::FleetJob> jobs;
  std::vector<rrs::RunResult> results;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const auto t0 = Clock::now();
    inputs = std::make_unique<Inputs>(MakeInputs(args.seed));
    jobs = MakeJobs(*inputs, nullptr);
    fleet = std::make_unique<Fleet>(pool, nullptr);
    fleet->Run(jobs, results);
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  const Reference ref = MakeReference(*inputs);
  Check(results, ref, report);

  std::vector<Unit> units;
  const auto loop_start = Clock::now();
  do {
    units.push_back(fleet->Run(jobs, results));
    Check(results, ref, report);  // outside the unit's timed region
  } while (Seconds(loop_start, Clock::now()) < args.seconds);

  std::vector<double> rates, solves, run_s, util;
  for (const Unit& u : units) {
    rates.push_back(static_cast<double>(u.rounds) / u.seconds);
    solves.push_back(static_cast<double>(kTenants) / u.seconds);
    run_s.push_back(u.seconds);
    util.push_back(u.cpu_s /
                   (u.seconds * static_cast<double>(fleet->shards())));
  }
  const double rounds_per_s = Median(rates);

  std::vector<Unit> traced;
  Probes probes;
  uint64_t traced_allocs = 0;
  if (args.trace) {
    rrs::obs::FlightRecorder::Options rec_options;
    rec_options.ring_capacity = 4096;
    rrs::obs::FlightRecorder recorder(rec_options);
    Fleet traced_fleet(pool, &recorder);
    const std::vector<rrs::fleet::FleetJob> traced_jobs =
        MakeJobs(*inputs, &probes);
    traced_fleet.Run(traced_jobs, results);  // warm-up
    Check(results, ref, report);
    probes.clone_ns = 0;
    probes.emit_ns = 0;
    const uint64_t allocs_before = AllocCount();
    SetAllocCounting(true);
    const auto traced_start = Clock::now();
    do {
      traced.push_back(traced_fleet.Run(traced_jobs, results));
      SetAllocCounting(false);
      Check(results, ref, report);
      SetAllocCounting(true);
    } while (Seconds(traced_start, Clock::now()) < args.seconds);
    SetAllocCounting(false);
    traced_allocs = AllocCount() - allocs_before;
  }
  const double peak_rss = PeakRssMiB();

  report.EndToEnd("rounds_per_s", rounds_per_s);
  report.EndToEnd("solves_per_s", Median(solves));
  report.EndToEnd("setup_s", Median(setup_s));
  report.Layer("peak_rss_mb", peak_rss);

  const Unit& u = units.back();  // counts repeat exactly from unit to unit
  const rrs::fleet::FleetStats& s = u.stats;
  const uint64_t acquires = s.sessions_created + s.sessions_recycled;
  report.Layer("fleet.run_s", Median(run_s));
  report.Layer("fleet.cpu_util", Median(util));
  report.Layer("fleet.threads", static_cast<double>(fleet->shards()));
  report.Layer("fleet.slab_rounds", static_cast<double>(s.slab_rounds_stepped));
  report.Layer("fleet.lane_occupancy",
               s.slab_rounds_stepped == 0
                   ? 0.0
                   : static_cast<double>(s.lane_rounds_stepped) /
                         (static_cast<double>(kBatchWidth) *
                          static_cast<double>(s.slab_rounds_stepped)));
  report.Layer("fleet.sessions", static_cast<double>(s.sessions_completed));
  report.Layer("fleet.batched_share",
               static_cast<double>(s.batched_sessions) /
                   static_cast<double>(s.sessions_completed));
  report.Layer("fleet.pool_acquires", static_cast<double>(acquires));
  report.Layer("fleet.pool_hit",
               acquires == 0 ? 0.0
                             : static_cast<double>(s.sessions_recycled) /
                                   static_cast<double>(acquires));
  report.Layer("fleet.ticks", static_cast<double>(s.ticks));
  report.Layer("fleet.peak_live", static_cast<double>(s.peak_live_sessions));
  report.Layer("fleet.slo_misses", static_cast<double>(u.slo_misses));
  report.Layer("core.reconfigs", static_cast<double>(u.cost.reconfigurations));
  report.Layer("core.drops", static_cast<double>(u.cost.drops));
  report.Layer("core.executed", static_cast<double>(u.executed));

  char line[256];
  std::snprintf(line, sizeof line,
                "fleet: %zu RunAll calls of %zu tenants x %lld rounds on %zu "
                "threads; batched %llu, fallback %llu, pool created %llu",
                units.size(), kTenants, static_cast<long long>(kRounds),
                fleet->shards(),
                static_cast<unsigned long long>(s.batched_sessions),
                static_cast<unsigned long long>(s.fallback_sessions),
                static_cast<unsigned long long>(s.sessions_created));
  report.Note(line);

  if (args.trace) {
    std::vector<double> traced_rates, skew;
    uint64_t traced_rounds = 0;
    for (const Unit& t : traced) {
      traced_rates.push_back(static_cast<double>(t.rounds) / t.seconds);
      skew.push_back(t.skew_s);
      traced_rounds += t.rounds;
    }
    const double n = static_cast<double>(traced.size());
    report.Layer("workload.emit_s",
                 static_cast<double>(probes.emit_ns.load()) * 1e-9 / n);
    report.Layer("workload.clone_s",
                 static_cast<double>(probes.clone_ns.load()) * 1e-9 / n);
    report.Layer("fleet.shard_skew_s", Median(skew));
    report.Layer("core.allocs_per_round",
                 static_cast<double>(traced_allocs) /
                     static_cast<double>(traced_rounds));
    TraceOverhead(report, rounds_per_s, Median(traced_rates));
  }
}

}  // namespace perfbench
