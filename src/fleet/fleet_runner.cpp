#include "fleet/fleet_runner.h"

#include <algorithm>
#include <utility>

#include "core/session.h"
#include "fleet/slo.h"
#include "fleet/tenant_host.h"
#include "obs/flight_recorder.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "util/check.h"
#include "workload/arrival_source.h"
#include "workload/generator_spec.h"

namespace rrs {
namespace fleet {

void FleetStats::MergeFrom(const FleetStats& other) {
  sessions_completed += other.sessions_completed;
  rounds_stepped += other.rounds_stepped;
  sessions_created += other.sessions_created;
  sessions_recycled += other.sessions_recycled;
  peak_live_sessions = std::max(peak_live_sessions, other.peak_live_sessions);
  ticks += other.ticks;
  batched_sessions += other.batched_sessions;
  fallback_sessions += other.fallback_sessions;
  lane_rounds_stepped += other.lane_rounds_stepped;
  slab_rounds_stepped += other.slab_rounds_stepped;
}

// Shard-local state: the tenant host (scalar sessions and lane slabs), the
// pipeline pool and the shard's stats. Owned and touched by exactly one
// worker per RunAll (shard → worker affinity), so nothing here is
// synchronized.
struct FleetRunner::Shard {
  explicit Shard(const FleetOptions& options)
      : host(options.policy_factory, options.batch_width),
        pipeline_pool([&options] {
          return std::make_unique<reduce::PipelineSession>(
              options.pipeline_params);
        }) {}

  TenantHost host;
  SessionPool<reduce::PipelineSession> pipeline_pool;
  FleetStats stats;
};

std::unique_ptr<workload::ArrivalSource> MakeJobSource(const FleetJob& job) {
  if (job.instance != nullptr) return nullptr;
  RRS_CHECK(job.make_source || job.source_spec != nullptr)
      << "FleetJob without a workload";
  auto source = job.make_source ? job.make_source()
                                : workload::MakeSource(*job.source_spec);
  RRS_CHECK(source != nullptr);
  return source;
}

FleetRunner::FleetRunner(FleetOptions options) : options_(std::move(options)) {
  RRS_CHECK_GE(options_.rounds_per_tick, 1);
  if (!options_.policy_factory) {
    options_.policy_factory = [] { return std::make_unique<DlruEdfPolicy>(); };
  }
  size_t shards = options_.num_shards;
  if (shards == 0) {
    shards = options_.pool != nullptr
                 ? std::max<size_t>(1, options_.pool->thread_count())
                 : 1;
  }
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_));
  }
}

FleetRunner::~FleetRunner() = default;

void FleetRunner::RunShard(Shard& shard, std::span<const FleetJob> jobs,
                           std::span<RunResult> results, size_t shard_index,
                           size_t stride) {
  size_t next = shard_index;  // this shard's jobs: shard_index + k * stride
  TenantHost& host = shard.host;
  RRS_CHECK(host.empty());
  const bool batching = options_.batch_width > 1;

  // Per-tenant work traces onto this worker's thread track (single-writer).
  obs::Tracer* tracer =
      options_.scope != nullptr ? options_.scope->tracer() : nullptr;
  obs::TraceTrack* track = tracer != nullptr ? tracer->ThreadTrack() : nullptr;
  host.set_trace(tracer, options_.trace_label);

  // SLO tracking and flight recording are shard-local and pure observation;
  // obs::kEnabled is constexpr false at RRS_OBS_LEVEL=0, erasing both.
  SloTracker* slo = obs::kEnabled ? options_.slo : nullptr;
  obs::FlightRing* ring = nullptr;
  if (obs::kEnabled && options_.recorder != nullptr) {
    ring = options_.recorder->Ring("fleet.shard" +
                                   std::to_string(shard_index));
  }
  const uint32_t shard_tag = static_cast<uint32_t>(shard_index);
  // One clock read per tick: every event this tick — admits, finishes,
  // the tick mark itself — shares the barrier's stamp (see RecordAt).
  uint64_t now_ns = 0;

  // The SLO and flight records of every path: host tenants (scalar or lane)
  // and pipeline tenants.
  auto record = [&](obs::FlightEventType type, uint64_t arg) {
    if (ring != nullptr) ring->RecordAt(now_ns, type, shard_tag, arg);
  };
  auto admitted = [&](size_t job_index) {
    shard.stats.peak_live_sessions = std::max<uint64_t>(
        shard.stats.peak_live_sessions, host.size());
    record(obs::kFlightAdmit, job_index);
  };
  auto observe = [&](size_t job_index, Round rounds, uint64_t misses) {
    if (slo != nullptr && slo->Observe(shard_index, job_index,
                                       static_cast<uint64_t>(rounds),
                                       misses) > 0) {
      record(obs::kFlightSloExhausted, job_index);
    }
  };
  auto finished = [&](size_t job_index, const Instance& shape) {
    ++shard.stats.sessions_completed;
    if (slo != nullptr &&
        slo->Finish(shard_index, job_index, shape, results[job_index]) > 0) {
      record(obs::kFlightSloExhausted, job_index);
    }
    record(obs::kFlightFinish, job_index);
  };

  while (next < jobs.size() || !host.empty()) {
    if (ring != nullptr) now_ns = obs::NowNs();

    // ---- Admit: bind waiting tenants up to the live cap. ----
    while (next < jobs.size() &&
           (options_.max_live_sessions == 0 ||
            host.size() < options_.max_live_sessions)) {
      const FleetJob& job = jobs[next];
      // Streaming tenants materialize their source now, at admission —
      // queued jobs hold only the closure (or the spec).
      std::unique_ptr<workload::ArrivalSource> source = MakeJobSource(job);
      RRS_CHECK(source == nullptr || job.kind == FleetJob::Kind::kReplay);
      if (job.kind == FleetJob::Kind::kPipeline) {
        // Pipeline tenants run to completion on admission (the pipeline's
        // transform → run → project → validate chain has no round-bucket
        // seam), through a pooled session so the inner engine stays warm.
        auto session = shard.pipeline_pool.Acquire();
        obs::Span span(tracer, track, options_.trace_label,
                       static_cast<uint64_t>(next));
        const reduce::PipelineResult& pipe =
            session->SolveOnline(*job.instance, job.options);
        RunResult& out = results[next];
        out.cost = pipe.validation.cost;
        out.arrived = job.instance->num_jobs();
        out.executed = out.arrived - out.cost.drops;
        out.rounds_simulated = pipe.inner.rounds_simulated;
        out.drops_per_color = pipe.inner.drops_per_color;
        out.telemetry = pipe.inner.telemetry;
        shard.stats.rounds_stepped +=
            static_cast<uint64_t>(pipe.inner.rounds_simulated);
        shard.pipeline_pool.Release(std::move(session));
        finished(next, *job.instance);
      } else {
        const size_t slabs = host.slabs();
        if (!host.Admit(next, job.instance, std::move(source), job.options) &&
            batching) {
          ++shard.stats.fallback_sessions;
        }
        if (host.slabs() > slabs) record(obs::kFlightSlabOpen, host.slabs());
        admitted(next);
      }
      next += stride;
    }

    if (host.empty()) continue;

    // ---- Tick: advance every live tenant one round bucket. ----
    const size_t slabs = host.slabs();
    shard.stats.rounds_stepped += host.Step(
        options_.rounds_per_tick,
        [&](const TenantHost::TenantView& tenant) {
          observe(tenant.key, tenant.next_round, tenant.cost.drops);
        },
        [&](const TenantHost::TenantView& tenant, RunResult& result) {
          results[tenant.key] = std::move(result);
          finished(tenant.key, *tenant.shape);
        });
    for (size_t live = slabs; live > host.slabs(); --live) {
      record(obs::kFlightSlabClose, live - 1);
    }
    ++shard.stats.ticks;
    record(obs::kFlightTick, shard.stats.ticks);
    if (slo != nullptr) slo->Publish(shard_index);
  }

  // Pipeline-only workloads finish inside admission without ever reaching
  // the tick barrier; a final publish makes their accounting scrapable too.
  if (slo != nullptr) slo->Publish(shard_index);

  shard.stats.sessions_created =
      host.created() + shard.pipeline_pool.created();
  shard.stats.sessions_recycled =
      host.recycled() + shard.pipeline_pool.recycled();
  shard.stats.batched_sessions = host.batched();
  shard.stats.lane_rounds_stepped = host.lane_rounds();
  shard.stats.slab_rounds_stepped = host.slab_rounds();
}

std::vector<RunResult> FleetRunner::RunAll(std::span<const FleetJob> jobs) {
  std::vector<RunResult> results(jobs.size());
  const size_t stride = shards_.size();
  const FleetStats before = stats();  // stats are cumulative; absorb a delta

  if (obs::kEnabled && options_.slo != nullptr) {
    options_.slo->Bind(jobs.size(), shards_.size());
  }

  ParallelFor(options_.pool, 0, static_cast<int64_t>(shards_.size()),
              [&](int64_t s) {
                RunShard(*shards_[static_cast<size_t>(s)], jobs, results,
                         static_cast<size_t>(s), stride);
              });

  if (options_.scope != nullptr) {
    const FleetStats total = stats();
    const std::pair<std::string_view, uint64_t> counters[] = {
        {"fleet.sessions_completed",
         total.sessions_completed - before.sessions_completed},
        {"fleet.rounds_stepped", total.rounds_stepped - before.rounds_stepped},
        {"fleet.ticks", total.ticks - before.ticks},
        {"fleet.batch.sessions",
         total.batched_sessions - before.batched_sessions},
        {"fleet.batch.fallback",
         total.fallback_sessions - before.fallback_sessions},
        {"fleet.batch.lane_rounds",
         total.lane_rounds_stepped - before.lane_rounds_stepped},
        {"fleet.batch.slab_rounds",
         total.slab_rounds_stepped - before.slab_rounds_stepped},
    };
    options_.scope->AbsorbCounters(counters);
    if (obs::kEnabled && options_.slo != nullptr) {
      options_.slo->AbsorbInto(*options_.scope);
    }
  }
  return results;
}

FleetStats FleetRunner::stats() const {
  FleetStats total;
  for (const auto& shard : shards_) total.MergeFrom(shard->stats);
  return total;
}

}  // namespace fleet
}  // namespace rrs
