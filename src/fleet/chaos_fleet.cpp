#include "fleet/chaos_fleet.h"

#include <string>
#include <utility>

#include "fleet/slo.h"
#include "fleet/tenant_host.h"
#include "obs/flight_recorder.h"
#include "obs/level.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "util/check.h"

namespace rrs {
namespace fleet {

void ChaosStats::MergeFrom(const ChaosStats& other) {
  ticks += other.ticks;
  kills += other.kills;
  evictions += other.evictions;
  delayed_restores += other.delayed_restores;
  rebalances += other.rebalances;
  restores += other.restores;
  migrations += other.migrations;
  noop_faults += other.noop_faults;
  snapshot_words += other.snapshot_words;
  sessions_completed += other.sessions_completed;
  rounds_stepped += other.rounds_stepped;
}

// Worker-local state. Within a tick each worker is touched by exactly one
// thread; between ticks only the serial coordinator mutates it, so nothing
// here is synchronized.
struct ChaosFleetRunner::Worker {
  Worker(const ChaosOptions& options, size_t worker_index)
      : index(worker_index), host(options.policy_factory, 0) {}

  const size_t index;
  TenantHost host;                   // keyed by job index; scalar only
  std::vector<size_t> waiting;       // job indices, admission order
  std::vector<Checkpoint> incoming;  // restored when delay_ticks reaches 0
  ChaosStats stats;                  // worker-side events (restores, steps)
  obs::FlightRing* ring = nullptr;   // cached per RunAll when recording
};

ChaosFleetRunner::ChaosFleetRunner(ChaosOptions options)
    : options_(std::move(options)), plan_rng_(options_.seed) {
  RRS_CHECK_GE(options_.num_workers, 1u);
  RRS_CHECK_GE(options_.rounds_per_tick, 1);
  if (!options_.policy_factory) {
    options_.policy_factory = [] { return std::make_unique<DlruEdfPolicy>(); };
  }
  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(options_, w));
  }
}

ChaosFleetRunner::~ChaosFleetRunner() = default;

void ChaosFleetRunner::TickWorker(Worker& worker,
                                  std::span<const FleetJob> jobs,
                                  std::span<RunResult> results) {
  obs::Tracer* tracer =
      options_.scope != nullptr ? options_.scope->tracer() : nullptr;
  obs::TraceTrack* track = tracer != nullptr ? tracer->ThreadTrack() : nullptr;
  SloTracker* slo = obs::kEnabled ? options_.slo : nullptr;
  obs::FlightRing* ring = obs::kEnabled ? worker.ring : nullptr;
  const uint32_t worker_tag = static_cast<uint32_t>(worker.index);
  // One clock read per worker-tick; every event below shares it (RecordAt).
  const uint64_t now_ns = ring != nullptr ? obs::NowNs() : 0;
  auto record = [&](obs::FlightEventType type, uint64_t arg1,
                    uint64_t arg2 = 0) {
    if (ring != nullptr) ring->RecordAt(now_ns, type, worker_tag, arg1, arg2);
  };

  // ---- Restore: resume every due checkpoint (exempt from the live cap —
  // a checkpointed tenant must come back regardless of load). ----
  size_t keep = 0;
  for (size_t i = 0; i < worker.incoming.size(); ++i) {
    Checkpoint& cp = worker.incoming[i];
    if (cp.delay_ticks > 0) {
      if (keep != i) worker.incoming[keep] = std::move(cp);  // no self-move
      ++keep;
      continue;
    }
    const FleetJob& job = jobs[cp.job_index];
    {
      obs::Span span(tracer, track, "fleet.chaos.restore",
                     static_cast<uint64_t>(cp.job_index));
      worker.host.Admit(cp.job_index, job.instance, MakeJobSource(job),
                        job.options, cp.words);
    }
    ++worker.stats.restores;
    if (cp.from_worker != worker.index) ++worker.stats.migrations;
    record(obs::kFlightRestore, cp.job_index, cp.from_worker);
  }
  worker.incoming.resize(keep);

  // ---- Admit: bind waiting tenants up to the live cap. ----
  size_t admitted = 0;
  while (admitted < worker.waiting.size() &&
         (options_.max_live_sessions == 0 ||
          worker.host.size() < options_.max_live_sessions)) {
    const size_t job_index = worker.waiting[admitted++];
    const FleetJob& job = jobs[job_index];
    worker.host.Admit(job_index, job.instance, MakeJobSource(job),
                      job.options);
    record(obs::kFlightAdmit, job_index);
  }
  worker.waiting.erase(
      worker.waiting.begin(),
      worker.waiting.begin() + static_cast<ptrdiff_t>(admitted));

  // ---- Step: advance every live tenant one round bucket. ----
  worker.host.set_trace(tracer, options_.trace_label);
  worker.stats.rounds_stepped += worker.host.Step(
      options_.rounds_per_tick,
      [&](const TenantHost::TenantView& tenant) {
        if (slo != nullptr &&
            slo->Observe(worker.index, tenant.key,
                         static_cast<uint64_t>(tenant.next_round),
                         tenant.cost.drops) > 0) {
          record(obs::kFlightSloExhausted, tenant.key);
        }
      },
      [&](const TenantHost::TenantView& tenant, RunResult& result) {
        const size_t job_index = tenant.key;
        results[job_index] = std::move(result);
        ++worker.stats.sessions_completed;
        if (slo != nullptr &&
            slo->Finish(worker.index, job_index, *tenant.shape,
                        results[job_index]) > 0) {
          record(obs::kFlightSloExhausted, job_index);
        }
        record(obs::kFlightFinish, job_index, results[job_index].cost.drops);
      });
  record(obs::kFlightTick, worker.stats.rounds_stepped);
  if (slo != nullptr) slo->Publish(worker.index);
}

bool ChaosFleetRunner::InjectFaults() {
  obs::Tracer* tracer =
      options_.scope != nullptr ? options_.scope->tracer() : nullptr;
  obs::TraceTrack* track = tracer != nullptr ? tracer->ThreadTrack() : nullptr;
  const size_t num_workers = workers_.size();
  ++stats_.ticks;
  obs::FlightRing* ring = obs::kEnabled ? coord_ring_ : nullptr;
  if (ring != nullptr) ring->Record(obs::kFlightTick, 0, stats_.ticks);

  // Age checkpoints queued on earlier ticks toward their restore.
  for (auto& worker : workers_) {
    for (Checkpoint& cp : worker->incoming) {
      if (cp.delay_ticks > 0) --cp.delay_ticks;
    }
  }

  // Checkpoint one live tenant (shared by the kill and evict paths); the
  // caller evicts it, after which the run lives on only in the words.
  auto checkpoint = [&](Worker& worker, size_t live_index,
                        uint32_t delay_ticks) {
    Checkpoint cp;
    cp.job_index = worker.host.view(live_index).key;
    cp.delay_ticks = delay_ticks;
    cp.from_worker = worker.index;
    cp.words = worker.host.Checkpoint(live_index);
    stats_.snapshot_words += cp.words.size();
    return cp;
  };

  // ---- kill-worker ------------------------------------------------------
  if (num_workers > 1 && plan_rng_.Bernoulli(options_.kill_worker_prob)) {
    const size_t victim = plan_rng_.NextBounded(num_workers);
    Worker& worker = *workers_[victim];
    const size_t live = worker.host.size();
    if (live == 0) {
      ++stats_.noop_faults;
    } else {
      obs::Span span(tracer, track, "fleet.chaos.kill",
                     static_cast<uint64_t>(live));
      ++stats_.kills;
      if (ring != nullptr) {
        ring->Record(obs::kFlightKillWorker, static_cast<uint32_t>(victim),
                     live);
      }
      // Checkpoint every live tenant on the victim and deal the checkpoints
      // round-robin to the surviving workers for immediate restore.
      size_t target = victim;
      for (size_t i = 0; i < live; ++i) {
        target = (target + 1) % num_workers;
        if (target == victim) target = (target + 1) % num_workers;
        workers_[target]->incoming.push_back(checkpoint(worker, i, 0));
      }
      for (size_t i = live; i-- > 0;) worker.host.Evict(i);
    }
  }

  // ---- evict-and-restore (possibly delayed) -----------------------------
  if (plan_rng_.Bernoulli(options_.evict_prob)) {
    size_t total_live = 0;
    for (const auto& worker : workers_) {
      total_live += worker->host.size();
    }
    if (total_live == 0) {
      ++stats_.noop_faults;
    } else {
      size_t pick = plan_rng_.NextBounded(total_live);
      size_t source = 0;
      while (pick >= workers_[source]->host.size()) {
        pick -= workers_[source]->host.size();
        ++source;
      }
      uint32_t delay = 0;
      if (options_.max_restore_delay_ticks > 0 &&
          plan_rng_.Bernoulli(options_.delayed_restore_prob)) {
        delay = static_cast<uint32_t>(
            1 + plan_rng_.NextBounded(options_.max_restore_delay_ticks));
        ++stats_.delayed_restores;
      }
      const size_t target = plan_rng_.NextBounded(num_workers);
      Worker& worker = *workers_[source];
      const uint64_t job_index = worker.host.view(pick).key;
      obs::Span span(tracer, track, "fleet.chaos.evict", job_index);
      if (ring != nullptr) {
        ring->Record(obs::kFlightEvict, static_cast<uint32_t>(source),
                     job_index, delay);
      }
      workers_[target]->incoming.push_back(checkpoint(worker, pick, delay));
      worker.host.Evict(pick);
      ++stats_.evictions;
    }
  }

  // ---- shard rebalance --------------------------------------------------
  if (num_workers > 1 && plan_rng_.Bernoulli(options_.rebalance_prob)) {
    rebalance_scratch_.clear();
    for (auto& worker : workers_) {
      rebalance_scratch_.insert(rebalance_scratch_.end(),
                                worker->waiting.begin(),
                                worker->waiting.end());
      worker->waiting.clear();
    }
    if (rebalance_scratch_.empty()) {
      ++stats_.noop_faults;
    } else {
      obs::Span span(tracer, track, "fleet.chaos.rebalance",
                     static_cast<uint64_t>(rebalance_scratch_.size()));
      size_t target = plan_rng_.NextBounded(num_workers);
      if (ring != nullptr) {
        ring->Record(obs::kFlightRebalance, static_cast<uint32_t>(target),
                     rebalance_scratch_.size());
      }
      for (size_t job_index : rebalance_scratch_) {
        workers_[target]->waiting.push_back(job_index);
        target = (target + 1) % num_workers;
      }
      ++stats_.rebalances;
    }
  }

  for (const auto& worker : workers_) {
    if (!worker->host.empty() || !worker->waiting.empty() ||
        !worker->incoming.empty()) {
      return true;
    }
  }
  return false;
}

std::vector<RunResult> ChaosFleetRunner::RunAll(
    std::span<const FleetJob> jobs) {
  std::vector<RunResult> results(jobs.size());
  const size_t num_workers = workers_.size();
  const ChaosStats before = stats();  // stats are cumulative; absorb a delta

  if (obs::kEnabled && options_.slo != nullptr) {
    options_.slo->Bind(jobs.size(), num_workers);
  }
  coord_ring_ = nullptr;
  for (auto& worker : workers_) worker->ring = nullptr;
  if (obs::kEnabled && options_.recorder != nullptr) {
    coord_ring_ = options_.recorder->Ring("chaos.coord");
    for (auto& worker : workers_) {
      worker->ring =
          options_.recorder->Ring("chaos.worker" +
                                  std::to_string(worker->index));
    }
  }

  for (size_t j = 0; j < jobs.size(); ++j) {
    RRS_CHECK(jobs[j].kind == FleetJob::Kind::kReplay)
        << "ChaosFleetRunner supports replay jobs only";
    RRS_CHECK(!jobs[j].options.record_schedule)
        << "recording runs cannot be checkpointed";
    workers_[j % num_workers]->waiting.push_back(j);
  }

  bool more = !jobs.empty();
  while (more) {
    ParallelFor(options_.pool, 0, static_cast<int64_t>(num_workers),
                [&](int64_t w) {
                  TickWorker(*workers_[static_cast<size_t>(w)], jobs, results);
                });
    more = InjectFaults();
  }

  if (options_.scope != nullptr) {
    const ChaosStats total = stats();
    const std::pair<std::string_view, uint64_t> counters[] = {
        {"fleet.chaos.ticks", total.ticks - before.ticks},
        {"fleet.chaos.kills", total.kills - before.kills},
        {"fleet.chaos.evictions", total.evictions - before.evictions},
        {"fleet.chaos.delayed_restores",
         total.delayed_restores - before.delayed_restores},
        {"fleet.chaos.rebalances", total.rebalances - before.rebalances},
        {"fleet.chaos.restores", total.restores - before.restores},
        {"fleet.chaos.migrations", total.migrations - before.migrations},
        {"fleet.chaos.noop_faults", total.noop_faults - before.noop_faults},
        {"fleet.chaos.snapshot_words",
         total.snapshot_words - before.snapshot_words},
        {"fleet.chaos.sessions_completed",
         total.sessions_completed - before.sessions_completed},
        {"fleet.chaos.rounds_stepped",
         total.rounds_stepped - before.rounds_stepped},
    };
    options_.scope->AbsorbCounters(counters);
    if (obs::kEnabled && options_.slo != nullptr) {
      options_.slo->AbsorbInto(*options_.scope);
    }
  }
  return results;
}

ChaosStats ChaosFleetRunner::stats() const {
  ChaosStats total = stats_;
  for (const auto& worker : workers_) total.MergeFrom(worker->stats);
  return total;
}

}  // namespace fleet
}  // namespace rrs
