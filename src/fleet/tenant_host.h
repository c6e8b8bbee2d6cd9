// TenantHost: one shard's worth of scalar replay tenants — the tenant
// lifecycle FleetRunner's shards, ChaosFleetRunner's workers and the dist
// worker's shards share.
//
// A tenant is a key (a fleet job index or a dist tenant id), a pooled session
// — an Engine plus one policy, rebound across tenants through a SessionPool
// (core/session.h) — and, for streaming tenants, the ArrivalSource the
// engine pulls from, owned here for the tenant's lifetime. Checkpoint and
// Admit are the one place that knows a tenant checkpoint's word layout:
// the engine's run snapshot followed by the source's own sections.
//
// A host is touched by one thread at a time (shard → worker affinity), so
// nothing here is synchronized. Results are bit-identical to fresh
// single-engine runs for any bucket size, and a restored tenant finishes
// bit-identically to an uninterrupted one on any host whose policy factory
// builds identically parameterized policies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/session.h"
#include "snapshot/codec.h"
#include "workload/arrival_source.h"

namespace rrs {

namespace obs {
class Tracer;
}  // namespace obs

namespace fleet {

class TenantHost {
 public:
  using PolicyFactory = std::function<std::unique_ptr<SchedulerPolicy>()>;

  struct Session {
    Engine engine;
    std::unique_ptr<SchedulerPolicy> policy;
  };

  struct Tenant {
    uint64_t key = 0;
    std::unique_ptr<Session> session;
    // Streaming tenants' source (the engine holds a reference into it);
    // null for instance-fed tenants.
    std::unique_ptr<workload::ArrivalSource> source;

    // Progress accessors (next_round, run_cost, instance); run_cost is
    // unavailable in Step's on_done, whose RunResult has the final values.
    const Engine& engine() const { return session->engine; }
  };

  explicit TenantHost(PolicyFactory policy_factory);

  // With a tracer, Step emits one span named `label` (arg = key) per tenant
  // bucket on the calling thread's track.
  void set_trace(obs::Tracer* tracer, const char* label) {
    tracer_ = tracer;
    trace_label_ = label;
  }

  // Binds a tenant to a pooled session and opens its run — or, given a
  // `checkpoint` (Checkpoint's words, taken on any host), resumes it.
  // Exactly one of `instance` (not owned; must outlive the tenant) and
  // `source` is set.
  void Admit(uint64_t key, const Instance* instance,
             std::unique_ptr<workload::ArrivalSource> source,
             const EngineOptions& options,
             std::span<const uint64_t> checkpoint = {});

  // Advances every live tenant up to `rounds` rounds. A tenant with rounds
  // left goes to on_progress(const Tenant&); one that reached its horizon
  // is finished, handed to on_done(const Tenant&, RunResult&) — which may
  // move from the result — and released. The live list keeps admission
  // order. Returns the rounds stepped across all tenants.
  template <typename OnProgress, typename OnDone>
  uint64_t Step(Round rounds, OnProgress&& on_progress, OnDone&& on_done) {
    uint64_t stepped = 0;
    size_t out = 0;
    for (size_t i = 0; i < live_.size(); ++i) {
      Tenant& tenant = live_[i];
      if (Advance(tenant, rounds, stepped)) {
        on_progress(std::as_const(tenant));
        if (out != i) live_[out] = std::move(tenant);
        ++out;
      } else {
        on_done(std::as_const(tenant), Finish(tenant));
        pool_.Release(std::move(tenant.session));
        tenant.source.reset();
      }
    }
    live_.resize(out);
    return stepped;
  }

  // Serializes live tenant `index` at its round boundary into the words
  // Admit resumes from. The tenant stays live.
  std::vector<uint64_t> Checkpoint(size_t index);

  // Abandons live tenant `index`'s run and returns its session to the pool.
  void Evict(size_t index);

  std::span<const Tenant> live() const { return live_; }

  // Pool growth (cold sessions) and tenants served by a warm session.
  uint64_t created() const { return pool_.created(); }
  uint64_t recycled() const { return pool_.recycled(); }

 private:
  // Steps one tenant's bucket; returns true while it has rounds left.
  bool Advance(Tenant& tenant, Round rounds, uint64_t& stepped);
  RunResult& Finish(Tenant& tenant);

  SessionPool<Session> pool_;
  std::vector<Tenant> live_;
  obs::Tracer* tracer_ = nullptr;
  const char* trace_label_ = "";
  RunResult finished_;         // Finish's output, handed to on_done
  snapshot::Writer snapshot_;  // Checkpoint scratch
};

}  // namespace fleet
}  // namespace rrs
