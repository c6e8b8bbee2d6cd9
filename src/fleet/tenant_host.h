// TenantHost: one shard's worth of replay tenants — the tenant lifecycle
// FleetRunner's shards, ChaosFleetRunner's workers and the dist worker's
// shards share.
//
// A tenant is a key (a fleet job index or a dist tenant id), the
// ArrivalSource its engine pulls from (streaming tenants only; owned here for
// the tenant's lifetime), and one of two execution paths:
//
//  - a pooled scalar session — an Engine plus one policy, rebound across
//    tenants through a SessionPool (core/session.h);
//  - a lane of a pooled BatchEngine slab (fleet/batch_engine.h), when the
//    host was built with batch_width > 1 and the tenant's options are
//    batchable. A fresh tenant joins a same-shape slab still at round 0 or
//    opens a new one; a restored tenant joins a same-shape slab at its
//    checkpoint's round or opens a new one (an empty slab adopts the
//    round). Tenants no slab can take stay on scalar sessions.
//
// Lanes are bit-identical to scalar sessions and snapshot in the scalar
// byte format, so callers see one kind of tenant (TenantView) and a
// checkpoint taken on either path resumes on the other. Checkpoint and
// Admit are the one place that knows a tenant checkpoint's word layout: the
// engine's run snapshot followed by the source's own sections.
//
// A host is touched by one thread at a time (shard → worker affinity), so
// nothing here is synchronized. Results are bit-identical to fresh
// single-engine runs for any bucket size and batch width, and a restored
// tenant finishes bit-identically to an uninterrupted one on any host whose
// policy factory builds identically parameterized policies.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/session.h"
#include "fleet/batch_engine.h"
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

  // A live tenant as callers see it, on either path.
  struct TenantView {
    uint64_t key = 0;
    Round next_round = 0;  // rounds stepped so far
    CostBreakdown cost;    // accumulated so far (final in Step's on_done)
    uint64_t executed = 0;
    // The tenant's instance, or its source's shape; valid until the tenant
    // leaves the host (through the end of Step's on_done).
    const Instance* shape = nullptr;
  };

  // batch_width 0 or 1 runs every tenant on scalar sessions; up to
  // BatchEngine::kMaxLanes packs batchable tenants into slabs that wide.
  TenantHost(PolicyFactory policy_factory, uint32_t batch_width);

  // With a tracer, Step emits one span named `label` (arg = key) per scalar
  // tenant bucket on the calling thread's track.
  void set_trace(obs::Tracer* tracer, const char* label) {
    tracer_ = tracer;
    trace_label_ = label;
  }

  // Binds a tenant to a lane or a pooled session and opens its run — or,
  // given a `checkpoint` (Checkpoint's words, taken on any host), resumes
  // it. Exactly one of `instance` (not owned; must outlive the tenant) and
  // `source` is set. Returns true when the tenant went to a lane.
  bool Admit(uint64_t key, const Instance* instance,
             std::unique_ptr<workload::ArrivalSource> source,
             const EngineOptions& options,
             std::span<const uint64_t> checkpoint = {});

  // Advances every live tenant up to `rounds` rounds: scalar tenants, then
  // each slab in lock-step. A tenant with rounds left goes to
  // on_progress(const TenantView&); one that reached its horizon is
  // finished, handed to on_done(const TenantView&, RunResult&) — which may
  // move from the result — and released. Live order (see view) is kept.
  // Returns the rounds stepped across all tenants.
  template <typename OnProgress, typename OnDone>
  uint64_t Step(Round rounds, OnProgress&& on_progress, OnDone&& on_done) {
    uint64_t stepped = 0;
    size_t out = 0;
    for (size_t i = 0; i < scalars_.size(); ++i) {
      Scalar& tenant = scalars_[i];
      const bool more = Advance(tenant, rounds, stepped);
      const TenantView view = ViewOf(tenant);
      if (more) {
        on_progress(view);
        if (out != i) scalars_[out] = std::move(tenant);
        ++out;
      } else {
        on_done(view, Finish(tenant));
        Release(tenant);
      }
    }
    scalars_.resize(out);

    out = 0;
    for (size_t i = 0; i < slabs_.size(); ++i) {
      Slab& slab = *slabs_[i];
      stepped += StepSlab(slab, rounds);
      for (uint64_t m = slab.engine.open_mask(); m != 0; m &= m - 1) {
        const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
        const TenantView view = ViewOf(slab, lane);
        if (!slab.engine.lane_done(lane)) {
          on_progress(view);
          continue;
        }
        slab.engine.FinishLane(lane, finished_);
        on_done(view, finished_);
        CloseLane(slab, lane);
      }
      if (slab.engine.empty()) {
        slab_pool_.Release(std::move(slabs_[i]));
      } else {
        slabs_[out++] = std::move(slabs_[i]);
      }
    }
    slabs_.resize(out);
    return stepped;
  }

  // Live tenants: scalar tenants in admission order, then slab lanes (slabs
  // in opening order, lanes ascending). Indices below are into this order.
  size_t size() const { return scalars_.size() + lanes_; }
  bool empty() const { return size() == 0; }
  TenantView view(size_t index) const;
  // The index of live tenant `key`, or size() when it is not live here.
  size_t Find(uint64_t key) const;

  // Serializes live tenant `index` at its round boundary into the words
  // Admit resumes from. The tenant stays live.
  std::vector<uint64_t> Checkpoint(size_t index);

  // Abandons live tenant `index`'s run and returns its session or lane.
  // The other tenants keep their order.
  void Evict(size_t index);

  // Scalar pool growth (cold sessions) and tenants served by a warm one.
  uint64_t created() const { return pool_.created(); }
  uint64_t recycled() const { return pool_.recycled(); }
  // Lane counters, cumulative: tenants placed on lanes, per-lane rounds
  // (occupancy numerator) and slab lock-step rounds (denominator).
  uint64_t batched() const { return batched_; }
  uint64_t lane_rounds() const { return lane_rounds_; }
  uint64_t slab_rounds() const { return slab_rounds_; }
  size_t slabs() const { return slabs_.size(); }

 private:
  struct Session {
    Engine engine;
    std::unique_ptr<SchedulerPolicy> policy;
  };

  struct Scalar {
    uint64_t key = 0;
    std::unique_ptr<Session> session;
    // Streaming tenants' source (the engine holds a reference into it);
    // null for instance-fed tenants.
    std::unique_ptr<workload::ArrivalSource> source;
  };

  // One BatchEngine plus one policy per lane, and each open lane's tenant.
  struct Slab {
    Slab(uint32_t width, const PolicyFactory& factory);

    BatchEngine engine;
    std::vector<std::unique_ptr<SchedulerPolicy>> policies;
    std::vector<uint64_t> keys;
    std::vector<const Instance*> shapes;
    std::vector<std::unique_ptr<workload::ArrivalSource>> sources;
  };

  void AdmitScalar(uint64_t key, const Instance* instance,
                   std::unique_ptr<workload::ArrivalSource> source,
                   const EngineOptions& options,
                   std::span<const uint64_t> checkpoint);
  void AdmitLane(uint64_t key, const Instance* instance,
                 std::unique_ptr<workload::ArrivalSource> source,
                 const EngineOptions& options,
                 std::span<const uint64_t> checkpoint);

  // Steps one scalar tenant's bucket; returns true while it has rounds left.
  bool Advance(Scalar& tenant, Round rounds, uint64_t& stepped);
  RunResult& Finish(Scalar& tenant);
  void Release(Scalar& tenant);
  // Steps one slab's bucket; returns the lane rounds stepped.
  uint64_t StepSlab(Slab& slab, Round rounds);
  // Drops a closed lane's tenant bookkeeping.
  void CloseLane(Slab& slab, uint32_t lane);

  static TenantView ViewOf(const Scalar& tenant);
  static TenantView ViewOf(const Slab& slab, uint32_t lane);
  // The slab and lane of live index `index` >= scalars_.size().
  std::pair<size_t, uint32_t> LaneAt(size_t index) const;

  uint32_t batch_width_ = 0;
  SessionPool<Session> pool_;
  SessionPool<Slab> slab_pool_;
  std::vector<Scalar> scalars_;
  std::vector<std::unique_ptr<Slab>> slabs_;  // never empty ones
  size_t lanes_ = 0;                          // open lanes across slabs_
  uint64_t batched_ = 0;
  uint64_t lane_rounds_ = 0;
  uint64_t slab_rounds_ = 0;
  obs::Tracer* tracer_ = nullptr;
  const char* trace_label_ = "";
  RunResult finished_;         // FinishRun/FinishLane output for on_done
  snapshot::Writer snapshot_;  // Checkpoint scratch
};

}  // namespace fleet
}  // namespace rrs
