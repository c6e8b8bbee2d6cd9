#include "fleet/tenant_host.h"

#include "obs/trace.h"
#include "util/check.h"

namespace rrs {
namespace fleet {

namespace {

// The round a tenant checkpoint was taken at: the third field of the
// engine section that opens it (Engine::SnapshotRun and
// BatchEngine::SnapshotLane write the same header).
Round CheckpointRound(std::span<const uint64_t> checkpoint) {
  snapshot::Reader reader(checkpoint);
  reader.BeginSection(snapshot::kTagEngine);
  reader.GetU64();  // colors
  reader.GetU32();  // resources
  return reader.GetI64();
}

}  // namespace

TenantHost::Slab::Slab(uint32_t width, const PolicyFactory& factory)
    : engine(width),
      keys(width, 0),
      shapes(width, nullptr),
      sources(width) {
  policies.reserve(width);
  for (uint32_t lane = 0; lane < width; ++lane) {
    policies.push_back(factory());
    RRS_CHECK(policies.back() != nullptr) << "policy factory returned null";
  }
}

TenantHost::TenantHost(PolicyFactory policy_factory, uint32_t batch_width)
    : batch_width_(batch_width),
      pool_([policy_factory] {
        auto session = std::make_unique<Session>();
        session->policy = policy_factory();
        RRS_CHECK(session->policy != nullptr) << "policy factory returned null";
        return session;
      }),
      slab_pool_([batch_width, factory = std::move(policy_factory)] {
        return std::make_unique<Slab>(batch_width, factory);
      }) {
  RRS_CHECK_LE(batch_width, BatchEngine::kMaxLanes);
}

bool TenantHost::Admit(uint64_t key, const Instance* instance,
                       std::unique_ptr<workload::ArrivalSource> source,
                       const EngineOptions& options,
                       std::span<const uint64_t> checkpoint) {
  RRS_CHECK((instance != nullptr) != (source != nullptr))
      << "a tenant binds exactly one of an instance and a source";
  if (batch_width_ > 1 && BatchEngine::Batchable(options)) {
    AdmitLane(key, instance, std::move(source), options, checkpoint);
    return true;
  }
  AdmitScalar(key, instance, std::move(source), options, checkpoint);
  return false;
}

void TenantHost::AdmitScalar(uint64_t key, const Instance* instance,
                             std::unique_ptr<workload::ArrivalSource> source,
                             const EngineOptions& options,
                             std::span<const uint64_t> checkpoint) {
  Scalar& tenant = scalars_.emplace_back();
  tenant.key = key;
  tenant.session = pool_.Acquire();
  tenant.source = std::move(source);
  Engine& engine = tenant.session->engine;
  SchedulerPolicy& policy = *tenant.session->policy;
  if (tenant.source != nullptr) {
    engine.Reset(*tenant.source, options);
  } else {
    engine.Reset(*instance, options);
  }
  if (checkpoint.empty()) {
    engine.BeginRun(policy);
    return;
  }
  snapshot::Reader reader(checkpoint);
  // A streaming tenant's source sections follow the engine's in the same
  // words; passing the reader as its own source_state makes RestoreRun
  // consume them in place (O(source state), no replay).
  engine.RestoreRun(policy, reader,
                    tenant.source != nullptr ? &reader : nullptr);
  RRS_CHECK(reader.AtEnd()) << "trailing words in tenant checkpoint";
}

void TenantHost::AdmitLane(uint64_t key, const Instance* instance,
                           std::unique_ptr<workload::ArrivalSource> source,
                           const EngineOptions& options,
                           std::span<const uint64_t> checkpoint) {
  const Instance& shape = source != nullptr ? source->shape() : *instance;
  // Lanes step in lock-step, so a tenant joins a same-shape slab at its own
  // round (0 when fresh), or opens a slab, which adopts that round.
  const Round round = checkpoint.empty() ? 0 : CheckpointRound(checkpoint);
  Slab* slab = nullptr;
  for (auto& candidate : slabs_) {
    const BatchEngine& engine = candidate->engine;
    if (engine.next_round() == round &&
        std::popcount(engine.open_mask()) < static_cast<int>(batch_width_) &&
        engine.LaneCompatible(shape, options)) {
      slab = candidate.get();
      break;
    }
  }
  if (slab == nullptr) {
    slabs_.push_back(slab_pool_.Acquire());
    slab = slabs_.back().get();
    RRS_CHECK(slab->engine.empty());
  }
  const uint32_t lane =
      static_cast<uint32_t>(std::countr_zero(~slab->engine.open_mask()));
  SchedulerPolicy& policy = *slab->policies[lane];
  if (checkpoint.empty()) {
    if (source != nullptr) {
      slab->engine.OpenLane(lane, *source, options, policy);
    } else {
      slab->engine.OpenLane(lane, *instance, options, policy);
    }
  } else {
    snapshot::Reader reader(checkpoint);
    // As in AdmitScalar: the source's sections follow in the same words.
    if (source != nullptr) {
      slab->engine.RestoreLane(lane, *source, options, policy, reader,
                               &reader);
    } else {
      slab->engine.RestoreLane(lane, *instance, options, policy, reader);
    }
    RRS_CHECK(reader.AtEnd()) << "trailing words in tenant checkpoint";
  }
  slab->keys[lane] = key;
  slab->shapes[lane] = &shape;
  slab->sources[lane] = std::move(source);
  ++lanes_;
  ++batched_;
}

bool TenantHost::Advance(Scalar& tenant, Round rounds, uint64_t& stepped) {
  obs::TraceTrack* track =
      tracer_ != nullptr ? tracer_->ThreadTrack() : nullptr;
  obs::Span span(tracer_, track, trace_label_, tenant.key);
  Engine& engine = tenant.session->engine;
  const Round before = engine.next_round();
  const bool more = engine.StepRounds(rounds);
  stepped += static_cast<uint64_t>(engine.next_round() - before);
  return more;
}

RunResult& TenantHost::Finish(Scalar& tenant) {
  tenant.session->engine.FinishRun(finished_);
  return finished_;
}

void TenantHost::Release(Scalar& tenant) {
  pool_.Release(std::move(tenant.session));
  tenant.source.reset();
}

uint64_t TenantHost::StepSlab(Slab& slab, Round rounds) {
  BatchEngine& engine = slab.engine;
  const uint64_t lanes_before = engine.lane_rounds_stepped();
  const uint64_t slabs_before = engine.slab_rounds_stepped();
  engine.StepRounds(rounds);
  const uint64_t lane_delta = engine.lane_rounds_stepped() - lanes_before;
  lane_rounds_ += lane_delta;
  slab_rounds_ += engine.slab_rounds_stepped() - slabs_before;
  return lane_delta;
}

void TenantHost::CloseLane(Slab& slab, uint32_t lane) {
  slab.shapes[lane] = nullptr;
  slab.sources[lane].reset();
  --lanes_;
}

TenantHost::TenantView TenantHost::ViewOf(const Scalar& tenant) {
  const Engine& engine = tenant.session->engine;
  return {tenant.key, engine.next_round(), engine.run_cost(),
          engine.run_executed(), &engine.instance()};
}

TenantHost::TenantView TenantHost::ViewOf(const Slab& slab, uint32_t lane) {
  const BatchEngine& engine = slab.engine;
  return {slab.keys[lane], engine.lane_rounds(lane), engine.lane_cost(lane),
          engine.lane_executed(lane), slab.shapes[lane]};
}

std::pair<size_t, uint32_t> TenantHost::LaneAt(size_t index) const {
  size_t rest = index - scalars_.size();
  for (size_t s = 0; s < slabs_.size(); ++s) {
    uint64_t mask = slabs_[s]->engine.open_mask();
    const size_t open = static_cast<size_t>(std::popcount(mask));
    if (rest >= open) {
      rest -= open;
      continue;
    }
    for (; rest > 0; --rest) mask &= mask - 1;
    return {s, static_cast<uint32_t>(std::countr_zero(mask))};
  }
  RRS_CHECK(false) << "live tenant index " << index << " out of range";
  return {};
}

TenantHost::TenantView TenantHost::view(size_t index) const {
  if (index < scalars_.size()) return ViewOf(scalars_[index]);
  const auto [s, lane] = LaneAt(index);
  return ViewOf(*slabs_[s], lane);
}

size_t TenantHost::Find(uint64_t key) const {
  size_t index = 0;
  for (const Scalar& tenant : scalars_) {
    if (tenant.key == key) return index;
    ++index;
  }
  for (const auto& slab : slabs_) {
    for (uint64_t m = slab->engine.open_mask(); m != 0; m &= m - 1) {
      if (slab->keys[std::countr_zero(m)] == key) return index;
      ++index;
    }
  }
  return index;
}

std::vector<uint64_t> TenantHost::Checkpoint(size_t index) {
  snapshot_.Clear();
  const workload::ArrivalSource* source = nullptr;
  if (index < scalars_.size()) {
    const Scalar& tenant = scalars_[index];
    tenant.session->engine.SnapshotRun(snapshot_);
    source = tenant.source.get();
  } else {
    const auto [s, lane] = LaneAt(index);
    const Slab& slab = *slabs_[s];
    slab.engine.SnapshotLane(lane, snapshot_);
    source = slab.sources[lane].get();
  }
  if (source != nullptr) source->SaveState(snapshot_);
  return snapshot_.words();
}

void TenantHost::Evict(size_t index) {
  if (index < scalars_.size()) {
    Scalar& tenant = scalars_[index];
    tenant.session->engine.AbortRun();
    Release(tenant);
    scalars_.erase(scalars_.begin() + static_cast<ptrdiff_t>(index));
    return;
  }
  const auto [s, lane] = LaneAt(index);
  Slab& slab = *slabs_[s];
  slab.engine.AbortLane(lane);
  CloseLane(slab, lane);
  if (slab.engine.empty()) {
    slab_pool_.Release(std::move(slabs_[s]));
    slabs_.erase(slabs_.begin() + static_cast<ptrdiff_t>(s));
  }
}

}  // namespace fleet
}  // namespace rrs
