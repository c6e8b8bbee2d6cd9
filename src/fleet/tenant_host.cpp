#include "fleet/tenant_host.h"

#include "obs/trace.h"
#include "util/check.h"

namespace rrs {
namespace fleet {

TenantHost::TenantHost(PolicyFactory policy_factory)
    : pool_([factory = std::move(policy_factory)] {
        auto session = std::make_unique<Session>();
        session->policy = factory();
        RRS_CHECK(session->policy != nullptr) << "policy factory returned null";
        return session;
      }) {}

void TenantHost::Admit(uint64_t key, const Instance* instance,
                       std::unique_ptr<workload::ArrivalSource> source,
                       const EngineOptions& options,
                       std::span<const uint64_t> checkpoint) {
  RRS_CHECK((instance != nullptr) != (source != nullptr))
      << "a tenant binds exactly one of an instance and a source";
  Tenant& tenant = live_.emplace_back();
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

bool TenantHost::Advance(Tenant& tenant, Round rounds, uint64_t& stepped) {
  obs::TraceTrack* track =
      tracer_ != nullptr ? tracer_->ThreadTrack() : nullptr;
  obs::Span span(tracer_, track, trace_label_, tenant.key);
  Engine& engine = tenant.session->engine;
  const Round before = engine.next_round();
  const bool more = engine.StepRounds(rounds);
  stepped += static_cast<uint64_t>(engine.next_round() - before);
  return more;
}

RunResult& TenantHost::Finish(Tenant& tenant) {
  tenant.session->engine.FinishRun(finished_);
  return finished_;
}

std::vector<uint64_t> TenantHost::Checkpoint(size_t index) {
  const Tenant& tenant = live_[index];
  snapshot_.Clear();
  tenant.session->engine.SnapshotRun(snapshot_);
  if (tenant.source != nullptr) tenant.source->SaveState(snapshot_);
  return snapshot_.words();
}

void TenantHost::Evict(size_t index) {
  Tenant& tenant = live_[index];
  tenant.session->engine.AbortRun();
  pool_.Release(std::move(tenant.session));
  live_.erase(live_.begin() + static_cast<ptrdiff_t>(index));
}

}  // namespace fleet
}  // namespace rrs
