#include "sched/batched_base.h"

#include "util/check.h"

namespace rrs {

void BatchedSchedulerBase::Reset(const Instance& instance,
                                 const EngineOptions& options) {
  instance_ = &instance;
  table_.Reset(instance, options.cost_model.delta);
  uint32_t primary = PrimarySlots(options.num_resources);
  RRS_CHECK_GE(primary, 1u)
      << name() << " needs more resources (n=" << options.num_resources << ")";
  if (Replicate()) {
    RRS_CHECK_LE(primary * 2, options.num_resources)
        << name() << ": replication needs 2x primary slots";
  } else {
    RRS_CHECK_LE(primary, options.num_resources);
  }
  slots_.Reset(primary, instance.num_colors(), Replicate());
  ineligible_job_ids_.clear();
  OnReset();
}

void BatchedSchedulerBase::OnJobsDropped(Round k, ColorId c, uint64_t count,
                                         std::span<const JobId> jobs) {
  (void)k;
  table_.RecordDrop(c, count);
  if (collect_ineligible_jobs_ && !table_.eligible(c)) {
    ineligible_job_ids_.insert(ineligible_job_ids_.end(), jobs.begin(),
                               jobs.end());
  }
}

void BatchedSchedulerBase::AfterDropPhase(Round k) {
  table_.ProcessBoundary(k, slots_.cached_words(), events_);
  for (ColorId c : events_.became_ineligible) OnBecameIneligible(k, c);
  for (ColorId c : events_.timestamp_updated) OnTimestampUpdated(k, c);
}

void BatchedSchedulerBase::OnArrivals(Round k, ColorId c, uint64_t count) {
  if (table_.OnArrivals(k, c, count)) OnBecameEligible(k, c);
}

void BatchedSchedulerBase::ExportMetrics(obs::Registry& registry) const {
  table_.ExportMetrics(registry);
}

void BatchedSchedulerBase::SaveState(snapshot::Writer& w) const {
  table_.SaveState(w);
  slots_.SaveState(w);
  w.BeginSection(snapshot::kTagPolicyBatched);
  w.PutVec(ineligible_job_ids_);
  w.EndSection();
}

void BatchedSchedulerBase::LoadState(snapshot::Reader& r) {
  table_.LoadState(r);
  slots_.LoadState(r);
  r.BeginSection(snapshot::kTagPolicyBatched);
  r.GetVec(ineligible_job_ids_);
  r.EndSection();
}

}  // namespace rrs
