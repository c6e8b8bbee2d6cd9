#include "fleet/dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "fleet/dist/protocol.h"
#include "fleet/tenant_host.h"
#include "net/socket.h"
#include "obs/export_server.h"
#include "obs/level.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "sched/registry.h"
#include "util/check.h"
#include "workload/arrival_source.h"
#include "workload/generator_spec.h"

namespace rrs {
namespace fleet {
namespace dist {

namespace {

class Worker {
 public:
  Worker(int fd, uint64_t index) : fd_(fd), index_(index) {}

  int Run() {
    if (!SendHello()) return 1;
    std::vector<uint64_t> payload;
    for (;;) {
      uint64_t type = 0;
      std::string error;
      if (!net::RecvFrame(fd_, &type, &payload, net::Deadline::Infinite(),
                          &error)) {
        // Clean EOF (empty error) = controller went away without Shutdown —
        // e.g. a controller crash. Exit quietly; anything else is a wire
        // fault worth a nonzero exit.
        return error.empty() ? 0 : 1;
      }
      snapshot::Reader reader(payload);
      switch (type) {
        case kMsgConfig:
          HandleConfig(reader);
          break;
        case kMsgAddInstances:
          HandleAddInstances(reader);
          break;
        case kMsgAddTenants:
          HandleAddTenants(reader);
          break;
        case kMsgAddSources:
          HandleAddSources(reader);
          break;
        case kMsgTick:
          HandleTick(reader);
          break;
        case kMsgSnapshotTenant:
          HandleSnapshotTenant(reader);
          break;
        case kMsgRestoreTenant:
          HandleRestoreTenant(reader);
          break;
        case kMsgShedTenant:
          HandleShedTenant(reader);
          break;
        case kMsgShutdown:
          reply_.Clear();
          PutWorkerStats(reply_, stats_);
          Send(kMsgBye);
          return 0;
        default:
          RRS_CHECK(false) << "worker " << index_ << ": unexpected frame "
                           << MsgTypeName(type) << " (" << type << ")";
      }
      RRS_CHECK(reader.AtEnd())
          << "worker " << index_ << ": trailing words after "
          << MsgTypeName(type);
    }
  }

 private:
  bool SendHello() {
    HelloInfo hello;
    hello.worker_index = index_;
    hello.pid = static_cast<uint64_t>(::getpid());
    hello.protocol_version = kProtocolVersion;
    reply_.Clear();
    PutHello(reply_, hello);
    return net::SendFrame(fd_, kMsgHello, reply_.words());
  }

  void Send(uint64_t type) {
    RRS_CHECK(net::SendFrame(fd_, type, reply_.words()))
        << "worker " << index_ << ": send " << MsgTypeName(type) << " failed";
  }

  void HandleConfig(snapshot::Reader& reader) {
    RRS_CHECK(hosts_.empty()) << "duplicate Config";
    config_ = GetConfig(reader);
    RRS_CHECK_GE(config_.rounds_per_tick, 1);
    const std::string policy =
        config_.policy.empty() ? std::string("dlru-edf") : config_.policy;
    // Every session gets its own policy instance from the registry; a
    // restored tenant resumes on a fresh one (RestoreRun reloads its state).
    auto factory = [policy] {
      auto scheduler = MakePolicy(policy);
      RRS_CHECK(scheduler != nullptr)
          << "unknown policy in worker config: " << policy;
      return scheduler;
    };
    const size_t num_shards = std::max<uint32_t>(1, config_.threads);
    hosts_.reserve(num_shards);
    // Every host packs batchable tenants into full-width lane slabs: lanes
    // are bit-identical to scalar sessions, so the width needs no knob.
    for (size_t s = 0; s < num_shards; ++s) {
      hosts_.emplace_back(factory, BatchEngine::kMaxLanes);
    }
    slices_.resize(num_shards);
    if (config_.threads > 0) {
      pool_ = std::make_unique<ThreadPool>(config_.threads);
    }
    uint64_t metrics_port = 0;
    if (config_.serve_metrics && obs::kEnabled) {
      scope_ = std::make_unique<obs::Scope>();
      obs::ExportServer::Options server;
      server.scope = scope_.get();
      server.prefix = "rrs_worker";
      exporter_ = std::make_unique<obs::ExportServer>(std::move(server));
      std::string error;
      RRS_CHECK(exporter_->Start(&error))
          << "worker " << index_ << " metrics server: " << error;
      metrics_port = exporter_->port();
    }
    HelloInfo ack;
    ack.worker_index = index_;
    ack.pid = static_cast<uint64_t>(::getpid());
    ack.metrics_port = metrics_port;
    reply_.Clear();
    PutHello(reply_, ack);
    Send(kMsgConfigAck);
  }

  void HandleAddInstances(snapshot::Reader& reader) {
    std::vector<std::pair<uint32_t, Instance>> decoded;
    GetInstanceTable(reader, &decoded);
    for (auto& [id, instance] : decoded) {
      // std::map nodes are address-stable: engines keep Instance pointers
      // across rebinds, so the table must never relocate.
      const auto [it, inserted] = instances_.emplace(id, std::move(instance));
      RRS_CHECK(inserted) << "duplicate instance id " << id;
      (void)it;
    }
    reply_.Clear();
    PutTenantId(reply_, decoded.size());
    Send(kMsgConfigAck);
  }

  void HandleAddTenants(snapshot::Reader& reader) {
    GetTenantSpecs(reader, &waiting_);
    reply_.Clear();
    PutTenantId(reply_, waiting_.size());
    Send(kMsgConfigAck);
  }

  void HandleAddSources(snapshot::Reader& reader) {
    std::vector<std::pair<uint32_t, workload::GeneratorSpec>> decoded;
    GetSourceTable(reader, &decoded);
    for (auto& [id, spec] : decoded) {
      const auto [it, inserted] = sources_.emplace(id, std::move(spec));
      RRS_CHECK(inserted) << "duplicate source id " << id;
      (void)it;
    }
    reply_.Clear();
    PutTenantId(reply_, decoded.size());
    Send(kMsgConfigAck);
  }

  // A tenant's shipped instance (null for streaming tenants).
  const Instance* InstanceOf(const TenantSpec& spec) const {
    if (spec.source_id != kNoSourceId) return nullptr;
    const auto it = instances_.find(spec.instance_id);
    RRS_CHECK(it != instances_.end())
        << "tenant " << spec.tenant << " references unknown instance "
        << spec.instance_id;
    return &it->second;
  }

  // A streaming tenant's source (null for instance-fed tenants): a Clone of
  // the one prototype per shipped spec, built from the spec at the id's
  // first admission or restore — not in AddSources, which would hold up the
  // controller's AddJobs. A clone copies the prototype's precomputed stats
  // instead of rescanning the generator, and the spec is deterministic, so
  // every clone — admission here, restore on a migration target — yields
  // the same stream.
  std::unique_ptr<workload::ArrivalSource> SourceOf(const TenantSpec& spec) {
    if (spec.source_id == kNoSourceId) return nullptr;
    std::unique_ptr<workload::ArrivalSource>& prototype =
        prototypes_[spec.source_id];
    if (prototype == nullptr) {
      const auto it = sources_.find(spec.source_id);
      RRS_CHECK(it != sources_.end())
          << "tenant " << spec.tenant << " references unknown source "
          << spec.source_id;
      prototype = workload::MakeSource(it->second);
    }
    return prototype->Clone();
  }

  void HandleTick(snapshot::Reader& reader) {
    RRS_CHECK(!hosts_.empty()) << "Tick before Config";
    const TickCmd cmd = GetTickCmd(reader);

    // ---- Admit: bind waiting tenants to shard hosts, round-robin over
    // shards in admission order, up to the worker-wide live cap. ----
    size_t total_live = 0;
    for (const TenantHost& host : hosts_) total_live += host.size();
    size_t admitted = 0;
    while (admitted < waiting_.size() &&
           (config_.max_live_sessions == 0 ||
            total_live < config_.max_live_sessions)) {
      const TenantSpec& spec = waiting_[admitted++];
      hosts_[admit_counter_++ % hosts_.size()].Admit(
          spec.tenant, InstanceOf(spec), SourceOf(spec),
          spec.options.ToEngineOptions());
      ++total_live;
    }
    waiting_.erase(waiting_.begin(),
                   waiting_.begin() + static_cast<ptrdiff_t>(admitted));

    // ---- Step: every shard advances its live tenants one round bucket;
    // shards run in parallel on the internal pool, each touched by exactly
    // one thread. ----
    const uint64_t step_start = obs::NowNs();
    ParallelFor(pool_.get(), 0, static_cast<int64_t>(hosts_.size()),
                [&](int64_t s) {
                  const size_t shard = static_cast<size_t>(s);
                  StepShard(hosts_[shard], slices_[shard], cmd.checkpoint);
                });
    const uint64_t tick_wall_ns = obs::NowNs() - step_start;

    // ---- Barrier: merge shard slices into one report, sorted by tenant so
    // the controller's view is shard-count-invariant. ----
    TickReport report;
    report.tick = cmd.tick;
    report.tick_wall_ns = tick_wall_ns;
    report.waiting = waiting_.size();
    for (size_t s = 0; s < hosts_.size(); ++s) {
      TickReport& slice = slices_[s];
      report.rounds_stepped += slice.rounds_stepped;
      report.live += hosts_[s].size();
      std::move(slice.completed.begin(), slice.completed.end(),
                std::back_inserter(report.completed));
      report.slo.insert(report.slo.end(), slice.slo.begin(), slice.slo.end());
      report.trace.insert(report.trace.end(), slice.trace.begin(),
                          slice.trace.end());
      std::move(slice.checkpoints.begin(), slice.checkpoints.end(),
                std::back_inserter(report.checkpoints));
    }
    auto by_tenant = [](const auto& a, const auto& b) {
      return a.tenant < b.tenant;
    };
    std::sort(report.completed.begin(), report.completed.end(), by_tenant);
    std::sort(report.slo.begin(), report.slo.end(), by_tenant);
    // Trace rows: per-tenant round order is already ascending within a
    // shard; stable sort keeps it while grouping tenants.
    std::stable_sort(report.trace.begin(), report.trace.end(), by_tenant);
    std::sort(report.checkpoints.begin(), report.checkpoints.end(),
              by_tenant);

    ++stats_.ticks;
    stats_.rounds_stepped += report.rounds_stepped;
    stats_.sessions_completed += report.completed.size();
    stats_.snapshots += report.checkpoints.size();
    if (scope_ != nullptr) {
      // The hosts' lane counters are cumulative; the scope takes deltas.
      std::array<uint64_t, 3> lanes{};
      for (const TenantHost& host : hosts_) {
        lanes[0] += host.batched();
        lanes[1] += host.lane_rounds();
        lanes[2] += host.slab_rounds();
      }
      const std::pair<std::string_view, uint64_t> counters[] = {
          {"dist.worker.ticks", 1},
          {"dist.worker.rounds_stepped", report.rounds_stepped},
          {"dist.worker.completed", report.completed.size()},
          {"dist.worker.checkpoints", report.checkpoints.size()},
          {"dist.worker.batched_sessions", lanes[0] - absorbed_lanes_[0]},
          {"dist.worker.lane_rounds", lanes[1] - absorbed_lanes_[1]},
          {"dist.worker.slab_rounds", lanes[2] - absorbed_lanes_[2]},
      };
      scope_->AbsorbCounters(counters);
      absorbed_lanes_ = lanes;
      scope_->AbsorbGauge("dist.worker.live",
                          static_cast<double>(report.live));
      scope_->AbsorbGauge("dist.worker.waiting",
                          static_cast<double>(report.waiting));
    }

    reply_.Clear();
    PutTickReport(reply_, report);
    Send(kMsgTickDone);
  }

  // Steps one shard's host and fills its slice of the TickReport. Touched
  // by exactly one thread per tick, so nothing here is synchronized.
  void StepShard(TenantHost& host, TickReport& slice, bool checkpoint) {
    slice.completed.clear();
    slice.slo.clear();
    slice.trace.clear();
    slice.checkpoints.clear();
    slice.rounds_stepped = 0;
    auto completed = [&](const TenantHost::TenantView& tenant,
                         RunResult& result) {
      TenantResult& done = slice.completed.emplace_back();
      done.tenant = tenant.key;
      done.result = std::move(result);
      if (!config_.collect_results) {
        // Completion signal only: keep the scalars (cheap, and enough for
        // the controller's accounting), drop the per-color vectors and
        // counter map that dominate the wire at 1M tenants.
        done.result.drops_per_color.clear();
        done.result.telemetry = obs::Telemetry();
      }
    };
    if (config_.report_trace) {
      // One round per Step with one trace row per tenant-round: the exact
      // fold the golden-trace digests hash, resumable across migrations
      // because every row carries its round. The report's stable sort by
      // tenant regroups each tenant's rows in round order.
      auto row = [&](const TenantHost::TenantView& tenant) {
        slice.trace.push_back(
            {tenant.key, static_cast<uint64_t>(tenant.next_round),
             tenant.cost.reconfigurations, tenant.cost.drops,
             tenant.cost.weighted_drops, tenant.executed});
      };
      for (Round r = 0; r < config_.rounds_per_tick; ++r) {
        slice.rounds_stepped += host.Step(
            1, row,
            [&](const TenantHost::TenantView& tenant, RunResult& result) {
              row(tenant);
              completed(tenant, result);
            });
      }
    } else {
      slice.rounds_stepped += host.Step(
          config_.rounds_per_tick, [](const TenantHost::TenantView&) {},
          completed);
    }
    // SLO rows and checkpoints: one pass over the tenants still live.
    for (size_t i = 0; i < host.size(); ++i) {
      const TenantHost::TenantView tenant = host.view(i);
      const uint64_t round = static_cast<uint64_t>(tenant.next_round);
      if (config_.report_slo) {
        slice.slo.push_back({tenant.key, round, tenant.cost.drops});
      }
      if (checkpoint) {
        slice.checkpoints.push_back({tenant.key, round, host.Checkpoint(i)});
      }
    }
  }

  // Finds `tenant` for a placement change: kTenantLive with its host and
  // live index, kTenantWaiting after dropping it from the queue, or
  // kTenantMissing.
  uint64_t Locate(uint64_t tenant, TenantHost** host, size_t* index) {
    for (TenantHost& candidate : hosts_) {
      const size_t i = candidate.Find(tenant);
      if (i == candidate.size()) continue;
      *host = &candidate;
      *index = i;
      return kTenantLive;
    }
    const auto it = std::find_if(
        waiting_.begin(), waiting_.end(),
        [tenant](const TenantSpec& spec) { return spec.tenant == tenant; });
    if (it == waiting_.end()) return kTenantMissing;
    waiting_.erase(it);
    return kTenantWaiting;
  }

  void HandleSnapshotTenant(snapshot::Reader& reader) {
    SnapshotReply out;
    out.checkpoint.tenant = GetTenantId(reader);
    TenantHost* host = nullptr;
    size_t index = 0;
    out.state = Locate(out.checkpoint.tenant, &host, &index);
    if (out.state == kTenantLive) {
      out.checkpoint.round =
          static_cast<uint64_t>(host->view(index).next_round);
      out.checkpoint.words = host->Checkpoint(index);
      host->Evict(index);
      ++stats_.snapshots;
    }
    reply_.Clear();
    PutSnapshotReply(reply_, out);
    Send(kMsgTenantSnapshot);
  }

  void HandleRestoreTenant(snapshot::Reader& reader) {
    RRS_CHECK(!hosts_.empty()) << "Restore before Config";
    std::vector<TenantSpec> specs;
    GetTenantSpecs(reader, &specs);
    RRS_CHECK_EQ(specs.size(), 1u);
    TenantCheckpoint checkpoint;
    GetCheckpoint(reader, &checkpoint);
    RRS_CHECK_EQ(specs[0].tenant, checkpoint.tenant);
    const TenantSpec& spec = specs[0];
    // Restores are exempt from the live cap: a checkpointed tenant must
    // come back regardless of load.
    hosts_[admit_counter_++ % hosts_.size()].Admit(
        spec.tenant, InstanceOf(spec), SourceOf(spec),
        spec.options.ToEngineOptions(), checkpoint.words);
    ++stats_.restores;
    reply_.Clear();
    PutTenantId(reply_, spec.tenant);
    Send(kMsgRestoreAck);
  }

  void HandleShedTenant(snapshot::Reader& reader) {
    ShedInfo info;
    info.tenant = GetTenantId(reader);
    TenantHost* host = nullptr;
    size_t index = 0;
    info.state = Locate(info.tenant, &host, &index);
    if (info.state == kTenantLive) {
      const TenantHost::TenantView tenant = host->view(index);
      info.rounds = static_cast<uint64_t>(tenant.next_round);
      info.misses = tenant.cost.drops;
      host->Evict(index);
    }
    reply_.Clear();
    PutShedInfo(reply_, info);
    Send(kMsgShedAck);
  }

  const int fd_;
  const uint64_t index_;
  WireConfig config_;
  std::map<uint32_t, Instance> instances_;
  std::map<uint32_t, workload::GeneratorSpec> sources_;
  std::map<uint32_t, std::unique_ptr<workload::ArrivalSource>> prototypes_;
  // One host per shard (keyed by tenant id) and the shard's TickReport
  // slice, merged and sorted by tenant at the barrier.
  std::vector<TenantHost> hosts_;
  std::vector<TickReport> slices_;
  std::vector<TenantSpec> waiting_;  // admission order
  size_t admit_counter_ = 0;         // shard round-robin cursor
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<obs::Scope> scope_;
  std::unique_ptr<obs::ExportServer> exporter_;
  WorkerStats stats_;
  // Host lane counters (batched, lane rounds, slab rounds) as last absorbed.
  std::array<uint64_t, 3> absorbed_lanes_{};
  snapshot::Writer reply_;
};

}  // namespace

int WorkerMain(int fd, uint64_t worker_index) {
  Worker worker(fd, worker_index);
  return worker.Run();
}

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
