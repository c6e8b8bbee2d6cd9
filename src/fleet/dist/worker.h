// The worker side of the distributed fleet: one process hosting sharded
// tenants, driven entirely by protocol frames on its control socket.
//
// WorkerMain is the whole worker — shard TenantHosts (fleet/tenant_host.h)
// plus an event loop that blocks on RecvFrame and dispatches: Config builds
// the shards (one host each, packing tenants into 64-lane slabs, policies
// from the registry, an optional internal ThreadPool, an optional metrics
// ExportServer); AddInstances/AddTenants/AddSources install work (a
// streaming tenant's source is a Clone of one prototype per spec, built at
// the spec's first use); Tick admits waiting
// tenants up to the live cap, steps every shard's host one round bucket
// (shards in parallel on the internal pool), and replies with a TickReport
// carrying completions, per-tenant SLO progress rows, optional per-round
// trace rows, and — when the controller asks — a checkpoint of every
// still-live tenant; Snapshot/Restore/Shed map onto the host's
// Checkpoint + Evict, Admit from checkpoint words, and Evict for the
// migration and failover edges. Shutdown replies Bye with lifetime totals
// and returns.
//
// Determinism: shard assignment is admission-order round-robin, every shard
// is touched by exactly one thread per tick, and all report rows are merged
// in shard order then sorted by tenant — so a worker's observable behavior
// is a pure function of the frame sequence it receives, independent of its
// internal thread count.
//
// Normally entered in a freshly forked child (DistController::Start); tests
// may also run it on a thread in-process against one end of a socketpair —
// it touches no global state.
#pragma once

#include <cstdint>

namespace rrs {
namespace fleet {
namespace dist {

// Runs the worker event loop on `fd` (one end of the controller's
// socketpair) until Shutdown or controller EOF. Returns the process exit
// code (0 on clean shutdown).
int WorkerMain(int fd, uint64_t worker_index);

}  // namespace dist
}  // namespace fleet
}  // namespace rrs
