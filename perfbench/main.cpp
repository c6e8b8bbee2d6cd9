// rrs_perfbench: one workload per process.
//
//   rrs_perfbench --workload solo|fleet|dist|ratio --seed N --seconds S
//                 --trace 0|1
//
// Prints the host fingerprint, context lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// result differs from its reference, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Report;

// End-to-end metrics, printed by every untraced run.
const std::vector<Report::Metric> kEndToEnd = {
    {"rounds_per_s", "1/s"},
    {"solves_per_s", "1/s"},
    {"setup_s", "s"},
};

// Per-layer metrics, printed by every traced run. Time and count metrics
// are per unit of the workload's closed loop (one solo pass, one fleet
// RunAll, one dist fleet lifetime, one ratio corpus pass).
const std::vector<Report::Metric> kLayers = {
    {"workload.scan_s", "s"},
    {"workload.emit_s", "s"},
    {"workload.clone_s", "s"},
    {"sched.decide_s", "s"},
    {"sched.decide_p99_us", "us"},
    {"core.step_self_s", "s"},
    {"core.online_s", "s"},
    {"core.allocs_per_round", "count"},
    {"core.reconfigs", "count"},
    {"core.drops", "count"},
    {"core.executed", "count"},
    {"core.round_p50_us", "us"},
    {"core.round_p99_us", "us"},
    {"core.round_samples", "count"},
    {"fleet.run_s", "s"},
    {"fleet.cpu_util", "ratio"},
    {"fleet.threads", "count"},
    {"fleet.shard_skew_s", "s"},
    {"fleet.lane_occupancy", "ratio"},
    {"fleet.slab_rounds", "count"},
    {"fleet.batched_share", "ratio"},
    {"fleet.sessions", "count"},
    {"fleet.pool_hit", "ratio"},
    {"fleet.pool_acquires", "count"},
    {"fleet.ticks", "count"},
    {"fleet.peak_live", "count"},
    {"fleet.slo_misses", "count"},
    {"dist.start_s", "s"},
    {"dist.add_jobs_s", "s"},
    {"dist.run_s", "s"},
    {"dist.tick_ms", "ms"},
    {"dist.ticks", "count"},
    {"dist.controller_cpu_s", "s"},
    {"dist.worker_cpu_s", "s"},
    {"dist.worker_idle_share", "ratio"},
    {"dist.worker_peak_rss_mb", "MiB"},
    {"dist.migrations", "count"},
    {"dist.failover_restores", "count"},
    {"snapshot.checkpoint_words", "count"},
    {"snapshot.checkpoint_bytes", "bytes"},
    {"offline.solve_s", "s"},
    {"offline.states_expanded", "count"},
    {"offline.states_per_s", "1/s"},
    {"offline.exact_share", "ratio"},
    {"offline.solves", "count"},
    {"offline.robust_solve_s", "s"},
    {"offline.robust_states_expanded", "count"},
    {"offline.bounds_s", "s"},
    {"parallel.cpu_util", "ratio"},
    {"peak_rss_mb", "MiB"},
    {"host.raw_rounds_per_s", "1/s"},
    {"host.fp_calibration_s", "s"},
    {"host.raw_setup_s", "s"},
    {"failed_frac", "ratio"},
    {"trace.untraced_rounds_per_s", "1/s"},
    {"trace.rounds_per_s", "1/s"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: rrs_perfbench --workload "
               "solo|fleet|dist|ratio --seed N --seconds S --trace 0|1\n",
               error);
  std::exit(2);
}

}  // namespace

namespace perfbench {

void TraceOverhead(Report& report, double untraced_rounds_per_s,
                   double traced_rounds_per_s) {
  report.Layer("trace.untraced_rounds_per_s", untraced_rounds_per_s);
  report.Layer("trace.rounds_per_s", traced_rounds_per_s);
  report.Layer("trace.overhead",
               untraced_rounds_per_s > 0
                   ? 1.0 - traced_rounds_per_s / untraced_rounds_per_s
                   : 0.0);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) Usage("flag without a value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an integer");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      Usage("unknown flag");
    }
  }

  std::printf("%s\n", perfbench::HostFingerprintJson().c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  if (args.workload == "solo") {
    perfbench::RunSolo(args, report);
  } else if (args.workload == "fleet") {
    perfbench::RunFleet(args, report);
  } else if (args.workload == "dist") {
    perfbench::RunDist(args, report);
  } else if (args.workload == "ratio") {
    perfbench::RunRatio(args, report);
  } else {
    Usage("unknown workload");
  }
  report.Layer("failed_frac",
               report.attempted == 0
                   ? 1.0
                   : static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted));
  report.Print(args.trace, kEndToEnd, kLayers);
  return report.correct() ? 0 : 1;
}
