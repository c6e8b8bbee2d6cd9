// The four benchmark workloads (see README.md). Each runs in a fresh
// process, takes its inputs from args.seed, sets up several times and
// reports the median set-up time, excludes a warm-up pass from the timed
// region, runs a closed loop for args.seconds, and checks every result
// against a reference. With args.trace the untraced loop is followed by a
// traced loop of the same length, and the report carries per-layer metrics.
#pragma once

#include "common.h"

namespace perfbench {

void RunSolo(const Args& args, Report& report);
void RunFleet(const Args& args, Report& report);
void RunDist(const Args& args, Report& report);
void RunRatio(const Args& args, Report& report);

// Set-up repetitions per run (setup_s is their median).
inline constexpr int kSetupReps = 5;

// The traced-run overhead trio, common to all workloads: the untraced and
// traced loops' rounds_per_s and the traced loop's relative slowdown.
void TraceOverhead(Report& report, double untraced_rounds_per_s,
                   double traced_rounds_per_s);

}  // namespace perfbench
