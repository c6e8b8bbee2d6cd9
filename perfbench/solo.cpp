// solo: one long streaming tenant on the scalar Engine, stepped one round per
// call on one thread — the per-round decision loop of ΔLRU-EDF on its own
// input class (rate-limited batched arrivals). Loads core, sched and
// workload; bypasses fleet, dist, snapshot and offline.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "sched/dlru_edf.h"
#include "workload/source.h"
#include "workloads.h"

namespace perfbench {
namespace {

// 128 colors with delay bounds cycling 1..32 and 1/16 job per color per
// round: about 8 jobs per round offered to 8 resources, the load near the
// resource count.
constexpr size_t kColors = 128;
constexpr double kRatePerColor = 0.0625;
constexpr rrs::Round kRounds = 200000;
constexpr uint32_t kResources = 8;
constexpr uint64_t kDelta = 4;
// Rounds of the untimed warm-up (caches, branch predictors, page-in).
constexpr rrs::Round kWarmupRounds = 20000;

std::unique_ptr<rrs::workload::ArrivalSource> MakeStream(uint64_t seed) {
  const rrs::Round delays[] = {1, 2, 4, 8, 16, 32};
  std::vector<rrs::workload::ColorSpec> specs;
  for (size_t c = 0; c < kColors; ++c) {
    specs.push_back({delays[c % 6], kRatePerColor});
  }
  rrs::workload::PoissonOptions gen;
  gen.rounds = kRounds;
  gen.rate_limited = true;
  gen.seed = seed;
  return rrs::workload::MakePoissonSource(std::move(specs), gen);
}

struct Pass {
  double seconds = 0;
  double calibration_s = 0;  // FpCalibrationSeconds() right after the pass
  Digest digest;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t samples = 0;
  uint64_t step_ns = 0;
  // Traced passes only.
  uint64_t decide_ns = 0;
  double decide_p99_us = 0;

  double raw_rate() const {
    return static_cast<double>(digest.rounds) / seconds;
  }
  double scaled_rate() const {
    return raw_rate() * calibration_s / kFpReferenceS;
  }
};

// One full pass over the stream, one StepRounds(1) call per round, each
// call timed. Samples go into fixed-size log histograms rather than a
// per-round log, so recording them adds no cache traffic to the loop.
// `probe` (traced passes) also collects per-round decide time.
Pass RunPass(rrs::Engine& engine, rrs::SchedulerPolicy& policy,
             TimedPolicy* probe) {
  rrs::obs::LogHistogram step_hist, decide_hist;
  Pass pass;
  rrs::RunResult result;
  const auto start = Clock::now();
  engine.BeginRun(policy);
  if (probe != nullptr) probe->TakeRound();  // drop Reset-time hooks
  bool more = true;
  while (more) {
    const auto t0 = Clock::now();
    more = engine.StepRounds(1);
    step_hist.Record(Nanos(t0, Clock::now()));
    if (probe != nullptr) decide_hist.Record(probe->TakeRound());
  }
  engine.FinishRun(result);
  pass.seconds = Seconds(start, Clock::now());
  pass.calibration_s = FpCalibrationSeconds();
  pass.digest = DigestOf(result);
  pass.samples = step_hist.count();
  pass.step_ns = step_hist.sum();
  pass.decide_ns = decide_hist.sum();
  pass.p50_us = step_hist.Quantile(0.5) / 1000.0;
  pass.p99_us = step_hist.Quantile(0.99) / 1000.0;
  pass.decide_p99_us = decide_hist.Quantile(0.99) / 1000.0;
  return pass;
}

}  // namespace

void RunSolo(const Args& args, Report& report) {
  rrs::EngineOptions options;
  options.num_resources = kResources;
  options.cost_model.delta = kDelta;

  // Set-up: build the source (its constructor runs the FinishInit dry scan
  // over every round) and bind a fresh engine to it. The scan is Poisson
  // draws too, so set-up time is scaled by the calibration taken right
  // after it, like throughput.
  std::vector<double> setup_s, raw_setup_s, scan_s;
  std::unique_ptr<rrs::workload::ArrivalSource> source;
  rrs::Engine engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    source = MakeStream(args.seed);
    const auto t1 = Clock::now();
    engine = rrs::Engine();
    engine.Reset(*source, options);
    const auto t2 = Clock::now();
    const double calibration_s = FpCalibrationSeconds();
    scan_s.push_back(Seconds(t0, t1));
    raw_setup_s.push_back(Seconds(t0, t2));
    setup_s.push_back(Seconds(t0, t2) * kFpReferenceS / calibration_s);
  }

  rrs::DlruEdfPolicy policy;
  engine.BeginRun(policy);
  engine.StepRounds(kWarmupRounds);
  engine.AbortRun();

  std::vector<Pass> passes;
  const auto loop_start = Clock::now();
  do {
    passes.push_back(RunPass(engine, policy, nullptr));
  } while (Seconds(loop_start, Clock::now()) < args.seconds);

  std::vector<Pass> traced;
  NanoCounter emit_ns{0};
  uint64_t traced_allocs = 0;
  if (args.trace) {
    TimedSource timed_source(source->Clone(), &emit_ns);
    TimedPolicy probe(policy);
    engine.Reset(timed_source, options);
    const uint64_t allocs_before = AllocCount();
    SetAllocCounting(true);
    const auto traced_start = Clock::now();
    do {
      traced.push_back(RunPass(engine, probe, &probe));
      timed_source.Flush();
    } while (Seconds(traced_start, Clock::now()) < args.seconds);
    SetAllocCounting(false);
    traced_allocs = AllocCount() - allocs_before;
    engine.Reset(*source, options);
  }
  const double peak_rss = PeakRssMiB();

  // Reference: a fresh engine replaying the materialized stream (the
  // InstanceSource path, not the streaming one timed above).
  const rrs::Instance instance = rrs::workload::Materialize(*source->Clone());
  rrs::DlruEdfPolicy fresh;
  const Digest want = DigestOf(rrs::RunPolicy(instance, fresh, options));
  for (const std::vector<Pass>* set : {&passes, &traced}) {
    for (const Pass& pass : *set) {
      ++report.attempted;
      if (!(pass.digest == want)) {
        report.Fail("solo pass " + ToString(pass.digest) + " vs reference " +
                    ToString(want));
      }
    }
  }

  std::vector<double> scaled, raw, calibration, p50, p99;
  uint64_t samples = 0;
  for (const Pass& pass : passes) {
    scaled.push_back(pass.scaled_rate());
    raw.push_back(pass.raw_rate());
    calibration.push_back(pass.calibration_s);
    p50.push_back(pass.p50_us);
    p99.push_back(pass.p99_us);
    samples += pass.samples;
  }
  const double rounds_per_s = Median(scaled);
  report.EndToEnd("rounds_per_s", rounds_per_s);
  // Stream passes per second, on the same scale.
  report.EndToEnd("solves_per_s",
                  rounds_per_s / static_cast<double>(want.rounds));
  report.EndToEnd("setup_s", Median(setup_s));

  report.Layer("peak_rss_mb", peak_rss);
  report.Layer("host.raw_rounds_per_s", Median(raw));
  report.Layer("host.fp_calibration_s", Median(calibration));
  report.Layer("host.raw_setup_s", Median(raw_setup_s));
  report.Layer("workload.scan_s", Median(scan_s));
  report.Layer("core.round_p50_us", Median(p50));
  report.Layer("core.round_p99_us", Median(p99));
  report.Layer("core.round_samples", static_cast<double>(samples));
  report.Layer("core.reconfigs", static_cast<double>(want.cost.reconfigurations));
  report.Layer("core.drops", static_cast<double>(want.cost.drops));
  report.Layer("core.executed", static_cast<double>(want.executed));

  char line[320];
  std::snprintf(line, sizeof line,
                "solo: %zu passes of %lld rounds, %zu colors, %u resources; "
                "raw rounds/s min %.0f median %.0f max %.0f; fp calibration "
                "median %.4f s; round latency p50 %.3f us p99 %.3f us over "
                "%llu samples",
                passes.size(), static_cast<long long>(want.rounds), kColors,
                kResources, *std::min_element(raw.begin(), raw.end()),
                Median(raw), *std::max_element(raw.begin(), raw.end()),
                Median(calibration), Median(p50), Median(p99),
                static_cast<unsigned long long>(samples));
  report.Note(line);

  if (args.trace) {
    std::vector<double> traced_rates, decide_s, decide_p99;
    uint64_t traced_rounds = 0, step_total = 0, decide_total = 0;
    for (const Pass& pass : traced) {
      traced_rates.push_back(pass.scaled_rate());
      decide_s.push_back(static_cast<double>(pass.decide_ns) * 1e-9);
      decide_p99.push_back(pass.decide_p99_us);
      traced_rounds += static_cast<uint64_t>(pass.digest.rounds);
      step_total += pass.step_ns;
      decide_total += pass.decide_ns;
    }
    const double n = static_cast<double>(traced.size());
    const double emit_per_pass = static_cast<double>(emit_ns.load()) * 1e-9 / n;
    report.Layer("workload.emit_s", emit_per_pass);
    report.Layer("sched.decide_s", Median(decide_s));
    report.Layer("sched.decide_p99_us", Median(decide_p99));
    report.Layer("core.step_self_s",
                 static_cast<double>(step_total - decide_total) * 1e-9 / n -
                     emit_per_pass);
    report.Layer("core.allocs_per_round",
                 static_cast<double>(traced_allocs) /
                     static_cast<double>(traced_rounds));
    TraceOverhead(report, rounds_per_s, Median(traced_rates));
  }
}

}  // namespace perfbench
