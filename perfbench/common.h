// Shared pieces of the rrsched benchmark: the run arguments, the report every
// workload fills, closed-loop timing, resource usage, the host fingerprint,
// and the two forwarding probes the traced run wraps around library objects.
//
// Everything here times calls into the library from the benchmark's own
// code; no library file is instrumented for the benchmark.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/policy.h"
#include "workload/arrival_source.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline uint64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Metrics of one run, keyed by name. Units and print order come from the
// metric tables in main.cpp; a name missing from a workload's report prints
// as 0 (a layer that workload does not load). `attempted`/`failed` count
// tenant runs or solves checked against the reference.
class Report {
 public:
  struct Metric {
    const char* name;
    const char* unit;
  };

  void EndToEnd(const std::string& name, double value) {
    end_to_end_[name] = value;
  }
  void Layer(const std::string& name, double value) { layers_[name] = value; }
  // Human-readable context line (printed before the result line).
  void Note(const std::string& line) { notes_.push_back(line); }
  // Records a reference mismatch; `count` tenants or solves failed.
  void Fail(const std::string& what, uint64_t count = 1);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return failed == 0 && attempted > 0; }
  // Prints the notes, then the final one-line JSON result holding the
  // end-to-end metrics (untraced run) or the per-layer metrics (traced).
  // Aborts if the workload reported a name outside the table.
  void Print(bool trace, const std::vector<Metric>& end_to_end,
             const std::vector<Metric>& layers) const;

 private:
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layers_;
  std::vector<std::string> notes_;
  uint64_t failures_logged_ = 0;
};

// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

// The result fields every reference check compares for one tenant run.
struct Digest {
  rrs::CostBreakdown cost;
  uint64_t executed = 0;
  uint64_t arrived = 0;
  rrs::Round rounds = 0;
  friend bool operator==(const Digest&, const Digest&) = default;
};
Digest DigestOf(const rrs::RunResult& r);
std::string ToString(const Digest& d);

// Decorrelated seeds for the items a workload derives from its run seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

// User+system CPU seconds of this process (RUSAGE_SELF) or of its reaped
// children (RUSAGE_CHILDREN).
double CpuSeconds(bool children = false);
// Peak resident set size in MiB (ru_maxrss).
double PeakRssMiB(bool children = false);

// Global operator new counter; counts only while enabled (traced runs), so
// the untraced program pays one relaxed load per allocation.
void SetAllocCounting(bool on);
uint64_t AllocCount();

// Floating-point calibration. On the host this benchmark was tuned on (a
// 4-vCPU VM sharing its cores with other machines' work) the speed of
// floating-point code swings by up to 40% over tens of seconds, integer
// loops by about 10%. Poisson draws dominate the solo rounds and every
// generator set-up, so their raw times follow the floating-point swings:
// five 15 s solo runs spread 207k–322k rounds/s. Those metrics (solo's
// throughput and set-up, ratio's set-up) are scaled by
// kFpReferenceS / FpCalibrationSeconds(), a fixed log/exp loop timed on the
// same thread right after the measured work; that cut the run-to-run spread
// of solo's rounds/s from about 30% to 1.5–4%. The multi-threaded loops of
// fleet, dist and ratio did not track the loop, so they stay unscaled. The
// loop is benchmark code, identical on every commit, so a change to the
// program moves a scaled figure exactly as much as the raw one.
// kFpReferenceS is the loop's time on that host when its neighbours are
// quiet; it only sets the scale. The raw figures are reported as per-layer
// host.* metrics.
inline constexpr double kFpReferenceS = 0.024;
double FpCalibrationSeconds();

// One-line JSON object describing the host and build.
std::string HostFingerprintJson();
unsigned UsableCpus();

// Sum of nanoseconds across threads (probes flush into these).
using NanoCounter = std::atomic<uint64_t>;

// Forwarding ArrivalSource: serves the inner source's rounds unchanged and
// adds the wall time spent in the inner NextRound to `emit_ns`. The time is
// flushed when the probe is destroyed or Flush() is called, so concurrent
// tenants touch the shared counter once each.
class TimedSource final : public rrs::workload::ArrivalSource {
 public:
  TimedSource(std::unique_ptr<rrs::workload::ArrivalSource> inner,
              NanoCounter* emit_ns);
  ~TimedSource() override { Flush(); }

  Family family() const override { return inner_->family(); }
  const rrs::Instance& shape() const override { return inner_->shape(); }
  uint32_t max_backlog(rrs::ColorId c) const override {
    return inner_->max_backlog(c);
  }
  std::unique_ptr<ArrivalSource> Clone() const override;
  void Flush();

 protected:
  void ResetImpl() override { inner_->Reset(); }
  std::span<const Run> EmitRound(rrs::Round k) override;

 private:
  std::unique_ptr<rrs::workload::ArrivalSource> inner_;
  NanoCounter* emit_ns_;
  uint64_t pending_ns_ = 0;
};

// Forwarding SchedulerPolicy: calls the inner policy's hooks unchanged and
// records the wall time spent inside them, per round. Used on the solo
// workload only: BatchEngine picks its fused kernel by the policy's dynamic
// type, so wrapping a fleet policy would change the code under test.
class TimedPolicy final : public rrs::SchedulerPolicy {
 public:
  explicit TimedPolicy(rrs::SchedulerPolicy& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void Reset(const rrs::Instance& instance,
             const rrs::EngineOptions& options) override;
  void OnJobsDropped(rrs::Round k, rrs::ColorId c, uint64_t count,
                     std::span<const rrs::JobId> jobs) override;
  void AfterDropPhase(rrs::Round k) override;
  void OnArrivals(rrs::Round k, rrs::ColorId c, uint64_t count) override;
  void AfterArrivalPhase(rrs::Round k) override;
  void Reconfigure(rrs::Round k, int mini, rrs::ResourceView& view) override;
  void ExportMetrics(rrs::obs::Registry& registry) const override {
    inner_.ExportMetrics(registry);
  }
  void SaveState(rrs::snapshot::Writer& w) const override {
    inner_.SaveState(w);
  }
  void LoadState(rrs::snapshot::Reader& r) override { inner_.LoadState(r); }

  // Time inside hooks since the last TakeRound(), then zeroes it. The
  // caller takes one value per simulated round.
  uint64_t TakeRound() {
    const uint64_t ns = round_ns_;
    round_ns_ = 0;
    return ns;
  }

 private:
  rrs::SchedulerPolicy& inner_;
  uint64_t round_ns_ = 0;
};

}  // namespace perfbench
