#include "common.h"

#include <sys/resource.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <thread>

#include "obs/level.h"

// ---- Allocation counter -----------------------------------------------------
// Replaces the global operator new for the whole binary (library included).
// Counting is off unless a traced run turns it on.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void SetAllocCounting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

// ---- Report -----------------------------------------------------------------

void Report::Fail(const std::string& what, uint64_t count) {
  failed += count;
  // Keep the log readable when a systematic mismatch hits every tenant.
  if (++failures_logged_ <= 10) {
    std::fprintf(stderr, "reference mismatch: %s\n", what.c_str());
  }
}

namespace {
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void Report::Print(bool trace, const std::vector<Metric>& end_to_end,
                   const std::vector<Metric>& layers) const {
  const std::vector<Metric>& table = trace ? layers : end_to_end;
  const std::map<std::string, double>& values = trace ? layers_ : end_to_end_;
  for (const auto& [name, value] : values) {
    const bool known =
        std::any_of(table.begin(), table.end(),
                    [&](const Metric& m) { return name == m.name; });
    if (!known) {
      std::fprintf(stderr, "metric %s is not in the metric table\n",
                   name.c_str());
      std::abort();
    }
  }
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < table.size(); ++i) {
    const auto it = values.find(table[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("  %-34s %16.6g %s\n", table[i].name, value, table[i].unit);
    if (i > 0) out += ", ";
    out += std::string("\"") + table[i].name + "\": {\"value\": " +
           JsonNumber(value) + ", \"unit\": \"" + table[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- Statistics -------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

// ---- Reference digests ------------------------------------------------------

Digest DigestOf(const rrs::RunResult& r) {
  return {r.cost, r.executed, r.arrived, r.rounds_simulated};
}

std::string ToString(const Digest& d) {
  return "reconfigs=" + std::to_string(d.cost.reconfigurations) +
         " drops=" + std::to_string(d.cost.drops) +
         " executed=" + std::to_string(d.executed) +
         " arrived=" + std::to_string(d.arrived) +
         " rounds=" + std::to_string(d.rounds);
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  return z * 0x94d049bb133111ebULL + 1;
}

// ---- Resource usage ---------------------------------------------------------

double CpuSeconds(bool children) {
  rusage usage{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMiB(bool children) {
  rusage usage{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double FpCalibrationSeconds() {
  const auto start = Clock::now();
  double acc = 0;
  for (int i = 1; i <= 2000000; ++i) {
    acc += std::log(i * 0.37) + std::exp(-i * 1e-7);
  }
  volatile double sink = acc;  // keeps the loop
  (void)sink;
  return Seconds(start, Clock::now());
}

// ---- Host fingerprint -------------------------------------------------------

unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}
}  // namespace

std::string HostFingerprintJson() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string out = "{\"host\": {";
  out += "\"cpu_model\": \"" + JsonEscape(CpuModel()) + "\"";
  out += ", \"nproc\": " + std::to_string(UsableCpus());
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": \"" + JsonEscape(compiler) + "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"rrs_simd\": " + std::to_string(PERFBENCH_SIMD);
  out += ", \"rrs_obs_level\": " + std::to_string(RRS_OBS_LEVEL);
  out += "}}";
  return out;
}

// ---- Probes -----------------------------------------------------------------

TimedSource::TimedSource(std::unique_ptr<rrs::workload::ArrivalSource> inner,
                         NanoCounter* emit_ns)
    : inner_(std::move(inner)), emit_ns_(emit_ns) {
  CopyStats(*inner_);
  inner_->Reset();
}

std::unique_ptr<rrs::workload::ArrivalSource> TimedSource::Clone() const {
  return std::make_unique<TimedSource>(inner_->Clone(), emit_ns_);
}

void TimedSource::Flush() {
  if (pending_ns_ != 0) {
    emit_ns_->fetch_add(pending_ns_, std::memory_order_relaxed);
    pending_ns_ = 0;
  }
}

std::span<const rrs::workload::ArrivalSource::Run> TimedSource::EmitRound(
    rrs::Round) {
  const auto start = Clock::now();
  std::span<const Run> runs = inner_->NextRound();
  pending_ns_ += Nanos(start, Clock::now());
  return runs;
}

void TimedPolicy::Reset(const rrs::Instance& instance,
                        const rrs::EngineOptions& options) {
  inner_.Reset(instance, options);
  round_ns_ = 0;
}

// Each hook adds its own duration; one round's hooks sum into round_ns_.
#define PERFBENCH_TIMED(call)               \
  do {                                      \
    const auto start_ = Clock::now();       \
    call;                                   \
    round_ns_ += Nanos(start_, Clock::now()); \
  } while (0)

void TimedPolicy::OnJobsDropped(rrs::Round k, rrs::ColorId c, uint64_t count,
                                std::span<const rrs::JobId> jobs) {
  PERFBENCH_TIMED(inner_.OnJobsDropped(k, c, count, jobs));
}
void TimedPolicy::AfterDropPhase(rrs::Round k) {
  PERFBENCH_TIMED(inner_.AfterDropPhase(k));
}
void TimedPolicy::OnArrivals(rrs::Round k, rrs::ColorId c, uint64_t count) {
  PERFBENCH_TIMED(inner_.OnArrivals(k, c, count));
}
void TimedPolicy::AfterArrivalPhase(rrs::Round k) {
  PERFBENCH_TIMED(inner_.AfterArrivalPhase(k));
}
void TimedPolicy::Reconfigure(rrs::Round k, int mini,
                              rrs::ResourceView& view) {
  PERFBENCH_TIMED(inner_.Reconfigure(k, mini, view));
}

#undef PERFBENCH_TIMED

}  // namespace perfbench
