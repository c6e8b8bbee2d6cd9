// E11 — substrate microbenchmarks (google-benchmark): the LruTracker behind
// the ΔLRU schedulers, the thread-pool sweep scaling, the streaming Poisson
// source's shape scan and per-round emission, and the scalar ΔLRU-EDF round
// on a materialized stream.
#include <atomic>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "container/lru_tracker.h"
#include "core/engine.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "sched/dlru_edf.h"
#include "util/rng.h"
#include "workload/source.h"
#include "workload/synthetic.h"

namespace {

void BM_LruTrackerTouchTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  rrs::Rng rng(5);
  rrs::LruTracker lru(n);
  for (uint32_t k = 0; k < n; ++k) lru.Insert(k, static_cast<int64_t>(k));
  int64_t ts = static_cast<int64_t>(n);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    lru.Touch(static_cast<uint32_t>(rng.NextBounded(n)), ++ts);
    lru.TopK(n / 4, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  rrs::ThreadPool pool(threads);
  const int64_t work_items = 1 << 14;
  for (auto _ : state) {
    std::atomic<uint64_t> total{0};
    rrs::ParallelFor(pool, 0, work_items, [&](int64_t i) {
      // Simulate a small deterministic computation per item.
      uint64_t h = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
      total.fetch_add(h & 0xff, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(total.load());
  }
  state.SetItemsProcessed(state.iterations() * work_items);
}

// Rate-limited Poisson streams in the perfbench shapes, delay bounds cycling
// 1..32: solo's (128 colors, 1/16 job per color-round) and a fleet tenant's
// (16 colors, 0.5 per color-round).
struct StreamShape {
  size_t colors;
  double rate;
};
constexpr StreamShape kSoloShape{128, 0.0625};
constexpr StreamShape kFleetShape{16, 0.5};

std::vector<rrs::workload::ColorSpec> ShapeSpecs(StreamShape shape) {
  const rrs::Round delays[] = {1, 2, 4, 8, 16, 32};
  std::vector<rrs::workload::ColorSpec> specs;
  for (size_t c = 0; c < shape.colors; ++c) {
    specs.push_back({delays[c % 6], shape.rate});
  }
  return specs;
}

rrs::workload::PoissonOptions ShapeOptions(rrs::Round rounds) {
  rrs::workload::PoissonOptions gen;
  gen.rounds = rounds;
  gen.rate_limited = true;
  gen.seed = 21;
  return gen;
}

std::unique_ptr<rrs::workload::ArrivalSource> MakeStream(StreamShape shape,
                                                         rrs::Round rounds) {
  return rrs::workload::MakePoissonSource(ShapeSpecs(shape),
                                          ShapeOptions(rounds));
}

// Time per color-round, shown by the `per_color_round` counter.
void SetColorRounds(benchmark::State& state, int64_t per_iteration) {
  state.SetItemsProcessed(state.iterations() * per_iteration);
  state.counters["per_color_round"] = benchmark::Counter(
      static_cast<double>(per_iteration),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// Construction: the FinishInit shape scan draws every round once.
void BM_PoissonSourceScan(benchmark::State& state, StreamShape shape) {
  constexpr rrs::Round kRounds = 20000;
  for (auto _ : state) {
    auto source = MakeStream(shape, kRounds);
    benchmark::DoNotOptimize(source->horizon());
  }
  SetColorRounds(state, kRounds * static_cast<int64_t>(shape.colors));
}

// Emission: one NextRound per iteration. The stream is long enough that
// the branch predictor cannot learn it across rewinds.
void BM_PoissonSourceEmit(benchmark::State& state, StreamShape shape) {
  auto source = MakeStream(shape, 1 << 16);
  for (auto _ : state) {
    if (source->cursor() == source->num_request_rounds()) source->Reset();
    auto runs = source->NextRound();
    benchmark::DoNotOptimize(runs.data());
  }
  SetColorRounds(state, static_cast<int64_t>(shape.colors));
}

// The scalar decision layer: one Engine round of ΔLRU-EDF per iteration over
// a materialized stream of the shape, on the perfbench resource setup (8
// resources, Δ = 4). The instance-fed engine emits nothing, so the time is
// the round's drop, boundary, arrival, reconfiguration and execution work.
// The `per_round` counter shows the time per round.
void BM_DlruEdfRound(benchmark::State& state, StreamShape shape) {
  const rrs::Instance instance = rrs::workload::MakePoisson(
      ShapeSpecs(shape), ShapeOptions(rrs::Round{1} << 14));
  rrs::EngineOptions options;
  options.num_resources = 8;
  options.cost_model.delta = 4;
  rrs::Engine engine(instance, options);
  rrs::DlruEdfPolicy policy;
  rrs::RunResult result;
  engine.BeginRun(policy);
  for (auto _ : state) {
    if (!engine.StepRounds(1)) {
      state.PauseTiming();
      engine.FinishRun(result);
      engine.BeginRun(policy);
      state.ResumeTiming();
    }
  }
  engine.AbortRun();
  state.SetItemsProcessed(state.iterations());
  state.counters["per_round"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate |
               benchmark::Counter::kInvert);
}

}  // namespace

BENCHMARK(BM_LruTrackerTouchTopK)->Arg(64)->Arg(1024);
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_PoissonSourceScan, solo, kSoloShape);
BENCHMARK_CAPTURE(BM_PoissonSourceScan, fleet, kFleetShape);
BENCHMARK_CAPTURE(BM_PoissonSourceEmit, solo, kSoloShape);
BENCHMARK_CAPTURE(BM_PoissonSourceEmit, fleet, kFleetShape);
BENCHMARK_CAPTURE(BM_DlruEdfRound, solo, kSoloShape);
BENCHMARK_CAPTURE(BM_DlruEdfRound, fleet, kFleetShape);

BENCHMARK_MAIN();
