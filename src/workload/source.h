// Streaming forms of the synthetic and scenario generators.
//
// Every family here emits the exact per-round counts its materializing
// counterpart (workload/synthetic.h, workload/scenarios.h) builds into an
// Instance: the RNG fork structure and draw order are preserved — one master
// Rng seeded from options.seed, one Fork per color in color order, one draw
// (or draw pair) per color per round in round order — so
// Materialize(*MakePoissonSource(...)) is byte-identical to MakePoisson(...)
// and the legacy builders are now thin wrappers over these sources
// (golden_trace_test pins the digests). The `batched` variants aggregate
// each D-aligned window into a batch at the window start; since a window's
// draws all come from that color's own fork, a streaming source draws them
// at the window-start round without disturbing any other color's stream.
//
// State (SaveState/LoadState) is the cursor plus the per-color RNG states
// and any modulation state (burst flags, Zipf window accumulators), so a
// restored source continues bit-identically — the dist fleet's live
// migration path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.h"
#include "workload/arrival_source.h"
#include "workload/scenarios.h"
#include "workload/synthetic.h"

namespace rrs {
namespace workload {

// Shared machinery for families driven by one independent RNG fork per
// color: a jobless shape, the fork chain, and the D-aligned batching loop.
// Subclasses implement DrawCount(c, r) — the next per-round count from color
// c's own RNG — plus hooks for extra modulation state.
class SeriesSource : public ArrivalSource {
 public:
  const Instance& shape() const override { return shape_; }

 protected:
  // `fork_base` is the master RNG state from which per-color forks are
  // taken at every Reset (for most families Rng(seed); Datacenter advances
  // it past the phase shuffles first).
  void InitSeries(Instance shape, Round raw_rounds, bool batched,
                  bool rate_limited, Rng fork_base);

  void ResetImpl() override;
  std::span<const Run> EmitRound(Round k) override;
  void SaveBody(snapshot::Writer& w) const override;
  void LoadBody(snapshot::Reader& r) override;

  // The next count for color c (round r is informational — draws must come
  // from rngs_[c] so each color's stream is fork-local).
  virtual uint64_t DrawCount(ColorId c, Round r) = 0;
  // Reset/save/load modulation state beyond the RNG forks.
  virtual void ResetSeries() {}
  virtual void SaveSeries(snapshot::Writer&) const {}
  virtual void LoadSeries(snapshot::Reader&) {}

  Instance shape_;
  Round raw_rounds_ = 0;
  bool batched_ = false;
  bool rate_limited_ = false;
  Rng fork_base_{0};
  std::vector<Rng> rngs_;
};

// ---- synthetic.h counterparts --------------------------------------------

class PoissonSource final : public SeriesSource {
 public:
  PoissonSource(std::vector<ColorSpec> colors, const PoissonOptions& options);

  Family family() const override { return Family::kPoisson; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  uint64_t DrawCount(ColorId c, Round r) override;

 private:
  std::vector<ColorSpec> colors_;
  PoissonOptions options_;
  // Per color: exp(-rate) for Rng::PoissonProduct, or 0 where the rate
  // needs Rng::Poisson (0, or 30 and up).
  std::vector<double> limits_;
};

class BurstySource final : public SeriesSource {
 public:
  BurstySource(std::vector<ColorSpec> colors, const BurstyOptions& options);

  Family family() const override { return Family::kBursty; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  uint64_t DrawCount(ColorId c, Round r) override;
  void ResetSeries() override;
  void SaveSeries(snapshot::Writer& w) const override;
  void LoadSeries(snapshot::Reader& r) override;

 private:
  std::vector<ColorSpec> colors_;
  BurstyOptions options_;
  std::vector<uint8_t> on_;  // per-color Markov state
};

// Zipf draws from one shared RNG (total per round, then a color per job), so
// it is not a SeriesSource. The batched variant must aggregate each color's
// D_c-aligned windows while drawing raw rows strictly in round order; rows
// are drawn lazily at window-start rounds and folded into per-color window
// accumulator rings (bounded by max D / D_c windows in flight).
class ZipfSource final : public ArrivalSource {
 public:
  explicit ZipfSource(const ZipfOptions& options);

  Family family() const override { return Family::kZipf; }
  const Instance& shape() const override { return shape_; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  void ResetImpl() override;
  std::span<const Run> EmitRound(Round k) override;
  void SaveBody(snapshot::Writer& w) const override;
  void LoadBody(snapshot::Reader& r) override;

 private:
  void DrawRowsThrough(Round needed);

  ZipfOptions options_;
  Instance shape_;
  bool batched_ = false;
  ZipfDistribution zipf_;
  Rng rng_{0};
  // Non-batched scratch: dense per-color counts for the current row.
  std::vector<uint64_t> row_counts_;
  std::vector<ColorId> row_touched_;
  // Batched state: raw rows drawn so far and per-color window accumulator
  // rings (slot = window index mod ring size).
  Round next_raw_ = 0;
  std::vector<std::vector<uint64_t>> window_acc_;
};

// ---- scenarios.h counterparts --------------------------------------------

class RouterSource final : public SeriesSource {
 public:
  RouterSource(std::vector<RouterService> services,
               const RouterOptions& options);

  Family family() const override { return Family::kRouter; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  uint64_t DrawCount(ColorId c, Round r) override;

 private:
  std::vector<RouterService> services_;
  RouterOptions options_;
};

class DatacenterSource final : public SeriesSource {
 public:
  explicit DatacenterSource(const DatacenterOptions& options);

  Family family() const override { return Family::kDatacenter; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  uint64_t DrawCount(ColorId c, Round r) override;

 private:
  DatacenterOptions options_;
  // Per-phase dominant-service masks, drawn from the master RNG before the
  // per-service forks (configuration, not state: identical at every Reset).
  std::vector<std::vector<uint8_t>> dominant_;
};

// ---- Factories ------------------------------------------------------------

std::unique_ptr<ArrivalSource> MakePoissonSource(std::vector<ColorSpec> colors,
                                                 const PoissonOptions& options);
std::unique_ptr<ArrivalSource> MakeBurstySource(std::vector<ColorSpec> colors,
                                                const BurstyOptions& options);
std::unique_ptr<ArrivalSource> MakeZipfSource(const ZipfOptions& options);
std::unique_ptr<ArrivalSource> MakeRouterSource(
    std::vector<RouterService> services, const RouterOptions& options);
std::unique_ptr<ArrivalSource> MakeDatacenterSource(
    const DatacenterOptions& options);

}  // namespace workload
}  // namespace rrs
