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

#include <algorithm>
#include <bit>
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
// Families derive from SeriesSourceOf<Family> and define
// `uint64_t Draw(Rng& rng, ColorId c, Round r)` — the next per-round count
// for color c, drawn from `rng`, which is color c's own fork — plus hooks
// for extra modulation state.
//
// SeriesSourceOf's emission loop calls the family's Draw directly, so it
// inlines into each window's sum. In batched modes the round's due colors
// are the union of per-delay-bound color bitsets (one `k % D` per distinct
// bound), walked in ascending color order so runs come out exactly as a
// per-color scan would emit them. The bitsets are derived from the shape
// and never saved.
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
  void SaveBody(snapshot::Writer& w) const override;
  void LoadBody(snapshot::Reader& r) override;

  // Sets due_ to round k's due colors (batched modes).
  void CollectDue(Round k);

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
  // Round k's due colors, one bit per color.
  std::vector<uint64_t> due_;

 private:
  // Distinct delay bounds, and for each a bitset of its colors
  // (due_.size() words per bound).
  std::vector<Round> due_bounds_;
  std::vector<uint64_t> due_masks_;
};

// The per-family emission loop.
template <typename Derived>
class SeriesSourceOf : public SeriesSource {
 protected:
  std::span<const Run> EmitRound(Round k) final {
    runs_.clear();
    if (!batched_) {
      const ColorId num_colors = static_cast<ColorId>(rngs_.size());
      for (ColorId c = 0; c < num_colors; ++c) {
        const uint64_t count = DrawWindow(c, k, k + 1);
        if (count != 0) runs_.emplace_back(c, count);
      }
      return runs_;
    }
    // D-aligned batching: color c emits at multiples of D_c, aggregating
    // the window [k, k + D_c) — drawn here, from c's own fork, in round
    // order, so the fork's stream matches the non-windowed draw sequence.
    CollectDue(k);
    for (size_t w = 0; w < due_.size(); ++w) {
      for (uint64_t bits = due_[w]; bits != 0; bits &= bits - 1) {
        const ColorId c =
            static_cast<ColorId>(w * 64 + std::countr_zero(bits));
        const Round d = shape_.delay_bound(c);
        uint64_t total = DrawWindow(c, k, std::min(raw_rounds_, k + d));
        if (rate_limited_) {
          total = std::min<uint64_t>(total, static_cast<uint64_t>(d));
        }
        if (total != 0) runs_.emplace_back(c, total);
      }
    }
    return runs_;
  }

 private:
  // Color c's total over rounds [begin, end), drawn in round order on a
  // loop-local copy of its fork, so the generator state stays in registers.
  uint64_t DrawWindow(ColorId c, Round begin, Round end) {
    Derived& self = static_cast<Derived&>(*this);
    Rng rng = rngs_[c];
    uint64_t total = 0;
    for (Round r = begin; r < end; ++r) total += self.Draw(rng, c, r);
    rngs_[c] = rng;
    return total;
  }
};

// ---- synthetic.h counterparts --------------------------------------------

class PoissonSource final : public SeriesSourceOf<PoissonSource> {
 public:
  PoissonSource(const std::vector<ColorSpec>& colors,
                const PoissonOptions& options);

  Family family() const override { return Family::kPoisson; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 private:
  friend class SeriesSourceOf<PoissonSource>;
  uint64_t Draw(Rng& rng, ColorId c, Round r);

  std::vector<PoissonSampler> samplers_;  // per color
};

class BurstySource final : public SeriesSourceOf<BurstySource> {
 public:
  BurstySource(const std::vector<ColorSpec>& colors,
               const BurstyOptions& options);

  Family family() const override { return Family::kBursty; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 protected:
  void ResetSeries() override;
  void SaveSeries(snapshot::Writer& w) const override;
  void LoadSeries(snapshot::Reader& r) override;

 private:
  friend class SeriesSourceOf<BurstySource>;
  uint64_t Draw(Rng& rng, ColorId c, Round r);

  BurstyOptions options_;
  std::vector<PoissonSampler> samplers_;  // per color
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

class RouterSource final : public SeriesSourceOf<RouterSource> {
 public:
  RouterSource(std::vector<RouterService> services,
               const RouterOptions& options);

  Family family() const override { return Family::kRouter; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 private:
  friend class SeriesSourceOf<RouterSource>;
  uint64_t Draw(Rng& rng, ColorId c, Round r);

  std::vector<RouterService> services_;
  RouterOptions options_;
};

class DatacenterSource final : public SeriesSourceOf<DatacenterSource> {
 public:
  explicit DatacenterSource(const DatacenterOptions& options);

  Family family() const override { return Family::kDatacenter; }
  std::unique_ptr<ArrivalSource> Clone() const override;

 private:
  friend class SeriesSourceOf<DatacenterSource>;
  uint64_t Draw(Rng& rng, ColorId c, Round r);

  DatacenterOptions options_;
  PoissonSampler dominant_sampler_;
  PoissonSampler background_sampler_;
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
