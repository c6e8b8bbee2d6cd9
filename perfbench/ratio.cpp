// ratio: the paper-reproduction task. A corpus of adversarial instances
// (the Appendix A/B constructions of E1/E2, fixed) and small seeded
// synthetic instances, certified the way E3 runs them: ParallelFor over
// instances on an nproc pool; per instance, short online runs of several
// policies, MeasureRatio (exact OPT, or a certified bracket within a fixed
// state budget), MeasureRatioBrackets, and for a share of the instances a
// windowed MeasureRobustRatio. Loads offline, parallel and analysis; uses
// core only for the online runs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/ratio.h"
#include "core/engine.h"
#include "offline/optimal.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "sched/registry.h"
#include "util/rng.h"
#include "workload/adversary.h"
#include "workload/synthetic.h"
#include "workload/uncertain.h"
#include "workloads.h"

namespace perfbench {
namespace {

const char* const kPolicies[] = {"dlru-edf", "dlru", "edf", "greedy-edf"};
constexpr size_t kNumPolicies = std::size(kPolicies);
// Fixed expansion budgets: a solve that exceeds one reports a certified
// bracket instead of the exact optimum, so every solve is bounded.
constexpr uint64_t kMaxStates = 12000;
constexpr uint64_t kRobustMaxStates = 5000;
constexpr size_t kSynthetic = 54;
// Every kRobustEvery-th synthetic instance also gets a robust solve over
// arrival windows widened by one round on each side.
constexpr size_t kRobustEvery = 6;

struct Item {
  std::string name;
  rrs::Instance instance;
  uint32_t n = 1;  // online resources
  uint32_t m = 1;  // offline resources
  rrs::CostModel model;
  bool robust = false;
  bool fixed = false;  // seed-independent adversarial instance
};

// The certified outcome of one item; every field is deterministic.
struct Outcome {
  uint64_t online_cost[kNumPolicies] = {};
  uint64_t online_rounds = 0;
  bool exact = false;
  uint64_t opt_lower = 0;
  uint64_t opt_upper = 0;
  uint64_t states_expanded = 0;
  uint64_t lower_bound = 0;
  uint64_t heuristic_cost = 0;
  bool robust_exact = false;
  uint64_t robust_lower = 0;
  uint64_t robust_upper = 0;
  uint64_t robust_states = 0;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

std::string ToString(const Outcome& o) {
  std::string s = "online=[";
  for (size_t p = 0; p < kNumPolicies; ++p) {
    s += (p ? "," : "") + std::to_string(o.online_cost[p]);
  }
  s += "] opt=[" + std::to_string(o.opt_lower) + "," +
       std::to_string(o.opt_upper) + "] states=" +
       std::to_string(o.states_expanded) + " robust=[" +
       std::to_string(o.robust_lower) + "," + std::to_string(o.robust_upper) +
       "] robust_states=" + std::to_string(o.robust_states);
  return s;
}

// Stored reference outcomes of the fixed adversarial items, in corpus
// order. They do not depend on the seed; a change here is a behaviour
// change of an online policy or the exact solver.
struct Stored {
  const char* name;
  uint64_t online_cost[kNumPolicies];
  bool exact;
  uint64_t opt_lower, opt_upper, states_expanded;
};
const Stored kStored[] = {
    {"E1/j3", {88, 136, 88, 6}, true, 66, 66, 8815},
    {"E1/j4", {80, 264, 80, 6}, false, 64, 66, 11966},
    {"E2/k5", {30, 52, 40, 15}, true, 15, 15, 3036},
    {"E2/k6", {30, 84, 60, 15}, false, 15, 45, 11952},
};

std::vector<Item> MakeCorpus(uint64_t seed) {
  std::vector<Item> corpus;
  // Appendix A (E1): ΔLRU pins the short-term colors and drops the
  // long-term job block; OFF serves it on one resource.
  for (int j : {3, 4}) {
    Item item;
    item.name = "E1/j" + std::to_string(j);
    item.n = 4;
    item.model.delta = 2;
    item.instance =
        rrs::workload::MakeDlruAdversary(item.n, item.model.delta, j, j + 4)
            .instance;
    item.fixed = true;
    corpus.push_back(std::move(item));
  }
  // Appendix B (E2): EDF thrashes between the short and the long colors.
  for (int k : {5, 6}) {
    Item item;
    item.name = "E2/k" + std::to_string(k);
    item.n = 4;
    item.model.delta = 5;
    item.instance =
        rrs::workload::MakeEdfAdversary(item.n, item.model.delta, 3, k)
            .instance;
    item.fixed = true;
    corpus.push_back(std::move(item));
  }
  // Seeded synthetic instances over a fixed grid of shapes — m in 2..4
  // offline resources against 2m online ones, 4..6 colors, horizon 48..80,
  // offered load about 0.8 m jobs per round in rate-limited batches. Only
  // the arrivals depend on the seed, so the work per pass barely moves
  // between seeds.
  rrs::Rng rng(seed);
  const rrs::Round delays[] = {1, 2, 4, 8};
  for (size_t i = 0; i < kSynthetic; ++i) {
    Item item;
    // Largest shapes first, so ParallelFor's dynamic chunks end on small
    // items and the pass does not wait on one straggler.
    item.m = 4 - static_cast<uint32_t>(i % 3);
    item.n = 2 * item.m;
    item.model.delta = 2 + (i / 27) % 2;
    const size_t colors = 6 - (i / 3) % 3;
    const rrs::Round rounds = 80 - 16 * static_cast<rrs::Round>((i / 9) % 3);
    std::vector<rrs::workload::ColorSpec> specs;
    for (size_t c = 0; c < colors; ++c) {
      specs.push_back({delays[(c + i) % 4],
                       0.8 * item.m / static_cast<double>(colors)});
    }
    rrs::workload::PoissonOptions gen;
    gen.rounds = rounds;
    gen.rate_limited = true;
    gen.seed = rng.Next();
    item.instance = rrs::workload::MakePoisson(specs, gen);
    item.robust = i % kRobustEvery == 0;
    item.name = "syn/" + std::to_string(i) + "/m" + std::to_string(item.m) +
                "c" + std::to_string(colors) + "r" + std::to_string(rounds);
    corpus.push_back(std::move(item));
  }
  return corpus;
}

// Per-layer time spent inside each item (traced loop only).
struct LayerTimes {
  NanoCounter online_ns{0};
  NanoCounter solve_ns{0};
  NanoCounter robust_ns{0};
  NanoCounter bounds_ns{0};
};

Outcome Certify(const Item& item, rrs::ThreadPool& bounds_pool,
                LayerTimes* times) {
  Outcome out;
  auto timed = [times](NanoCounter LayerTimes::*field, auto&& fn) {
    if (times == nullptr) return fn();
    const auto t0 = Clock::now();
    auto result = fn();
    (times->*field).fetch_add(Nanos(t0, Clock::now()),
                              std::memory_order_relaxed);
    return result;
  };
  rrs::EngineOptions options;
  options.num_resources = item.n;
  options.cost_model = item.model;
  out.online_rounds = timed(&LayerTimes::online_ns, [&] {
    uint64_t rounds = 0;
    for (size_t p = 0; p < kNumPolicies; ++p) {
      auto policy = rrs::MakePolicy(kPolicies[p]);
      const rrs::RunResult r = rrs::RunPolicy(item.instance, *policy, options);
      out.online_cost[p] = r.total_cost(item.model);
      rounds += static_cast<uint64_t>(r.rounds_simulated);
    }
    return rounds;
  });
  const rrs::analysis::RatioReport report = timed(&LayerTimes::solve_ns, [&] {
    return rrs::analysis::MeasureRatio(item.instance, out.online_cost[0],
                                       item.m, item.model, kMaxStates);
  });
  out.exact = report.exact;
  out.opt_lower = report.opt_lower;
  out.opt_upper = report.opt_upper;
  out.states_expanded = report.states_expanded;
  const std::vector<rrs::analysis::RatioBracket> brackets =
      timed(&LayerTimes::bounds_ns, [&] {
        return rrs::analysis::MeasureRatioBrackets(
            bounds_pool, item.instance, out.online_cost, item.m, item.model);
      });
  out.lower_bound = brackets[0].lower_bound;
  out.heuristic_cost = brackets[0].heuristic_cost;
  if (item.robust) {
    const rrs::workload::UncertainInstance set =
        rrs::workload::UncertainInstance::FromInstance(item.instance, 1, 1);
    const rrs::analysis::RobustRatioReport robust =
        timed(&LayerTimes::robust_ns, [&] {
          return rrs::analysis::MeasureRobustRatio(
              set, out.online_cost[0], item.m, item.model, kRobustMaxStates);
        });
    out.robust_exact = robust.exact;
    out.robust_lower = robust.opt_lower;
    out.robust_upper = robust.opt_upper;
    out.robust_states = robust.states_expanded;
  }
  return out;
}

struct Pass {
  double seconds = 0;
  double cpu_s = 0;
  std::vector<Outcome> outcomes;
};

Pass RunPass(const std::vector<Item>& corpus, rrs::ThreadPool& pool,
             rrs::ThreadPool& bounds_pool, LayerTimes* times) {
  Pass pass;
  pass.outcomes.resize(corpus.size());
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  rrs::ParallelFor(pool, 0, static_cast<int64_t>(corpus.size()),
                   [&](int64_t i) {
                     const size_t k = static_cast<size_t>(i);
                     pass.outcomes[k] = Certify(corpus[k], bounds_pool, times);
                   });
  pass.seconds = Seconds(t0, Clock::now());
  pass.cpu_s = CpuSeconds() - cpu0;
  return pass;
}

// Independent checks of a seeded item's certificate: the solver's bracket
// sits inside [LowerBound, ClairvoyantCost], an exact optimum is realised by
// a reconstructed schedule the validator accepts at that cost, and a robust
// bracket over windows containing the instance contains its optimum.
bool CheckCertificate(const Item& item, const Outcome& o, std::string* why) {
  if (!(o.lower_bound <= o.opt_lower && o.opt_lower <= o.opt_upper &&
        o.opt_upper <= o.heuristic_cost)) {
    *why = "bracket outside [LowerBound, ClairvoyantCost]";
    return false;
  }
  if (o.exact) {
    rrs::offline::OptimalOptions options;
    options.num_resources = item.m;
    options.cost_model = item.model;
    options.max_states = kMaxStates;
    options.reconstruct_schedule = true;
    const rrs::offline::OptimalResult opt =
        rrs::offline::SolveOptimal(item.instance, options);
    if (!opt.exact || !opt.schedule.has_value()) {
      *why = "exact solve not reproduced";
      return false;
    }
    const rrs::ValidationResult valid = opt.schedule->Validate(item.instance);
    if (!valid.ok || valid.cost.total(item.model) != o.opt_lower ||
        opt.states_expanded != o.states_expanded) {
      *why = "reconstructed schedule disagrees: " + valid.error;
      return false;
    }
    if (item.robust &&
        !(o.robust_lower <= o.opt_lower && o.opt_lower <= o.robust_upper)) {
      *why = "robust bracket excludes the instance optimum";
      return false;
    }
  }
  return true;
}

}  // namespace

void RunRatio(const Args& args, Report& report) {
  const unsigned cpus = UsableCpus();
  // ParallelFor's caller participates, so nproc - 1 pool threads give
  // nproc participants. MeasureRatioBrackets submits to its own pool: a
  // worker blocking on a task queued behind it in the same pool could
  // deadlock.
  rrs::ThreadPool pool(std::max(1u, cpus - 1));
  rrs::ThreadPool bounds_pool(cpus);
  const double participants = static_cast<double>(pool.thread_count() + 1);

  // Generating the corpus takes milliseconds of Poisson draws: many
  // repetitions, each scaled by the floating-point calibration (common.h).
  std::vector<double> setup_s, raw_setup_s;
  std::vector<Item> corpus;
  for (int rep = 0; rep < 3 * kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    corpus = MakeCorpus(args.seed);
    const double seconds = Seconds(t0, Clock::now());
    raw_setup_s.push_back(seconds);
    setup_s.push_back(seconds * kFpReferenceS / FpCalibrationSeconds());
  }

  const Pass first = RunPass(corpus, pool, bounds_pool, nullptr);  // warm-up

  // Reference checks, outside the timed region: stored outcomes for the
  // fixed items, independent certificate checks for the seeded ones.
  size_t stored = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Outcome& o = first.outcomes[i];
    ++report.attempted;
    std::string why;
    if (corpus[i].fixed) {
      const Stored& s = kStored[stored++];
      const bool same =
          corpus[i].name == s.name && o.exact == s.exact &&
          o.opt_lower == s.opt_lower && o.opt_upper == s.opt_upper &&
          o.states_expanded == s.states_expanded &&
          std::equal(std::begin(s.online_cost), std::end(s.online_cost),
                     std::begin(o.online_cost));
      if (!same) {
        report.Fail(corpus[i].name + " differs from stored: " + ToString(o));
      }
    } else if (!CheckCertificate(corpus[i], o, &why)) {
      report.Fail(corpus[i].name + ": " + why + " " + ToString(o));
    }
  }

  // Every later pass must reproduce the first pass exactly.
  auto check_pass = [&](const Pass& pass) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      ++report.attempted;
      if (!(pass.outcomes[i] == first.outcomes[i])) {
        report.Fail(corpus[i].name + " not repeatable: " +
                    ToString(pass.outcomes[i]));
      }
    }
  };

  uint64_t solves_per_pass = 0, online_rounds = 0, states = 0, exact = 0,
           robust_states = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Outcome& o = first.outcomes[i];
    solves_per_pass += corpus[i].robust ? 2 : 1;
    online_rounds += o.online_rounds;
    states += o.states_expanded;
    exact += o.exact ? 1 : 0;
    robust_states += o.robust_states;
  }

  std::vector<Pass> passes;
  const auto loop_start = Clock::now();
  do {
    passes.push_back(RunPass(corpus, pool, bounds_pool, nullptr));
    check_pass(passes.back());
  } while (Seconds(loop_start, Clock::now()) < args.seconds);

  std::vector<double> rates, solves, util;
  for (const Pass& p : passes) {
    rates.push_back(static_cast<double>(online_rounds) / p.seconds);
    solves.push_back(static_cast<double>(solves_per_pass) / p.seconds);
    util.push_back(p.cpu_s / (p.seconds * participants));
  }
  const double rounds_per_s = Median(rates);

  LayerTimes times;
  std::vector<double> traced_rates;
  if (args.trace) {
    const auto traced_start = Clock::now();
    do {
      const Pass p = RunPass(corpus, pool, bounds_pool, &times);
      check_pass(p);
      traced_rates.push_back(static_cast<double>(online_rounds) / p.seconds);
    } while (Seconds(traced_start, Clock::now()) < args.seconds);
  }
  const double peak_rss = PeakRssMiB();

  report.EndToEnd("rounds_per_s", rounds_per_s);
  report.EndToEnd("solves_per_s", Median(solves));
  report.EndToEnd("setup_s", Median(setup_s));
  report.Layer("peak_rss_mb", peak_rss);
  report.Layer("host.raw_setup_s", Median(raw_setup_s));

  report.Layer("offline.states_expanded", static_cast<double>(states));
  report.Layer("offline.robust_states_expanded",
               static_cast<double>(robust_states));
  report.Layer("offline.solves", static_cast<double>(solves_per_pass));
  report.Layer("offline.exact_share",
               static_cast<double>(exact) / static_cast<double>(corpus.size()));
  report.Layer("parallel.cpu_util", Median(util));

  char line[256];
  std::snprintf(line, sizeof line,
                "ratio: %zu passes over %zu items (%zu fixed adversarial, "
                "%zu seeded; %llu exact), %llu solves per pass, %.0f "
                "participants",
                passes.size(), corpus.size(), corpus.size() - kSynthetic,
                kSynthetic, static_cast<unsigned long long>(exact),
                static_cast<unsigned long long>(solves_per_pass),
                participants);
  report.Note(line);
  for (size_t i = 0; i < corpus.size(); ++i) {
    report.Note("  " + corpus[i].name + " " + ToString(first.outcomes[i]));
  }

  if (args.trace) {
    const double n = static_cast<double>(traced_rates.size());
    const double solve_s = static_cast<double>(times.solve_ns.load()) * 1e-9 / n;
    report.Layer("core.online_s",
                 static_cast<double>(times.online_ns.load()) * 1e-9 / n);
    report.Layer("offline.solve_s", solve_s);
    report.Layer("offline.states_per_s",
                 solve_s > 0 ? static_cast<double>(states) / solve_s : 0.0);
    report.Layer("offline.robust_solve_s",
                 static_cast<double>(times.robust_ns.load()) * 1e-9 / n);
    report.Layer("offline.bounds_s",
                 static_cast<double>(times.bounds_ns.load()) * 1e-9 / n);
    TraceOverhead(report, rounds_per_s, Median(traced_rates));
  }
}

}  // namespace perfbench
