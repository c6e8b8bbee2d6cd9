#include "offline/optimal.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/scope.h"
#include "offline/clairvoyant.h"
#include "offline/lower_bound.h"
#include "offline/search_core.h"
#include "util/check.h"

namespace rrs {
namespace offline {

namespace {

using search::kNoIndex;

// True when profile `a` is pointwise cumulative-dominated: for every horizon
// t, a has at most as many jobs due within t as b. Profiles are (rel, count)
// pairs ascending by rel.
bool ProfileDominates(const uint32_t* a, uint32_t alen, const uint32_t* b,
                      uint32_t blen) {
  uint64_t cum_a = 0, cum_b = 0;
  uint32_t j = 0;
  for (uint32_t i = 0; i < alen; ++i) {
    cum_a += a[2 * i + 1];
    const uint32_t rel = a[2 * i];
    while (j < blen && b[2 * j] <= rel) {
      cum_b += b[2 * j + 1];
      ++j;
    }
    if (cum_a > cum_b) return false;
  }
  return true;
}

// Replays a per-round configuration-multiset sequence against the instance,
// producing a concrete Schedule with real job ids. Resource assignment keeps
// as many resources in place as the multiset overlap allows (matching the
// search's reconfiguration cost), reassigning the rest deterministically;
// executions pick the earliest-deadline (FIFO) pending job per resource.
Schedule ReplayConfigs(const Instance& instance, uint32_t m, uint32_t black,
                       const std::vector<std::vector<uint32_t>>& configs) {
  Schedule schedule(m, 1);
  std::vector<uint32_t> resource(m, black);
  std::vector<std::deque<JobId>> pending(instance.num_colors());

  for (Round k = 0; k < static_cast<Round>(configs.size()); ++k) {
    // Drop phase: expire deadline-k jobs.
    for (auto& queue : pending) {
      while (!queue.empty() && instance.deadline(queue.front()) == k) {
        queue.pop_front();
      }
    }
    // Arrival phase.
    auto jobs = instance.jobs_in_round(k);
    if (!jobs.empty()) {
      JobId id = instance.first_job_in_round(k);
      for (size_t i = 0; i < jobs.size(); ++i) {
        pending[jobs[i].color].push_back(id + static_cast<JobId>(i));
      }
    }
    // Reconfiguration phase: realize the target multiset with minimal
    // changes. need[c] = multiplicity of c in the target.
    const std::vector<uint32_t>& target = configs[static_cast<size_t>(k)];
    std::map<uint32_t, uint32_t> need;
    for (uint32_t c : target) ++need[c];
    std::vector<uint8_t> keep(m, 0);
    for (uint32_t r = 0; r < m; ++r) {
      auto it = need.find(resource[r]);
      if (it != need.end() && it->second > 0) {
        keep[r] = 1;
        --it->second;
      }
    }
    std::vector<uint32_t> leftovers;
    for (const auto& [c, count] : need) {
      for (uint32_t i = 0; i < count; ++i) leftovers.push_back(c);
    }
    size_t next_leftover = 0;
    for (uint32_t r = 0; r < m; ++r) {
      if (keep[r]) continue;
      RRS_CHECK_LT(next_leftover, leftovers.size());
      uint32_t c = leftovers[next_leftover++];
      resource[r] = c;
      schedule.AddReconfig(k, 0, r,
                           c == black ? kNoColor : static_cast<ColorId>(c));
    }
    // Execution phase.
    for (uint32_t r = 0; r < m; ++r) {
      uint32_t c = resource[r];
      if (c == black) continue;
      auto& queue = pending[c];
      if (queue.empty()) continue;
      schedule.AddExecution(k, 0, r, queue.front());
      queue.pop_front();
    }
  }
  return schedule;
}

// The exact solver's rules for the shared search (one cost side).
struct ExactTraits {
  static constexpr uint32_t kSides = 1;
  using NodeT = search::Node<kSides>;

  // Keeps the minimum (cost, parent) per state. That pair is a total order,
  // so the surviving entry is independent of insertion order.
  static void Absorb(NodeT& kept, const NodeT& repeat) {
    if (repeat.cost[0] < kept.cost[0] ||
        (repeat.cost[0] == kept.cost[0] && repeat.parent < kept.parent)) {
      kept.cost = repeat.cost;
      kept.parent = repeat.parent;
    }
  }

  // Within a config group: by cost, so every earlier survivor is no
  // costlier.
  static bool GroupBefore(const NodeT& a, const NodeT& b) {
    return a.cost[0] < b.cost[0];
  }

  // `a` (no costlier, same config) dominates `b` when every color's profile
  // of `a` is pointwise cumulative-dominated by `b`'s.
  static bool Dominates(const uint32_t* pa, const NodeT&, const uint32_t* pb,
                        const NodeT&, uint32_t m, uint32_t num_colors) {
    size_t ia = m, ib = m;
    for (uint32_t c = 0; c < num_colors; ++c) {
      const uint32_t la = pa[ia++];
      const uint32_t lb = pb[ib++];
      if (!ProfileDominates(pa + ia, la, pb + ib, lb)) return false;
      ia += 2 * static_cast<size_t>(la);
      ib += 2 * static_cast<size_t>(lb);
    }
    return true;
  }
};

OptimalResult Solve(const Instance& instance, const OptimalOptions& options) {
  OptimalResult result;
  const uint32_t m = options.num_resources;

  if (instance.num_jobs() == 0) {
    result.exact = true;
    if (options.reconstruct_schedule) result.schedule = Schedule(m, 1);
    return result;
  }

  search::Problem<1> problem;
  problem.m = m;
  problem.num_colors = static_cast<uint32_t>(instance.num_colors());
  problem.delta = options.cost_model.delta;
  problem.horizon = instance.horizon();
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    problem.drop_cost.push_back(instance.drop_cost(c));
    problem.delay.push_back(static_cast<uint32_t>(instance.delay_bound(c)));
  }
  // Dense per-round per-color arrival counts, gathered once.
  problem.arrivals.assign(
      (static_cast<size_t>(problem.horizon) + 1) * problem.num_colors, {0});
  for (const Job& job : instance.jobs()) {
    ++problem.arrivals[static_cast<size_t>(job.arrival) * problem.num_colors +
                       job.color][0];
  }
  // Incumbent: the clairvoyant portfolio (ΔLRU-EDF, greedy/lazy variants,
  // static partition) replayed at m resources — a certified upper bound on
  // OPT, so pruning at `g + h > incumbent` (strictly above) can never prune
  // every optimal path, and the final layer is provably nonempty.
  problem.incumbent =
      ClairvoyantCost(instance, m, options.cost_model).total_cost;
  problem.max_states = options.max_states;
  problem.prune_bound = options.prune_bound;
  problem.prune_dominance = options.prune_dominance;
  problem.keep_history = options.reconstruct_schedule;
  problem.pool = options.pool;
  result.upper_bound = problem.incumbent;

  search::Outcome<1> run = search::LayeredSearch<ExactTraits>(problem).Run();
  result.states_expanded = run.states_expanded;
  result.states_generated = run.states_generated;
  result.pruned_bound = run.pruned_bound;
  result.pruned_dominated = run.pruned_dominated;
  result.max_layer_width = run.max_layer_width;

  if (run.exhausted) {
    // Certified bracket: every completion passes through (a dominating
    // surrogate of) a frontier state, so the minimum admissible frontier
    // bound lower-bounds OPT; the incumbent upper-bounds it.
    result.exact = false;
    result.lower_bound =
        std::max(std::min(run.frontier_bound, problem.incumbent),
                 LowerBound(instance, m, options.cost_model));
    result.total_cost = result.upper_bound;
  } else {
    const search::Layer<1>& last = run.last;
    uint64_t best = ~uint64_t{0};
    uint32_t best_index = kNoIndex;
    for (uint32_t i = 0; i < last.nodes.size(); ++i) {
      if (last.nodes[i].cost[0] < best) {
        best = last.nodes[i].cost[0];
        best_index = i;
      }
    }
    RRS_CHECK(best_index != kNoIndex);
    result.exact = true;
    result.total_cost = best;
    result.lower_bound = best;
    result.upper_bound = best;

    if (options.reconstruct_schedule) {
      // Backtrack the per-round configurations of the best path — each
      // layer-(k+1) state's config multiset is the configuration used during
      // round k — then replay them against the instance with real job ids.
      run.history.push_back(std::move(run.last));
      std::vector<std::vector<uint32_t>> configs(
          static_cast<size_t>(problem.horizon));
      uint32_t idx = best_index;
      for (Round k = problem.horizon; k-- > 0;) {
        const search::Layer<1>& layer =
            run.history[static_cast<size_t>(k) + 1];
        const search::Node<1>& n = layer.nodes[idx];
        const uint32_t* span = layer.span(n);
        configs[static_cast<size_t>(k)].assign(span, span + m);
        RRS_CHECK(n.parent != kNoIndex || k == 0)
            << "broken parent chain at round " << k;
        idx = n.parent;
      }
      result.schedule =
          ReplayConfigs(instance, m, problem.num_colors, configs);
    }
  }

  if (obs::Scope* scope = obs::EffectiveScope(options.obs_scope)) {
    const std::pair<std::string_view, uint64_t> counters[] = {
        {"offline.solves", 1},
        {"offline.solves_exact", result.exact ? 1u : 0u},
        {"offline.states_expanded", result.states_expanded},
        {"offline.states_generated", result.states_generated},
        {"offline.pruned_bound", result.pruned_bound},
        {"offline.pruned_dominated", result.pruned_dominated},
    };
    scope->AbsorbCounters(counters);
    scope->AbsorbHistogram("offline.layer_width", run.layer_widths);
  }
  return result;
}

}  // namespace

OptimalResult SolveOptimal(const Instance& instance,
                           const OptimalOptions& options) {
  RRS_CHECK_GE(options.num_resources, 1u);
  return Solve(instance, options);
}

}  // namespace offline
}  // namespace rrs
