#include "offline/robust_optimal.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "obs/scope.h"
#include "offline/clairvoyant.h"
#include "offline/interval_state.h"
#include "offline/lower_bound.h"
#include "offline/search_core.h"
#include "util/check.h"
#include "workload/uncertain.h"

namespace rrs {
namespace offline {

namespace {

// The robust solver's rules for the shared search: side 0 is the optimistic
// (lo) envelope, side 1 the pessimistic (hi) one. The bound prunes on
// cost_lo plus the lo-side Hall leg: along any config path that never
// exceeds the path's cost on the forced sub-instance, hence on any concrete
// trace. (The pessimistic-envelope leg must NOT prune: it can exceed a
// trace-optimal path's true cost and would break the lower bracket.)
struct RobustTraits {
  static constexpr uint32_t kSides = 2;
  using NodeT = search::Node<kSides>;

  // Keeps the minimum of cost_lo and the minimum of cost_hi. Each minimum is
  // achieved by some real path into the state, so both bracket legs stay
  // certified, and the reduction is commutative and associative. The robust
  // solver reconstructs no schedules; the parent kept is the lowest index.
  static void Absorb(NodeT& kept, const NodeT& repeat) {
    kept.cost[0] = std::min(kept.cost[0], repeat.cost[0]);
    kept.cost[1] = std::min(kept.cost[1], repeat.cost[1]);
    kept.parent = std::min(kept.parent, repeat.parent);
  }

  // A dominator needs cost_lo <= and cost_hi >= its victim's, so ordering
  // each group by (cost_lo ascending, cost_hi descending) puts every
  // possible dominator before its victims. Mutual containment would force
  // identical spans — impossible after interning — so a kill chain always
  // ends at a live container (containment is transitive), preserving both
  // bracket sides.
  static bool GroupBefore(const NodeT& a, const NodeT& b) {
    if (a.cost[0] != b.cost[0]) return a.cost[0] < b.cost[0];
    return a.cost[1] > b.cost[1];
  }

  static bool Dominates(const uint32_t* pa, const NodeT& a, const uint32_t* pb,
                        const NodeT& b, uint32_t m, uint32_t num_colors) {
    return IntervalStateDominates({pa, a.len}, a.cost[0], a.cost[1],
                                  {pb, b.len}, b.cost[0], b.cost[1], m,
                                  num_colors);
  }
};

RobustResult Solve(const workload::UncertainInstance& set,
                   const RobustOptions& options) {
  RobustResult result;
  const uint32_t m = options.num_resources;

  if (set.num_jobs() == 0) {
    result.exact = true;
    return result;
  }

  search::Problem<2> problem;
  problem.m = m;
  problem.num_colors = static_cast<uint32_t>(set.num_colors());
  problem.delta = options.cost_model.delta;
  problem.horizon = set.horizon();
  for (ColorId c = 0; c < set.num_colors(); ++c) {
    problem.drop_cost.push_back(set.drop_cost(c));
    problem.delay.push_back(static_cast<uint32_t>(set.delay_bound(c)));
  }
  // Dense per-round per-color arrival envelopes: `lo` counts only forced
  // (zero-width-window) jobs pinned to the round; `hi` counts every job
  // whose window covers the round (the pessimistic duplication).
  problem.arrivals.assign(
      (static_cast<size_t>(problem.horizon) + 1) * problem.num_colors, {0, 0});
  for (const workload::WindowedJob& job : set.jobs()) {
    auto at = [&](Round r) -> std::array<uint32_t, 2>& {
      return problem.arrivals[static_cast<size_t>(r) * problem.num_colors +
                              job.color];
    };
    if (job.release_lo == job.release_hi) ++at(job.release_lo)[0];
    for (Round r = job.release_lo; r <= job.release_hi; ++r) ++at(r)[1];
  }
  // Incumbent: the clairvoyant portfolio replayed against the pessimistic
  // envelope instance. Any schedule's cost on the pessimistic instance
  // upper-bounds its cost on every member trace (each trace is a per-round,
  // per-color sub-instance), so this is a certified robust upper bound, and
  // the pruned search's final layer is provably nonempty (the path that is
  // optimal for the pessimistic instance survives every prune).
  const Instance pessimistic = set.PessimisticInstance();
  problem.incumbent =
      ClairvoyantCost(pessimistic, m, options.cost_model).total_cost;
  problem.max_states = options.max_states;
  problem.prune_bound = options.prune_bound;
  problem.prune_dominance = options.prune_dominance;
  problem.pool = options.pool;

  const search::Outcome<2> run =
      search::LayeredSearch<RobustTraits>(problem).Run();
  result.states_expanded = run.states_expanded;
  result.states_generated = run.states_generated;
  result.pruned_bound = run.pruned_bound;
  result.pruned_dominated = run.pruned_dominated;
  result.max_layer_width = run.max_layer_width;

  const uint64_t forced_floor = RobustLowerBound(set, m, options.cost_model);
  const uint64_t incumbent = problem.incumbent;
  if (run.exhausted) {
    // Certified bracket: every trace's optimal path either reaches the
    // frontier through (a container of) some node — whose cost_lo plus the
    // admissible optimistic bound lower-bounds its cost — or was bound-
    // pruned, which certifies its cost exceeds the incumbent.
    result.exact = false;
    result.lower_bound =
        std::max(std::min(run.frontier_bound, incumbent), forced_floor);
    result.upper_bound = incumbent;
  } else {
    uint64_t best_lo = ~uint64_t{0};
    uint64_t best_hi = ~uint64_t{0};
    for (const search::Node<2>& n : run.last.nodes) {
      best_lo = std::min(best_lo, n.cost[0]);
      best_hi = std::min(best_hi, n.cost[1]);
    }
    result.exact = true;
    // Lower: the minimum final cost_lo is OPT of the forced sub-instance
    // restricted to surviving paths; bound-pruned paths certify their traces'
    // optima exceed the incumbent, hence the min. Upper: any single complete
    // path's cost_hi bounds every trace's optimum from above, as does the
    // incumbent.
    result.lower_bound =
        std::max(std::min(best_lo, incumbent), forced_floor);
    result.upper_bound = std::min(best_hi, incumbent);
  }

  if (obs::Scope* scope = obs::EffectiveScope(options.obs_scope)) {
    const std::pair<std::string_view, uint64_t> counters[] = {
        {"offline.robust.solves", 1},
        {"offline.robust.solves_exact", result.exact ? 1u : 0u},
        {"offline.robust.states_expanded", result.states_expanded},
        {"offline.robust.states_generated", result.states_generated},
        {"offline.robust.pruned_bound", result.pruned_bound},
        {"offline.robust.pruned_dominated", result.pruned_dominated},
    };
    scope->AbsorbCounters(counters);
    scope->AbsorbHistogram("offline.robust.layer_width", run.layer_widths);
  }
  return result;
}

}  // namespace

RobustResult SolveRobust(const workload::UncertainInstance& set,
                         const RobustOptions& options) {
  RRS_CHECK_GE(options.num_resources, 1u);
  return Solve(set, options);
}

}  // namespace offline
}  // namespace rrs
