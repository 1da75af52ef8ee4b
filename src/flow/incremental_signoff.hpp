// Incremental sign-off: GR + DR + STA that update in place.
//
// A refinement loop probing sign-off every few iterations moves a handful of
// Steiner points between probes; re-running the whole Flow::run_signoff
// pipeline repeats ~99% of the previous run's work. IncrementalSignoff owns
// the last full sign-off's state across all three stages —
// GlobalRouterState's replay cache, DetailedRouteState's per-row run lists,
// IncrementalSta's cached arrivals/RC — and `update(forest, dirty_nets)`
// redoes only what the declared moves can affect:
//
//   1. global route: patching replay — the pattern phase patches only moved
//      and previously rerouted connections, then the full negotiation
//      re-runs and re-searches every victim maze; a probe with no moved tree
//      returns the previous route as it stands (route/global_router.hpp);
//   2. detailed-route surrogate: only connections whose GR path changed are
//      re-decomposed, and only their rows/columns recolored;
//   3. RC + STA: dirty nets plus nets of rerouted connections re-extract, and
//      arrivals re-propagate through their fan-out cones with bit-equality
//      pruning (sta/incremental.hpp).
//
// Contract: results are bit-identical to Flow::run_signoff on the same
// forest — every stage shares the full pipeline's code and float-op order,
// so there is no epsilon, no drift, and keep-best decisions made on
// incremental probes agree exactly with full sign-off. The dirty-net
// contract (docs/incremental.md) is the caller's side of the bargain: every
// net whose tree geometry changed since the previous call must be listed;
// undeclared moves are NOT healed (the `signoff-incremental` differential
// oracle's mutation self-check relies on that).
#pragma once

#include <vector>

#include "droute/detailed_route.hpp"
#include "flow/flow.hpp"
#include "route/global_router.hpp"
#include "sta/incremental.hpp"

namespace tsteiner {

class IncrementalSignoff {
 public:
  /// View of the last sign-off. `sta`/`gr` point into the owning
  /// IncrementalSignoff and stay valid until the next full/update call.
  struct Result {
    SignoffMetrics metrics;
    const StaResult* sta = nullptr;
    const GlobalRouteResult* gr = nullptr;
    RuntimeBreakdown runtime;          ///< this call's stage timings
    bool incremental = false;          ///< last call took the update path
    std::size_t num_dirty_nets = 0;    ///< deduplicated declared-dirty nets
    std::size_t num_rerouted = 0;      ///< connections whose GR path changed
    /// Maze searches of the route this call returned, and how many of them
    /// it took over from the previous route without searching: all of them
    /// when no tree moved, none otherwise.
    long long reused_mazes = 0;
    long long total_mazes = 0;
  };

  /// `design` must outlive this object. `options` should carry pinned router
  /// capacities (as Flow::options() does after construction) so full() is
  /// bit-identical to that Flow's run_signoff.
  IncrementalSignoff(const Design* design, const FlowOptions& options);

  /// Full sign-off; establishes the state every later update diffs against.
  const Result& full(const SteinerForest& forest);

  /// Incremental sign-off after the Steiner points of `dirty_nets` moved
  /// (topology unchanged). Runs full() when no prior sign-off exists or the
  /// forest topology changed. Throws std::out_of_range on a dirty net id
  /// that is not a net of `forest`. `forest` must stay alive until the next
  /// call.
  const Result& update(const SteinerForest& forest, const std::vector<int>& dirty_nets);

  const Result& result() const { return result_; }

 private:
  const Design* design_;
  FlowOptions options_;
  GlobalRouterState router_;
  DetailedRouteState droute_;
  IncrementalSta sta_;
  Result result_;
  bool ran_full_ = false;
};

}  // namespace tsteiner
