// The STA engine. `analyze` is the one full sign-off STA (run_sta wraps it):
// it extracts every net's RC once and propagates arrivals and slews forward
// from the startpoints. After a position-only change to a subset of nets (the
// exact edit Steiner refinement makes), `update` re-extracts just those nets'
// RC and re-propagates only through the affected fan-out cone, through the
// same member functions. Exact — the result is bit-identical to a full
// analysis of the same inputs (pruning uses bit equality, never an epsilon) —
// but far cheaper when few nets moved (oracle probes, iterative refinement,
// what-if loops). An empty dirty list returns the cached result untouched.
#pragma once

#include <vector>

#include "sta/sta.hpp"

namespace tsteiner {

/// A combinational cell's output timing under its output load.
struct CellArcTiming {
  double arrival = 0.0;
  double slew = kPrimaryInputSlewNs;
  int critical_input = -1;  ///< input pin whose arc sets `arrival`; -1 if none
};

/// Evaluates every connected input arc of combinational cell `cell_id` from
/// the per-pin `arrival`/`slew`: the latest (input arrival + arc delay) wins,
/// the first such input on ties, and its arc gives the output slew. A cell
/// with no connected input keeps arrival 0 and the primary-input slew.
CellArcTiming evaluate_cell_arcs(const Design& design, int cell_id,
                                 const std::vector<double>& arrival,
                                 const std::vector<double>& slew, double load);

class IncrementalSta {
 public:
  explicit IncrementalSta(const Design& design, const StaOptions& options = {});

  /// Full analysis; establishes the internal state. `layers` (optional)
  /// scales each connection's RC, here and in every later update, so it
  /// must outlive the updates.
  const StaResult& analyze(const SteinerForest& forest, const GlobalRouteResult* gr,
                           const LayerAssignment* layers = nullptr);

  /// Re-analyze after the Steiner points of `dirty_nets` moved (topology and
  /// connectivity unchanged). `forest`/`gr` reflect the new positions.
  const StaResult& update(const SteinerForest& forest, const GlobalRouteResult* gr,
                          const std::vector<int>& dirty_nets);

  const StaResult& result() const { return result_; }
  /// Cells re-evaluated by the last update (instrumentation for tests).
  long long last_update_cell_count() const { return last_cells_; }

 private:
  /// Extracts one net's RC into net_timing_; false when the net has no tree.
  bool extract_net(const SteinerForest& forest, const GlobalRouteResult* gr, int net_id);
  double load_of(int out_pin) const;
  void launch_register(int cell_id);
  void propagate_cell(int cell_id);
  void propagate_net_sinks(int net_id);
  void fold_endpoints();
  void fold_electrical_rules();

  const Design* design_;
  StaOptions options_;
  const LayerAssignment* layers_ = nullptr;
  std::vector<NetTiming> net_timing_;
  std::vector<int> topo_index_;  ///< per cell: position in topological order
  std::vector<int> topo_order_;
  StaResult result_;
  long long last_cells_ = 0;
};

}  // namespace tsteiner
