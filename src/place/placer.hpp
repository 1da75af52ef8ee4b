// Placement substrate.
//
// The paper takes placements from Cadence Innovus; this reproduction uses a
// light-weight analytic-style placer: random spread, iterative weighted-
// median improvement (a classic force-directed relaxation that minimizes
// HPWL), then Tetris-style row legalization. The output quality is not the
// point — TSteiner only needs a placement with realistic net locality.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace tsteiner {

struct PlacerOptions {
  int iterations = 16;      ///< median-improvement passes
  std::uint64_t seed = 7;
  /// Optional timing-driven net weights (paper ref [1]'s net-weighting idea
  /// at this placer's scale): per-net multiplicity in the median pull.
  /// Empty = uniform. Weights are rounded to a repetition count in [1, 8].
  std::vector<double> net_weights;
};

/// Places all cells of `design` inside its die; positions are legalized to
/// integer sites with at most one cell start per site.
void place_design(Design& design, const PlacerOptions& options = {});

/// Total half-perimeter wirelength over all nets (DBU).
double total_hpwl(const Design& design);

/// Weighted HPWL; `net_weights` as in PlacerOptions (empty = uniform).
double weighted_hpwl(const Design& design, const std::vector<double>& net_weights);

/// Derive net weights from endpoint criticality: nets whose sinks sit on
/// paths with worse slack get proportionally larger weights in [1, max_w].
/// `endpoint_slack_by_pin` maps pin id -> slack (ns) for endpoint pins
/// (others ignored); criticality propagates to each net from its sinks.
std::vector<double> timing_net_weights(const Design& design,
                                       const std::vector<double>& pin_arrival,
                                       double clock_period, double max_w = 4.0);

}  // namespace tsteiner
