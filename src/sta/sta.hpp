// Graph-based static timing analysis (the sign-off "Innovus" surrogate).
//
// Full forward propagation of arrival times and slews over the timing graph:
// startpoints are primary inputs (arrival 0) and register CK->Q arcs; cell
// delays come from the NLDM tables (input slew x output load), net delays
// from Elmore over the routed Steiner topology. Endpoint slack, WNS and TNS
// follow Eq. (1) of the paper. Passing gr == nullptr analyzes the
// pre-routing estimate (tree geometry instead of routed paths) — the mode
// early-stage optimizers traditionally had to settle for.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "route/global_router.hpp"
#include "sta/rc.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner {

/// Transition (ns) at primary inputs; also the output slew of a cell none of
/// whose inputs is driven. Full and incremental STA share it.
inline constexpr double kPrimaryInputSlewNs = 0.03;

/// Transition (ns) at register CK pins, for the CK->Q startpoint lookup.
inline constexpr double kClockSourceSlewNs = 0.05;

struct StaOptions {
  /// Electrical rule limits (sign-off reports these alongside slack).
  double max_slew_ns = 0.60;
  double max_cap_pf = 0.30;
};

struct StaResult {
  /// Arrival time (ns) per pin id; 0 for unconnected pins.
  std::vector<double> arrival;
  /// Transition time (ns) per pin id.
  std::vector<double> slew;
  std::vector<int> endpoints;           ///< endpoint pin ids
  std::vector<double> endpoint_slack;   ///< aligned with `endpoints`
  double wns = 0.0;                     ///< min slack (Eq. 1); >= 0 if clean
  double tns = 0.0;                     ///< sum of negative slacks
  long long num_violations = 0;
  double max_arrival = 0.0;
  /// Electrical rule violations: sink pins whose transition exceeds
  /// max_slew_ns, and driver pins whose load exceeds max_cap_pf.
  long long num_slew_violations = 0;
  long long num_cap_violations = 0;
  double worst_slew_ns = 0.0;
  double worst_cap_pf = 0.0;

  /// Slack at one endpoint by pin id (linear scan; for tests/reports).
  double slack_of(int pin_id) const;
};

/// Run sign-off STA: `forest` supplies every net's topology, `gr` (optional)
/// the routed geometry, `layers` (optional) per-connection metal-layer RC
/// multipliers. Nets without a tree (sinkless) contribute no load.
StaResult run_sta(const Design& design, const SteinerForest& forest,
                  const GlobalRouteResult* gr, const StaOptions& options = {},
                  const LayerAssignment* layers = nullptr);

}  // namespace tsteiner
