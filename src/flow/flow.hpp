// End-to-end physical flow (Fig. 1):
//   placement -> Steiner construction (+ edge shifting) -> [TSteiner]
//   -> global routing -> detailed routing -> sign-off STA.
//
// A Flow object owns the per-design calibration that must be shared across
// variants for a fair comparison: the clock period (set from an initial
// pre-routing STA) and the routing capacities (calibrated once on the
// baseline forest, then pinned). run_signoff() can then be invoked on any
// forest variant — baseline, random-disturbance, or TSteiner-refined — and
// returns the paper's Table-II metrics plus the Table-IV runtime breakdown.
#pragma once

#include <memory>

#include "droute/detailed_route.hpp"
#include "gnn/steiner_predictor.hpp"
#include "netlist/netlist.hpp"
#include "route/global_router.hpp"
#include "sta/sta.hpp"
#include "steiner/rsmt.hpp"
#include "util/timer.hpp"

namespace tsteiner {

/// Clock period = this fraction of the pre-routing STA's max arrival, so
/// every design starts with negative slack.
inline constexpr double kClockTightness = 0.62;

struct FlowOptions {
  RouterOptions router;
  DrouteOptions droute;
  StaOptions sta;
  RsmtOptions rsmt;
  SteinerBuildOptions steiner;     ///< initial construction: batched by default
  bool edge_shifting = true;       ///< FLUTE + edge shifting [16], [17]
};

/// The sign-off numbers Table II reports per design.
struct SignoffMetrics {
  double wns_ns = 0.0;
  double tns_ns = 0.0;
  long long num_vios = 0;
  double wirelength_dbu = 0.0;
  long long num_vias = 0;
  long long num_drvs = 0;
};

/// The sign-off metrics of one STA and detailed-route result.
SignoffMetrics signoff_metrics(const StaResult& sta, const DetailedRouteResult& dr);

struct FlowResult {
  SignoffMetrics metrics;
  RuntimeBreakdown runtime;
  StaResult sta;
  GlobalRouteResult gr;
};

/// The per-design state a Flow derives once and pins: restoring it from a
/// snapshot lets run_signoff() reproduce cold-run results bit-exactly while
/// skipping forest construction, the clock-setting STA and the probe route.
struct FlowCalibration {
  double clock_period_ns = 0.0;
  double fixed_h_cap = 0.0;
  double fixed_v_cap = 0.0;
};

class Flow {
 public:
  /// `design` must be placed already; the constructor builds the initial
  /// Steiner forest, calibrates the clock period (mutating the design) and
  /// pins router capacities from a baseline probe route.
  Flow(Design* design, const FlowOptions& options = {});

  /// Reassemble a Flow from snapshot state: the design's clock period is set
  /// from `cal`, router capacities are pinned to the saved values, and the
  /// saved (already edge-shifted) initial forest is adopted as-is. No
  /// calibration work runs.
  static Flow from_snapshot(Design* design, const FlowOptions& options,
                            const FlowCalibration& cal, SteinerForest initial_forest);

  const Design& design() const { return *design_; }
  const FlowOptions& options() const { return options_; }
  const SteinerForest& initial_forest() const { return initial_forest_; }
  FlowCalibration calibration() const {
    return {design_->clock_period(), options_.router.fixed_h_cap, options_.router.fixed_v_cap};
  }

  /// Route + detail-route + sign-off STA a forest variant (same topology or
  /// not; only positions matter to the router). Capacities are pinned.
  FlowResult run_signoff(const SteinerForest& forest) const;

  /// Pre-routing STA (tree geometry, no routing) — the early estimate
  /// traditional optimizers target.
  StaResult run_preroute_sta(const SteinerForest& forest) const;

 private:
  Flow(Design* design, const FlowOptions& options, SteinerForest initial_forest)
      : design_(design), options_(options), initial_forest_(std::move(initial_forest)) {}

  Design* design_;
  FlowOptions options_;
  SteinerForest initial_forest_;
};

}  // namespace tsteiner
