// Detailed-routing surrogate (TritonRoute substitute).
//
// Full detailed routing is far outside this reproduction's scope; what the
// paper needs from TritonRoute is (a) routed wirelength, (b) via counts,
// (c) design-rule-violation counts, and (d) a runtime that shrinks when the
// global-routing solution improves (Table IV shows DR 6.6% faster under
// TSteiner). This surrogate performs real work with those properties:
// track-assignment conflict detection on every gcell edge, pin-access
// checking per gcell, and an iterative local-diffusion repair loop whose
// work is proportional to the number of outstanding violations.
#pragma once

#include <vector>

#include "route/global_router.hpp"

namespace tsteiner {

/// Detailed routes detour slightly versus the GR guide.
inline constexpr double kWlDetourBase = 1.02;

/// Extra detour per unit of average residual congestion overflow.
inline constexpr double kWlDetourPerOverflow = 0.004;

/// Pins per gcell above which pin-access violations appear.
inline constexpr double kPinDensityLimitPerSite = 0.9;

struct DrouteOptions {
  int repair_rounds_max = 24;
};

struct DetailedRouteResult {
  double wirelength_dbu = 0.0;
  long long num_vias = 0;
  long long num_drvs = 0;
  int repair_rounds_used = 0;
  long long repair_work = 0;  ///< abstract work units (drives runtime)
};

DetailedRouteResult detailed_route(const Design& design, const SteinerForest& forest,
                                   const GlobalRouteResult& gr,
                                   const DrouteOptions& options = {});

/// Pin-access violation count: a pure function of the design's pin placement
/// and the gcell geometry (routes never move pins), so incremental sign-off
/// computes it once per design/grid and reuses it.
long long pin_access_violations(const Design& design, const GridGraph& grid);

/// Everything the repair/metrics stage consumes. Both the one-shot surrogate
/// and DetailedRouteState feed this into `finalize_droute`, so the two paths
/// run the identical float-op sequence on identical inputs — the basis of
/// the incremental path's bit-exactness.
struct DrouteRepairInputs {
  std::vector<double> h_viol;  ///< per-row track violations (integer-valued)
  std::vector<double> v_viol;  ///< per-column track violations
  std::vector<double> h_used;  ///< wire gcells per row (integer-valued)
  std::vector<double> v_used;  ///< wire gcells per column
  double h_row_capacity = 0.0;
  double v_col_capacity = 0.0;
  std::size_t num_runs = 0;
  long long pin_access_viol = 0;
  long long vias = 0;
  double gr_wirelength_dbu = 0.0;
  std::size_t num_connections = 0;
};

/// Repair loop + final metrics (mutates its by-value inputs).
DetailedRouteResult finalize_droute(DrouteRepairInputs in, const DrouteOptions& options);

/// Incremental detailed-route surrogate for repeated sign-off on a design
/// whose routes change a few connections at a time.
///
/// `full` runs the surrogate and caches per-connection wire runs, per-row
/// run lists, utilization sums and via counts. `update` replaces the runs of
/// just the changed connections, recolors only the touched rows/columns, and
/// re-runs the (cheap) repair/metrics stage on the maintained aggregates.
/// Results are bit-identical to `detailed_route` on the same inputs: row run
/// lists are maintained in the exact (lo, connection, sequence) order full
/// assignment's stable sort produces — so recoloring a row is a single
/// sort-free greedy sweep over the maintained list — utilization sums are
/// integer-valued (order-independent), and the finalize stage is shared
/// code.
class DetailedRouteState {
 public:
  DetailedRouteState(const Design* design, const DrouteOptions& options);

  const DetailedRouteResult& full(const GlobalRouteResult& gr);
  /// `changed_conns`: ascending indices of connections whose path changed
  /// since the previous full/update. Requires a prior `full`.
  const DetailedRouteResult& update(const GlobalRouteResult& gr,
                                    const std::vector<int>& changed_conns);
  const DetailedRouteResult& result() const { return result_; }
  /// Rows + columns recolored by the last update (instrumentation).
  long long last_recolored_rows() const { return last_recolored_; }

 private:
  struct StoredRun {
    bool horizontal = true;
    int row = 0;
    int seq = 0;  ///< run index within its connection's path decomposition
    int lo = 0;
    int hi = 0;
  };
  struct RowRef {
    int conn = -1;
    int seq = 0;
    int lo = 0;
    int hi = 0;
  };

  void rebuild_from(const GlobalRouteResult& gr);
  /// Violation count of one row list already in (lo, conn, seq) order —
  /// the exact sequence color_row_runs' stable sort would feed the greedy.
  long long recolor(const std::vector<RowRef>& list, int tracks) const;
  DetailedRouteResult finalize(const GlobalRouteResult& gr) const;

  const Design* design_ = nullptr;
  DrouteOptions options_;
  DetailedRouteResult result_;
  std::vector<std::vector<StoredRun>> conn_runs_;
  std::vector<long long> conn_vias_;
  std::vector<std::vector<RowRef>> h_rows_;  ///< per row, (lo, conn, seq)-ordered
  std::vector<std::vector<RowRef>> v_cols_;
  std::vector<int> h_viol_;
  std::vector<int> v_viol_;
  std::vector<double> h_used_;
  std::vector<double> v_used_;
  std::size_t num_runs_ = 0;
  long long total_vias_ = 0;
  int h_tracks_ = 0;
  int v_tracks_ = 0;
  long long pin_access_viol_ = 0;
  long long last_recolored_ = 0;
  bool built_ = false;
};

}  // namespace tsteiner
