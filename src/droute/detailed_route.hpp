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
//
// Track assignment (the stage the paper's refs [8], [9] operate at): every
// maximal straight run of a routed connection becomes an interval on its
// row (horizontal) or column (vertical). Within a row, overlapping intervals
// need distinct tracks; with `k` tracks available the greedy interval
// partitioning (sweep by left end, free a track once its last run ends) is
// optimal. Runs that cannot be colored are track violations — the
// surrogate's primary DRV source.
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

/// One-shot surrogate: `DetailedRouteState(&design, options).full(gr)`.
DetailedRouteResult detailed_route(const Design& design, const SteinerForest& forest,
                                   const GlobalRouteResult& gr,
                                   const DrouteOptions& options = {});

/// Pin-access violation count: a pure function of the design's pin placement
/// and the gcell geometry (routes never move pins), so incremental sign-off
/// computes it once per design/grid and reuses it.
long long pin_access_violations(const Design& design, const GridGraph& grid);

/// One maximal straight run of a connection's gcell path.
struct WireRun {
  bool horizontal = true;
  int row = 0;  ///< gcell y for horizontal runs, x for vertical
  int lo = 0;   ///< inclusive gcell range along the run
  int hi = 0;
};

/// Append the maximal straight runs of one gcell path to `out`, in path
/// order; together they cover every path step exactly once.
void decompose_path_runs(const std::vector<GCell>& path, std::vector<WireRun>& out);

/// The detailed-route surrogate, kept incremental for repeated sign-off on a
/// design whose routes change a few connections at a time.
///
/// `full` decomposes every connection into wire runs, files them in per-row
/// lists, colors each row and runs the repair/metrics stage. `update`
/// replaces the runs of just the changed connections, recolors only the
/// touched rows/columns, and re-runs the (cheap) repair/metrics stage on the
/// maintained aggregates. Results are bit-identical to `full` on the same
/// inputs: the greedy coloring is order-sensitive at equal `lo`, so every
/// row list is kept in (lo, connection, sequence) order — `full` builds it
/// with one stable sort per row, `update` splices with `lower_bound` — and
/// utilization sums are integer-valued (order-independent).
class DetailedRouteState {
 public:
  DetailedRouteState(const Design* design, const DrouteOptions& options);

  const DetailedRouteResult& full(const GlobalRouteResult& gr);
  /// `changed_conns`: ascending indices of connections whose path changed
  /// since the previous full/update. Requires a prior `full`.
  const DetailedRouteResult& update(const GlobalRouteResult& gr,
                                    const std::vector<int>& changed_conns);
  const DetailedRouteResult& result() const { return result_; }

 private:
  struct RowRef {
    int conn = -1;
    int seq = 0;  ///< run index within its connection's decomposition
    int lo = 0;
    int hi = 0;
  };

  void rebuild_from(const GlobalRouteResult& gr);
  /// Violation count of one row list in (lo, conn, seq) order.
  static long long recolor(const std::vector<RowRef>& list, int tracks);
  /// Recolor the listed rows (horizontal) and columns (vertical).
  void recolor_rows(const std::vector<int>& rows, const std::vector<int>& cols);
  DetailedRouteResult finalize(const GlobalRouteResult& gr) const;

  const Design* design_ = nullptr;
  DrouteOptions options_;
  DetailedRouteResult result_;
  std::vector<std::vector<WireRun>> conn_runs_;  ///< per connection, path order
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
  bool built_ = false;
};

}  // namespace tsteiner
