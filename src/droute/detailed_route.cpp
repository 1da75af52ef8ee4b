#include "droute/detailed_route.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace tsteiner {

long long pin_access_violations(const Design& design, const GridGraph& grid) {
  const int nx = grid.nx();
  const int ny = grid.ny();
  std::vector<int> pins_per_gcell(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny), 0);
  for (const Pin& p : design.pins()) {
    if (p.net < 0) continue;
    const GCell g = grid.gcell_at(design.pin_position(p.id));
    ++pins_per_gcell[static_cast<std::size_t>(g.y) * static_cast<std::size_t>(nx) +
                     static_cast<std::size_t>(g.x)];
  }
  const double sites_per_gcell = static_cast<double>(grid.gcell_size());
  long long pin_access_viol = 0;
  for (int count : pins_per_gcell) {
    const double limit = kPinDensityLimitPerSite * sites_per_gcell;
    if (static_cast<double>(count) > limit) {
      pin_access_viol += static_cast<long long>(std::ceil(static_cast<double>(count) - limit));
    }
  }
  return pin_access_viol;
}

void decompose_path_runs(const std::vector<GCell>& path, std::vector<WireRun>& out) {
  std::size_t i = 1;
  while (i < path.size()) {
    const bool horiz = path[i].y == path[i - 1].y;
    std::size_t j = i;
    while (j + 1 < path.size() &&
           ((path[j + 1].y == path[j].y) == horiz) &&
           ((path[j + 1].x == path[j].x) != horiz)) {
      ++j;
    }
    WireRun run;
    run.horizontal = horiz;
    if (horiz) {
      run.row = path[i - 1].y;
      run.lo = std::min(path[i - 1].x, path[j].x);
      run.hi = std::max(path[i - 1].x, path[j].x);
    } else {
      run.row = path[i - 1].x;
      run.lo = std::min(path[i - 1].y, path[j].y);
      run.hi = std::max(path[i - 1].y, path[j].y);
    }
    out.push_back(run);
    i = j + 1;
  }
}

DetailedRouteResult detailed_route(const Design& design, const SteinerForest& forest,
                                   const GlobalRouteResult& gr, const DrouteOptions& options) {
  (void)forest;
  return DetailedRouteState(&design, options).full(gr);
}

// --- state -----------------------------------------------------------------

DetailedRouteState::DetailedRouteState(const Design* design, const DrouteOptions& options)
    : design_(design), options_(options) {}

void DetailedRouteState::rebuild_from(const GlobalRouteResult& gr) {
  const GridGraph& grid = gr.grid;
  const std::size_t n = gr.connections.size();
  h_tracks_ = std::max(1, static_cast<int>(grid.h_capacity()));
  v_tracks_ = std::max(1, static_cast<int>(grid.v_capacity()));
  conn_runs_.assign(n, {});
  conn_vias_.assign(n, 0);
  h_rows_.assign(static_cast<std::size_t>(grid.ny()), {});
  v_cols_.assign(static_cast<std::size_t>(grid.nx()), {});
  h_used_.assign(static_cast<std::size_t>(grid.ny()), 0.0);
  v_used_.assign(static_cast<std::size_t>(grid.nx()), 0.0);
  num_runs_ = 0;
  total_vias_ = 0;
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<WireRun>& runs = conn_runs_[c];
    decompose_path_runs(gr.connections[c].path, runs);
    for (std::size_t s = 0; s < runs.size(); ++s) {
      const WireRun& r = runs[s];
      const auto row = static_cast<std::size_t>(r.row);
      (r.horizontal ? h_rows_ : v_cols_)[row].push_back(
          RowRef{static_cast<int>(c), static_cast<int>(s), r.lo, r.hi});
      (r.horizontal ? h_used_ : v_used_)[row] += static_cast<double>(r.hi - r.lo + 1);
    }
    num_runs_ += runs.size();
    conn_vias_[c] = 2 + gr.connections[c].num_bends();  // pin-access vias + one per bend
    total_vias_ += conn_vias_[c];
  }
  // Runs were filed in (connection, seq) order, so a stable sort by `lo`
  // lands each row on (lo, conn, seq), the order `update` maintains.
  const auto by_lo = [](const RowRef& a, const RowRef& b) { return a.lo < b.lo; };
  for (auto& list : h_rows_) std::stable_sort(list.begin(), list.end(), by_lo);
  for (auto& list : v_cols_) std::stable_sort(list.begin(), list.end(), by_lo);
  h_viol_.assign(h_rows_.size(), 0);
  v_viol_.assign(v_cols_.size(), 0);
  std::vector<int> rows(h_rows_.size());
  std::vector<int> cols(v_cols_.size());
  std::iota(rows.begin(), rows.end(), 0);
  std::iota(cols.begin(), cols.end(), 0);
  recolor_rows(rows, cols);
  pin_access_viol_ = pin_access_violations(*design_, grid);
  built_ = true;
}

long long DetailedRouteState::recolor(const std::vector<RowRef>& list, int tracks) {
  // The greedy is order-sensitive at equal `lo`; it runs directly on the
  // maintained (lo, conn, seq) list, with no materialization and no sort.
  std::priority_queue<int, std::vector<int>, std::greater<>> busy;  // occupied his
  int free_tracks = tracks;
  long long violations = 0;
  for (const RowRef& run : list) {
    while (!busy.empty() && busy.top() < run.lo) {
      ++free_tracks;
      busy.pop();
    }
    if (free_tracks == 0) {
      ++violations;
      continue;
    }
    --free_tracks;
    busy.push(run.hi);
  }
  return violations;
}

void DetailedRouteState::recolor_rows(const std::vector<int>& rows,
                                      const std::vector<int>& cols) {
  // Rows are independent (recolor reads one row list, the result lands in
  // that row's violation slot), so the deterministic pool reproduces the
  // serial sweep bit for bit. A row costs a heap push and pop per run, ~48
  // inner operations each (measured ~60 ns per run, see docs/parallelism.md).
  const std::size_t row_work =
      48 * num_runs_ / std::max<std::size_t>(1, h_rows_.size() + v_cols_.size());
  parallel_for(0, rows.size(), row_work, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const auto y = static_cast<std::size_t>(rows[i]);
      h_viol_[y] = static_cast<int>(recolor(h_rows_[y], h_tracks_));
    }
  });
  parallel_for(0, cols.size(), row_work, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const auto x = static_cast<std::size_t>(cols[i]);
      v_viol_[x] = static_cast<int>(recolor(v_cols_[x], v_tracks_));
    }
  });
}

DetailedRouteResult DetailedRouteState::finalize(const GlobalRouteResult& gr) const {
  DetailedRouteResult result;
  std::vector<double> h_viol(h_viol_.begin(), h_viol_.end());
  std::vector<double> v_viol(v_viol_.begin(), v_viol_.end());
  std::vector<double> h_used = h_used_;
  std::vector<double> v_used = v_used_;

  auto total = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const double initial_conflicts = total(h_viol) + total(v_viol);
  const double h_row_capacity = static_cast<double>(h_tracks_) * gr.grid.nx();
  const double v_col_capacity = static_cast<double>(v_tracks_) * gr.grid.ny();

  // --- iterative repair: spill violated runs into adjacent rows/columns with
  // spare track capacity; work scales with the number of violated rows. Row
  // utilization (wire gcells per row) bounds how much a neighbor can absorb.
  double conflicts = initial_conflicts;
  for (int round = 0; round < options_.repair_rounds_max && conflicts > 0.5; ++round) {
    ++result.repair_rounds_used;
    auto spill = [&](std::vector<double>& viol, std::vector<double>& used, double capacity,
                     double avg_run_len) {
      const int n = static_cast<int>(viol.size());
      for (int r = 0; r < n; ++r) {
        if (viol[static_cast<std::size_t>(r)] <= 0.0) continue;
        ++result.repair_work;
        for (const int dr : {-1, 1}) {
          const int rr = r + dr;
          if (rr < 0 || rr >= n || viol[static_cast<std::size_t>(r)] <= 0.0) continue;
          const double slack = capacity - used[static_cast<std::size_t>(rr)];
          if (slack <= 0.0) continue;
          const double movable =
              std::min(viol[static_cast<std::size_t>(r)],
                       std::floor(slack / std::max(1.0, avg_run_len)) * 0.5);
          if (movable <= 0.0) continue;
          viol[static_cast<std::size_t>(r)] -= movable;
          used[static_cast<std::size_t>(rr)] += movable * avg_run_len;
          used[static_cast<std::size_t>(r)] -= movable * avg_run_len;
        }
      }
    };
    const double avg_run =
        num_runs_ == 0 ? 1.0 : (total(h_used) + total(v_used)) / static_cast<double>(num_runs_);
    spill(h_viol, h_used, h_row_capacity, avg_run);
    spill(v_viol, v_used, v_col_capacity, avg_run);
    conflicts = total(h_viol) + total(v_viol);
  }

  // --- final metrics --------------------------------------------------------
  result.num_drvs = static_cast<long long>(std::llround(conflicts)) + pin_access_viol_ / 8;
  result.num_vias = total_vias_;
  const double n_edges = std::max<double>(1.0, static_cast<double>(gr.connections.size()));
  const double detour = kWlDetourBase + kWlDetourPerOverflow * (initial_conflicts / n_edges);
  result.wirelength_dbu = gr.wirelength_dbu * detour;
  return result;
}

const DetailedRouteResult& DetailedRouteState::full(const GlobalRouteResult& gr) {
  TS_TRACE_SPAN_CAT("droute.detailed_route", "route");
  static obs::Counter& m_runs = obs::metrics().counter("droute.runs");
  m_runs.add();
  rebuild_from(gr);
  result_ = finalize(gr);
  return result_;
}

const DetailedRouteResult& DetailedRouteState::update(const GlobalRouteResult& gr,
                                                      const std::vector<int>& changed_conns) {
  TS_TRACE_SPAN_CAT("droute.incremental_update", "route");
  static obs::Counter& m_updates = obs::metrics().counter("droute.incremental_updates");
  m_updates.add();

  // Track counts derive from the grid capacities; if they moved (possible
  // only with uncalibrated capacities) every row's coloring changes.
  const int h_tracks = std::max(1, static_cast<int>(gr.grid.h_capacity()));
  const int v_tracks = std::max(1, static_cast<int>(gr.grid.v_capacity()));
  if (!built_ || gr.connections.size() != conn_runs_.size() || h_tracks != h_tracks_ ||
      v_tracks != v_tracks_) {
    return full(gr);
  }

  const auto find = [](std::vector<RowRef>& list, int lo, int conn, int seq) {
    return std::lower_bound(list.begin(), list.end(), std::tuple<int, int, int>{lo, conn, seq},
                            [](const RowRef& a, const std::tuple<int, int, int>& key) {
                              return std::tuple<int, int, int>{a.lo, a.conn, a.seq} < key;
                            });
  };
  std::vector<char> h_dirty(h_rows_.size(), 0);
  std::vector<char> v_dirty(v_cols_.size(), 0);
  for (int c : changed_conns) {
    const auto ci = static_cast<std::size_t>(c);
    std::vector<WireRun>& runs = conn_runs_[ci];
    // Remove the connection's old runs from their row lists.
    for (std::size_t s = 0; s < runs.size(); ++s) {
      const WireRun& r = runs[s];
      const auto row = static_cast<std::size_t>(r.row);
      auto& list = (r.horizontal ? h_rows_ : v_cols_)[row];
      list.erase(find(list, r.lo, c, static_cast<int>(s)));
      (r.horizontal ? h_used_ : v_used_)[row] -= static_cast<double>(r.hi - r.lo + 1);
      (r.horizontal ? h_dirty : v_dirty)[row] = 1;
    }
    num_runs_ -= runs.size();
    total_vias_ -= conn_vias_[ci];

    // Decompose the new path and splice its runs in, preserving the
    // (lo, connection, seq) order of every row list.
    runs.clear();
    decompose_path_runs(gr.connections[ci].path, runs);
    for (std::size_t s = 0; s < runs.size(); ++s) {
      const WireRun& r = runs[s];
      const auto row = static_cast<std::size_t>(r.row);
      const int seq = static_cast<int>(s);
      auto& list = (r.horizontal ? h_rows_ : v_cols_)[row];
      list.insert(find(list, r.lo, c, seq), RowRef{c, seq, r.lo, r.hi});
      (r.horizontal ? h_used_ : v_used_)[row] += static_cast<double>(r.hi - r.lo + 1);
      (r.horizontal ? h_dirty : v_dirty)[row] = 1;
    }
    num_runs_ += runs.size();
    conn_vias_[ci] = 2 + gr.connections[ci].num_bends();
    total_vias_ += conn_vias_[ci];
  }

  std::vector<int> dirty_h, dirty_v;
  for (std::size_t y = 0; y < h_rows_.size(); ++y) {
    if (h_dirty[y]) dirty_h.push_back(static_cast<int>(y));
  }
  for (std::size_t x = 0; x < v_cols_.size(); ++x) {
    if (v_dirty[x]) dirty_v.push_back(static_cast<int>(x));
  }
  recolor_rows(dirty_h, dirty_v);
  result_ = finalize(gr);
  TS_DEBUG("DR update: %zu conns respliced, %zu rows recolored", changed_conns.size(),
           dirty_h.size() + dirty_v.size());
  return result_;
}

}  // namespace tsteiner
