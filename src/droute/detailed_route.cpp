#include "droute/detailed_route.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>
#include <vector>

#include "droute/track_assign.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace tsteiner {

long long pin_access_violations(const Design& design, const GridGraph& grid,
                                const DrouteOptions& options) {
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
    const double limit = options.pin_density_limit_per_site * sites_per_gcell;
    if (static_cast<double>(count) > limit) {
      pin_access_viol += static_cast<long long>(std::ceil(static_cast<double>(count) - limit));
    }
  }
  return pin_access_viol;
}

DetailedRouteResult finalize_droute(DrouteRepairInputs in, const DrouteOptions& options) {
  DetailedRouteResult result;

  auto total = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const double initial_conflicts = total(in.h_viol) + total(in.v_viol);

  // --- iterative repair: spill violated runs into adjacent rows/columns with
  // spare track capacity; work scales with the number of violated rows.
  double conflicts = initial_conflicts;
  for (int round = 0; round < options.repair_rounds_max && conflicts > 0.5; ++round) {
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
        in.num_runs == 0
            ? 1.0
            : (total(in.h_used) + total(in.v_used)) / static_cast<double>(in.num_runs);
    spill(in.h_viol, in.h_used, in.h_row_capacity, avg_run);
    spill(in.v_viol, in.v_used, in.v_col_capacity, avg_run);
    conflicts = total(in.h_viol) + total(in.v_viol);
  }

  // --- final metrics --------------------------------------------------------
  result.num_drvs = static_cast<long long>(std::llround(conflicts)) + in.pin_access_viol / 8;
  result.num_vias = in.vias;
  const double n_edges = std::max<double>(1.0, static_cast<double>(in.num_connections));
  const double detour =
      options.wl_detour_base + options.wl_detour_per_overflow * (initial_conflicts / n_edges);
  result.wirelength_dbu = in.gr_wirelength_dbu * detour;
  return result;
}

namespace {

/// Assemble repair inputs from a full track assignment (shared by the
/// one-shot surrogate and DetailedRouteState::full).
DrouteRepairInputs repair_inputs_from(const TrackAssignResult& ta, const GlobalRouteResult& gr,
                                      long long pin_access_viol) {
  const GridGraph& grid = gr.grid;
  const int nx = grid.nx();
  const int ny = grid.ny();
  DrouteRepairInputs in;
  in.h_viol.assign(ta.h_row_violations.begin(), ta.h_row_violations.end());
  in.v_viol.assign(ta.v_col_violations.begin(), ta.v_col_violations.end());

  // Row utilization (wire gcells per row) bounds how much a neighbor row can
  // absorb during repair.
  in.h_used.assign(static_cast<std::size_t>(ny), 0.0);
  in.v_used.assign(static_cast<std::size_t>(nx), 0.0);
  for (const WireRun& r : ta.runs) {
    const double len = static_cast<double>(r.hi - r.lo + 1);
    if (r.horizontal) {
      in.h_used[static_cast<std::size_t>(r.row)] += len;
    } else {
      in.v_used[static_cast<std::size_t>(r.row)] += len;
    }
  }
  in.h_row_capacity = static_cast<double>(ta.h_tracks) * nx;
  in.v_col_capacity = static_cast<double>(ta.v_tracks) * ny;
  in.num_runs = ta.runs.size();
  in.pin_access_viol = pin_access_viol;

  long long vias = 0;
  for (const RoutedConnection& conn : gr.connections) {
    vias += 2 + conn.num_bends();  // pin-access vias + one via per bend
  }
  in.vias = vias;
  in.gr_wirelength_dbu = gr.wirelength_dbu;
  in.num_connections = gr.connections.size();
  return in;
}

}  // namespace

DetailedRouteResult detailed_route(const Design& design, const SteinerForest& forest,
                                   const GlobalRouteResult& gr, const DrouteOptions& options) {
  TS_TRACE_SPAN_CAT("droute.detailed_route", "route");
  static obs::Counter& m_runs = obs::metrics().counter("droute.runs");
  m_runs.add();

  // --- track assignment: the real conflict source ---------------------------
  const TrackAssignResult ta = assign_tracks(gr);
  const long long pin_access = pin_access_violations(design, gr.grid, options);
  (void)forest;
  return finalize_droute(repair_inputs_from(ta, gr, pin_access), options);
}

// --- incremental state -------------------------------------------------------

DetailedRouteState::DetailedRouteState(const Design* design, const DrouteOptions& options)
    : design_(design), options_(options) {}

void DetailedRouteState::rebuild_from(const GlobalRouteResult& gr) {
  const GridGraph& grid = gr.grid;
  const std::size_t n = gr.connections.size();
  const TrackAssignResult ta = assign_tracks(gr);

  conn_runs_.assign(n, {});
  conn_vias_.assign(n, 0);
  h_rows_.assign(static_cast<std::size_t>(grid.ny()), {});
  v_cols_.assign(static_cast<std::size_t>(grid.nx()), {});
  std::vector<int> seq_of(n, 0);
  for (const WireRun& r : ta.runs) {
    const int seq = seq_of[static_cast<std::size_t>(r.connection)]++;
    conn_runs_[static_cast<std::size_t>(r.connection)].push_back(
        StoredRun{r.horizontal, r.row, seq, r.lo, r.hi});
    auto& list = r.horizontal ? h_rows_[static_cast<std::size_t>(r.row)]
                              : v_cols_[static_cast<std::size_t>(r.row)];
    list.push_back(RowRef{r.connection, seq, r.lo, r.hi});
  }
  // ta.runs ascends by (connection, seq); stable-sorting each row by `lo`
  // therefore lands on (lo, conn, seq) — the exact sequence color_row_runs'
  // stable sort feeds the greedy, so incremental recolors can skip sorting.
  const auto by_lo = [](const RowRef& a, const RowRef& b) { return a.lo < b.lo; };
  for (auto& list : h_rows_) std::stable_sort(list.begin(), list.end(), by_lo);
  for (auto& list : v_cols_) std::stable_sort(list.begin(), list.end(), by_lo);
  h_viol_ = ta.h_row_violations;
  v_viol_ = ta.v_col_violations;
  h_used_.assign(static_cast<std::size_t>(grid.ny()), 0.0);
  v_used_.assign(static_cast<std::size_t>(grid.nx()), 0.0);
  for (const WireRun& r : ta.runs) {
    const double len = static_cast<double>(r.hi - r.lo + 1);
    if (r.horizontal) {
      h_used_[static_cast<std::size_t>(r.row)] += len;
    } else {
      v_used_[static_cast<std::size_t>(r.row)] += len;
    }
  }
  num_runs_ = ta.runs.size();
  h_tracks_ = ta.h_tracks;
  v_tracks_ = ta.v_tracks;
  total_vias_ = 0;
  for (std::size_t c = 0; c < n; ++c) {
    conn_vias_[c] = 2 + gr.connections[c].num_bends();
    total_vias_ += conn_vias_[c];
  }
  pin_access_viol_ = pin_access_violations(*design_, grid, options_);
  built_ = true;
}

long long DetailedRouteState::recolor(const std::vector<RowRef>& list, int tracks) const {
  // The maintained (lo, conn, seq) order is exactly what color_row_runs'
  // stable sort would produce from the full construction order, so the
  // (order-sensitive) greedy runs directly on the list — no materialization,
  // no sort — and reproduces the full violation count bit for bit.
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

DetailedRouteResult DetailedRouteState::finalize(const GlobalRouteResult& gr) const {
  DrouteRepairInputs in;
  in.h_viol.assign(h_viol_.begin(), h_viol_.end());
  in.v_viol.assign(v_viol_.begin(), v_viol_.end());
  in.h_used = h_used_;
  in.v_used = v_used_;
  in.h_row_capacity = static_cast<double>(h_tracks_) * gr.grid.nx();
  in.v_col_capacity = static_cast<double>(v_tracks_) * gr.grid.ny();
  in.num_runs = num_runs_;
  in.pin_access_viol = pin_access_viol_;
  in.vias = total_vias_;
  in.gr_wirelength_dbu = gr.wirelength_dbu;
  in.num_connections = gr.connections.size();
  return finalize_droute(std::move(in), options_);
}

const DetailedRouteResult& DetailedRouteState::full(const GlobalRouteResult& gr) {
  TS_TRACE_SPAN_CAT("droute.detailed_route", "route");
  static obs::Counter& m_runs = obs::metrics().counter("droute.runs");
  m_runs.add();
  rebuild_from(gr);
  last_recolored_ = static_cast<long long>(h_rows_.size() + v_cols_.size());
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

  std::vector<char> h_dirty(h_rows_.size(), 0);
  std::vector<char> v_dirty(v_cols_.size(), 0);
  std::vector<WireRun> scratch;
  for (int c : changed_conns) {
    const auto ci = static_cast<std::size_t>(c);
    // Remove the connection's old runs from their row lists.
    for (const StoredRun& r : conn_runs_[ci]) {
      auto& list = r.horizontal ? h_rows_[static_cast<std::size_t>(r.row)]
                                : v_cols_[static_cast<std::size_t>(r.row)];
      const auto it = std::lower_bound(
          list.begin(), list.end(), std::tuple<int, int, int>{r.lo, c, r.seq},
          [](const RowRef& a, const std::tuple<int, int, int>& key) {
            return std::tuple<int, int, int>{a.lo, a.conn, a.seq} < key;
          });
      list.erase(it);
      (r.horizontal ? h_used_ : v_used_)[static_cast<std::size_t>(r.row)] -=
          static_cast<double>(r.hi - r.lo + 1);
      (r.horizontal ? h_dirty : v_dirty)[static_cast<std::size_t>(r.row)] = 1;
      --num_runs_;
    }
    total_vias_ -= conn_vias_[ci];

    // Decompose the new path and splice its runs in, preserving the
    // (lo, connection, seq) order the full construction's stable sort yields.
    scratch.clear();
    decompose_path_runs(gr.connections[ci].path, c, scratch);
    conn_runs_[ci].clear();
    for (std::size_t s = 0; s < scratch.size(); ++s) {
      const WireRun& r = scratch[s];
      const int seq = static_cast<int>(s);
      conn_runs_[ci].push_back(StoredRun{r.horizontal, r.row, seq, r.lo, r.hi});
      auto& list = r.horizontal ? h_rows_[static_cast<std::size_t>(r.row)]
                                : v_cols_[static_cast<std::size_t>(r.row)];
      const auto it = std::lower_bound(
          list.begin(), list.end(), std::tuple<int, int, int>{r.lo, c, seq},
          [](const RowRef& a, const std::tuple<int, int, int>& key) {
            return std::tuple<int, int, int>{a.lo, a.conn, a.seq} < key;
          });
      list.insert(it, RowRef{c, seq, r.lo, r.hi});
      (r.horizontal ? h_used_ : v_used_)[static_cast<std::size_t>(r.row)] +=
          static_cast<double>(r.hi - r.lo + 1);
      (r.horizontal ? h_dirty : v_dirty)[static_cast<std::size_t>(r.row)] = 1;
      ++num_runs_;
    }
    conn_vias_[ci] = 2 + gr.connections[ci].num_bends();
    total_vias_ += conn_vias_[ci];
  }

  // Recolor dirty rows in parallel: rows are independent (recolor reads one
  // row list, the result lands in that row's violation slot), so the
  // deterministic pool reproduces the serial sweep bit for bit. A row costs
  // a heap push and pop per run, ~48 inner operations each (measured ~60 ns
  // per run, see docs/parallelism.md).
  std::vector<int> dirty_h, dirty_v;
  for (std::size_t y = 0; y < h_rows_.size(); ++y) {
    if (h_dirty[y]) dirty_h.push_back(static_cast<int>(y));
  }
  for (std::size_t x = 0; x < v_cols_.size(); ++x) {
    if (v_dirty[x]) dirty_v.push_back(static_cast<int>(x));
  }
  const std::size_t row_work =
      48 * num_runs_ / std::max<std::size_t>(1, h_rows_.size() + v_cols_.size());
  parallel_for(0, dirty_h.size(), row_work, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const int y = dirty_h[i];
      h_viol_[static_cast<std::size_t>(y)] =
          static_cast<int>(recolor(h_rows_[static_cast<std::size_t>(y)], h_tracks_));
    }
  });
  parallel_for(0, dirty_v.size(), row_work, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const int x = dirty_v[i];
      v_viol_[static_cast<std::size_t>(x)] =
          static_cast<int>(recolor(v_cols_[static_cast<std::size_t>(x)], v_tracks_));
    }
  });
  last_recolored_ = static_cast<long long>(dirty_h.size() + dirty_v.size());
  result_ = finalize(gr);
  TS_DEBUG("DR update: %zu conns respliced, %lld rows recolored", changed_conns.size(),
           last_recolored_);
  return result_;
}

}  // namespace tsteiner
