#include "route/global_router.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace tsteiner {

int RoutedConnection::num_bends() const {
  int bends = 0;
  for (std::size_t i = 2; i < path.size(); ++i) {
    const bool was_h = path[i - 1].y == path[i - 2].y && path[i - 1].x != path[i - 2].x;
    const bool is_h = path[i].y == path[i - 1].y && path[i].x != path[i - 1].x;
    if (was_h != is_h) ++bends;
  }
  return bends;
}

double RoutedConnection::length_dbu(const GridGraph& grid, const PointF& a,
                                    const PointF& b) const {
  if (path.size() <= 1) return manhattan(a, b);
  return static_cast<double>(path.size() - 1) * static_cast<double>(grid.gcell_size());
}

namespace {

/// Congestion cost of crossing one gcell edge with current usage u and
/// capacity c: gentle below capacity, steep above (negotiated congestion).
double edge_penalty(double usage, double cap, double history) {
  const double util = usage / cap;
  double p = 0.3 * util + history;
  if (usage >= cap) p += 3.0 + 3.0 * (usage - cap + 1.0) / cap;
  return p;
}

/// Append an axis-aligned run of gcells from path.back() to `to` (same row
/// or column).
void append_run(std::vector<GCell>& path, GCell to) {
  GCell cur = path.back();
  while (!(cur == to)) {
    if (cur.x != to.x) {
      cur.x += to.x > cur.x ? 1 : -1;
    } else {
      cur.y += to.y > cur.y ? 1 : -1;
    }
    path.push_back(cur);
  }
}

/// Route a -> b with one of the two L-patterns, chosen by endpoint parity so
/// bends spread evenly. The choice is deliberately a pure function of the
/// endpoints — never of usage — so every base path depends only on its own
/// connection's gcell endpoints. Congestion is negotiated by the maze rounds
/// instead: a usage-aware initial L choice would couple each base path to
/// the commit order of every earlier one, and in a replay a single moved
/// tree could flip near-tied L choices across the whole die, destroying the
/// locality the maze cache depends on. Purity is also what lets the replay
/// patch only moved connections instead of re-walking all n patterns.
std::vector<GCell> pattern_path(GCell a, GCell b) {
  std::vector<GCell> path{a};
  if (a == b) return path;
  const bool x_first = ((a.x + a.y + b.x + b.y) & 1) == 0;
  const GCell corner = x_first ? GCell{b.x, a.y} : GCell{a.x, b.y};
  append_run(path, corner);
  append_run(path, b);
  return path;
}

/// Add `delta` wires along an already-known path. Usage counts are integers,
/// so ripping (-1) and committing (+1) the same path are exact inverses.
void add_usage(GridGraph& grid, const std::vector<GCell>& path, double delta) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    const GCell& p = path[i - 1];
    const GCell& q = path[i];
    if (p.y == q.y) {
      grid.add_h_usage(std::min(p.x, q.x), p.y, delta);
    } else {
      grid.add_v_usage(p.x, std::min(p.y, q.y), delta);
    }
  }
}

/// prev_ / heap position sentinel; no cell id reaches it (fit_kernel).
constexpr std::uint32_t kNoCell = std::numeric_limits<std::uint32_t>::max();

using HeapKey = unsigned __int128;

/// Heap key of (dist, cell): the distance's bits mapped to an unsigned
/// integer of the same order, above the cell id, so one integer compare
/// orders entries by distance and breaks ties by row-major cell order. The
/// map is monotone for every distance a search stores: finite or +inf, never
/// NaN (a NaN never passes the relax test) and never -0.0 (a sum starting
/// from +0.0 cannot round to it).
HeapKey heap_key(double dist, std::uint32_t cell) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(dist);
  bits ^= (bits >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63;
  return static_cast<HeapKey>(bits) << 32 | cell;
}

std::uint32_t key_cell(HeapKey key) {
  return static_cast<std::uint32_t>(key);
}

double p90(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const auto k = static_cast<std::ptrdiff_t>(0.9 * static_cast<double>(xs.size() - 1));
  std::nth_element(xs.begin(), xs.begin() + k, xs.end());
  return xs[static_cast<std::size_t>(k)];
}

/// Exact per-edge difference between this replay's routing field and the
/// cached previous run's field at the aligned point of the operation
/// sequence. Usage deltas are integer wire counts; history deltas are
/// integer charge counts (both runs apply the identical per-charge
/// increment in the identical round order, so an equal count means a
/// bit-equal history value). A per-tile counter of nonzero entries makes
/// "does this maze window read bit-identical state?" a cheap tile scan —
/// and because deltas cancel when a diverged region re-converges, the clean
/// region grows back, where a monotone dirty cover can only shrink it.
class FieldDelta {
 public:
  static constexpr int kTileShift = 2;  // 4x4 gcell tiles

  void init(int nx, int ny) {
    nx_ = nx;
    ny_ = ny;
    tx_ = (nx >> kTileShift) + 1;
    const int ty = (ny >> kTileShift) + 1;
    h_usage_.assign(static_cast<std::size_t>(std::max(0, nx - 1)) *
                        static_cast<std::size_t>(ny), 0);
    v_usage_.assign(static_cast<std::size_t>(nx) *
                        static_cast<std::size_t>(std::max(0, ny - 1)), 0);
    h_hist_.assign(h_usage_.size(), 0);
    v_hist_.assign(v_usage_.size(), 0);
    tile_nonzero_.assign(static_cast<std::size_t>(tx_) * static_cast<std::size_t>(ty), 0);
    total_nonzero_ = 0;
  }

  /// Accumulate one routed path's edge usage with the given sign: +1 for a
  /// commit in this run or a rip in the previous run, -1 for the converse.
  void add_path_usage(const std::vector<GCell>& path, int sign) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      const GCell& p = path[i - 1];
      const GCell& q = path[i];
      if (p.y == q.y) {
        bump(h_usage_, h_index(std::min(p.x, q.x), p.y), std::min(p.x, q.x), p.y, sign);
      } else {
        bump(v_usage_, v_index(p.x, std::min(p.y, q.y)), p.x, std::min(p.y, q.y), sign);
      }
    }
  }

  int h_usage_delta(int x, int y) const { return h_usage_[h_index(x, y)]; }
  int v_usage_delta(int x, int y) const { return v_usage_[v_index(x, y)]; }
  void add_h_hist(int x, int y, int d) { bump(h_hist_, h_index(x, y), x, y, d); }
  void add_v_hist(int x, int y, int d) { bump(v_hist_, v_index(x, y), x, y, d); }

  /// True iff every usage and history delta attributed to a gcell in the
  /// inclusive window is zero, i.e. a maze over the window reads state
  /// bit-identical to the previous run's at the aligned point.
  bool window_clean(int x0, int y0, int x1, int y1) const {
    if (total_nonzero_ == 0) return true;
    const int tx0 = x0 >> kTileShift, tx1 = x1 >> kTileShift;
    const int ty0 = y0 >> kTileShift, ty1 = y1 >> kTileShift;
    for (int t = ty0; t <= ty1; ++t) {
      const int* row =
          tile_nonzero_.data() + static_cast<std::size_t>(t) * static_cast<std::size_t>(tx_);
      for (int s = tx0; s <= tx1; ++s) {
        if (row[s] != 0) return false;
      }
    }
    return true;
  }

 private:
  std::size_t h_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_ - 1) +
           static_cast<std::size_t>(x);
  }
  std::size_t v_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(x);
  }
  void bump(std::vector<int>& arr, std::size_t idx, int x, int y, int d) {
    const int before = arr[idx];
    const int after = before + d;
    arr[idx] = after;
    if ((before == 0) != (after == 0)) {
      const std::size_t tile =
          static_cast<std::size_t>(y >> kTileShift) * static_cast<std::size_t>(tx_) +
          static_cast<std::size_t>(x >> kTileShift);
      const int step = before == 0 ? 1 : -1;
      tile_nonzero_[tile] += step;
      total_nonzero_ += step;
    }
  }

 private:
  int nx_ = 0, ny_ = 0, tx_ = 0;
  std::vector<int> h_usage_, v_usage_;  // wire-count deltas per grid edge
  std::vector<int> h_hist_, v_hist_;    // history charge-count deltas
  std::vector<int> tile_nonzero_;
  long long total_nonzero_ = 0;
};

}  // namespace

GlobalRouterState::GlobalRouterState(const Design* design, const RouterOptions& options)
    : design_(design), options_(options) {
  const auto bad = [](const char* what) {
    throw std::invalid_argument(std::string("RouterOptions: ") + what);
  };
  if (options.maze_margin < 0) bad("maze_margin must be >= 0");
  if (options.rrr_iterations < 0) bad("rrr_iterations must be >= 0");
  if (!(options.capacity_factor > 0.0) || !std::isfinite(options.capacity_factor)) {
    bad("capacity_factor must be positive and finite");
  }
  if (!(options.min_capacity > 0.0) || !std::isfinite(options.min_capacity)) {
    bad("min_capacity must be positive and finite");
  }
  if (!std::isfinite(options.history_increment)) bad("history_increment must be finite");
}

void GlobalRouterState::fit_kernel() {
  const GridGraph& grid = result_.grid;
  shift_ = std::bit_width(static_cast<unsigned>(grid.nx() - 1));
  const std::size_t cells = static_cast<std::size_t>(grid.ny()) << shift_;
  if (cells >= kNoCell) throw std::length_error("global router: gcell grid too large");
  if (cell_.size() == cells) return;
  h_cost_.assign(cells, 0.0);
  v_cost_.assign(cells, 0.0);
  cell_.assign(cells, MazeCell{});
  prev_.assign(cells, 0);
  gen_ = 0;
}

void GlobalRouterState::refresh_h_cost(int x, int y) {
  const GridGraph& grid = result_.grid;
  h_cost_[static_cast<std::size_t>(y) << shift_ | static_cast<std::size_t>(x)] =
      1.0 + edge_penalty(grid.h_usage(x, y), grid.h_capacity(), grid.h_history(x, y));
}

void GlobalRouterState::refresh_v_cost(int x, int y) {
  const GridGraph& grid = result_.grid;
  v_cost_[static_cast<std::size_t>(y) << shift_ | static_cast<std::size_t>(x)] =
      1.0 + edge_penalty(grid.v_usage(x, y), grid.v_capacity(), grid.v_history(x, y));
}

void GlobalRouterState::rebuild_step_costs() {
  const GridGraph& grid = result_.grid;
  for (int y = 0; y < grid.ny(); ++y) {
    for (int x = 0; x + 1 < grid.nx(); ++x) refresh_h_cost(x, y);
    if (y + 1 < grid.ny()) {
      for (int x = 0; x < grid.nx(); ++x) refresh_v_cost(x, y);
    }
  }
}

void GlobalRouterState::commit_usage(const std::vector<GCell>& path, double delta) {
  GridGraph& grid = result_.grid;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const GCell& p = path[i - 1];
    const GCell& q = path[i];
    if (p.y == q.y) {
      const int x = std::min(p.x, q.x);
      grid.add_h_usage(x, p.y, delta);
      refresh_h_cost(x, p.y);
    } else {
      const int y = std::min(p.y, q.y);
      grid.add_v_usage(p.x, y, delta);
      refresh_v_cost(p.x, y);
    }
  }
}

GlobalRouterState::Window GlobalRouterState::maze_window(GCell a, GCell b) const {
  // 64-bit so a huge margin saturates at the die instead of overflowing.
  const long long m = options_.maze_margin;
  const GridGraph& grid = result_.grid;
  return {static_cast<int>(std::max(0LL, std::min(a.x, b.x) - m)),
          static_cast<int>(std::max(0LL, std::min(a.y, b.y) - m)),
          static_cast<int>(std::min<long long>(grid.nx() - 1, std::max(a.x, b.x) + m)),
          static_cast<int>(std::min<long long>(grid.ny() - 1, std::max(a.y, b.y) + m))};
}

void GlobalRouterState::heap_sift_up(std::size_t pos) {
  const HeapKey key = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    const HeapKey pk = heap_[parent];
    if (!(key < pk)) break;
    heap_[pos] = pk;
    cell_[key_cell(pk)].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = key;
  cell_[key_cell(key)].heap_pos = static_cast<std::uint32_t>(pos);
}

void GlobalRouterState::heap_sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const HeapKey key = heap_[pos];
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    HeapKey ck = heap_[child];
    if (child + 1 < n && heap_[child + 1] < ck) ck = heap_[++child];
    if (!(ck < key)) break;
    heap_[pos] = ck;
    cell_[key_cell(ck)].heap_pos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = key;
  cell_[key_cell(key)].heap_pos = static_cast<std::uint32_t>(pos);
}

std::vector<GCell> GlobalRouterState::maze_route(GCell a, GCell b, long long& expansions) {
  if (a == b) return {a};
  const Window win = maze_window(a, b);
  const std::uint32_t mask = (1U << shift_) - 1U;
  const std::uint32_t stride = 1U << shift_;
  const auto id = [&](GCell g) {
    return static_cast<std::uint32_t>(g.y) << shift_ | static_cast<std::uint32_t>(g.x);
  };
  if (++gen_ == 0) {  // stamps wrapped: forget every old search once
    for (MazeCell& c : cell_) c.stamp = 0;
    gen_ = 1;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Relax v through u only on a strict improvement; a cell not in the heap
  // (never reached, or already popped) is pushed, otherwise its key drops.
  const auto relax = [&](std::uint32_t u, double du, std::uint32_t v, double step) {
    MazeCell& c = cell_[v];
    if (c.stamp != gen_) c = {kInf, gen_, kNoCell};
    const double nd = du + step;
    if (!(nd < c.dist)) return;
    c.dist = nd;
    prev_[v] = u;
    if (c.heap_pos == kNoCell) {
      heap_.push_back(heap_key(nd, v));
      heap_sift_up(heap_.size() - 1);
    } else {
      heap_[c.heap_pos] = heap_key(nd, v);
      heap_sift_up(c.heap_pos);
    }
  };
  const std::uint32_t source = id(a);
  const std::uint32_t target = id(b);
  heap_.clear();
  cell_[source] = {0.0, gen_, 0};
  prev_[source] = kNoCell;
  heap_.push_back(heap_key(0.0, source));
  while (!heap_.empty()) {
    const std::uint32_t u = key_cell(heap_.front());
    cell_[u].heap_pos = kNoCell;
    const HeapKey last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      heap_sift_down(0);
    }
    ++expansions;
    if (u == target) break;
    const double du = cell_[u].dist;
    const int ux = static_cast<int>(u & mask);
    const int uy = static_cast<int>(u >> shift_);
    if (ux > win.x_lo) relax(u, du, u - 1, h_cost_[u - 1]);
    if (ux < win.x_hi) relax(u, du, u + 1, h_cost_[u]);
    if (uy > win.y_lo) relax(u, du, u - stride, v_cost_[u - stride]);
    if (uy < win.y_hi) relax(u, du, u + stride, v_cost_[u]);
  }
  std::vector<GCell> path;
  if (cell_[target].stamp != gen_ || cell_[target].dist == kInf) {
    // Unreachable inside a bbox window only with non-finite costs.
    path = pattern_path(a, b);
  } else {
    for (std::uint32_t v = target; v != kNoCell; v = prev_[v]) {
      path.push_back({static_cast<int>(v & mask), static_cast<int>(v >> shift_)});
    }
    std::reverse(path.begin(), path.end());
  }
  commit_usage(path, 1.0);
  return path;
}

void GlobalRouterState::run(const SteinerForest& forest, const std::vector<char>* tree_dirty) {
  TS_TRACE_SPAN_CAT("route.global", "route");
  static obs::Counter& m_runs = obs::metrics().counter("route.global_runs");
  static obs::Counter& m_ripups = obs::metrics().counter("route.ripups");
  static obs::Counter& m_rrr_rounds = obs::metrics().counter("route.rrr_rounds");
  static obs::Counter& m_replays = obs::metrics().counter("route.incremental_replays");
  static obs::Counter& m_mazes_reused = obs::metrics().counter("route.reused_mazes");
  static obs::Counter& m_expansions = obs::metrics().counter("route.maze_expansions");
  static obs::Gauge& m_overflow = obs::metrics().gauge("route.total_overflow");
  const bool replay = tree_dirty != nullptr;
  if (replay) {
    m_replays.add();
  } else {
    m_runs.add();
  }

  const double prev_h_cap = result_.calibrated_h_cap;
  const double prev_v_cap = result_.calibrated_v_cap;
  if (replay) {
    result_.rrr_rounds_used = 0;
  } else {
    result_ = GlobalRouteResult{GridGraph(design_->die(), options_.gcell_size),
                                {}, {}, 0, 0, 0, 0, 0, 0};
    result_.conn_of_edge.resize(forest.trees.size());
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      const SteinerTree& tree = forest.trees[t];
      result_.conn_of_edge[t].assign(tree.edges.size(), -1);
      for (std::size_t e = 0; e < tree.edges.size(); ++e) {
        RoutedConnection conn;
        conn.tree = static_cast<int>(t);
        conn.edge = static_cast<int>(e);
        result_.conn_of_edge[t][e] = static_cast<int>(result_.connections.size());
        result_.connections.push_back(std::move(conn));
      }
    }
  }
  GridGraph& grid = result_.grid;
  const std::size_t n = result_.connections.size();

  FieldDelta delta;
  ReplayCache next;
  // Replay bookkeeping: which connections' final path may differ from the
  // previous run's, the previous run's final path per connection (last maze
  // `after`, else the cached base), and replacement base paths for moved
  // connections (applied to the cache after accounting, which still reads
  // the old bases).
  std::vector<char> touched;
  std::vector<const std::vector<GCell>*> prev_final;
  std::vector<std::pair<std::size_t, std::vector<GCell>>> new_bases;

  {
    TS_TRACE_SPAN_CAT("route.pattern", "route");
    if (!replay) {
      // Initial pattern routing of every tree edge, from a zeroed grid.
      next.endpoints.resize(n);
      next.base_paths.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        RoutedConnection& conn = result_.connections[i];
        const SteinerTree& tree = forest.trees[static_cast<std::size_t>(conn.tree)];
        const SteinerEdge& edge = tree.edges[static_cast<std::size_t>(conn.edge)];
        next.endpoints[i] = {grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.a)].pos),
                             grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.b)].pos)};
        conn.path = pattern_path(next.endpoints[i].first, next.endpoints[i].second);
        add_usage(grid, conn.path, 1.0);
        next.base_paths[i] = conn.path;
      }
    } else {
      // Patch, don't rebuild: the grid still holds the previous run's final
      // state. Usage entries are integer wire counts (exact in a double), so
      // ripping a previous path and committing a new one lands on the exact
      // value a fresh pattern pass would compute, in any order. Three patches
      // restore the exact post-pattern state of this run:
      //   1. history back to all-zero (only the fresh-start value matters —
      //      rounds recharge it honestly below);
      //   2. every previously-mazed connection back from its negotiated final
      //      path to its base path;
      //   3. every connection whose gcell endpoints moved from its old base
      //      to the new pattern path — the only connections that diverge from
      //      the previous run, so only they seed the field delta.
      // Untouched connections already hold their base path (their final path
      // IS the base when no maze op rerouted them), so the whole pattern
      // phase costs O(dirty + previously-mazed), not O(n).
      delta.init(grid.nx(), grid.ny());
      grid.clear_history();
      prev_final.assign(n, nullptr);
      for (const std::vector<MazeOp>& round : cache_.rounds) {
        for (const MazeOp& op : round) {
          prev_final[static_cast<std::size_t>(op.conn)] = &op.after;
        }
      }
      touched.assign(n, 0);
      next.endpoints = std::move(cache_.endpoints);
      for (std::size_t i = 0; i < n; ++i) {
        RoutedConnection& conn = result_.connections[i];
        const std::vector<GCell>* pf = prev_final[i];
        bool ep_changed = false;
        if ((*tree_dirty)[static_cast<std::size_t>(conn.tree)]) {
          const SteinerTree& tree = forest.trees[static_cast<std::size_t>(conn.tree)];
          const SteinerEdge& edge = tree.edges[static_cast<std::size_t>(conn.edge)];
          const std::pair<GCell, GCell> ep = {
              grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.a)].pos),
              grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.b)].pos)};
          ep_changed = !(ep == next.endpoints[i]);
          next.endpoints[i] = ep;
        }
        if (ep_changed) {
          std::vector<GCell> base = pattern_path(next.endpoints[i].first, next.endpoints[i].second);
          delta.add_path_usage(base, +1);
          delta.add_path_usage(cache_.base_paths[i], -1);
          add_usage(grid, pf != nullptr ? *pf : cache_.base_paths[i], -1.0);
          add_usage(grid, base, 1.0);
          conn.path = base;
          new_bases.emplace_back(i, std::move(base));
          touched[i] = 1;
        } else if (pf != nullptr) {
          add_usage(grid, *pf, -1.0);
          add_usage(grid, cache_.base_paths[i], 1.0);
          conn.path = cache_.base_paths[i];
          touched[i] = 1;
        }
      }
    }
  }

  // Capacity calibration (or pinned capacities for apples-to-apples runs).
  if (options_.fixed_h_cap > 0.0 && options_.fixed_v_cap > 0.0) {
    grid.set_capacities(options_.fixed_h_cap, options_.fixed_v_cap);
  } else {
    const double h_cap =
        std::max(options_.min_capacity, options_.capacity_factor * p90(grid.h_usages()));
    const double v_cap =
        std::max(options_.min_capacity, options_.capacity_factor * p90(grid.v_usages()));
    grid.set_capacities(h_cap, v_cap);
  }
  result_.calibrated_h_cap = grid.h_capacity();
  result_.calibrated_v_cap = grid.v_capacity();
  // Maze reuse additionally requires identical capacities (they feed every
  // edge penalty); with calibration enabled a demand shift can move p90.
  const bool caps_match =
      replay && grid.h_capacity() == prev_h_cap && grid.v_capacity() == prev_v_cap;

  // Negotiated rip-up and reroute.
  last_total_mazes_ = 0;
  last_reused_mazes_ = 0;
  for (int round = 0; round < options_.rrr_iterations; ++round) {
    if (grid.total_overflow() <= 0.0) break;
    TS_TRACE_SPAN_CAT("route.rrr_round", "route");
    ++result_.rrr_rounds_used;
    if (round == 0) {
      // Only mazes read the step-cost field, so a route that never
      // negotiates neither sizes nor builds it.
      fit_kernel();
      rebuild_step_costs();
    }
    // Add history on overflowed edges and refresh their step costs. A replay
    // also settles the history charge-count delta here: the previous run
    // charged an edge exactly when its usage (current usage minus the usage
    // delta) exceeded the same capacity, so both charge decisions come out
    // of one pass without storing the previous run's grid.
    for (int y = 0; y < grid.ny(); ++y) {
      for (int x = 0; x + 1 < grid.nx(); ++x) {
        const double u = grid.h_usage(x, y);
        const bool charge = u > grid.h_capacity();
        if (charge) {
          grid.add_h_history(x, y, options_.history_increment);
          refresh_h_cost(x, y);
        }
        if (replay && charge != (u - delta.h_usage_delta(x, y) > grid.h_capacity())) {
          delta.add_h_hist(x, y, charge ? 1 : -1);
        }
      }
      if (y + 1 < grid.ny()) {
        for (int x = 0; x < grid.nx(); ++x) {
          const double u = grid.v_usage(x, y);
          const bool charge = u > grid.v_capacity();
          if (charge) {
            grid.add_v_history(x, y, options_.history_increment);
            refresh_v_cost(x, y);
          }
          if (replay && charge != (u - delta.v_usage_delta(x, y) > grid.v_capacity())) {
            delta.add_v_hist(x, y, charge ? 1 : -1);
          }
        }
      }
    }
    // Victims: connections through an overflowed edge, in ascending order,
    // which is also the reroute order.
    std::vector<int> victims;
    for (std::size_t c = 0; c < result_.connections.size(); ++c) {
      const std::vector<GCell>& path = result_.connections[c].path;
      for (std::size_t i = 1; i < path.size(); ++i) {
        const GCell& p = path[i - 1];
        const GCell& q = path[i];
        const bool over = p.y == q.y
                              ? grid.h_usage(std::min(p.x, q.x), p.y) > grid.h_capacity()
                              : grid.v_usage(p.x, std::min(p.y, q.y)) > grid.v_capacity();
        if (over) {
          victims.push_back(static_cast<int>(c));
          break;
        }
      }
    }
    if (victims.empty()) break;
    m_ripups.add(victims.size());
    m_rrr_rounds.add();

    const std::vector<MazeOp>* prev_round =
        replay && static_cast<std::size_t>(round) < cache_.rounds.size()
            ? &cache_.rounds[static_cast<std::size_t>(round)]
            : nullptr;
    next.rounds.emplace_back();
    std::vector<MazeOp>& ops = next.rounds.back();
    ops.reserve(victims.size());
    // Victims ascend, and the previous run's ops were recorded in its own
    // ascending victim order, so one merge walk aligns the two operation
    // sequences. A cached op the replay walks past (its connection is not a
    // victim this time) still happened in the previous run — fold its rip +
    // commit into the field delta at exactly this point of the sequence.
    std::size_t pi = 0;
    long long expansions = 0;
    const auto skip_cached_ops_below = [&](int c) {
      while (prev_round && pi < prev_round->size() && (*prev_round)[pi].conn < c) {
        const MazeOp& sk = (*prev_round)[pi];
        delta.add_path_usage(sk.before, +1);
        delta.add_path_usage(sk.after, -1);
        ++pi;
      }
    };
    for (int c : victims) {
      RoutedConnection& conn = result_.connections[static_cast<std::size_t>(c)];
      if (replay) touched[static_cast<std::size_t>(c)] = 1;
      const MazeOp* cached = nullptr;
      skip_cached_ops_below(c);
      if (prev_round && pi < prev_round->size() && (*prev_round)[pi].conn == c) {
        cached = &(*prev_round)[pi];
        ++pi;
      }
      const GCell a = conn.path.front();
      const GCell b = conn.path.back();
      ++last_total_mazes_;
      MazeOp op;
      op.conn = c;
      op.before = std::move(conn.path);
      const bool same_before = cached != nullptr && op.before == cached->before;
      commit_usage(op.before, -1.0);
      if (replay && !same_before) {
        delta.add_path_usage(op.before, -1);
        if (cached) delta.add_path_usage(cached->before, +1);
      }
      bool reuse = false;
      if (same_before && caps_match) {
        const Window win = maze_window(a, b);
        reuse = delta.window_clean(win.x_lo, win.y_lo, win.x_hi, win.y_hi);
      }
      if (reuse) {
        // The maze is a pure function of the window's usage/history and the
        // endpoints; a clean window means it would reproduce the cached path
        // (and the rip/commit deltas cancel exactly).
        conn.path = cached->after;
        commit_usage(conn.path, 1.0);
        ++last_reused_mazes_;
        m_mazes_reused.add();
      } else {
        conn.path = maze_route(a, b, expansions);
        if (replay) {
          if (cached == nullptr || conn.path != cached->after) {
            delta.add_path_usage(conn.path, +1);
            if (cached) delta.add_path_usage(cached->after, -1);
          }
        }
      }
      op.after = conn.path;
      ops.push_back(std::move(op));
    }
    skip_cached_ops_below(std::numeric_limits<int>::max());
    m_expansions.add(static_cast<std::uint64_t>(expansions));
    TS_DEBUG("GR round %d: %zu victims, overflow %.1f, reused %lld/%lld mazes", round,
             victims.size(), grid.total_overflow(), last_reused_mazes_, last_total_mazes_);
  }

  // Final accounting: per-connection lengths, folded in connection order so
  // the float sum matches the historical order bit for bit.
  changed_conns_.clear();
  if (!replay) {
    conn_len_.assign(n, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
      const RoutedConnection& conn = result_.connections[c];
      const SteinerTree& tree = forest.trees[static_cast<std::size_t>(conn.tree)];
      const SteinerEdge& e = tree.edges[static_cast<std::size_t>(conn.edge)];
      conn_len_[c] = conn.length_dbu(grid, tree.nodes[static_cast<std::size_t>(e.a)].pos,
                                     tree.nodes[static_cast<std::size_t>(e.b)].pos);
    }
  } else {
    // Only patched or this-run-mazed connections can differ from the
    // previous run's final path; everything else kept its path in place.
    for (std::size_t c = 0; c < n; ++c) {
      const RoutedConnection& conn = result_.connections[c];
      const bool dirty_tree = (*tree_dirty)[static_cast<std::size_t>(conn.tree)];
      if (touched[c] == 0 && !dirty_tree) continue;
      if (touched[c] != 0) {
        const std::vector<GCell>& pf =
            prev_final[c] != nullptr ? *prev_final[c] : cache_.base_paths[c];
        if (conn.path != pf) changed_conns_.push_back(static_cast<int>(c));
      }
      // Lengths of single-gcell paths depend on the continuous endpoint
      // positions, so every connection of a moved tree recomputes.
      const SteinerTree& tree = forest.trees[static_cast<std::size_t>(conn.tree)];
      const SteinerEdge& e = tree.edges[static_cast<std::size_t>(conn.edge)];
      conn_len_[c] = conn.length_dbu(grid, tree.nodes[static_cast<std::size_t>(e.a)].pos,
                                     tree.nodes[static_cast<std::size_t>(e.b)].pos);
    }
  }
  result_.wirelength_dbu = 0.0;
  for (double len : conn_len_) result_.wirelength_dbu += len;
  result_.total_overflow = grid.total_overflow();
  result_.overflowed_edges = grid.num_overflowed_edges();
  m_overflow.set(result_.total_overflow);

  if (replay) {
    // Accounting above still read the old bases; only now fold in the
    // replacements for moved connections.
    next.base_paths = std::move(cache_.base_paths);
    for (std::pair<std::size_t, std::vector<GCell>>& nb : new_bases) {
      next.base_paths[nb.first] = std::move(nb.second);
    }
  }
  cache_ = std::move(next);
}

const GlobalRouteResult& GlobalRouterState::route_full(const SteinerForest& forest) {
  run(forest, nullptr);
  routed_ = true;
  return result_;
}

const GlobalRouteResult& GlobalRouterState::update(const SteinerForest& forest,
                                                   const std::vector<char>& tree_dirty) {
  bool topology_ok = routed_ && forest.trees.size() == result_.conn_of_edge.size() &&
                     tree_dirty.size() == forest.trees.size();
  if (topology_ok) {
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      if (forest.trees[t].edges.size() != result_.conn_of_edge[t].size()) {
        topology_ok = false;
        break;
      }
    }
  }
  if (!topology_ok) return route_full(forest);
  run(forest, &tree_dirty);
  return result_;
}

GlobalRouteResult global_route(const Design& design, const SteinerForest& forest,
                               const RouterOptions& options) {
  GlobalRouterState state(&design, options);
  state.route_full(forest);
  return std::move(state.result_);
}

}  // namespace tsteiner
