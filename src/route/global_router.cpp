#include "route/global_router.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
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
/// the commit order of every earlier one, so a single moved tree could flip
/// near-tied L choices across the whole die. Purity is what lets the replay
/// patch only moved and rerouted connections instead of re-walking all n
/// patterns, and recompute a base path from its endpoints instead of
/// storing it.
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
  // Negative history could price a step below 1, and the maze bound
  // (maze_bound) needs every step to cost at least 1.
  if (!(options.history_increment >= 0.0) || !std::isfinite(options.history_increment)) {
    bad("history_increment must be non-negative and finite");
  }
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

double GlobalRouterState::run_cost(GCell from, GCell to, double cost) const {
  while (from.x != to.x) {
    const int x = to.x > from.x ? from.x : from.x - 1;
    cost += h_cost_[static_cast<std::size_t>(from.y) << shift_ | static_cast<std::size_t>(x)];
    from.x += to.x > from.x ? 1 : -1;
  }
  while (from.y != to.y) {
    const int y = to.y > from.y ? from.y : from.y - 1;
    cost += v_cost_[static_cast<std::size_t>(y) << shift_ | static_cast<std::size_t>(from.x)];
    from.y += to.y > from.y ? 1 : -1;
  }
  return cost;
}

double GlobalRouterState::maze_bound(GCell a, GCell b, const std::vector<GCell>& ripped) const {
  // Both L-shapes; the parity pattern path is one of them.
  const GCell hv{b.x, a.y};
  const GCell vh{a.x, b.y};
  double bound =
      std::min(run_cost(hv, b, run_cost(a, hv, 0.0)), run_cost(vh, b, run_cost(a, vh, 0.0)));
  // The ripped-up path counts only when the search could follow it, i.e.
  // when it stays inside the window.
  const Window win = maze_window(a, b);
  double cost = 0.0;
  for (std::size_t i = 1; i < ripped.size(); ++i) {
    const GCell& q = ripped[i];
    if (q.x < win.x_lo || q.x > win.x_hi || q.y < win.y_lo || q.y > win.y_hi) return bound;
    cost = run_cost(ripped[i - 1], q, cost);
  }
  return std::min(bound, cost);
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

std::vector<GCell> GlobalRouterState::maze_route(GCell a, GCell b, double bound,
                                                 long long& expansions) {
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
  // The maze contract's bound: the slack absorbs the rounding of the float
  // sums, and an infinite bound prunes nothing.
  const double limit = bound * (1.0 + 1e-9);
  // Relax v = (vx, vy) through u only within the bound and on a strict
  // improvement; a cell not in the heap (never reached, or already popped)
  // is pushed, otherwise its key drops.
  const auto relax = [&](std::uint32_t u, double du, std::uint32_t v, int vx, int vy,
                         double step) {
    const double nd = du + step;
    if (nd + static_cast<double>(std::abs(vx - b.x) + std::abs(vy - b.y)) > limit) return;
    MazeCell& c = cell_[v];
    if (c.stamp != gen_) c = {kInf, gen_, kNoCell};
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
    if (ux > win.x_lo) relax(u, du, u - 1, ux - 1, uy, h_cost_[u - 1]);
    if (ux < win.x_hi) relax(u, du, u + 1, ux + 1, uy, h_cost_[u]);
    if (uy > win.y_lo) relax(u, du, u - stride, ux, uy - 1, v_cost_[u - stride]);
    if (uy < win.y_hi) relax(u, du, u + stride, ux, uy + 1, v_cost_[u]);
  }
  std::vector<GCell> path;
  if (cell_[target].stamp != gen_ || cell_[target].dist == kInf) {
    // Every in-window path crosses a step that costs +inf: a finite but huge
    // history increment overflows an edge's history, or a path's sum, to
    // +inf. Then the bound is +inf as well, and the pattern path stands in.
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
  static obs::Counter& m_expansions = obs::metrics().counter("route.maze_expansions");
  static obs::Counter& m_searched = obs::metrics().counter("route.mazes_searched");
  static obs::Gauge& m_overflow = obs::metrics().gauge("route.total_overflow");
  const bool replay = tree_dirty != nullptr;
  if (replay) {
    m_replays.add();
  } else {
    m_runs.add();
  }

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
  const auto endpoints_of = [&](const RoutedConnection& conn) -> std::pair<GCell, GCell> {
    const SteinerTree& tree = forest.trees[static_cast<std::size_t>(conn.tree)];
    const SteinerEdge& edge = tree.edges[static_cast<std::size_t>(conn.edge)];
    return {grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.a)].pos),
            grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.b)].pos)};
  };

  // Replay bookkeeping: the previous run's final path of every connection
  // this run patched or rerouted, empty for the rest (a path has at least
  // one gcell). Only those connections can end on a different path.
  std::vector<std::vector<GCell>> prev_final;

  {
    TS_TRACE_SPAN_CAT("route.pattern", "route");
    if (!replay) {
      // Initial pattern routing of every tree edge, from a zeroed grid.
      cache_.endpoints.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        RoutedConnection& conn = result_.connections[i];
        cache_.endpoints[i] = endpoints_of(conn);
        conn.path = pattern_path(cache_.endpoints[i].first, cache_.endpoints[i].second);
        add_usage(grid, conn.path, 1.0);
      }
    } else {
      // Patch, don't rebuild: the grid still holds the previous run's final
      // state. Usage entries are integer wire counts (exact in a double), so
      // ripping a previous path and committing a new one lands on the exact
      // value a fresh pattern pass would compute, in any order. Two patches
      // restore the exact post-pattern state of this run:
      //   1. history back to all-zero (only the fresh-start value matters —
      //      rounds recharge it honestly below);
      //   2. every connection whose gcell endpoints moved, and every
      //      connection the previous negotiation rerouted, from its previous
      //      final path to its base path, the pattern path of its endpoints.
      // Every other connection already holds its base path, so the whole
      // pattern phase costs O(moved + rerouted), not O(n).
      grid.clear_history();
      prev_final.resize(n);
      const auto patch = [&](std::size_t i) {
        RoutedConnection& conn = result_.connections[i];
        add_usage(grid, conn.path, -1.0);
        prev_final[i] = std::move(conn.path);
        conn.path = pattern_path(cache_.endpoints[i].first, cache_.endpoints[i].second);
        add_usage(grid, conn.path, 1.0);
      };
      for (std::size_t t = 0; t < forest.trees.size(); ++t) {
        if (!(*tree_dirty)[t]) continue;
        for (const int c : result_.conn_of_edge[t]) {
          const std::size_t i = static_cast<std::size_t>(c);
          const std::pair<GCell, GCell> ep = endpoints_of(result_.connections[i]);
          if (ep == cache_.endpoints[i]) continue;
          cache_.endpoints[i] = ep;
          patch(i);
        }
      }
      for (const int c : cache_.rerouted) {
        if (prev_final[static_cast<std::size_t>(c)].empty()) patch(static_cast<std::size_t>(c));
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

  // Negotiated rip-up and reroute.
  last_total_mazes_ = 0;
  std::vector<int> rerouted;
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
    // Add history on overflowed edges and refresh their step costs.
    for (int y = 0; y < grid.ny(); ++y) {
      for (int x = 0; x + 1 < grid.nx(); ++x) {
        if (grid.h_usage(x, y) > grid.h_capacity()) {
          grid.add_h_history(x, y, options_.history_increment);
          refresh_h_cost(x, y);
        }
      }
      if (y + 1 < grid.ny()) {
        for (int x = 0; x < grid.nx(); ++x) {
          if (grid.v_usage(x, y) > grid.v_capacity()) {
            grid.add_v_history(x, y, options_.history_increment);
            refresh_v_cost(x, y);
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

    long long expansions = 0;
    for (const int c : victims) {
      RoutedConnection& conn = result_.connections[static_cast<std::size_t>(c)];
      const GCell a = conn.path.front();
      const GCell b = conn.path.back();
      std::vector<GCell> ripped = std::move(conn.path);
      commit_usage(ripped, -1.0);
      conn.path = maze_route(a, b, maze_bound(a, b, ripped), expansions);
      // A connection neither patched nor mazed yet in this run ripped its
      // base path, which was also the previous run's final path.
      if (replay && prev_final[static_cast<std::size_t>(c)].empty()) {
        prev_final[static_cast<std::size_t>(c)] = std::move(ripped);
      }
    }
    last_total_mazes_ += static_cast<long long>(victims.size());
    rerouted.insert(rerouted.end(), victims.begin(), victims.end());
    m_expansions.add(static_cast<std::uint64_t>(expansions));
    m_searched.add(victims.size());
    TS_DEBUG("GR round %d: %zu victims, overflow %.1f", round, victims.size(),
             grid.total_overflow());
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
      const bool touched = !prev_final[c].empty();
      if (!touched && !dirty_tree) continue;
      if (touched && conn.path != prev_final[c]) changed_conns_.push_back(static_cast<int>(c));
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

  std::sort(rerouted.begin(), rerouted.end());
  rerouted.erase(std::unique(rerouted.begin(), rerouted.end()), rerouted.end());
  cache_.rerouted = std::move(rerouted);
}

const GlobalRouteResult& GlobalRouterState::route_full(const SteinerForest& forest) {
  run(forest, nullptr);
  routed_ = true;
  return result_;
}

const GlobalRouteResult& GlobalRouterState::update(const SteinerForest& forest,
                                                   const std::vector<char>& tree_dirty) {
  if (tree_dirty.size() != forest.trees.size()) {
    throw std::invalid_argument("GlobalRouterState::update: " +
                                std::to_string(tree_dirty.size()) + " dirty flags for " +
                                std::to_string(forest.trees.size()) + " trees");
  }
  bool topology_ok = routed_ && forest.trees.size() == result_.conn_of_edge.size();
  if (topology_ok) {
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      if (forest.trees[t].edges.size() != result_.conn_of_edge[t].size()) {
        topology_ok = false;
        break;
      }
    }
  }
  if (!topology_ok) return route_full(forest);
  // The no-move rule: a route of an unchanged forest is its previous route.
  if (std::none_of(tree_dirty.begin(), tree_dirty.end(), [](char d) { return d != 0; })) {
    changed_conns_.clear();
    return result_;
  }
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
