// Global router (CUGR substitute).
//
// Routes every two-pin edge of the Steiner forest on the gcell grid:
// congestion-aware L-pattern routing first, then negotiated-congestion
// rip-up-and-reroute (maze/Dijkstra with history costs) for connections
// crossing overflowed edges. Capacities are calibrated from the initial
// demand of the *baseline* forest and can be pinned via RouterOptions so a
// TSteiner-refined forest is routed against identical resources.
#pragma once

#include <cstdint>
#include <vector>

#include "route/grid.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner {

struct RouterOptions {
  std::int64_t gcell_size = 8;
  /// Capacity = capacity_factor * p90(initial usage), at least min_capacity.
  /// Slightly below 1.0 keeps realistic congestion pressure: hotspots must
  /// negotiate, the DR surrogate sees violations to repair, and Steiner
  /// positions influence sign-off through detours — the regime the paper
  /// operates in.
  double capacity_factor = 0.92;
  double min_capacity = 4.0;
  /// Fixed capacities override calibration when > 0.
  double fixed_h_cap = 0.0;
  double fixed_v_cap = 0.0;
  int rrr_iterations = 4;
  double history_increment = 1.0;
  int maze_margin = 12;  ///< gcells added around a connection's bbox
};

/// One routed two-pin connection (tree edge -> gcell path).
struct RoutedConnection {
  int tree = -1;
  int edge = -1;
  std::vector<GCell> path;  ///< adjacent gcells, size >= 1

  int num_bends() const;
  /// Routed length in DBU given the grid's gcell size (straight-line within
  /// a single gcell).
  double length_dbu(const GridGraph& grid, const PointF& a, const PointF& b) const;
};

struct GlobalRouteResult {
  GridGraph grid;
  std::vector<RoutedConnection> connections;
  /// conn_of_edge[tree][edge] -> index into `connections`.
  std::vector<std::vector<int>> conn_of_edge;
  double wirelength_dbu = 0.0;
  double total_overflow = 0.0;
  long long overflowed_edges = 0;
  int rrr_rounds_used = 0;
  double calibrated_h_cap = 0.0;
  double calibrated_v_cap = 0.0;
};

GlobalRouteResult global_route(const Design& design, const SteinerForest& forest,
                               const RouterOptions& options = {});

/// Stateful global router for incremental sign-off.
///
/// `route_full` runs the exact algorithm behind `global_route` while
/// recording a replay cache: each connection's gcell endpoints and the
/// connections the negotiation rerouted. `update` then re-runs the same
/// algorithm as a *patching replay*: instead of rebuilding the routing field
/// from zero, it starts from the previous run's final grid and patches it
/// back to this run's exact post-pattern state — history cleared, rerouted
/// connections ripped back to their base paths, and moved connections
/// re-pattern-routed (usage counts are integers, so ±1 patching in any order
/// is exact). A base path is `pattern_path` of the connection's endpoints, a
/// pure function of them. The negotiation rounds then run for real
/// (capacity calibration, history charging, victim selection, every maze
/// search, accounting), so the replayed result is bit-identical to a fresh
/// `global_route` of the same forest, and the pattern phase costs
/// O(moved + rerouted) instead of O(connections).
///
/// No-move rule: when no tree is flagged dirty, `update` returns the
/// previous result as it stands, since a route of an unchanged forest is
/// its previous route. No maze runs, `changed_connections()` is empty and
/// `last_total_mazes()` keeps the previous route's count.
///
/// Dirty-net contract: callers must flag every tree whose node geometry
/// changed since the previous route (`tree_dirty`). Gcell endpoints of
/// connections in unflagged trees are reused from the cache, so an
/// undeclared move is *not* healed — that property is what the
/// `signoff-incremental` mutation self-check relies on.
///
/// Maze contract. Replay and every pinned result assume one exact search,
/// so any maze kernel must keep all three of:
///   - pops in (dist, cell) order, where cells order row-major, y then x
///     (the kernel's cell id is y << shift | x);
///   - relaxes a neighbour only on a strict improvement of its distance;
///   - stops when the target is popped.
/// Together these fix which of several equal-cost paths wins. Step costs are
/// 1 + edge_penalty(usage, capacity, history) of the crossed edge, read from
/// a per-edge field that mirrors the grid from the first negotiation round on.
///
/// Bound. Every step costs at least 1 (usage and history are non-negative),
/// so the Manhattan distance to the target b never overestimates, and it is
/// consistent. Before a search, U is the cheapest of the two L-shapes from a
/// to b (the parity pattern path is one of them) and the path just ripped
/// up, when that path stays inside the window; each is priced as a forward
/// float sum from a over the step costs the search reads. Float addition is
/// monotone, so the search's distance of b never exceeds U. The search
/// relaxes a cell only when dist + manhattan(cell, b) <= U (1 + 1e-9), the
/// slack covering the rounding of the consistency step. Every cell of the
/// winning path, and every neighbour that sets its distance, satisfies
/// dist + manhattan <= dist(b) <= U, so the pruned cells are ones whose
/// relaxations never reach the path; the survivors keep their keys, their
/// pop order and their first strict improvements, and the path is the
/// unpruned search's, bit for bit. Pruning less is always safe; an infinite
/// U prunes nothing.
class GlobalRouterState {
 public:
  /// Throws std::invalid_argument on options no route can use: a negative
  /// maze margin or round count, a non-positive or non-finite capacity
  /// factor or minimum capacity, or a negative or non-finite history
  /// increment.
  GlobalRouterState(const Design* design, const RouterOptions& options);

  /// Full route of `forest`; rebuilds the replay cache from scratch.
  const GlobalRouteResult& route_full(const SteinerForest& forest);

  /// Patching replay against the cached previous run. `tree_dirty` holds one
  /// flag per tree in `forest` (trees whose geometry moved); throws
  /// std::invalid_argument when its size differs from the tree count.
  /// Requires a prior `route_full` and an unchanged forest topology
  /// (tree/edge counts); falls back to `route_full` otherwise.
  const GlobalRouteResult& update(const SteinerForest& forest,
                                  const std::vector<char>& tree_dirty);

  const GlobalRouteResult& result() const { return result_; }
  bool routed() const { return routed_; }
  /// Connections whose final path changed in the last `update` (empty after
  /// `route_full`). Indices into `result().connections`.
  const std::vector<int>& changed_connections() const { return changed_conns_; }
  /// True when the last `update` left every connection's path unchanged.
  bool last_update_was_hit() const { return routed_ && changed_conns_.empty(); }
  /// Maze searches of the current route (kept by a no-move `update`).
  long long last_total_mazes() const { return last_total_mazes_; }

  friend GlobalRouteResult global_route(const Design& design, const SteinerForest& forest,
                                        const RouterOptions& options);

 private:
  struct ReplayCache {
    std::vector<std::pair<GCell, GCell>> endpoints;  ///< per connection
    std::vector<int> rerouted;  ///< connections the last negotiation mazed, ascending
  };

  struct MazeCell {
    double dist = 0.0;
    std::uint32_t stamp = 0;     ///< search generation that last wrote this cell
    std::uint32_t heap_pos = 0;  ///< index into heap_, or none once popped
  };
  struct Window {
    int x_lo, y_lo, x_hi, y_hi;
  };

  void run(const SteinerForest& forest, const std::vector<char>* tree_dirty);
  /// Size the maze buffers and the step-cost field to the grid.
  void fit_kernel();
  /// Recompute the whole step-cost field from the grid.
  void rebuild_step_costs();
  void refresh_h_cost(int x, int y);
  void refresh_v_cost(int x, int y);
  /// Add `delta` wires along `path` and refresh the step costs it crosses.
  void commit_usage(const std::vector<GCell>& path, double delta);
  /// The maze search window of connection a -> b.
  Window maze_window(GCell a, GCell b) const;
  /// `cost` plus the step costs of the axis-aligned run from -> to, added
  /// in walk order.
  double run_cost(GCell from, GCell to, double cost) const;
  /// The maze contract's bound U for a -> b, given the path just ripped up
  /// (a walk from a to b).
  double maze_bound(GCell a, GCell b, const std::vector<GCell>& ripped) const;
  /// Dijkstra maze route inside the window, honouring the maze contract and
  /// pruned by `bound`; commits usage. `expansions` counts heap pops.
  std::vector<GCell> maze_route(GCell a, GCell b, double bound, long long& expansions);
  void heap_sift_up(std::size_t pos);
  void heap_sift_down(std::size_t pos);

  const Design* design_ = nullptr;
  RouterOptions options_;
  GlobalRouteResult result_;
  ReplayCache cache_;
  std::vector<double> conn_len_;  ///< per-connection routed length (DBU)
  std::vector<int> changed_conns_;
  long long last_total_mazes_ = 0;
  bool routed_ = false;

  // Maze kernel state, reused by every search. A cell's id is
  // y << shift_ | x; an edge's step cost sits at the id of its lower-left
  // cell. A cell's MazeCell and prev_ entry hold only while its stamp equals
  // gen_, so a new search starts by bumping gen_ instead of filling.
  int shift_ = 0;
  std::vector<double> h_cost_, v_cost_;
  std::vector<MazeCell> cell_;
  std::vector<std::uint32_t> prev_;
  std::vector<unsigned __int128> heap_;  ///< (dist, cell) keys, see heap_key
  std::uint32_t gen_ = 0;
};

}  // namespace tsteiner
