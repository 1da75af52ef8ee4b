#include "steiner/edge_shift.hpp"

#include <limits>
#include <numeric>

#include "util/parallel.hpp"

namespace tsteiner {

namespace {

/// Sweeps over a tree's Steiner nodes; shifting stops early after a sweep
/// that moves nothing.
constexpr int kPasses = 3;

/// A move is accepted only if it does not increase the tree wirelength by
/// more than this factor of the affected star's length. Congestion relief
/// outranks wirelength — FastRoute-style shifting under pressure trades real
/// wirelength (and with it, timing) for routability. This is the
/// timing-blind baseline the paper's TSteiner stage recovers.
constexpr double kWirelengthSlack = 0.30;

}  // namespace

int edge_shift(SteinerTree& tree, const EdgeCostFn& cost) {
  int moves = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto adj = tree.adjacency();
    bool any = false;
    for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
      SteinerNode& node = tree.nodes[i];
      if (!node.is_steiner()) continue;
      const auto& nbrs = adj[i];
      if (nbrs.size() < 2) continue;

      auto star_cost = [&](const PointF& p) {
        double c = 0.0;
        for (int v : nbrs) c += cost(p, tree.nodes[static_cast<std::size_t>(v)].pos);
        return c;
      };
      auto star_len = [&](const PointF& p) {
        double l = 0.0;
        for (int v : nbrs) l += manhattan(p, tree.nodes[static_cast<std::size_t>(v)].pos);
        return l;
      };

      const double cur_cost = star_cost(node.pos);
      const double cur_len = star_len(node.pos);
      double best_cost = cur_cost;
      PointF best_pos = node.pos;
      for (int va : nbrs) {
        for (int vb : nbrs) {
          if (va == vb) continue;
          const PointF cand{tree.nodes[static_cast<std::size_t>(va)].pos.x,
                            tree.nodes[static_cast<std::size_t>(vb)].pos.y};
          if (cand == node.pos) continue;
          if (star_len(cand) > cur_len * (1.0 + kWirelengthSlack)) continue;
          const double c = star_cost(cand);
          if (c + 1e-12 < best_cost) {
            best_cost = c;
            best_pos = cand;
          }
        }
      }
      if (!(best_pos == node.pos)) {
        node.pos = best_pos;
        ++moves;
        any = true;
      }
    }
    if (!any) break;
  }
  return moves;
}

int edge_shift_forest(SteinerForest& forest, const EdgeCostFn& cost) {
  // Trees are independent; per-tree move counts land in distinct slots and
  // are folded serially, so the total matches the serial loop exactly. The
  // cost functor must be safe to call concurrently (all in-tree callers pass
  // read-only congestion-map lookups). A tree costs ~1k inner operations
  // (every candidate corner of every Steiner node prices its star; measured
  // 0.8-0.9 us, see docs/parallelism.md).
  std::vector<int> moves(forest.trees.size(), 0);
  parallel_for(0, forest.trees.size(), 1024, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t t = lo; t < hi; ++t) {
      moves[t] = edge_shift(forest.trees[t], cost);
    }
  });
  return std::accumulate(moves.begin(), moves.end(), 0);
}

}  // namespace tsteiner
