#include "steiner/rsmt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace tsteiner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Prim MST over points; returns (length, edges). O(k^2), fine for net-sized
/// point sets.
std::pair<double, std::vector<SteinerEdge>> prim(const std::vector<PointF>& pts) {
  const std::size_t k = pts.size();
  std::vector<SteinerEdge> edges;
  if (k <= 1) return {0.0, edges};
  std::vector<double> best(k, kInf);
  std::vector<int> from(k, -1);
  std::vector<char> used(k, 0);
  best[0] = 0.0;
  double total = 0.0;
  for (std::size_t it = 0; it < k; ++it) {
    std::size_t u = k;
    double bu = kInf;
    for (std::size_t i = 0; i < k; ++i) {
      if (!used[i] && best[i] < bu) {
        bu = best[i];
        u = i;
      }
    }
    used[u] = 1;
    total += bu;
    if (from[u] >= 0) edges.push_back({from[u], static_cast<int>(u)});
    for (std::size_t v = 0; v < k; ++v) {
      if (used[v]) continue;
      const double w = manhattan(pts[u], pts[v]);
      if (w < best[v]) {
        best[v] = w;
        from[v] = static_cast<int>(u);
      }
    }
  }
  return {total, edges};
}

/// MST length if `cand` were appended to pts. O(k^2).
double prim_length_with(const std::vector<PointF>& pts, const PointF& cand) {
  std::vector<PointF> aug = pts;
  aug.push_back(cand);
  return prim(aug).first;
}

}  // namespace

double mst_length(const std::vector<PointF>& points) { return prim(points).first; }

std::vector<SteinerEdge> mst_edges(const std::vector<PointF>& points) {
  return prim(points).second;
}

void prune_low_degree_steiner(SteinerTree& tree) {
  // Prune Steiner nodes that ended with degree <= 2: degree-2 nodes are
  // spliced (neighbors connected directly), lower degrees removed. Iterate
  // to a fixed point, then compact node indices.
  bool changed = true;
  std::vector<char> removed(tree.nodes.size(), 0);
  while (changed) {
    changed = false;
    std::vector<int> degree(tree.nodes.size(), 0);
    for (const SteinerEdge& e : tree.edges) {
      ++degree[static_cast<std::size_t>(e.a)];
      ++degree[static_cast<std::size_t>(e.b)];
    }
    for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
      if (removed[i] || !tree.nodes[i].is_steiner()) continue;
      if (degree[i] >= 3) continue;
      changed = true;
      removed[i] = 1;
      std::vector<int> nbrs;
      std::vector<SteinerEdge> kept;
      kept.reserve(tree.edges.size());
      for (const SteinerEdge& e : tree.edges) {
        if (e.a == static_cast<int>(i)) {
          nbrs.push_back(e.b);
        } else if (e.b == static_cast<int>(i)) {
          nbrs.push_back(e.a);
        } else {
          kept.push_back(e);
        }
      }
      if (nbrs.size() == 2) kept.push_back({nbrs[0], nbrs[1]});
      tree.edges = std::move(kept);
    }
  }
  // Compact.
  std::vector<int> remap(tree.nodes.size(), -1);
  std::vector<SteinerNode> compact;
  compact.reserve(tree.nodes.size());
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    if (removed[i]) continue;
    remap[i] = static_cast<int>(compact.size());
    compact.push_back(tree.nodes[i]);
  }
  for (SteinerEdge& e : tree.edges) {
    e.a = remap[static_cast<std::size_t>(e.a)];
    e.b = remap[static_cast<std::size_t>(e.b)];
  }
  tree.nodes = std::move(compact);
  tree.driver_node = remap[static_cast<std::size_t>(tree.driver_node)];
}

SteinerTree build_rsmt_points(const std::vector<PointF>& pts_in, const RsmtOptions& options) {
  if (pts_in.size() < 2) throw std::runtime_error("build_rsmt_points needs >= 2 points");

  SteinerTree tree;
  std::vector<PointF> pts = pts_in;
  tree.nodes.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    tree.nodes.push_back({pts[i], static_cast<int>(i)});
  }
  tree.driver_node = 0;
  const std::size_t num_pins = pts.size();

  // Iterated 1-Steiner.
  int added = 0;
  while (added < options.max_steiner_per_net) {
    const auto [cur_len, cur_edges] = prim(pts);
    // Candidate Hanan points.
    std::vector<PointF> cands;
    if (static_cast<int>(num_pins) <= options.exact_pin_limit &&
        pts.size() <= 2 * num_pins) {
      for (std::size_t i = 0; i < pts.size(); ++i) {
        for (std::size_t j = 0; j < pts.size(); ++j) {
          if (i == j) continue;
          if (pts[i].x == pts[j].x || pts[i].y == pts[j].y) continue;
          cands.push_back({pts[i].x, pts[j].y});
        }
      }
    } else {
      for (const SteinerEdge& e : cur_edges) {
        const PointF& a = pts[static_cast<std::size_t>(e.a)];
        const PointF& b = pts[static_cast<std::size_t>(e.b)];
        if (a.x == b.x || a.y == b.y) continue;
        cands.push_back({a.x, b.y});
        cands.push_back({b.x, a.y});
      }
    }
    double best_gain = 1e-9;
    PointF best_cand;
    bool found = false;
    for (const PointF& c : cands) {
      const double gain = cur_len - prim_length_with(pts, c);
      if (gain > best_gain) {
        best_gain = gain;
        best_cand = c;
        found = true;
      }
    }
    if (!found) break;
    pts.push_back(best_cand);
    tree.nodes.push_back({best_cand, -1});
    ++added;
  }

  tree.edges = prim(pts).second;
  prune_low_degree_steiner(tree);
  return tree;
}

SteinerTree build_rsmt(const Design& design, int net_id, const RsmtOptions& options) {
  const Net& net = design.net(net_id);
  if (net.sink_pins.empty()) throw std::runtime_error("cannot build tree for sinkless net");

  // Pin positions: driver first, then sinks (duplicates by position are fine;
  // they contribute zero-length MST edges).
  std::vector<PointF> pts;
  std::vector<int> pin_ids;
  pts.push_back(to_f(design.pin_position(net.driver_pin)));
  pin_ids.push_back(net.driver_pin);
  for (int s : net.sink_pins) {
    pts.push_back(to_f(design.pin_position(s)));
    pin_ids.push_back(s);
  }

  SteinerTree tree = build_rsmt_points(pts, options);
  tree.net = net_id;
  // The point-set core stamps pin-node `pin` fields with indices into `pts`;
  // translate to design pin ids.
  for (SteinerNode& n : tree.nodes) {
    if (!n.is_steiner()) n.pin = pin_ids[static_cast<std::size_t>(n.pin)];
  }
  return tree;
}

SteinerForest build_forest(const Design& design, const RsmtOptions& options) {
  SteinerForest forest;
  forest.net_to_tree.assign(design.nets().size(), -1);
  std::vector<int> routable;
  for (const Net& n : design.nets()) {
    if (n.sink_pins.empty()) continue;
    forest.net_to_tree[static_cast<std::size_t>(n.id)] = static_cast<int>(routable.size());
    routable.push_back(n.id);
  }
  forest.trees.resize(routable.size());

  // Nets are independent; each chunk writes only its own tree slots, so the
  // forest is identical for any thread count. A net's tree search costs
  // more than a chunk of work on average (measured ~1.3 ms per net at 4,408
  // nets, see docs/parallelism.md), so every net is its own chunk.
  parallel_for(0, routable.size(), kChunkWork, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      forest.trees[i] = build_rsmt(design, routable[i], options);
    }
  });
  forest.build_movable_index();
  return forest;
}

}  // namespace tsteiner
