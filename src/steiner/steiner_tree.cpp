#include "steiner/steiner_tree.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <queue>

namespace tsteiner {

int SteinerTree::num_steiner_nodes() const {
  int n = 0;
  for (const SteinerNode& node : nodes) n += node.is_steiner() ? 1 : 0;
  return n;
}

double SteinerTree::wirelength() const {
  double wl = 0.0;
  for (const SteinerEdge& e : edges) {
    wl += manhattan(nodes[static_cast<std::size_t>(e.a)].pos,
                    nodes[static_cast<std::size_t>(e.b)].pos);
  }
  return wl;
}

std::vector<std::vector<int>> SteinerTree::adjacency() const {
  std::vector<std::vector<int>> adj(nodes.size());
  for (const SteinerEdge& e : edges) {
    adj[static_cast<std::size_t>(e.a)].push_back(e.b);
    adj[static_cast<std::size_t>(e.b)].push_back(e.a);
  }
  return adj;
}

std::vector<int> SteinerTree::parents_from_driver() const {
  std::vector<int> parent(nodes.size(), -2);
  if (driver_node < 0) return parent;
  const auto adj = adjacency();
  std::queue<int> q;
  parent[static_cast<std::size_t>(driver_node)] = -1;
  q.push(driver_node);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (int v : adj[static_cast<std::size_t>(u)]) {
      if (parent[static_cast<std::size_t>(v)] != -2) continue;
      parent[static_cast<std::size_t>(v)] = u;
      q.push(v);
    }
  }
  return parent;
}

std::vector<double> SteinerTree::path_lengths_from_driver() const {
  std::vector<double> dist(nodes.size(), 0.0);
  const auto adj = adjacency();
  std::vector<char> seen(nodes.size(), 0);
  std::queue<int> q;
  if (driver_node < 0) return dist;
  seen[static_cast<std::size_t>(driver_node)] = 1;
  q.push(driver_node);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (int v : adj[static_cast<std::size_t>(u)]) {
      if (seen[static_cast<std::size_t>(v)]) continue;
      seen[static_cast<std::size_t>(v)] = 1;
      dist[static_cast<std::size_t>(v)] =
          dist[static_cast<std::size_t>(u)] +
          manhattan(nodes[static_cast<std::size_t>(u)].pos,
                    nodes[static_cast<std::size_t>(v)].pos);
      q.push(v);
    }
  }
  return dist;
}

bool SteinerTree::is_valid_tree() const {
  if (nodes.empty()) return false;
  if (driver_node < 0 || driver_node >= static_cast<int>(nodes.size())) return false;
  if (nodes[static_cast<std::size_t>(driver_node)].is_steiner()) return false;
  if (edges.size() + 1 != nodes.size()) return false;
  const auto parent = parents_from_driver();
  for (int p : parent) {
    if (p == -2) return false;  // unreachable node -> disconnected (or cycle)
  }
  return true;
}

bool bits_equal(const SteinerTree& a, const SteinerTree& b) {
  if (a.net != b.net || a.driver_node != b.driver_node || a.nodes.size() != b.nodes.size() ||
      a.edges.size() != b.edges.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].pin != b.nodes[i].pin ||
        std::memcmp(&a.nodes[i].pos.x, &b.nodes[i].pos.x, sizeof(double)) != 0 ||
        std::memcmp(&a.nodes[i].pos.y, &b.nodes[i].pos.y, sizeof(double)) != 0) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].a != b.edges[i].a || a.edges[i].b != b.edges[i].b) return false;
  }
  return true;
}

void SteinerForest::build_movable_index() {
  movable_.clear();
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const SteinerTree& tree = trees[t];
    for (std::size_t n = 0; n < tree.nodes.size(); ++n) {
      if (tree.nodes[n].is_steiner()) {
        movable_.push_back({static_cast<int>(t), static_cast<int>(n)});
      }
    }
  }
}

void SteinerForest::replace_tree(int tree_index, SteinerTree tree) {
  const auto before = [](const MovableRef& r, int t) { return r.tree < t; };
  const auto lo = std::lower_bound(movable_.begin(), movable_.end(), tree_index, before);
  auto hi = lo;
  while (hi != movable_.end() && hi->tree == tree_index) ++hi;
  std::vector<MovableRef> fresh;
  for (std::size_t n = 0; n < tree.nodes.size(); ++n) {
    if (tree.nodes[n].is_steiner()) fresh.push_back({tree_index, static_cast<int>(n)});
  }
  const auto at = movable_.erase(lo, hi);
  movable_.insert(at, fresh.begin(), fresh.end());
  trees[static_cast<std::size_t>(tree_index)] = std::move(tree);
}

std::vector<double> SteinerForest::gather_x() const {
  std::vector<double> xs(movable_.size());
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    const MovableRef& r = movable_[i];
    xs[i] = trees[static_cast<std::size_t>(r.tree)]
                .nodes[static_cast<std::size_t>(r.node)]
                .pos.x;
  }
  return xs;
}

std::vector<double> SteinerForest::gather_y() const {
  std::vector<double> ys(movable_.size());
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    const MovableRef& r = movable_[i];
    ys[i] = trees[static_cast<std::size_t>(r.tree)]
                .nodes[static_cast<std::size_t>(r.node)]
                .pos.y;
  }
  return ys;
}

void SteinerForest::scatter_xy(const std::vector<double>& xs, const std::vector<double>& ys) {
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    const MovableRef& r = movable_[i];
    SteinerNode& n =
        trees[static_cast<std::size_t>(r.tree)].nodes[static_cast<std::size_t>(r.node)];
    n.pos.x = xs[i];
    n.pos.y = ys[i];
  }
}

long long SteinerForest::num_steiner_nodes() const {
  long long n = 0;
  for (const SteinerTree& t : trees) n += t.num_steiner_nodes();
  return n;
}

double SteinerForest::total_wirelength() const {
  double wl = 0.0;
  for (const SteinerTree& t : trees) wl += t.wirelength();
  return wl;
}

void SteinerForest::clamp_steiner_points(const RectI& box) {
  for (SteinerTree& t : trees) {
    for (SteinerNode& n : t.nodes) {
      if (n.is_steiner()) n.pos = clamp_into(n.pos, box);
    }
  }
}

void SteinerForest::round_steiner_points() {
  for (SteinerTree& t : trees) {
    for (SteinerNode& n : t.nodes) {
      if (n.is_steiner()) n.pos = to_f(round_to_i(n.pos));
    }
  }
}

}  // namespace tsteiner
