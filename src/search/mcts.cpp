#include "search/mcts.hpp"

#include <cmath>
#include <memory>
#include <vector>

namespace tsteiner::search {

namespace {

/// UCT exploration constant.
constexpr double kExploration = 0.7;

std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

std::uint64_t edit_fingerprint(std::uint64_t h, const TopologyEdit& e) {
  h = fnv1a_step(h, static_cast<std::uint64_t>(e.kind));
  h = fnv1a_step(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.a)));
  h = fnv1a_step(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.b)));
  h = fnv1a_step(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.c)));
  h = fnv1a_step(h, static_cast<std::uint64_t>(std::llround(e.pos.x)));
  h = fnv1a_step(h, static_cast<std::uint64_t>(std::llround(e.pos.y)));
  return h;
}

struct Node {
  SteinerTree tree;
  std::vector<TopologyEdit> path;
  std::uint64_t fingerprint = 0;   ///< fnv1a over the edit path (rng key)
  bool shape_changed = false;
  double value = 0.0;              ///< scorer output for `tree`
  int visits = 0;
  double total = 0.0;              ///< backpropagated sum of leaf values
  std::vector<TopologyEdit> candidates;  ///< untried proposals, draw order
  std::size_t next_candidate = 0;
  std::vector<int> children;       ///< indices into the node arena
  bool enumerated = false;
};

}  // namespace

MctsResult search_tree_edits(const SteinerTree& tree, const RectI& die, std::uint64_t round,
                             std::uint64_t net, const TopoScoreFn& score,
                             const MctsOptions& options) {
  MctsResult result;
  result.best_tree = tree;

  std::vector<Node> arena;
  arena.reserve(static_cast<std::size_t>(options.rollouts) + 1);
  arena.push_back(Node{});
  arena[0].tree = tree;
  arena[0].fingerprint = fnv1a_step(14695981039346656037ull, 0);

  // Per-node proposal substream: independent of visitation order, keyed by
  // the node's position in edit space, never by when it was expanded.
  const auto node_rng = [&](const Node& node) {
    return Rng(Rng::mix(Rng::mix(options.seed, round), Rng::mix(net, node.fingerprint)));
  };
  const auto enumerate = [&](Node& node) {
    if (node.enumerated) return;
    node.enumerated = true;
    if (static_cast<int>(node.path.size()) >= options.max_depth) return;
    Rng rng = node_rng(node);
    node.candidates = enumerate_edits(node.tree, die, rng, options.edits);
    result.stats.proposed += static_cast<std::int64_t>(node.candidates.size());
  };

  for (int sim = 0; sim < options.rollouts; ++sim) {
    // Selection: walk down fully-expanded nodes by UCT (ties -> lower child
    // index) until a node with an untried candidate or a terminal.
    std::vector<int> walk{0};
    for (;;) {
      Node& node = arena[static_cast<std::size_t>(walk.back())];
      enumerate(node);
      if (node.next_candidate < node.candidates.size()) break;  // expandable
      if (node.children.empty()) break;                         // terminal leaf
      int pick = node.children[0];
      double pick_uct = -1.0;
      for (int c : node.children) {
        const Node& child = arena[static_cast<std::size_t>(c)];
        const double mean = child.total / static_cast<double>(child.visits);
        const double uct = mean + kExploration *
                                      std::sqrt(std::log(static_cast<double>(node.visits) + 1.0) /
                                                static_cast<double>(child.visits));
        if (uct > pick_uct) {
          pick_uct = uct;
          pick = c;
        }
      }
      walk.push_back(pick);
    }

    // Expansion: try untried proposals in draw order until one passes the
    // invariant gate; gate rejections are counted, not scored.
    double leaf_value = arena[static_cast<std::size_t>(walk.back())].value;
    {
      Node& node = arena[static_cast<std::size_t>(walk.back())];
      while (node.next_candidate < node.candidates.size()) {
        const TopologyEdit edit = node.candidates[node.next_candidate++];
        std::optional<SteinerTree> edited = apply_edit(node.tree, die, edit, options.edits);
        if (!edited.has_value()) {
          ++result.stats.rejected;
          continue;
        }
        Node child;
        child.tree = std::move(*edited);
        child.path = node.path;
        child.path.push_back(edit);
        child.fingerprint = edit_fingerprint(node.fingerprint, edit);
        child.shape_changed = node.shape_changed || !shape_preserving(edit);
        child.value = score(child.tree, child.shape_changed);
        ++result.stats.evaluated;
        const int child_index = static_cast<int>(arena.size());
        // NOTE: `node` dangles after push_back; re-resolve through the arena.
        const int parent_index = walk.back();
        arena.push_back(std::move(child));
        arena[static_cast<std::size_t>(parent_index)].children.push_back(child_index);
        walk.push_back(child_index);
        leaf_value = arena[static_cast<std::size_t>(child_index)].value;
        if (leaf_value > result.best_score) {
          result.best_score = leaf_value;
          result.best_path = arena[static_cast<std::size_t>(child_index)].path;
          result.best_tree = arena[static_cast<std::size_t>(child_index)].tree;
        }
        break;
      }
    }

    for (int idx : walk) {
      Node& node = arena[static_cast<std::size_t>(idx)];
      ++node.visits;
      node.total += leaf_value;
    }
  }
  return result;
}

}  // namespace tsteiner::search
