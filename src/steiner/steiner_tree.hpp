// Steiner tree data structures.
//
// A SteinerTree decomposes one multi-pin net into two-pin edges through
// auxiliary Steiner nodes (Definition 1 of the paper). Pin nodes are fixed
// at their placed positions; Steiner nodes carry continuous coordinates and
// are the variables TSteiner optimizes. A SteinerForest is the per-design
// tree set S_T = {T^1 .. T^n} plus a flat index over all movable points so
// the optimizer can gather/scatter (X_s, Y_s) as dense vectors.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "util/geometry.hpp"

namespace tsteiner {

struct SteinerNode {
  PointF pos;
  int pin = -1;  ///< design pin id for pin nodes; -1 for movable Steiner nodes

  bool is_steiner() const { return pin < 0; }
};

struct SteinerEdge {
  int a = -1;
  int b = -1;
};

class SteinerTree {
 public:
  int net = -1;
  std::vector<SteinerNode> nodes;
  std::vector<SteinerEdge> edges;
  int driver_node = -1;  ///< node index of the net's driver pin

  int num_steiner_nodes() const;
  /// Manhattan wirelength over all edges (continuous positions).
  double wirelength() const;

  /// Adjacency lists (rebuilt on demand; trees are small).
  std::vector<std::vector<int>> adjacency() const;

  /// Parent of each node in the tree rooted at the driver (-1 for root).
  /// Exists for every node iff the tree is connected.
  std::vector<int> parents_from_driver() const;

  /// Manhattan path length from the driver to every node along tree edges.
  std::vector<double> path_lengths_from_driver() const;

  /// True iff edges form a single connected acyclic component spanning all
  /// nodes and the driver node is a valid pin node.
  bool is_valid_tree() const;
};

/// Bitwise tree equality: net, driver node, pins and edges, with every
/// coordinate compared by its bits (memcmp), so +0.0 and -0.0 differ. The
/// dirty-net contract (docs/incremental.md) is this diff.
bool bits_equal(const SteinerTree& a, const SteinerTree& b);

/// Reference to one movable Steiner point inside a forest.
struct MovableRef {
  int tree = -1;
  int node = -1;
};

class SteinerForest {
 public:
  std::vector<SteinerTree> trees;

  /// net id -> tree index (or -1); sized to the design's net count.
  std::vector<int> net_to_tree;

  /// Rebuild the flat movable-point index; invalidated by any structural
  /// edit of `trees`.
  void build_movable_index();

  /// Structural single-tree replacement: swap in `tree` (same net) and patch
  /// the movable index in place — the old tree's span is spliced out and the
  /// replacement's Steiner nodes inserted at the same position, leaving the
  /// index identical to a build_movable_index() from scratch (the
  /// topology-search oracle diffs the two). Requires a current index.
  void replace_tree(int tree_index, SteinerTree tree);
  const std::vector<MovableRef>& movable() const { return movable_; }
  std::size_t num_movable() const { return movable_.size(); }

  /// Dense views of Steiner coordinates, in movable-index order.
  std::vector<double> gather_x() const;
  std::vector<double> gather_y() const;
  void scatter_xy(const std::vector<double>& xs, const std::vector<double>& ys);

  long long num_steiner_nodes() const;
  double total_wirelength() const;

  /// Clamp every Steiner node into `box` (grid-graph boundary).
  void clamp_steiner_points(const RectI& box);
  /// Round every Steiner node to integer coordinates (post-processing).
  void round_steiner_points();

 private:
  std::vector<MovableRef> movable_;
};

}  // namespace tsteiner
