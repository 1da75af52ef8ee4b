// Deterministic MCTS over discrete topology edits of one Steiner tree.
//
// A combopt-zero-style search (ROADMAP item 4): tree-search nodes are edit
// sequences, actions are the TopologyEdit proposals of enumerate_edits, and
// the leaf value is a caller-supplied score (the refine driver plugs in the
// retained-autodiff penalty replay). The scorer is exact and deterministic,
// so the search is a UCT-guided enumeration rather than a noisy-rollout
// estimator: the result is the best-scoring edit sequence visited.
//
// Determinism contract: every random draw comes from a private Rng seeded by
// Rng::mix over (seed, round, net, path-fingerprint) — per search-node
// substreams that do not depend on visitation order, pool width, or any
// global state. Identical inputs produce bit-identical results at any
// thread-pool width and across reruns; ties in selection and best-tracking
// break toward the lower child index / earlier visit.
#pragma once

#include <cstdint>
#include <functional>

#include "search/topo_edits.hpp"

namespace tsteiner::search {

struct MctsOptions {
  int rollouts = 12;        ///< simulations (leaf evaluations) per search
  int max_depth = 2;        ///< longest edit sequence explored
  std::uint64_t seed = 0;   ///< mixed with (round, net, path) per node
  EditOptions edits;        ///< proposal enumeration knobs
};

struct MctsStats {
  std::int64_t proposed = 0;   ///< edits enumerated across all nodes
  std::int64_t rejected = 0;   ///< proposals the invariant gate refused
  std::int64_t evaluated = 0;  ///< scorer calls (expanded children)
};

/// Leaf value of a candidate tree; higher is better, the unedited tree
/// scores 0 by convention. `shape_changed` is false only for edit paths the
/// retained tape can replay without a rebuild (all-reshift sequences).
using TopoScoreFn = std::function<double(const SteinerTree& candidate, bool shape_changed)>;

struct MctsResult {
  /// Best strictly-positive-scoring edit sequence; empty = keep the input.
  std::vector<TopologyEdit> best_path;
  SteinerTree best_tree;
  double best_score = 0.0;
  MctsStats stats;
};

MctsResult search_tree_edits(const SteinerTree& tree, const RectI& die, std::uint64_t round,
                             std::uint64_t net, const TopoScoreFn& score,
                             const MctsOptions& options);

}  // namespace tsteiner::search
