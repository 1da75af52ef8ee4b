#include "serve/ops.hpp"

#include <algorithm>

namespace tsteiner::serve {

bool validate_whatif_moves(const SteinerForest& forest, const Design& design,
                           const std::vector<WhatIfMove>& moves, std::string* error) {
  for (const WhatIfMove& move : moves) {
    if (move.net < 0 || static_cast<std::size_t>(move.net) >= design.nets().size()) {
      if (error != nullptr) *error = "move net " + std::to_string(move.net) + " out of range";
      return false;
    }
    const int tree = forest.net_to_tree[static_cast<std::size_t>(move.net)];
    if (tree < 0) {
      if (error != nullptr) {
        *error = "move net " + std::to_string(move.net) + " has no Steiner tree";
      }
      return false;
    }
  }
  return true;
}

void apply_whatif_moves(SteinerForest* forest, const Design& design,
                        const std::vector<WhatIfMove>& moves, std::vector<int>* dirty_nets) {
  const RectI die = design.die();
  for (const WhatIfMove& move : moves) {
    const int tree = forest->net_to_tree[static_cast<std::size_t>(move.net)];
    for (SteinerNode& node : forest->trees[static_cast<std::size_t>(tree)].nodes) {
      if (!node.is_steiner()) continue;
      node.pos.x = std::clamp(node.pos.x + move.dx, static_cast<double>(die.lo.x),
                              static_cast<double>(die.hi.x));
      node.pos.y = std::clamp(node.pos.y + move.dy, static_cast<double>(die.lo.y),
                              static_cast<double>(die.hi.y));
    }
    if (dirty_nets != nullptr) dirty_nets->push_back(move.net);
  }
}

BatchBuildOptions wirelength_batch_options(const FlowOptions& flow) {
  BatchBuildOptions batch = flow.steiner.batch;
  batch.fallback = flow.rsmt;
  return batch;
}

}  // namespace tsteiner::serve
