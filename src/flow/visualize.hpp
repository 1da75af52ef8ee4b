// Visualization: renders a placed design with its Steiner forest and,
// optionally, the routing congestion heatmap to an SVG file. Useful for
// inspecting what TSteiner moved and where congestion concentrates.
#pragma once

#include <string>

#include "netlist/netlist.hpp"
#include "route/global_router.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner {

struct VisualizeOptions {
  bool draw_cells = true;
  bool draw_trees = true;
  bool draw_congestion = true;  ///< requires a grid
};

/// Render to SVG. `grid` may be null (no heatmap); `reference` may be null
/// (no moved-point highlighting).
bool render_design_svg(const Design& design, const SteinerForest& forest,
                       const GridGraph* grid, const SteinerForest* reference,
                       const std::string& path, const VisualizeOptions& options = {});

}  // namespace tsteiner
