#include "flow/visualize.hpp"

#include "util/svg.hpp"

namespace tsteiner {

namespace {

/// Highlight Steiner nodes whose position differs from `reference` (the
/// pre-refinement forest) by more than this distance.
constexpr double kMovedHighlightDist = 1.0;

}  // namespace

bool render_design_svg(const Design& design, const SteinerForest& forest,
                       const GridGraph* grid, const SteinerForest* reference,
                       const std::string& path, const VisualizeOptions& options) {
  const RectI die = design.die();
  SvgWriter svg(static_cast<double>(die.lo.x) - 2.0, static_cast<double>(die.lo.y) - 2.0,
                static_cast<double>(die.hi.x) + 2.0, static_cast<double>(die.hi.y) + 2.0);
  svg.rect(static_cast<double>(die.lo.x), static_cast<double>(die.lo.y),
           static_cast<double>(die.width()), static_cast<double>(die.height()), "#f8f8f8");

  if (options.draw_congestion && grid != nullptr) {
    const auto g = static_cast<double>(grid->gcell_size());
    for (int y = 0; y < grid->ny(); ++y) {
      for (int x = 0; x + 1 < grid->nx(); ++x) {
        const double util = grid->h_usage(x, y) / grid->h_capacity();
        if (util < 0.25) continue;
        svg.rect(static_cast<double>(die.lo.x) + x * g, static_cast<double>(die.lo.y) + y * g,
                 g, g, SvgWriter::heat_color(util), 0.35);
      }
    }
    for (int y = 0; y + 1 < grid->ny(); ++y) {
      for (int x = 0; x < grid->nx(); ++x) {
        const double util = grid->v_usage(x, y) / grid->v_capacity();
        if (util < 0.25) continue;
        svg.rect(static_cast<double>(die.lo.x) + x * g, static_cast<double>(die.lo.y) + y * g,
                 g, g, SvgWriter::heat_color(util), 0.35);
      }
    }
  }

  if (options.draw_cells) {
    for (const Cell& c : design.cells()) {
      const bool reg = design.is_register_cell(c.id);
      svg.circle(static_cast<double>(c.pos.x), static_cast<double>(c.pos.y), 0.45,
                 reg ? "#7030a0" : "#4472c4");
    }
  }

  if (options.draw_trees) {
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      const SteinerTree& tree = forest.trees[t];
      for (const SteinerEdge& e : tree.edges) {
        const PointF& a = tree.nodes[static_cast<std::size_t>(e.a)].pos;
        const PointF& b = tree.nodes[static_cast<std::size_t>(e.b)].pos;
        svg.line(a.x, a.y, b.x, b.y, "#8caadc", 0.18);
      }
      for (std::size_t n = 0; n < tree.nodes.size(); ++n) {
        const SteinerNode& node = tree.nodes[n];
        if (!node.is_steiner()) continue;
        bool moved = false;
        if (reference != nullptr && t < reference->trees.size() &&
            n < reference->trees[t].nodes.size()) {
          moved = manhattan(node.pos, reference->trees[t].nodes[n].pos) > kMovedHighlightDist;
        }
        svg.circle(node.pos.x, node.pos.y, moved ? 0.8 : 0.4, moved ? "#e03030" : "#ed7d31");
      }
    }
  }

  return svg.write_file(path);
}

}  // namespace tsteiner
