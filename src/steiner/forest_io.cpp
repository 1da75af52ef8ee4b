#include "steiner/forest_io.hpp"

#include <fstream>

namespace tsteiner {

void write_forest(const SteinerForest& forest, std::ostream& out) {
  out << "tsteiner-forest-v1\n";
  out.precision(17);
  out << "nets " << forest.net_to_tree.size() << '\n';
  out << "trees " << forest.trees.size() << '\n';
  for (const SteinerTree& t : forest.trees) {
    out << "tree " << t.net << ' ' << t.driver_node << ' ' << t.nodes.size() << ' '
        << t.edges.size() << '\n';
    for (const SteinerNode& n : t.nodes) {
      out << n.pin << ' ' << n.pos.x << ' ' << n.pos.y << '\n';
    }
    for (const SteinerEdge& e : t.edges) {
      out << e.a << ' ' << e.b << '\n';
    }
  }
}

bool write_forest_file(const SteinerForest& forest, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_forest(forest, out);
  return static_cast<bool>(out);
}

}  // namespace tsteiner
