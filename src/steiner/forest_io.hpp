// Plain-text Steiner-forest writer: dumps a tree set (e.g. a TSteiner-refined
// solution, or `tsteiner_db extract FRST`) for human inspection against the
// design whose pin ids it references. Forests are read back only from the
// binary FRST chunk (db/codecs).
#pragma once

#include <iosfwd>
#include <string>

#include "steiner/steiner_tree.hpp"

namespace tsteiner {

void write_forest(const SteinerForest& forest, std::ostream& out);
bool write_forest_file(const SteinerForest& forest, const std::string& path);

}  // namespace tsteiner
