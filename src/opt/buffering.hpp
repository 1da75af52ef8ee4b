// Van Ginneken buffer insertion on Steiner trees.
//
// The classical dynamic program: walk the RC tree bottom-up keeping, per
// node, the set of non-dominated (downstream capacitance, worst delay to any
// sink) options; at every candidate location a buffer may be inserted, which
// resets the upstream capacitance to the buffer's input cap at the price of
// the buffer's load-dependent delay. The driver picks the option minimizing
// its own delay plus the downstream worst delay.
//
// Provided both as an analysis (what would buffering buy?) and as a netlist
// transformation (apply_buffering inserts the buffer cells and splits the
// net). Complements TSteiner: buffering changes the netlist, TSteiner only
// moves auxiliary points — bench_ablation_buffering compares and stacks
// them.
#pragma once

#include <memory>
#include <vector>

#include "netlist/netlist.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner {

/// The candidate buffer type (library name). Both calls below throw when the
/// design's library lacks it (a CellLibrary::from_parts library can).
constexpr const char* kBufferType = "BUF_X2";

/// One planned insertion: on the tree path *into* `node` (i.e. between the
/// node and its parent-side subtree) or at the node itself.
struct BufferPlacement {
  PointF pos;
};

struct BufferingPlan {
  int net = -1;
  std::vector<BufferPlacement> buffers;
  double delay_before_ns = 0.0;  ///< driver-to-worst-sink Elmore + driver delay
  double delay_after_ns = 0.0;   ///< with the planned buffers
};

/// Compute the optimal single-net buffering plan. The tree must belong to
/// `design`'s net `tree.net`. Returns a plan with no buffers when buffering
/// cannot improve the worst-sink delay.
BufferingPlan plan_buffering(const Design& design, const SteinerTree& tree);

/// Apply a plan: inserts buffer cells into `design` (placed at the rounded
/// buffer positions) and splits the net so that each buffer drives the
/// subtree below its location. Returns the ids of the inserted cells.
/// Invalidates any SteinerForest built for the old netlist — rebuild trees
/// for the touched nets afterwards.
std::vector<int> apply_buffering(Design& design, const BufferingPlan& plan,
                                 const SteinerTree& tree);

}  // namespace tsteiner
