// Request semantics shared byte-for-byte between the server's handlers and
// the direct-Flow reference paths (the serve differential oracle, the tests,
// `tsteiner_serve selftest`). Keeping the forest transformation in one
// function is what makes "bit-identical to a direct call" checkable: both
// sides run this exact code, so any divergence is in the serving layer.
#pragma once

#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "netlist/netlist.hpp"
#include "serve/protocol.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner::serve {

/// Apply what-if moves: every movable Steiner node of each listed net's tree
/// shifts by (dx, dy), clamped to the die. Appends each affected net to
/// `dirty_nets` in move order (the dirty-net contract for incremental
/// sign-off). False + `error` on an out-of-range net or a net with no tree;
/// the forest is left partially modified only on success of earlier moves,
/// so callers must treat failure as fatal for the session's working forest —
/// the server rejects the whole request *before* applying anything by
/// validating first.
bool validate_whatif_moves(const SteinerForest& forest, const Design& design,
                           const std::vector<WhatIfMove>& moves, std::string* error);
void apply_whatif_moves(SteinerForest* forest, const Design& design,
                        const std::vector<WhatIfMove>& moves, std::vector<int>* dirty_nets);

/// The batched-construction options the `wirelength` op runs with, derived
/// from the session's FlowOptions exactly like Flow's own initial
/// construction (fallback and thread policy pinned to the flow's rsmt).
/// Server handler, oracle and tests all call this, so "bit-identical to a
/// direct estimate_wirelengths call" is comparing the same configuration.
BatchBuildOptions wirelength_batch_options(const FlowOptions& flow);

}  // namespace tsteiner::serve
