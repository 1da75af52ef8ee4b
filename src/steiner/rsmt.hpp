// Rectilinear Steiner minimal tree construction.
//
// The paper seeds TSteiner with FLUTE [16] trees; FLUTE's lookup tables are
// not available offline, so this reproduction uses the classic iterated
// 1-Steiner heuristic (Kahng–Robins): repeatedly add the Hanan-grid point
// that most reduces the Manhattan MST length. For small nets the candidate
// set is the full Hanan grid (near-optimal); for large nets candidates are
// restricted to Hanan points of MST-adjacent node pairs (Borah-style), which
// keeps construction near-linear in practice. Both provide the same
// interface FLUTE would: a wirelength-minimal tree whose junctions become
// movable Steiner points.
//
// Two layers: the point-set core (build_rsmt_points) operates on raw pin
// clouds with no netlist attached — the batched builder's exact fallback and
// the serve wirelength estimator run on it directly — and the Design-level
// wrappers (build_rsmt / build_forest) gather pin positions and stamp design
// pin ids onto the resulting nodes.
#pragma once

#include "netlist/netlist.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner {

struct RsmtOptions {
  /// Use the full Hanan candidate grid for nets with at most this many pins.
  int exact_pin_limit = 10;
  /// Upper bound on Steiner points added per net.
  int max_steiner_per_net = 64;
};

/// Point-set core of build_rsmt: `pts[0]` is the driver, the rest are sinks
/// (>= 1 required). Pin nodes carry their index into `pts` in the `pin`
/// field (the Design wrapper remaps them to design pin ids); Steiner nodes
/// have pin = -1 and degree >= 3. `net` is left at -1.
SteinerTree build_rsmt_points(const std::vector<PointF>& pts, const RsmtOptions& options = {});

/// Build a Steiner tree for one net (requires >= 1 sink). The resulting
/// tree has pin nodes for the driver and every sink, and Steiner nodes for
/// all junctions; every Steiner node has degree >= 3.
SteinerTree build_rsmt(const Design& design, int net_id, const RsmtOptions& options = {});

/// Build trees for every net with at least one sink.
SteinerForest build_forest(const Design& design, const RsmtOptions& options = {});

/// Manhattan MST length over a point set (Prim); exposed for testing and
/// for wirelength comparisons in the benches.
double mst_length(const std::vector<PointF>& points);

/// Manhattan MST edges over a point set (Prim, deterministic tie-breaks);
/// the stitch step of the batched builder spans pins + predicted points
/// with exactly this tree.
std::vector<SteinerEdge> mst_edges(const std::vector<PointF>& points);

/// Splice out Steiner nodes that ended with degree <= 2 (degree-2 nodes
/// connect their neighbors directly, lower degrees are removed), iterate to
/// a fixed point, then compact node indices. Pin nodes are never touched.
/// Shared by the iterated-1-Steiner construction and the batched stitch, so
/// both emit trees under the same degree-3 discipline.
void prune_low_degree_steiner(SteinerTree& tree);

}  // namespace tsteiner
