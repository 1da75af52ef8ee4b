// Batched Steiner construction: packing and stitching.
//
// The per-net iterated-1-Steiner construction in rsmt.cpp evaluates every
// Hanan candidate of a net by a full O(k^2) MST probe, per iteration, per
// net. The batched path (ROADMAP item 3; GAT-Steiner / NeuroSteiner in
// PAPERS.md) splits that work in two:
//
//   1. *Packing* (this file): every routable net contributes up to H_max
//      Hanan-grid candidate points, each described by kHananFeatures cheap
//      per-candidate features. Nets are padded to a common H_max so the
//      whole design becomes one `{net, hanan-node, feature}` tensor of
//      shape (num_nets * H_max) x kHananFeatures plus a validity mask and
//      a row->net segment map.
//   2. *Prediction* (gnn/steiner_predictor): one forward over the padded
//      batch yields a Steiner-point probability per candidate row.
//   3. *Stitching* (this file): per net, candidates above the probability
//      threshold are greedily inserted in descending-probability order,
//      each gated by an exact MST-gain probe (so wirelength never exceeds
//      the pin MST), then the final MST is pruned to degree-3 Steiner
//      discipline and clamped into the pin bounding box.
//
// Nets with <= kSmallNetPinLimit pins, and any net whose stitched tree
// fails the structural invariants, fall back to the exact per-net path
// (build_rsmt_points), so the verify-subsystem RSMT-optimality invariant
// for small nets remains a hard guard.
//
// Everything here is deliberately netlist-light: packing and stitching
// operate on raw pin clouds so the serve-side wirelength estimator can use
// them without a Design. Determinism: packing is a pure function of the
// pin sets; stitching is a pure function of (pins, probabilities,
// options); nets are processed over the deterministic pool with per-net
// writes only, so results are bit-identical at any thread width and
// independent of batch composition.
#pragma once

#include <cstdint>
#include <vector>

#include "steiner/rsmt.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner {

class Design;

/// Features per packed Hanan candidate row (all O(pins) to compute, all in
/// [0, 1]-ish normalized units; see pack_hanan_batch for the exact list).
inline constexpr int kHananFeatures = 10;

/// Padding cap: at most this many Hanan candidates are packed per net
/// (nearest-to-pins candidates win; deterministic tie-breaks).
inline constexpr int kMaxHananPerNet = 48;

/// Nets with at most this many pins bypass prediction and use the exact
/// per-net construction (keeps the <=4-pin RSMT-optimality invariant).
inline constexpr int kSmallNetPinLimit = 4;

struct BatchBuildOptions {
  /// Options for the exact fallback path (build_rsmt_points).
  RsmtOptions fallback;
  /// Test hook for the fuzz mutation self-check: when true, the first
  /// above-threshold candidate of every net is silently dropped before
  /// stitching. The steiner-batch differential oracle must catch this.
  bool mutate_drop_first_candidate = false;
};

/// Padded candidate batch. Only nets that actually reach the predictor —
/// more pins than kSmallNetPinLimit and at least one Hanan candidate —
/// occupy a slot; slot s owns rows [s*h_max, (s+1)*h_max). Rows with
/// valid[r] == 0 are padding (all-zero features, so a masked forward
/// contributes exact +0.0 to every per-slot reduction; see
/// docs/steiner_batch.md for the bit-identity argument). Small/fallback
/// nets carry no rows at all, which keeps the tensor proportional to the
/// predicted-net count rather than the design's net count.
struct HananBatch {
  int h_max = 0;
  std::size_t num_nets = 0;  ///< size of the input pin_sets, slotted or not
  /// slot -> net index (ascending net order).
  std::vector<int> slots;
  /// net index -> slot, or -1 when the net packs no candidates.
  std::vector<int> slot_of;
  /// (num_slots * h_max) x kHananFeatures, row-major.
  std::vector<double> features;
  /// Candidate position per row (0,0 on padding rows).
  std::vector<PointF> points;
  std::vector<std::uint8_t> valid;
  /// Row -> slot (defined on padding rows too).
  std::vector<int> segments;
  /// Real (unpadded) candidate count per net (0 for unslotted nets).
  std::vector<int> counts;

  std::size_t num_slots() const { return slots.size(); }
  std::size_t rows() const { return slots.size() * static_cast<std::size_t>(h_max); }
};

/// Per-batch construction accounting.
struct BatchBuildStats {
  std::size_t num_nets = 0;
  std::size_t num_predicted = 0;         ///< stitched from predicted candidates
  std::size_t num_fallback_small = 0;    ///< <= kSmallNetPinLimit pins
  std::size_t num_fallback_invalid = 0;  ///< stitched tree failed invariants
  std::size_t num_candidate_rows = 0;    ///< packed (valid) candidate rows
  std::size_t num_offered_points = 0;    ///< above-threshold candidates offered
  std::size_t num_inserted_points = 0;   ///< candidates that survived the gain gate

  std::size_t num_fallback() const { return num_fallback_small + num_fallback_invalid; }
};

/// Pack pin sets (driver first per net) into a padded candidate batch.
/// Nets at or below kSmallNetPinLimit pack zero candidates (they never
/// reach the predictor). Pure function of pin_sets.
HananBatch pack_hanan_batch(const std::vector<std::vector<PointF>>& pin_sets);

/// Stitch every net from its pins + predicted candidate probabilities
/// (aligned with `batch` rows, as produced by SteinerPredictor::predict).
/// Trees come back in pin_sets order with `net` = -1 and pin-node `pin`
/// fields holding indices into the net's pin set (same convention as
/// build_rsmt_points). `used_fallback`, when non-null, is resized to one
/// flag per net.
std::vector<SteinerTree> stitch_batch(const std::vector<std::vector<PointF>>& pin_sets,
                                      const HananBatch& batch,
                                      const std::vector<double>& probabilities,
                                      const BatchBuildOptions& options,
                                      BatchBuildStats* stats = nullptr,
                                      std::vector<std::uint8_t>* used_fallback = nullptr);

/// Pin positions (driver first) for every net with at least one sink, in
/// net-id order; `net_ids`, when non-null, receives the matching net ids.
std::vector<std::vector<PointF>> routable_pin_sets(const Design& design,
                                                   std::vector<int>* net_ids = nullptr);

}  // namespace tsteiner
