// Batched learned Steiner-point predictor (ROADMAP item 3).
//
// A small MLP-with-net-pooling in the GAT-Steiner / NeuroSteiner mold
// (PAPERS.md): every packed Hanan candidate row gets a Steiner-point
// probability from ONE padded tensor forward over the whole design, on the
// existing autodiff tape. The architecture is deliberately per-row /
// per-segment only —
//
//   h1   = relu(X W1 + b1)                row-local
//   h1m  = h1 * valid-mask                row-local
//   pool = segment_sum(h1m) / count      slot-local (net context)
//   h2   = relu([h1m | pool[slot]] W2 + b2)   row-local
//   p    = sigmoid(h2 W3 + b3)           row-local
//
// — so a net's probabilities are bitwise independent of which other nets
// share the batch (padding rows are masked to exact +0.0 before every
// reduction, and the scatter-add kernel accumulates rows in serial order),
// and bit-identical at any pool width (PR 1 kernel contract). That is what
// lets the steiner-batch differential oracle compare batch-of-N against
// batch-of-1 construction bit-for-bit.
//
// The predictor ships pretrained: construction is deterministic, seeded
// self-supervision — synthetic nets labeled by the exact iterated-1-Steiner
// construction, class-weighted BCE, Adam — and the result is cached both per
// process and on disk (same discipline as the evaluator's model cache), so
// the training cost is paid once per build directory, not per Flow. Trained
// weights persist through serve snapshots as an SMDL chunk (its tensor list
// is the MODL codec's) so the serve `wirelength` op reproduces the exact
// in-process estimates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"
#include "steiner/batch_builder.hpp"
#include "util/rng.hpp"

namespace tsteiner {

class Design;
class SteinerForest;

struct SteinerPredictorConfig {
  int hidden = 16;  ///< width of both hidden layers
  std::uint64_t seed = 2023;
  int train_nets = 160;      ///< synthetic pretraining corpus size
  int train_steps = 80;      ///< Adam steps over the full corpus
  double learning_rate = 0.06;

  bool operator==(const SteinerPredictorConfig& o) const {
    return hidden == o.hidden && seed == o.seed && train_nets == o.train_nets &&
           train_steps == o.train_steps && learning_rate == o.learning_rate;
  }
};

class SteinerPredictor {
 public:
  explicit SteinerPredictor(const SteinerPredictorConfig& config);

  /// One forward over the padded batch; returns a probability per batch row
  /// (padding rows included, aligned with HananBatch indices). Bit-identical
  /// across thread widths and across batch compositions (see file header).
  std::vector<double> predict(const HananBatch& batch) const;

  /// Deterministic, seeded pretraining on synthetic nets labeled by the
  /// exact construction. Idempotent inputs: same config => same weights.
  void pretrain();

  /// Process-wide cache of pretrained instances keyed by config, backed by
  /// an on-disk weight cache in the working directory (same discipline as
  /// the suite snapshot cache: TSTEINER_NO_CACHE opts out, a config tag
  /// guards against stale files), so the pretraining cost is paid once per
  /// build directory rather than once per process.
  static std::shared_ptr<const SteinerPredictor> shared_pretrained(
      const SteinerPredictorConfig& config = {});

  std::vector<Tensor>& parameters() { return params_; }
  const std::vector<Tensor>& parameters() const { return params_; }
  const SteinerPredictorConfig& config() const { return cfg_; }

 private:
  enum ParamId : std::size_t { kW1, kB1, kW2, kB2, kW3, kB3, kNumParams };

  struct Bound {
    std::vector<Value> handles;
  };
  Bound bind(Tape& tape, bool requires_grad) const;
  /// Records the forward graph up to the pre-sigmoid logits (rows x 1).
  /// Training consumes logits directly (BCE-from-softplus keeps gradients
  /// alive where sigmoid saturates); predict() applies the sigmoid.
  Value forward_logits(Tape& tape, const HananBatch& batch, const Bound& bound) const;

  SteinerPredictorConfig cfg_;
  std::vector<Tensor> params_;
};

/// SMDL chunk payload codec: tag, config, then the parameter-tensor list
/// shared with MODL (gnn/serialize).
std::vector<std::uint8_t> encode_steiner_predictor_payload(const SteinerPredictor& predictor,
                                                           const std::string& tag);
/// Self-describing decode: adopts the stored config, returns the stored tag
/// through `tag_out` (when non-null). nullopt on truncation/corruption.
std::optional<SteinerPredictor> decode_steiner_predictor_payload_any(const std::uint8_t* data,
                                                                     std::size_t size,
                                                                     std::string* tag_out);

/// Batched construction over raw pin sets (driver-first per net): pack ->
/// one predictor forward -> stitch. Trees come back in pin_sets order with
/// pin-node `pin` fields holding pin-set indices (build_rsmt_points
/// convention).
std::vector<SteinerTree> build_batched_trees(const std::vector<std::vector<PointF>>& pin_sets,
                                             const SteinerPredictor& predictor,
                                             const BatchBuildOptions& options,
                                             BatchBuildStats* stats = nullptr,
                                             std::vector<std::uint8_t>* used_fallback = nullptr);

/// Design-level batched construction: the drop-in counterpart of
/// build_forest (same net_to_tree layout, same pin-id stamping, movable
/// index rebuilt).
SteinerForest build_forest_batched(const Design& design, const SteinerPredictor& predictor,
                                   const BatchBuildOptions& options,
                                   BatchBuildStats* stats = nullptr,
                                   std::vector<std::uint8_t>* used_fallback = nullptr);

/// Per-net wirelength estimates of the batched construction — the serve
/// `wirelength` op's compute kernel (NeuroSteiner's placer-facing use case).
std::vector<double> estimate_wirelengths(const std::vector<std::vector<PointF>>& pin_sets,
                                         const SteinerPredictor& predictor,
                                         const BatchBuildOptions& options);

/// How a Flow constructs its initial forest.
enum class SteinerBuildMode {
  kPerNet,   ///< iterated 1-Steiner per net (the pre-batching path)
  kBatched,  ///< one predictor forward over the whole design + stitch
};

/// Flow-facing switch for initial Steiner construction. The per-net exact
/// path stays available (and is the fallback inside the batched path for
/// small or invariant-failing nets, with `batch.fallback` pinned to the
/// flow's RsmtOptions so the two modes agree bit-for-bit on fallback nets).
struct SteinerBuildOptions {
  SteinerBuildMode mode = SteinerBuildMode::kBatched;
  SteinerPredictorConfig predictor;
  BatchBuildOptions batch;
};

/// The Flow constructor's entry point: dispatches on `options.mode`, pinning
/// `batch.fallback` to `rsmt` so fallback nets match the per-net
/// path exactly.
SteinerForest build_initial_forest(const Design& design, const SteinerBuildOptions& options,
                                   const RsmtOptions& rsmt, BatchBuildStats* stats = nullptr);

}  // namespace tsteiner
