// Customized sign-off timing evaluation model (Section III-A, Fig. 3).
//
// Two-stage message passing, implemented on the autodiff tape so the same
// forward graph yields both arrival-time predictions and, via backward(),
// gradients w.r.t. the Steiner coordinate leaves:
//
//  1. Steiner-graph stage — three iterations of bidirectional propagation:
//     *broadcast* moves information from each net's driver toward its sinks
//     along the tree edges (messages carry the edge length, a differentiable
//     function of Steiner positions); *reduce* sends sink states back to the
//     driver along the net edges. Exact driver->sink path lengths are also
//     accumulated level-by-level as tape values.
//  2. Netlist-graph stage — timing-engine-style topological propagation
//     ([13]): per net arc a learned net delay (from the fused Steiner
//     context) and per cell arc a learned, load-dependent cell delay feed a
//     max-reduction per output pin, producing arrival times for all pins.
//
// Predictions are in clock-period-normalized units.
#pragma once

#include <vector>

#include "autodiff/tape.hpp"
#include "gnn/graph_cache.hpp"
#include "util/rng.hpp"

namespace tsteiner {

struct GnnConfig {
  int hidden = 12;        ///< Steiner-graph hidden width
  int type_embed = 6;     ///< cell-type embedding width
  int delay_hidden = 16;  ///< width of the delay-head MLPs
  int steiner_iters = 3;  ///< paper: "in practice we set three iterations"
  /// Soft-abs smoothing radius (DBU) for edge lengths; makes WL-optimal
  /// Steiner corners flat so the refinement gradient carries timing signal
  /// instead of wirelength-kink noise.
  double soft_abs_delta = 4.0;
  /// Anchor delay heads on closed-form physics (Elmore / intrinsic + R*C)
  /// with bounded learned corrections. Disabling reverts to free-form
  /// softplus MLP heads — trains to similar R^2 but produces refinement
  /// gradients that exploit model misfit (see bench_ablation_anchor).
  bool physics_anchor = true;
  std::uint64_t seed = 42;
};

class TimingGnn {
 public:
  TimingGnn(const GnnConfig& config, int num_cell_types);

  /// Bind every parameter tensor as a tape leaf (requires_grad).
  struct Bound {
    std::vector<Value> handles;
  };
  Bound bind(Tape& tape) const;

  /// Forward pass. `xs`/`ys` are (num_movable x 1) leaves with absolute
  /// Steiner coordinates in DBU, aligned with the forest movable index that
  /// the cache was built from. Returns arrival per pin (num_pins x 1),
  /// normalized by the clock period.
  ///
  /// The tape may belong to a TapeProgram: bind() bakes the parameter values
  /// at record time, and everything forward() records — including the
  /// per-level index assembly done here on the host — replays without being
  /// re-executed, so a retained program (tsteiner::GradientEvaluator) pays
  /// this construction cost exactly once per (design, forest-topology).
  /// Each propagation level records only its frontier (Tape::gather_frontiers
  /// reads earlier levels), so the tape is linear in the design size.
  Value forward(Tape& tape, const GraphCache& g, const Bound& bound, Value xs,
                Value ys) const;

  std::vector<Tensor>& parameters() { return params_; }
  const std::vector<Tensor>& parameters() const { return params_; }

  /// Read parameter gradients off a tape after backward(); accumulates into
  /// `grads` (same shapes as parameters()).
  void accumulate_param_grads(const Tape& tape, const Bound& bound,
                              std::vector<Tensor>& grads) const;

  const GnnConfig& config() const { return cfg_; }

 private:
  enum ParamId : std::size_t {
    kWIn, kBIn,                    // snode feature embedding
    kWB, kBB, kWU1, kWU2, kBU,     // broadcast message + update
    kWR, kBR, kWU3, kWU4, kBU2,    // reduce message + update
    kTypeEmb,                      // cell-type embeddings
    kWC1, kBC1, kWC2, kBC2,        // cell-delay head (multiplicative corr.)
    kWN1, kBN1, kWN2, kBN2,        // net-delay head (multiplicative corr.)
    kWN3, kBN3,                    // net-delay additive head (quantization)
    kWS1, kBS1, kWS2, kBS2,        // startpoint (CK->Q) head
    kNumParams
  };

  GnnConfig cfg_;
  std::vector<Tensor> params_;
};

}  // namespace tsteiner
