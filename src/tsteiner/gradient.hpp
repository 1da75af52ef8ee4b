// Sign-off timing optimization gradient generation (Section III-A).
//
// One forward + backward pass of the learned evaluator: Steiner coordinates
// enter as gradient-required tape leaves, every other feature is constant
// (the paper: "we only set the feature of Steiner nodes' positions as
// 'gradient required'"), and backward() through the smoothed penalty yields
// (dP/dX_s, dP/dY_s) per Steiner point.
//
// Two execution modes:
//  * the free functions record a fresh tape per call (tests, one-shot
//    diagnostics);
//  * GradientEvaluator records the (design, forest-topology) graph once
//    into a TapeProgram and replays it in place for every subsequent
//    (xs, ys, lambda) query — the mode the refinement loop runs in.
//    gradients() moves the program to the queried point; evaluate() scores
//    a trial point in the program's scratch arena and leaves it where the
//    last gradients() call put it (the kept iterate, in Algorithm 1). Both
//    are bit-identical to the fresh-tape path (tests/replay_test).
#pragma once

#include <vector>

#include "autodiff/program.hpp"
#include "gnn/model.hpp"
#include "tsteiner/penalty.hpp"

namespace tsteiner {

struct GradientResult {
  std::vector<double> grad_x, grad_y;  ///< dP/dX_s, dP/dY_s (per movable point)
  double penalty = 0.0;
  double eval_wns_ns = 0.0;  ///< model-evaluated (hard) WNS
  double eval_tns_ns = 0.0;
};

/// Evaluate penalty and Steiner-position gradients at (xs, ys).
GradientResult compute_timing_gradients(const TimingGnn& model, const GraphCache& cache,
                                        const Design& design, const std::vector<double>& xs,
                                        const std::vector<double>& ys,
                                        const PenaltyWeights& weights);

/// Forward-only variant (no backward pass): model-evaluated WNS/TNS.
GradientResult evaluate_timing(const TimingGnn& model, const GraphCache& cache,
                               const Design& design, const std::vector<double>& xs,
                               const std::vector<double>& ys, const PenaltyWeights& weights);

/// Retained evaluator: binds the model, records GNN forward + timing penalty
/// once for a fixed (design, forest-topology) pair, then answers gradient /
/// evaluation queries by replaying the program with updated coordinate and
/// lambda leaves. Zero heap allocation per steady-state query.
///
/// The program is only valid for the topology it was recorded on: queries
/// with a different movable-point count, or weights that resolve to a
/// different LSE gamma (gamma sits inside the recorded nonlinearities),
/// throw — callers must construct a new evaluator after a topology change.
class GradientEvaluator {
 public:
  GradientEvaluator(const TimingGnn& model, const GraphCache& cache, const Design& design,
                    const std::vector<double>& xs, const std::vector<double>& ys,
                    const PenaltyWeights& weights);

  /// Replayed equivalent of compute_timing_gradients(): moves the program
  /// to (xs, ys, weights), replaying the forward ops those leaf changes
  /// dirty, then the backward.
  GradientResult gradients(const std::vector<double>& xs, const std::vector<double>& ys,
                           const PenaltyWeights& weights);
  /// Replayed equivalent of evaluate_timing(): a forward-only trial pass
  /// (TapeProgram::trial_forward) that leaves the program at the point of
  /// the last gradients() call, so a gradients() call back at that point —
  /// the refinement loop after a rejected step — replays no coordinate op.
  GradientResult evaluate(const std::vector<double>& xs, const std::vector<double>& ys,
                          const PenaltyWeights& weights);

  /// Re-record the program for a new (cache, coordinates) pair in place —
  /// the topology-edit path: discrete search changes the tape's *shape*, so
  /// after an accepted edit the driver rebinds the evaluator to the edited
  /// forest's graph cache instead of constructing a fresh one (the program's
  /// arenas and this object's identity survive). Equivalent to constructing
  /// a new evaluator; replays after rebind() are bit-identical to a fresh
  /// record (tests/replay_test.cpp).
  void rebind(const TimingGnn& model, const GraphCache& cache, const Design& design,
              const std::vector<double>& xs, const std::vector<double>& ys,
              const PenaltyWeights& weights);

  /// The underlying program (node counts, allocation counter) for benches
  /// and tests.
  const TapeProgram& program() const { return program_; }

 private:
  void check_query(const std::vector<double>& xs, const std::vector<double>& ys,
                   const PenaltyWeights& weights) const;

  TapeProgram program_;
  Value vx_{}, vy_{};
  Value lambda_w_{}, lambda_t_{};
  Value slack_{}, penalty_{};
  double clock_ = 1.0;
  double gamma_ = 0.0;
  std::size_t num_movable_ = 0;
};

}  // namespace tsteiner
