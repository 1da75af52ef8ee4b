// Smoothed sign-off timing penalty (Section III-A, Eq. 4-6).
//
// From predicted endpoint arrivals the penalty combines WNS and TNS with
// weights lambda_w / lambda_t; both are smoothed so backward propagation
// reaches every endpoint instead of only the single worst path:
//   * WNS  w_gamma = -LSE_gamma(-slack)      (smooth minimum of slacks)
//   * TNS  t_gamma = sum_e softmin0(slack_e) (smooth min(0, s_e) per endpoint)
//   * P    = lambda_w * w_gamma + lambda_t * t_gamma   (lambdas < 0, so
//     minimizing P maximizes weighted slack).
#pragma once

#include <span>
#include <vector>

#include "autodiff/tape.hpp"
#include "gnn/graph_cache.hpp"

namespace tsteiner {

struct PenaltyWeights {
  double lambda_w = -200.0;  ///< paper's initialization
  double lambda_t = -2.0;
  double gamma_ns = 10.0;    ///< LSE temperature, in ns (paper: 10.0)
  /// When positive, overrides gamma_ns with gamma = gamma_relative * clock.
  /// The paper's gamma = 10 ns against its ~10 ns clocks corresponds to a
  /// relative temperature near 1; our synthetic clocks vary widely, so the
  /// relative form keeps the smoothing strength design-independent.
  double gamma_relative = 0.0;  // disabled by default: gamma_ns/clock transfers best
};

struct PenaltyTerms {
  Value penalty;      ///< 1x1, minimize
  Value smooth_wns;   ///< 1x1, clock-normalized
  Value smooth_tns;   ///< 1x1, clock-normalized
  /// Endpoint slack vector (normalized); hard WNS/TNS are recomputed from
  /// this node after every replay (hard_slack_metrics).
  Value slack;
  /// 1x1 weight leaves. The penalty is add(mul(lambda_w_leaf, smooth_wns),
  /// mul(lambda_t_leaf, smooth_tns)) so the lambda growth schedule can run
  /// under a retained program by overwriting the leaves instead of
  /// re-recording the graph with new scale() constants. The arithmetic is
  /// bit-identical to the historical scale() form.
  Value lambda_w_leaf;
  Value lambda_t_leaf;
  double hard_wns_ns = 0.0;  ///< non-smoothed WNS from the same arrivals
  double hard_tns_ns = 0.0;
};

/// Build the penalty graph on top of `arrival` (num_pins x 1, normalized by
/// clock, as produced by TimingGnn::forward). Required times follow the STA
/// convention: clock - setup at register D pins, clock at POs.
PenaltyTerms build_timing_penalty(Tape& tape, const GraphCache& cache, const Design& design,
                                  Value arrival, const PenaltyWeights& weights);

/// The LSE temperature actually used for `weights` on a design with this
/// clock. Gamma is baked into the recorded graph (it sits inside the
/// nonlinearities), so a retained program must reject weight sets that
/// resolve to a different gamma.
double penalty_gamma(const PenaltyWeights& weights, double clock);

/// Hard (non-smoothed) WNS/TNS in ns from normalized endpoint slacks.
/// Shared by the recording path, the replay and the trial pass so all derive
/// the keep-best metrics with the identical fold.
void hard_slack_metrics(std::span<const double> slack, double clock, double* wns_ns,
                        double* tns_ns);

}  // namespace tsteiner
