#include "tsteiner/penalty.hpp"

#include <algorithm>
#include <stdexcept>

namespace tsteiner {

PenaltyTerms build_timing_penalty(Tape& tape, const GraphCache& cache, const Design& design,
                                  Value arrival, const PenaltyWeights& weights) {
  const std::vector<int> endpoints = design.endpoint_pins();
  if (endpoints.empty()) throw std::runtime_error("design has no timing endpoints");

  std::vector<double> required(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    required[i] = design.required_time(endpoints[i]) / cache.clock;  // normalized
  }

  // slack_e = required_e - arrival_e   (normalized units)
  const Value ep_arrival = tape.gather_rows(arrival, endpoints);
  const Value slack = tape.sub(tape.leaf(Tensor::column(required)), ep_arrival);

  const double gamma = penalty_gamma(weights, cache.clock);

  PenaltyTerms t;
  t.slack = slack;
  // Smooth WNS: min(s) = -max(-s) -> -LSE(-s).
  t.smooth_wns = tape.neg(tape.log_sum_exp(tape.neg(slack), gamma));
  // Smooth TNS: sum of smooth min(0, s_e).
  t.smooth_tns = tape.sum_all(tape.soft_min0(slack, gamma));
  // The lambdas enter as 1x1 leaves so a retained program can run the growth
  // schedule via set_leaf; mul(x, lambda) == scale(x, lambda) bit-for-bit.
  t.lambda_w_leaf = tape.leaf(Tensor(1, 1, weights.lambda_w));
  t.lambda_t_leaf = tape.leaf(Tensor(1, 1, weights.lambda_t));
  t.penalty = tape.add(tape.mul(t.smooth_wns, t.lambda_w_leaf),
                       tape.mul(t.smooth_tns, t.lambda_t_leaf));

  // Hard metrics from the same arrivals (for Algorithm 1's keep-best test).
  hard_slack_metrics(tape.value(slack).data(), cache.clock, &t.hard_wns_ns, &t.hard_tns_ns);
  return t;
}

double penalty_gamma(const PenaltyWeights& weights, double clock) {
  return weights.gamma_relative > 0.0 ? weights.gamma_relative
                                      : std::max(1e-6, weights.gamma_ns / clock);
}

void hard_slack_metrics(std::span<const double> slack, double clock, double* wns_ns,
                        double* tns_ns) {
  double wns = slack[0];
  double tns = 0.0;
  for (std::size_t i = 0; i < slack.size(); ++i) {
    wns = std::min(wns, slack[i]);
    tns += std::min(0.0, slack[i]);
  }
  *wns_ns = wns * clock;
  *tns_ns = tns * clock;
}

}  // namespace tsteiner
