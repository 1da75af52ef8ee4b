#include "tsteiner/gradient.hpp"

#include <array>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace tsteiner {

namespace {

using OpKindCounts = TapeProgram::OpKindCounts;

/// Adds one call's per-op-kind work to `grad.op.<kind>.calls` / `.elems`
/// (forward executions: main replay and trial pass) or, for the backward,
/// `.bwd_calls` / `.bwd_elems`. Every kind's counters are registered once.
void add_op_kind_metrics(const OpKindCounts& before, const OpKindCounts& after, bool backward) {
  using Counters = std::array<std::array<obs::Counter*, 2>, std::tuple_size_v<OpKindCounts>>;
  static const std::array<Counters, 2> counters = [] {
    std::array<Counters, 2> c{};
    for (std::size_t k = 0; k < c[0].size(); ++k) {
      const std::string base = std::string("grad.op.") + TapeProgram::op_kind_name(k) + ".";
      c[0][k] = {&obs::metrics().counter(base + "calls"), &obs::metrics().counter(base + "elems")};
      c[1][k] = {&obs::metrics().counter(base + "bwd_calls"),
                 &obs::metrics().counter(base + "bwd_elems")};
    }
    return c;
  }();
  const Counters& m = counters[backward ? 1 : 0];
  for (std::size_t k = 0; k < after.size(); ++k) {
    if (after[k].calls == before[k].calls) continue;
    m[k][0]->add(after[k].calls - before[k].calls);
    m[k][1]->add(after[k].elems - before[k].elems);
  }
}

GradientResult run(const TimingGnn& model, const GraphCache& cache, const Design& design,
                   const std::vector<double>& xs, const std::vector<double>& ys,
                   const PenaltyWeights& weights, bool with_backward) {
  Tape tape;
  const TimingGnn::Bound bound = model.bind(tape);
  const Value vx = tape.leaf(Tensor::column(xs), /*requires_grad=*/true);
  const Value vy = tape.leaf(Tensor::column(ys), /*requires_grad=*/true);
  const Value arrival = model.forward(tape, cache, bound, vx, vy);
  const PenaltyTerms terms = build_timing_penalty(tape, cache, design, arrival, weights);

  GradientResult r;
  r.penalty = tape.value(terms.penalty)[0];
  r.eval_wns_ns = terms.hard_wns_ns;
  r.eval_tns_ns = terms.hard_tns_ns;
  if (with_backward) {
    tape.backward(terms.penalty);
    const Tensor& gx = tape.grad(vx);
    const Tensor& gy = tape.grad(vy);
    r.grad_x.assign(xs.size(), 0.0);
    r.grad_y.assign(ys.size(), 0.0);
    for (std::size_t i = 0; i < gx.size(); ++i) r.grad_x[i] = gx[i];
    for (std::size_t i = 0; i < gy.size(); ++i) r.grad_y[i] = gy[i];
  }
  return r;
}

}  // namespace

GradientResult compute_timing_gradients(const TimingGnn& model, const GraphCache& cache,
                                        const Design& design, const std::vector<double>& xs,
                                        const std::vector<double>& ys,
                                        const PenaltyWeights& weights) {
  return run(model, cache, design, xs, ys, weights, /*with_backward=*/true);
}

GradientResult evaluate_timing(const TimingGnn& model, const GraphCache& cache,
                               const Design& design, const std::vector<double>& xs,
                               const std::vector<double>& ys, const PenaltyWeights& weights) {
  return run(model, cache, design, xs, ys, weights, /*with_backward=*/false);
}

GradientEvaluator::GradientEvaluator(const TimingGnn& model, const GraphCache& cache,
                                     const Design& design, const std::vector<double>& xs,
                                     const std::vector<double>& ys,
                                     const PenaltyWeights& weights) {
  rebind(model, cache, design, xs, ys, weights);
}

void GradientEvaluator::rebind(const TimingGnn& model, const GraphCache& cache,
                               const Design& design, const std::vector<double>& xs,
                               const std::vector<double>& ys, const PenaltyWeights& weights) {
  program_.reset();
  Tape& tape = program_.tape();
  const TimingGnn::Bound bound = model.bind(tape);
  vx_ = tape.leaf(Tensor::column(xs), /*requires_grad=*/true);
  vy_ = tape.leaf(Tensor::column(ys), /*requires_grad=*/true);
  const Value arrival = model.forward(tape, cache, bound, vx_, vy_);
  const PenaltyTerms terms = build_timing_penalty(tape, cache, design, arrival, weights);
  lambda_w_ = terms.lambda_w_leaf;
  lambda_t_ = terms.lambda_t_leaf;
  slack_ = terms.slack;
  penalty_ = terms.penalty;
  clock_ = cache.clock;
  gamma_ = penalty_gamma(weights, cache.clock);
  num_movable_ = xs.size();
  // Only the coordinate and lambda leaves vary between refine iterations;
  // gradients are needed for the coordinates alone, which lets the reverse
  // schedule drop the weight and bias gradients of every GNN layer. A
  // trial pass reads the penalty and the endpoint slacks.
  program_.finalize(penalty_, {vx_, vy_, lambda_w_, lambda_t_}, {vx_, vy_}, {slack_});
  if (obs::metrics_enabled()) {
    static obs::Gauge& m_scratch = obs::metrics().gauge("grad.trial_scratch_mb");
    m_scratch.set(static_cast<double>(program_.trial_scratch_bytes()) / (1024.0 * 1024.0));
  }
}

void GradientEvaluator::check_query(const std::vector<double>& xs,
                                    const std::vector<double>& ys,
                                    const PenaltyWeights& weights) const {
  if (xs.size() != num_movable_ || ys.size() != num_movable_) {
    throw std::runtime_error(
        "GradientEvaluator: movable-point count changed — the forest topology differs "
        "from the recorded program, construct a new evaluator");
  }
  if (penalty_gamma(weights, clock_) != gamma_) {
    throw std::runtime_error(
        "GradientEvaluator: gamma differs from the recorded program — construct a new "
        "evaluator");
  }
}

GradientResult GradientEvaluator::gradients(const std::vector<double>& xs,
                                            const std::vector<double>& ys,
                                            const PenaltyWeights& weights) {
  check_query(xs, ys, weights);
  program_.set_leaf(vx_, xs);
  program_.set_leaf(vy_, ys);
  program_.set_leaf_scalar(lambda_w_, weights.lambda_w);
  program_.set_leaf_scalar(lambda_t_, weights.lambda_t);
  const TapeProgram::ReplayCounters before = program_.replay_counters();
  program_.replay_forward();
  if (obs::metrics_enabled()) {
    // Surface the dirty-group effectiveness of this replay (autodiff itself
    // stays obs-free; the raw counters live on the program).
    const TapeProgram::ReplayCounters& after = program_.replay_counters();
    static obs::Counter& m_replays = obs::metrics().counter("grad.replay_forwards");
    static obs::Counter& m_skips = obs::metrics().counter("grad.replay_full_skips");
    static obs::Counter& m_ops_run = obs::metrics().counter("grad.replay_ops_executed");
    static obs::Counter& m_ops_skip = obs::metrics().counter("grad.replay_ops_skipped");
    m_replays.add(after.forward_replays - before.forward_replays);
    m_skips.add(after.full_forward_skips - before.full_forward_skips);
    m_ops_run.add(after.ops_executed - before.ops_executed);
    m_ops_skip.add(after.ops_skipped - before.ops_skipped);
    add_op_kind_metrics(before.forward_kinds, after.forward_kinds, /*backward=*/false);
  }

  GradientResult r;
  r.penalty = program_.value(penalty_)[0];
  hard_slack_metrics(program_.value(slack_).data(), clock_, &r.eval_wns_ns, &r.eval_tns_ns);
  program_.replay_backward();
  if (obs::metrics_enabled()) {
    add_op_kind_metrics(before.backward_kinds, program_.replay_counters().backward_kinds,
                        /*backward=*/true);
  }
  const Tensor& gx = program_.grad(vx_);
  const Tensor& gy = program_.grad(vy_);
  r.grad_x.assign(xs.size(), 0.0);
  r.grad_y.assign(ys.size(), 0.0);
  for (std::size_t i = 0; i < gx.size(); ++i) r.grad_x[i] = gx[i];
  for (std::size_t i = 0; i < gy.size(); ++i) r.grad_y[i] = gy[i];
  return r;
}

GradientResult GradientEvaluator::evaluate(const std::vector<double>& xs,
                                           const std::vector<double>& ys,
                                           const PenaltyWeights& weights) {
  check_query(xs, ys, weights);
  program_.set_trial_leaf(vx_, xs);
  program_.set_trial_leaf(vy_, ys);
  program_.set_trial_leaf_scalar(lambda_w_, weights.lambda_w);
  program_.set_trial_leaf_scalar(lambda_t_, weights.lambda_t);
  const TapeProgram::ReplayCounters before = program_.replay_counters();
  program_.trial_forward();
  if (obs::metrics_enabled()) {
    const TapeProgram::ReplayCounters& after = program_.replay_counters();
    static obs::Counter& m_trials = obs::metrics().counter("grad.trial_evals");
    static obs::Counter& m_ops_run = obs::metrics().counter("grad.trial_ops_executed");
    static obs::Counter& m_rows_run =
        obs::metrics().counter("grad.trial_dense_rows_computed");
    static obs::Counter& m_rows_kept = obs::metrics().counter("grad.trial_dense_rows_reused");
    m_trials.add(after.trial_forwards - before.trial_forwards);
    m_ops_run.add(after.trial_ops_executed - before.trial_ops_executed);
    m_rows_run.add(after.trial_rows_computed - before.trial_rows_computed);
    m_rows_kept.add(after.trial_rows_reused - before.trial_rows_reused);
    add_op_kind_metrics(before.trial_kinds, after.trial_kinds, /*backward=*/false);
  }

  GradientResult r;
  r.penalty = program_.trial_value(penalty_)[0];
  hard_slack_metrics(program_.trial_value(slack_), clock_, &r.eval_wns_ns, &r.eval_tns_ns);
  return r;
}

}  // namespace tsteiner
