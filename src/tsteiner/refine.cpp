#include "tsteiner/refine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "tsteiner/gradient.hpp"
#include "util/log.hpp"

namespace tsteiner {

namespace {

/// The lambda schedule's growth starts at this iteration.
constexpr int kLambdaGrowthStart = 5;

/// Keep-best noise floor: an iterate is accepted only when it improves the
/// model-evaluated WNS or TNS by at least this fraction of the initial
/// value. Below the evaluator's resolution (small designs), nothing is
/// accepted and the initial trees pass through unchanged — matching the
/// paper's near-1.000 wirelength/via ratios.
constexpr double kAcceptTolerance = 0.002;

/// Largest *total* displacement per Steiner point, in gcell widths. The
/// paper constrains moves "according to the width and length of the global
/// routing grid graph", i.e. essentially die-bounded; the physics-anchored
/// evaluator extrapolates reliably, so a generous bound is safe (clamping to
/// the die always applies).
constexpr double kMaxMoveGcells = 64.0;

/// Largest displacement applied in a single iteration, in gcell widths.
constexpr double kMaxStepGcells = 0.5;

}  // namespace

double adaptive_theta(GradientEvaluator& evaluator, const std::vector<double>& xs,
                      const std::vector<double>& ys, const PenaltyWeights& weights,
                      double alpha, const GradientResult& g0) {
  std::vector<double> xs2(xs.size()), ys2(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs2[i] = xs[i] + alpha * g0.grad_x[i];
    ys2[i] = ys[i] + alpha * g0.grad_y[i];
  }
  const GradientResult g1 = evaluator.gradients(xs2, ys2, weights);
  double dx2 = 0.0, dg2 = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ddx = xs[i] - xs2[i];
    const double ddy = ys[i] - ys2[i];
    dx2 += ddx * ddx + ddy * ddy;
    const double dgx = g0.grad_x[i] - g1.grad_x[i];
    const double dgy = g0.grad_y[i] - g1.grad_y[i];
    dg2 += dgx * dgx + dgy * dgy;
  }
  if (dg2 <= 1e-24 || dx2 <= 1e-24) return 0.25;  // flat landscape: small safe step
  return std::sqrt(dx2) / std::sqrt(dg2);
}

double adaptive_theta(const TimingGnn& model, const GraphCache& cache, const Design& design,
                      const std::vector<double>& xs, const std::vector<double>& ys,
                      const PenaltyWeights& weights, double alpha) {
  GradientEvaluator evaluator(model, cache, design, xs, ys, weights);
  const GradientResult g0 = evaluator.gradients(xs, ys, weights);
  return adaptive_theta(evaluator, xs, ys, weights, alpha, g0);
}

RefineResult refine_steiner_points(const Design& design, const SteinerForest& initial,
                                   const TimingGnn& model, const RefineOptions& options) {
  if (options.topology.enabled) {
    return detail::refine_with_topology_search(design, initial, model, options);
  }
  TS_TRACE_SPAN_CAT("tsteiner.refine", "tsteiner");
  static obs::Counter& m_iterations = obs::metrics().counter("refine.iterations");
  static obs::Counter& m_accepted = obs::metrics().counter("refine.iter_accepted");
  static obs::Counter& m_rejected = obs::metrics().counter("refine.iter_rejected");
  static obs::Counter& m_backtracks = obs::metrics().counter("refine.backtracks");
  static obs::Gauge& m_theta = obs::metrics().gauge("refine.theta");
  static obs::Gauge& m_lambda_w = obs::metrics().gauge("refine.lambda_w");
  static obs::Gauge& m_lambda_t = obs::metrics().gauge("refine.lambda_t");
  RefineResult result;
  result.forest = initial;
  result.forest.build_movable_index();
  if (result.forest.num_movable() == 0) return result;  // nothing to refine

  const auto cache = build_graph_cache(design, result.forest);
  std::vector<double> xs = result.forest.gather_x();
  std::vector<double> ys = result.forest.gather_y();

  PenaltyWeights weights = options.weights;
  // Record the retained program once for this (design, forest-topology);
  // every gradient/evaluation below is an in-place replay of it.
  std::optional<GradientEvaluator> evaluator;
  {
    TS_TRACE_SPAN_CAT("refine.record", "tsteiner");
    ScopedTimer timer(result.grad_record);
    evaluator.emplace(model, *cache, design, xs, ys, weights);
  }
  GradientResult init;
  {
    TS_TRACE_SPAN_CAT("refine.gradient", "tsteiner");
    ScopedTimer timer(result.grad_replay);
    init = evaluator->gradients(xs, ys, weights);
  }
  result.init_wns = init.eval_wns_ns;
  result.init_tns = init.eval_tns_ns;
  double best_wns = init.eval_wns_ns;
  double best_tns = init.eval_tns_ns;
  std::vector<double> best_xs = xs;
  std::vector<double> best_ys = ys;

  // Adaptive stepsize (Eq. 8-9), capped so one SO step cannot exceed the
  // per-iteration move bound (the memoryless update moves each coordinate by
  // ~theta * (1-beta1)/sqrt(1-beta2) regardless of gradient magnitude).
  const double max_total_move = kMaxMoveGcells * static_cast<double>(options.gcell_size);
  const double max_step = kMaxStepGcells * static_cast<double>(options.gcell_size);
  // The probe's g(x) is `init` — the same point and weights — so the
  // historical duplicate gradient evaluation is gone.
  double theta = options.fixed_theta;
  if (options.use_adaptive_theta) {
    TS_TRACE_SPAN_CAT("refine.adaptive_theta", "tsteiner");
    ScopedTimer timer(result.grad_replay);
    theta = adaptive_theta(*evaluator, xs, ys, weights, options.alpha, init);
  }
  const double step_gain = (1.0 - kSoBeta1) / std::sqrt(1.0 - kSoBeta2);
  theta = std::clamp(theta, 1e-3, max_step / std::max(1e-9, step_gain));
  result.theta = theta;

  // Calibrate Eq. 7's eps to the gradient scale: coordinates with |g| well
  // above the mean move ~theta (sign-like), low-gradient coordinates move
  // proportionally to g (soft-sign). Without this every Steiner point —
  // including the thousands parked at WL-optimal positions with negligible
  // timing gradient — would take a full-size step each iteration.
  SoOptions so_opts = options.so;
  {
    double gsum = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      gsum += std::abs(init.grad_x[i]) + std::abs(init.grad_y[i]);
    }
    const double gmean = gsum / std::max<double>(1.0, 2.0 * static_cast<double>(xs.size()));
    so_opts.eps = std::max(so_opts.eps, 3.0 * gmean * std::sqrt(1.0 - kSoBeta2));
  }
  SteinerOptimizer so(xs.size(), theta, so_opts);

  // Clamp into the die and into a per-point box around the initial position
  // (total displacement bound).
  const std::vector<double> xs0 = xs;
  const std::vector<double> ys0 = ys;
  const RectI boundary = design.die();
  auto clamp_all = [&] {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = std::clamp(xs[i], xs0[i] - max_total_move, xs0[i] + max_total_move);
      ys[i] = std::clamp(ys[i], ys0[i] - max_total_move, ys0[i] + max_total_move);
      xs[i] = std::clamp(xs[i], static_cast<double>(boundary.lo.x),
                         static_cast<double>(boundary.hi.x));
      ys[i] = std::clamp(ys[i], static_cast<double>(boundary.lo.y),
                         static_cast<double>(boundary.hi.y));
    }
  };

  // Scratch copies of the pre-step iterate, for the applied-move telemetry.
  std::vector<double> prev_xs, prev_ys;

  // Periodic sign-off probe: snapshot of the coordinates at the last probe
  // so each probe declares exactly the nets that moved since then — the
  // dirty set IncrementalSignoff::update's contract requires. Seeded from
  // the refine input, which is what the probe's first (anchoring) sign-off
  // sees.
  const bool probing = options.signoff_probe_every > 0 && options.signoff_probe;
  std::vector<double> probe_xs = xs0;
  std::vector<double> probe_ys = ys0;
  SteinerForest probe_forest;
  if (probing) probe_forest = result.forest;
  // The probe callback may carry sign-off state anchored on a forest from an
  // earlier refine call (iterative rounds reuse one IncrementalSignoff); the
  // first probe of *this* call therefore declares every movable tree dirty —
  // a sound superset covering any divergence between that anchor and xs0.
  bool first_probe = true;
  static obs::Counter& m_probes = obs::metrics().counter("refine.signoff_probes");

  int t = 0;
  while (true) {
    TS_TRACE_SPAN_CAT("refine.iteration", "tsteiner");
    WallTimer iter_timer;
    obs::RefineIterationRecord rec;
    rec.iter = t;
    rec.theta = so.theta();
    // lambda schedule: +1% per iteration from kLambdaGrowthStart on.
    if (t >= kLambdaGrowthStart) {
      weights.lambda_w *= 1.0 + options.lambda_growth;
      weights.lambda_t *= 1.0 + options.lambda_growth;
    }
    rec.lambda_w = weights.lambda_w;
    rec.lambda_t = weights.lambda_t;
    GradientResult g;
    {
      TS_TRACE_SPAN_CAT("refine.gradient", "tsteiner");
      ScopedTimer timer(result.grad_replay);
      g = evaluator->gradients(xs, ys, weights);
    }
    double grad_sq = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      grad_sq += g.grad_x[i] * g.grad_x[i] + g.grad_y[i] * g.grad_y[i];
    }
    rec.grad_norm = std::sqrt(grad_sq);
    prev_xs = xs;
    prev_ys = ys;
    so.step(xs, g.grad_x, max_step);
    so.step(ys, g.grad_y, max_step);
    clamp_all();
    double max_move = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double dx = xs[i] - prev_xs[i];
      const double dy = ys[i] - prev_ys[i];
      max_move = std::max(max_move, dx * dx + dy * dy);
    }
    rec.max_move = std::sqrt(max_move);

    GradientResult cur;
    {
      TS_TRACE_SPAN_CAT("refine.evaluate", "tsteiner");
      ScopedTimer timer(result.grad_replay);
      cur = evaluator->evaluate(xs, ys, weights);
    }
    result.wns_trace.push_back(cur.eval_wns_ns);
    result.tns_trace.push_back(cur.eval_tns_ns);
    rec.wns = cur.eval_wns_ns;
    rec.tns = cur.eval_tns_ns;
    const double tol_wns = kAcceptTolerance * std::abs(result.init_wns);
    const double tol_tns = kAcceptTolerance * std::abs(result.init_tns);
    if (cur.eval_wns_ns > best_wns + tol_wns || cur.eval_tns_ns > best_tns + tol_tns) {
      best_wns = std::max(best_wns, cur.eval_wns_ns);
      best_tns = std::max(best_tns, cur.eval_tns_ns);
      best_xs = xs;
      best_ys = ys;
      rec.accepted = true;
      m_accepted.add();
      if (options.theta_backtrack < 1.0) {
        so.set_theta(std::min(result.theta,
                              so.theta() / std::pow(options.theta_backtrack, 0.25)));
      }
    } else {
      xs = best_xs;  // restore S_T^(t) from the previous accepted iterate
      ys = best_ys;
      m_rejected.add();
      if (options.theta_backtrack < 1.0) {
        so.set_theta(std::max(1e-4, so.theta() * options.theta_backtrack));
        m_backtracks.add();
      }
    }
    rec.best_wns = best_wns;
    rec.best_tns = best_tns;
    if (probing && (t + 1) % options.signoff_probe_every == 0) {
      TS_TRACE_SPAN_CAT("refine.signoff_probe", "tsteiner");
      // Bitwise coordinate diff vs. the last probe -> dirty nets. The kept
      // iterate (accepted, or restored best) is what gets probed, so the
      // trajectory the sign-off telemetry shows is the one refine keeps.
      std::vector<int> dirty;
      std::vector<char> tree_seen(result.forest.trees.size(), 0);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (!first_probe && xs[i] == probe_xs[i] && ys[i] == probe_ys[i]) continue;
        const int tr = result.forest.movable()[i].tree;
        if (tree_seen[static_cast<std::size_t>(tr)]) continue;
        tree_seen[static_cast<std::size_t>(tr)] = 1;
        dirty.push_back(result.forest.trees[static_cast<std::size_t>(tr)].net);
      }
      first_probe = false;
      probe_xs = xs;
      probe_ys = ys;
      probe_forest.scatter_xy(xs, ys);
      const SignoffProbeResult probe = options.signoff_probe(probe_forest, dirty);
      m_probes.add();
      rec.has_signoff = true;
      rec.signoff_wns = probe.wns_ns;
      rec.signoff_tns = probe.tns_ns;
      rec.signoff_incremental = probe.incremental;
      rec.signoff_dirty_frac =
          design.nets().empty()
              ? 0.0
              : static_cast<double>(dirty.size()) / static_cast<double>(design.nets().size());
    }
    rec.wall_s = iter_timer.seconds();
    m_iterations.add();
    m_theta.set(so.theta());
    m_lambda_w.set(weights.lambda_w);
    m_lambda_t.set(weights.lambda_t);
    if (obs::iteration_log_enabled()) obs::log_refine_iteration(design.name(), rec);
    if (options.iteration_sink) options.iteration_sink(rec);
    result.iteration_log.push_back(rec);
    ++t;
    if (t >= options.max_iterations) break;
    const auto improved = [&](double init_v, double best_v) {
      if (init_v >= 0.0) return false;  // no violation to fix
      return (init_v - best_v) / init_v > options.mu;
    };
    if (improved(result.init_wns, best_wns) || improved(result.init_tns, best_tns)) {
      result.converged_by_ratio = true;
      break;
    }
  }

  result.iterations = t;
  result.best_wns = best_wns;
  result.best_tns = best_tns;
  const auto rel_gain = [](double init_v, double best_v) {
    return init_v < 0.0 ? (init_v - best_v) / init_v : 0.0;
  };
  if (rel_gain(result.init_wns, best_wns) < options.min_return_improvement &&
      rel_gain(result.init_tns, best_tns) < options.min_return_improvement) {
    best_xs = xs0;  // below the evaluator's resolution: keep the baseline
    best_ys = ys0;
    result.best_wns = result.init_wns;
    result.best_tns = result.init_tns;
  }
  result.forest.scatter_xy(best_xs, best_ys);
  result.forest.clamp_steiner_points(boundary);
  result.forest.round_steiner_points();  // the paper's post-processing rounding
  if (obs::run_report_enabled()) {
    obs::RefineRunRecord run;
    run.design = design.name();
    run.iterations = result.iterations;
    run.converged_by_ratio = result.converged_by_ratio;
    run.init_wns = result.init_wns;
    run.init_tns = result.init_tns;
    run.best_wns = result.best_wns;
    run.best_tns = result.best_tns;
    run.theta = result.theta;
    run.iters = result.iteration_log;
    obs::run_report().add_refine(std::move(run));
  }
  TS_VERBOSE("TSteiner %s: %d iters, WNS %.3f -> %.3f, TNS %.1f -> %.1f (model eval)",
             design.name().c_str(), t, result.init_wns, best_wns, result.init_tns, best_tns);
  return result;
}

}  // namespace tsteiner
