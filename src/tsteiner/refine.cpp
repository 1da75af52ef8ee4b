// Algorithm 1 and its topology-search extension (RefineOptions::topology).
//
// One fixed-topology descent (RefineRun::descend) serves both paths: the
// classic call runs it once on a program recorded for the input forest, and
// each topology round runs it as the round's gradient segment on the program
// the round already holds. Around it a call keeps one telemetry emitter and
// one dirty-net tracker per sign-off callback.
//
// A topology round runs a deterministic MCTS over the highest-|gradient|
// nets' topology edits before its segment. Three scoring tiers, cheap to
// expensive:
//
//   1. model score  — the retained-autodiff penalty replay for
//      shape-preserving (all-reshift) candidates, a cache + tape rebuild for
//      shape-changing ones; MCTS node expansion runs on this tier alone.
//   2. episodic     — IncrementalSignoff on the edited net's dirty set
//      (TopologyOptions::episodic_signoff) gates each net's chosen edit
//      sequence: no sign-off gain, no edit. Reverts re-declare the net dirty
//      (geometry changed back) per the incremental dirty-net contract.
//   3. anchor       — the full sign-off (TopologyOptions::full_signoff)
//      keeps the best forest across rounds; if it never improves on the
//      input, the input passes through unchanged.
//
// Determinism: the search itself is serial over nets (the scoring underneath
// uses the bit-identical parallel pool), every random draw comes from
// Rng::mix substreams keyed by (seed, round, net, edit-path), and ties break
// by index — so results are bit-identical at any pool width and across
// reruns. Reusing a program for a forest of the same shape is bit-exact
// because a GraphCache holds no Steiner coordinates (tests/replay_test).
#include "tsteiner/refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "search/mcts.hpp"
#include "tsteiner/gradient.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

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

/// Root of the topology search's Rng::mix substreams.
constexpr std::uint64_t kTopologySeed = 0x70b0u;

/// Combined normalized improvement of `a` over `b`; positive = better.
double improvement(const SignoffProbeResult& a, const SignoffProbeResult& b, double wns_scale,
                   double tns_scale) {
  return (a.wns_ns - b.wns_ns) / wns_scale + (a.tns_ns - b.tns_ns) / tns_scale;
}

double scale_of(double v) { return std::max(std::abs(v), 1e-9); }

bool same_tree(const SteinerTree& a, const SteinerTree& b) {
  if (a.nodes.size() != b.nodes.size() || a.edges.size() != b.edges.size()) return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].pos.x != b.nodes[i].pos.x || a.nodes[i].pos.y != b.nodes[i].pos.y ||
        a.nodes[i].pin != b.nodes[i].pin) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].a != b.edges[i].a || a.edges[i].b != b.edges[i].b) return false;
  }
  return true;
}

/// Dirty-net bookkeeping for one sign-off callback that keeps state across
/// calls (IncrementalSignoff::update's dirty-net contract,
/// docs/incremental.md): remembers the forest the callback last saw.
class DirtyNetTracker {
 public:
  /// The nets whose tree differs from the previous call's forest
  /// (coordinates, pins or edges), in tree order; call it with exactly the
  /// forest the callback is about to see. The first call declares every net
  /// whose tree has a Steiner point, a sound superset when the callback's
  /// state is anchored on an earlier forest of the same topology (iterative
  /// rounds reuse one IncrementalSignoff).
  std::vector<int> dirty_nets(const SteinerForest& forest) {
    std::vector<int> dirty;
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      const SteinerTree& tree = forest.trees[t];
      const bool changed = seen_ ? t >= seen_->trees.size() || !same_tree(tree, seen_->trees[t])
                                 : tree.num_steiner_nodes() > 0;
      if (changed) dirty.push_back(tree.net);
    }
    seen_ = forest;
    return dirty;
  }

 private:
  std::optional<SteinerForest> seen_;
};

/// What one fixed-topology descent reports back to its caller.
struct Descent {
  bool converged_by_ratio = false;
  double theta = 0.0;
  double init_wns = 0.0, init_tns = 0.0;
  double best_wns = 0.0, best_tns = 0.0;
};

/// One refine_steiner_points call: the working forest (in `result`), the
/// program replayed on it, the telemetry emitter and the periodic probe's
/// dirty-net tracker.
class RefineRun {
 public:
  RefineRun(const Design& design, const TimingGnn& model, const RefineOptions& options,
            RefineResult& result)
      : design_(design), model_(model), options_(options), result_(result) {}

  void classic();
  void search_and_descend(const SteinerForest& initial);
  /// Closes the call: its iteration count and its one run-report record.
  void finish();

 private:
  /// The one telemetry emitter: numbers the record, raises best_wns/best_tns
  /// to the best so far in the call, and feeds the JSONL stream, the sink and
  /// the result's traces and log.
  void emit(obs::RefineIterationRecord rec);
  /// Builds the graph cache of the working forest and records (or rebinds)
  /// the program on it.
  void record();
  /// Algorithm 1 on the working forest's Steiner coordinates, its topology
  /// fixed, replaying the program recorded for it. Leaves the kept iterate
  /// in the forest, clamped to the die and rounded; a forest without
  /// movable points is left alone.
  Descent descend(int max_iterations, double min_return_improvement);

  const Design& design_;
  const TimingGnn& model_;
  const RefineOptions& options_;
  RefineResult& result_;
  std::shared_ptr<const GraphCache> cache_;
  std::optional<GradientEvaluator> evaluator_;
  DirtyNetTracker probe_dirty_;
  int next_iter_ = 0;
  double best_wns_ = -std::numeric_limits<double>::infinity();
  double best_tns_ = -std::numeric_limits<double>::infinity();
};

void RefineRun::emit(obs::RefineIterationRecord rec) {
  rec.iter = next_iter_++;
  rec.best_wns = best_wns_ = std::max(rec.best_wns, best_wns_);
  rec.best_tns = best_tns_ = std::max(rec.best_tns, best_tns_);
  if (obs::iteration_log_enabled()) obs::log_refine_iteration(design_.name(), rec);
  if (options_.iteration_sink) options_.iteration_sink(rec);
  result_.iteration_log.push_back(rec);
}

void RefineRun::finish() {
  result_.iterations = next_iter_;
  if (!obs::run_report_enabled()) return;
  obs::RefineRunRecord run;
  run.design = design_.name();
  run.iterations = result_.iterations;
  run.converged_by_ratio = result_.converged_by_ratio;
  run.init_wns = result_.init_wns;
  run.init_tns = result_.init_tns;
  run.best_wns = result_.best_wns;
  run.best_tns = result_.best_tns;
  run.theta = result_.theta;
  run.iters = result_.iteration_log;
  obs::run_report().add_refine(std::move(run));
}

void RefineRun::record() {
  cache_ = build_graph_cache(design_, result_.forest);
  const std::vector<double> xs = result_.forest.gather_x();
  const std::vector<double> ys = result_.forest.gather_y();
  TS_TRACE_SPAN_CAT("refine.record", "tsteiner");
  if (evaluator_) {
    evaluator_->rebind(model_, *cache_, design_, xs, ys, options_.weights);
  } else {
    evaluator_.emplace(model_, *cache_, design_, xs, ys, options_.weights);
  }
}

Descent RefineRun::descend(int max_iterations, double min_return_improvement) {
  static obs::Counter& m_iterations = obs::metrics().counter("refine.iterations");
  static obs::Counter& m_accepted = obs::metrics().counter("refine.iter_accepted");
  static obs::Counter& m_rejected = obs::metrics().counter("refine.iter_rejected");
  static obs::Counter& m_backtracks = obs::metrics().counter("refine.backtracks");
  static obs::Counter& m_probes = obs::metrics().counter("refine.signoff_probes");
  static obs::Gauge& m_theta = obs::metrics().gauge("refine.theta");
  static obs::Gauge& m_lambda_w = obs::metrics().gauge("refine.lambda_w");
  static obs::Gauge& m_lambda_t = obs::metrics().gauge("refine.lambda_t");
  Descent d;
  SteinerForest& forest = result_.forest;
  if (forest.num_movable() == 0) return d;
  GradientEvaluator& evaluator = *evaluator_;
  std::vector<double> xs = forest.gather_x();
  std::vector<double> ys = forest.gather_y();

  PenaltyWeights weights = options_.weights;
  GradientResult init;
  {
    TS_TRACE_SPAN_CAT("refine.gradient", "tsteiner");
    init = evaluator.gradients(xs, ys, weights);
  }
  d.init_wns = init.eval_wns_ns;
  d.init_tns = init.eval_tns_ns;
  double best_wns = init.eval_wns_ns;
  double best_tns = init.eval_tns_ns;
  std::vector<double> best_xs = xs;
  std::vector<double> best_ys = ys;

  // Adaptive stepsize (Eq. 8-9), capped so one SO step cannot exceed the
  // per-iteration move bound (the memoryless update moves each coordinate by
  // ~theta * (1-beta1)/sqrt(1-beta2) regardless of gradient magnitude).
  const double max_total_move = kMaxMoveGcells * static_cast<double>(options_.gcell_size);
  const double max_step = kMaxStepGcells * static_cast<double>(options_.gcell_size);
  // The probe's g(x) is `init` — the same point and weights — so the
  // historical duplicate gradient evaluation is gone.
  double theta = options_.fixed_theta;
  if (options_.use_adaptive_theta) {
    TS_TRACE_SPAN_CAT("refine.adaptive_theta", "tsteiner");
    theta = adaptive_theta(evaluator, xs, ys, weights, options_.alpha, init);
  }
  const double step_gain = (1.0 - kSoBeta1) / std::sqrt(1.0 - kSoBeta2);
  theta = std::clamp(theta, 1e-3, max_step / std::max(1e-9, step_gain));
  d.theta = theta;

  // Calibrate Eq. 7's eps to the gradient scale: coordinates with |g| well
  // above the mean move ~theta (sign-like), low-gradient coordinates move
  // proportionally to g (soft-sign). Without this every Steiner point —
  // including the thousands parked at WL-optimal positions with negligible
  // timing gradient — would take a full-size step each iteration.
  SoOptions so_opts = options_.so;
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
  const RectI boundary = design_.die();
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
  const bool probing = options_.signoff_probe_every > 0 && options_.signoff_probe;

  int t = 0;
  while (true) {
    TS_TRACE_SPAN_CAT("refine.iteration", "tsteiner");
    WallTimer iter_timer;
    obs::RefineIterationRecord rec;
    rec.theta = so.theta();
    // lambda schedule: +1% per iteration from kLambdaGrowthStart on.
    if (t >= kLambdaGrowthStart) {
      weights.lambda_w *= 1.0 + options_.lambda_growth;
      weights.lambda_t *= 1.0 + options_.lambda_growth;
    }
    rec.lambda_w = weights.lambda_w;
    rec.lambda_t = weights.lambda_t;
    GradientResult g;
    {
      TS_TRACE_SPAN_CAT("refine.gradient", "tsteiner");
      g = evaluator.gradients(xs, ys, weights);
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
      cur = evaluator.evaluate(xs, ys, weights);
    }
    rec.wns = cur.eval_wns_ns;
    rec.tns = cur.eval_tns_ns;
    const double tol_wns = kAcceptTolerance * std::abs(d.init_wns);
    const double tol_tns = kAcceptTolerance * std::abs(d.init_tns);
    if (cur.eval_wns_ns > best_wns + tol_wns || cur.eval_tns_ns > best_tns + tol_tns) {
      best_wns = std::max(best_wns, cur.eval_wns_ns);
      best_tns = std::max(best_tns, cur.eval_tns_ns);
      best_xs = xs;
      best_ys = ys;
      rec.accepted = true;
      m_accepted.add();
      if (options_.theta_backtrack < 1.0) {
        so.set_theta(std::min(d.theta, so.theta() / std::pow(options_.theta_backtrack, 0.25)));
      }
    } else {
      xs = best_xs;  // restore S_T^(t) from the previous accepted iterate
      ys = best_ys;
      m_rejected.add();
      if (options_.theta_backtrack < 1.0) {
        so.set_theta(std::max(1e-4, so.theta() * options_.theta_backtrack));
        m_backtracks.add();
      }
    }
    rec.best_wns = best_wns;
    rec.best_tns = best_tns;
    if (probing && (t + 1) % options_.signoff_probe_every == 0) {
      TS_TRACE_SPAN_CAT("refine.signoff_probe", "tsteiner");
      // The kept iterate (accepted, or restored best) is what gets probed, so
      // the trajectory the sign-off telemetry shows is the one refine keeps.
      // The forest's coordinates are scratch until the final scatter below.
      forest.scatter_xy(xs, ys);
      const std::vector<int> dirty = probe_dirty_.dirty_nets(forest);
      const SignoffProbeResult probe = options_.signoff_probe(forest, dirty);
      m_probes.add();
      rec.has_signoff = true;
      rec.signoff_wns = probe.wns_ns;
      rec.signoff_tns = probe.tns_ns;
      rec.signoff_incremental = probe.incremental;
      rec.signoff_dirty_frac =
          design_.nets().empty()
              ? 0.0
              : static_cast<double>(dirty.size()) / static_cast<double>(design_.nets().size());
    }
    rec.wall_s = iter_timer.seconds();
    m_iterations.add();
    m_theta.set(so.theta());
    m_lambda_w.set(weights.lambda_w);
    m_lambda_t.set(weights.lambda_t);
    emit(rec);
    ++t;
    if (t >= max_iterations) break;
    const auto improved = [&](double init_v, double best_v) {
      if (init_v >= 0.0) return false;  // no violation to fix
      return (init_v - best_v) / init_v > options_.mu;
    };
    if (improved(d.init_wns, best_wns) || improved(d.init_tns, best_tns)) {
      d.converged_by_ratio = true;
      break;
    }
  }

  d.best_wns = best_wns;
  d.best_tns = best_tns;
  const auto rel_gain = [](double init_v, double best_v) {
    return init_v < 0.0 ? (init_v - best_v) / init_v : 0.0;
  };
  if (rel_gain(d.init_wns, best_wns) < min_return_improvement &&
      rel_gain(d.init_tns, best_tns) < min_return_improvement) {
    best_xs = xs0;  // below the evaluator's resolution: keep the baseline
    best_ys = ys0;
    d.best_wns = d.init_wns;
    d.best_tns = d.init_tns;
  }
  forest.scatter_xy(best_xs, best_ys);
  forest.clamp_steiner_points(boundary);
  forest.round_steiner_points();  // the paper's post-processing rounding
  return d;
}

void RefineRun::classic() {
  record();
  const Descent d = descend(options_.max_iterations, options_.min_return_improvement);
  result_.converged_by_ratio = d.converged_by_ratio;
  result_.theta = d.theta;
  result_.init_wns = d.init_wns;
  result_.init_tns = d.init_tns;
  result_.best_wns = d.best_wns;
  result_.best_tns = d.best_tns;
}

void RefineRun::search_and_descend(const SteinerForest& initial) {
  static obs::Counter& m_rounds = obs::metrics().counter("search.rounds");
  static obs::Counter& m_nets = obs::metrics().counter("search.nets_searched");
  static obs::Counter& m_applied = obs::metrics().counter("search.edits_applied");
  static obs::Counter& m_rejected = obs::metrics().counter("search.edits_rejected");
  static obs::Counter& m_rebuilds = obs::metrics().counter("search.tape_rebuilds");
  static obs::Counter& m_episodic = obs::metrics().counter("search.episodic_probes");
  static obs::Counter& m_episodic_rejects = obs::metrics().counter("search.episodic_rejects");

  const TopologyOptions& topo = options_.topology;
  SteinerForest& forest = result_.forest;
  const RectI die = design_.die();
  const PenaltyWeights weights = options_.weights;

  // Keep-best anchor of the working forest, which the program always holds.
  const auto anchor = [&]() -> SignoffProbeResult {
    if (topo.full_signoff) return topo.full_signoff(forest);
    const GradientResult g = evaluator_->evaluate(forest.gather_x(), forest.gather_y(), weights);
    return {g.eval_wns_ns, g.eval_tns_ns, false};
  };

  record();  // round 0's program, which also gives the initial evaluation
  {
    const GradientResult init =
        evaluator_->evaluate(forest.gather_x(), forest.gather_y(), weights);
    result_.init_wns = init.eval_wns_ns;
    result_.init_tns = init.eval_tns_ns;
  }
  const SignoffProbeResult init_anchor = anchor();
  SignoffProbeResult best_anchor = init_anchor;
  SteinerForest best_forest = forest;
  const double anchor_sw = scale_of(init_anchor.wns_ns);
  const double anchor_st = scale_of(init_anchor.tns_ns);

  const bool episodic = static_cast<bool>(topo.episodic_signoff);
  DirtyNetTracker episodic_dirty;
  SignoffProbeResult episodic_baseline{};
  const auto episodic_probe = [&](const SteinerForest& f) {
    m_episodic.add();
    return topo.episodic_signoff(f, episodic_dirty.dirty_nets(f));
  };

  for (int round = 0; round < topo.rounds; ++round) {
    TS_TRACE_SPAN_CAT("refine.search_round", "tsteiner");
    m_rounds.add();
    WallTimer round_timer;
    obs::RefineIterationRecord rec;
    rec.topology_round = true;
    rec.lambda_w = weights.lambda_w;
    rec.lambda_t = weights.lambda_t;

    // --- search phase -----------------------------------------------------
    std::vector<double> xs = forest.gather_x();
    std::vector<double> ys = forest.gather_y();
    const GradientResult g = evaluator_->gradients(xs, ys, weights);
    double cur_wns = g.eval_wns_ns;
    double cur_tns = g.eval_tns_ns;
    double grad_sq = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      grad_sq += g.grad_x[i] * g.grad_x[i] + g.grad_y[i] * g.grad_y[i];
    }
    rec.grad_norm = std::sqrt(grad_sq);

    // Net selection: rank trees by the timing pressure the gradient puts on
    // their Steiner points; ties break by tree index.
    std::vector<double> tree_grad(forest.trees.size(), 0.0);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const MovableRef& ref = forest.movable()[i];
      tree_grad[static_cast<std::size_t>(ref.tree)] +=
          std::abs(g.grad_x[i]) + std::abs(g.grad_y[i]);
    }
    std::vector<int> ranked;
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      if (forest.trees[t].nodes.size() >= 3) ranked.push_back(static_cast<int>(t));
    }
    std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
      const double ga = tree_grad[static_cast<std::size_t>(a)];
      const double gb = tree_grad[static_cast<std::size_t>(b)];
      if (ga != gb) return ga > gb;
      return a < b;
    });
    if (static_cast<int>(ranked.size()) > topo.nets_per_round) {
      ranked.resize(static_cast<std::size_t>(topo.nets_per_round));
    }

    if (episodic && !ranked.empty()) episodic_baseline = episodic_probe(forest);

    int edits_applied = 0;
    int edits_rejected = 0;
    for (int t : ranked) {
      m_nets.add();
      const SteinerTree& tree = forest.trees[static_cast<std::size_t>(t)];
      const int net = tree.net;
      // Movable span of tree t (contiguous, in node order) for the
      // shape-preserving replay fast path.
      std::size_t span_lo = 0, span_hi = 0;
      {
        const std::vector<MovableRef>& mov = forest.movable();
        while (span_lo < mov.size() && mov[span_lo].tree < t) ++span_lo;
        span_hi = span_lo;
        while (span_hi < mov.size() && mov[span_hi].tree == t) ++span_hi;
      }
      const double model_sw = scale_of(cur_wns);
      const double model_st = scale_of(cur_tns);

      search::MctsOptions mcts;
      mcts.rollouts = topo.rollouts;
      mcts.max_depth = topo.max_depth;
      mcts.seed = kTopologySeed;
      mcts.edits.max_candidates = topo.max_candidates;
      const search::TopoScoreFn score = [&](const SteinerTree& cand, bool shape_changed) {
        GradientResult ev;
        if (!shape_changed) {
          // Tier 1a: the edit only moved coordinates — replay the retained
          // program with the tree's span updated (dirty-group replay).
          std::vector<double> cand_xs = xs;
          std::vector<double> cand_ys = ys;
          for (std::size_t i = span_lo; i < span_hi; ++i) {
            const std::size_t node = static_cast<std::size_t>(forest.movable()[i].node);
            cand_xs[i] = cand.nodes[node].pos.x;
            cand_ys[i] = cand.nodes[node].pos.y;
          }
          ev = evaluator_->evaluate(cand_xs, cand_ys, weights);
        } else {
          // Tier 1b: the tape's shape changed — rebuild cache + tape for
          // the candidate forest.
          m_rebuilds.add();
          SteinerForest scratch = forest;
          scratch.replace_tree(t, cand);
          const auto scratch_cache = build_graph_cache(design_, scratch);
          ev = evaluate_timing(model_, *scratch_cache, design_, scratch.gather_x(),
                               scratch.gather_y(), weights);
        }
        return (ev.eval_wns_ns - cur_wns) / model_sw + (ev.eval_tns_ns - cur_tns) / model_st;
      };

      const search::MctsResult found =
          search_tree_edits(tree, die, static_cast<std::uint64_t>(round),
                            static_cast<std::uint64_t>(net), score, mcts);
      edits_rejected += static_cast<int>(found.stats.rejected);
      if (found.best_path.empty() || found.best_score <= 0.0) continue;

      SteinerForest cand_forest = forest;
      cand_forest.replace_tree(t, found.best_tree);
      if (episodic) {
        // Tier 2: the net's chosen sequence must pay off under sign-off
        // restricted to its own dirty set.
        const SignoffProbeResult after = episodic_probe(cand_forest);
        if (improvement(after, episodic_baseline, anchor_sw, anchor_st) <= 0.0) {
          m_episodic_rejects.add();
          // The callback's state saw the candidate; re-anchor it on the kept
          // forest now (the revert re-declares the net dirty).
          episodic_baseline = episodic_probe(forest);
          edits_rejected += static_cast<int>(found.best_path.size());
          continue;
        }
        episodic_baseline = after;
      }
      bool shape_changed = false;
      for (const search::TopologyEdit& e : found.best_path) {
        shape_changed = shape_changed || !search::shape_preserving(e);
      }
      forest = std::move(cand_forest);
      edits_applied += static_cast<int>(found.best_path.size());
      xs = forest.gather_x();
      ys = forest.gather_y();
      if (shape_changed) {
        record();
        m_rebuilds.add();
      }
      const GradientResult ev = evaluator_->evaluate(xs, ys, weights);
      cur_wns = ev.eval_wns_ns;
      cur_tns = ev.eval_tns_ns;
    }
    m_applied.add(static_cast<std::uint64_t>(edits_applied));
    m_rejected.add(static_cast<std::uint64_t>(edits_rejected));

    // Anchor the post-search forest too: a gradient segment can wander off a
    // sign-off gain the accepted edits just banked (the model is a learned
    // proxy), and keep-best must not lose it. With the episodic reward wired
    // its last probe IS the full sign-off of the current forest
    // (IncrementalSignoff::update is bit-identical to run_signoff under the
    // dirty-net contract), so no extra sign-off run is needed.
    if (edits_applied > 0) {
      const SignoffProbeResult post_search = episodic ? episodic_baseline : anchor();
      if (improvement(post_search, best_anchor, anchor_sw, anchor_st) > 0.0) {
        best_anchor = post_search;
        best_forest = forest;
      }
    }

    rec.wns = cur_wns;
    rec.tns = cur_tns;
    rec.best_wns = cur_wns;
    rec.best_tns = cur_tns;
    rec.accepted = edits_applied > 0;
    rec.search_nets = static_cast<int>(ranked.size());
    rec.search_edits_applied = edits_applied;
    rec.search_edits_rejected = edits_rejected;
    rec.wall_s = round_timer.seconds();
    emit(rec);

    // --- gradient phase: the classic descent on the program held for the
    // current shape; the outer anchor owns pass-through ---------------------
    result_.theta = descend(topo.gradient_iterations, /*min_return_improvement=*/0.0).theta;

    // --- keep-best anchor -------------------------------------------------
    const SignoffProbeResult anchored = anchor();
    if (improvement(anchored, best_anchor, anchor_sw, anchor_st) > 0.0) {
      best_anchor = anchored;
      best_forest = forest;
    } else if (round + 1 < topo.rounds) {
      forest = best_forest;  // restart the next round from the best forest
      record();
    }
  }

  if (improvement(best_anchor, init_anchor, anchor_sw, anchor_st) <= 0.0) {
    // The anchor never improved: pass the input through unchanged (the
    // topology-search analogue of min_return_improvement).
    forest = initial;
    forest.build_movable_index();
    result_.best_wns = result_.init_wns;
    result_.best_tns = result_.init_tns;
  } else {
    forest = std::move(best_forest);
    record();
    const GradientResult fin = evaluator_->evaluate(forest.gather_x(), forest.gather_y(), weights);
    result_.best_wns = fin.eval_wns_ns;
    result_.best_tns = fin.eval_tns_ns;
  }
}

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
  TS_TRACE_SPAN_CAT("tsteiner.refine", "tsteiner");
  RefineResult result;
  result.forest = initial;
  result.forest.build_movable_index();
  if (result.forest.num_movable() == 0) return result;  // nothing to refine

  RefineRun run(design, model, options, result);
  if (options.topology.enabled) {
    run.search_and_descend(initial);
  } else {
    run.classic();
  }
  run.finish();
  TS_VERBOSE("TSteiner %s: %d iters, WNS %.3f -> %.3f, TNS %.1f -> %.1f (model eval)",
             design.name().c_str(), result.iterations, result.init_wns, result.best_wns,
             result.init_tns, result.best_tns);
  return result;
}

}  // namespace tsteiner
