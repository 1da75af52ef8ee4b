// Concurrent timing-driven Steiner point refinement (Algorithm 1).
//
// Fully automated per the paper: the stepsize theta comes from the
// Barzilai-Borwein-like Adaptive_Theta probe (Eq. 8-9), lambda_w / lambda_t
// grow 1% per iteration starting from iteration 5, moves are clamped to the
// grid-graph boundary and to a per-design maximum distance tied to the gcell
// dimensions, the loop keeps the best (model-evaluated) solution and restores
// it on regression, and it stops at N iterations or once WNS *or* TNS has
// improved by the converge ratio mu.
#pragma once

#include <functional>
#include <vector>

#include "gnn/model.hpp"
#include "obs/report.hpp"
#include "steiner/steiner_tree.hpp"
#include "tsteiner/gradient.hpp"
#include "tsteiner/optimizer.hpp"
#include "tsteiner/penalty.hpp"

namespace tsteiner {

/// What a periodic sign-off probe reports back to the refine loop (for
/// telemetry only — the loop's keep-best decisions stay model-driven).
struct SignoffProbeResult {
  double wns_ns = 0.0;
  double tns_ns = 0.0;
  bool incremental = false;  ///< served by the incremental update path
};

/// Sign-off probe callback: `dirty_nets` lists every net whose tree
/// (coordinates, pins or edges) changed since the previous call of the same
/// callback within one refine_steiner_points call — exactly the set
/// IncrementalSignoff::update needs under the dirty-net contract
/// (docs/incremental.md). The first call lists every net whose tree has a
/// Steiner point.
using SignoffProbeFn =
    std::function<SignoffProbeResult(const SteinerForest&, const std::vector<int>&)>;

/// Stateless full sign-off callback (callers wire Flow::run_signoff) — the
/// keep-best anchor of the topology-search rounds.
using SignoffAnchorFn = std::function<SignoffProbeResult(const SteinerForest&)>;

/// Alternating discrete-search / gradient refinement (ROADMAP item 4).
///
/// When enabled, refine_steiner_points runs `rounds` alternations of (a) a
/// deterministic MCTS over topology edits of the highest-|gradient| nets,
/// scored by the retained-autodiff penalty replay and episodically gated by
/// `episodic_signoff` on the edited net's dirty set, and (b) a gradient
/// segment of `gradient_iterations` classic iterations on the (possibly
/// re-shaped) forest, replaying the round's program and re-recording it only
/// when an edit or a keep-best restart changed the forest's shape.
/// `full_signoff` anchors keep-best across rounds; if the anchor never
/// improves, the initial forest passes through unchanged.
///
/// Off (the default) is byte-identical to the classic fixed-topology loop.
/// On, results are bit-identical at any pool width and across reruns: all
/// search randomness comes from Rng::mix substreams keyed by
/// (seed, round, net, edit-path).
struct TopologyOptions {
  bool enabled = false;
  int rounds = 3;
  int gradient_iterations = 12;
  int nets_per_round = 4;     ///< top-|gradient| trees searched per round
  int rollouts = 12;          ///< MCTS leaf evaluations per searched net
  int max_depth = 2;          ///< longest edit sequence per candidate
  int max_candidates = 8;     ///< proposals enumerated per search node
  /// Episodic reward: sign-off restricted to the dirty-net set of the edit
  /// under test (callers wire IncrementalSignoff::update — the same
  /// dirty-net contract as RefineOptions::signoff_probe). Absent, edits are
  /// accepted on the model score alone.
  SignoffProbeFn episodic_signoff;
  /// Keep-best anchor at round boundaries; absent, the model evaluation of
  /// the whole forest anchors instead.
  SignoffAnchorFn full_signoff;
};

struct RefineOptions {
  PenaltyWeights weights;          ///< lambda_w = -200, lambda_t = -2, gamma = 10
  double lambda_growth = 0.01;     ///< +1% per iteration from the 5th
  double alpha = 5.0;              ///< Adaptive_Theta probe scale (Eq. 8)
  double mu = 0.1;                 ///< converge ratio
  int max_iterations = 40;         ///< N
  /// Return the *initial* forest unless the model-evaluated WNS or TNS
  /// improved by at least this fraction overall. Claimed gains below the
  /// evaluator's resolution do not transfer to sign-off (they are model
  /// misfit, not timing), so the flow passes the baseline trees through
  /// unchanged — the paper's near-1.000 WL/via ratios behave the same way.
  double min_return_improvement = 0.015;
  SoOptions so;                    ///< Eq. 7 hyper-parameters
  std::int64_t gcell_size = 8;
  bool use_adaptive_theta = true;  ///< ablation: fixed stepsize below
  double fixed_theta = 0.5;
  /// Backtracking: multiply theta by this on every rejected iterate (and by
  /// its inverse fourth root on acceptance, capped at the initial theta).
  /// 1.0 disables backtracking and reproduces the paper's fixed-theta loop.
  double theta_backtrack = 0.7;
  /// Observational sign-off probe: every `signoff_probe_every` iterations
  /// (after the accept/reject decision) the loop snapshots the kept iterate
  /// and calls `signoff_probe` with the nets whose coordinates changed since
  /// the previous probe. 0 disables. Results land in the iteration telemetry
  /// (signoff_* fields); the refine trajectory is unaffected.
  int signoff_probe_every = 0;
  SignoffProbeFn signoff_probe;
  /// Streaming consumer of per-iteration telemetry: invoked with each
  /// completed record as it is appended to RefineResult::iteration_log
  /// (tsteiner_serve forwards these as progress frames). Purely
  /// observational — the refine trajectory is unaffected.
  std::function<void(const obs::RefineIterationRecord&)> iteration_sink;
  /// Discrete topology search interleaved with the gradient loop; disabled
  /// by default (bit-identical classic behavior).
  TopologyOptions topology;
};

struct RefineResult {
  SteinerForest forest;
  int iterations = 0;
  bool converged_by_ratio = false;
  double theta = 0.0;
  /// Model-evaluated metrics (ns), before and after.
  double init_wns = 0.0, init_tns = 0.0;
  double best_wns = 0.0, best_tns = 0.0;
  /// Per-iteration telemetry: model-evaluated WNS/TNS, theta, gradient
  /// norm, applied move, lambda schedule, accept decision, and
  /// per-iteration wall time. Always populated; also streamed as JSONL when
  /// TSTEINER_REFINE_LOG is set and embedded in the TSTEINER_RUN_REPORT
  /// artifact (docs/observability.md). `iter` counts 0..n-1 over the whole
  /// call and best_wns/best_tns are the best seen so far in the call.
  std::vector<obs::RefineIterationRecord> iteration_log;
};

/// Runs Algorithm 1 on a copy of `initial` and returns the refined forest.
/// The model must have been trained for the design's technology; the graph
/// cache is built internally from the initial topology. With
/// options.topology.enabled the gradient descent runs as the segments of
/// the alternating search + gradient rounds instead. Either way the call
/// adds one record to the run report.
RefineResult refine_steiner_points(const Design& design, const SteinerForest& initial,
                                   const TimingGnn& model, const RefineOptions& options = {});

/// Adaptive stepsize (Eq. 9): theta = |x - x'|_2 / |g(x) - g(x')|_2 with
/// x' = x + alpha * g(x). The gradient at x is taken from `g0` (the caller
/// already has it — refine computes it once and shares it) and the probe
/// point's gradient comes from a replay of `evaluator`.
double adaptive_theta(GradientEvaluator& evaluator, const std::vector<double>& xs,
                      const std::vector<double>& ys, const PenaltyWeights& weights,
                      double alpha, const GradientResult& g0);

}  // namespace tsteiner
