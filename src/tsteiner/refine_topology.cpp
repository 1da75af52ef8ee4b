// Alternating discrete-topology search + gradient refinement
// (RefineOptions::topology, ROADMAP item 4).
//
// Each round runs a deterministic MCTS over the highest-|gradient| nets'
// topology edits, then a classic gradient segment on the (possibly
// re-shaped) forest. Three scoring tiers, cheap to expensive:
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
// reruns. With topology disabled this file is never entered and the classic
// loop's bytes are untouched.
#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "search/mcts.hpp"
#include "tsteiner/refine.hpp"
#include "util/log.hpp"

namespace tsteiner::detail {

namespace {

/// Combined normalized improvement of `a` over `b`; positive = better.
double improvement(const SignoffProbeResult& a, const SignoffProbeResult& b, double wns_scale,
                   double tns_scale) {
  return (a.wns_ns - b.wns_ns) / wns_scale + (a.tns_ns - b.tns_ns) / tns_scale;
}

double scale_of(double v) { return std::max(std::abs(v), 1e-9); }

}  // namespace

RefineResult refine_with_topology_search(const Design& design, const SteinerForest& initial,
                                         const TimingGnn& model, const RefineOptions& options) {
  TS_TRACE_SPAN_CAT("tsteiner.refine_topology", "tsteiner");
  static obs::Counter& m_rounds = obs::metrics().counter("search.rounds");
  static obs::Counter& m_nets = obs::metrics().counter("search.nets_searched");
  static obs::Counter& m_applied = obs::metrics().counter("search.edits_applied");
  static obs::Counter& m_rejected = obs::metrics().counter("search.edits_rejected");
  static obs::Counter& m_rebuilds = obs::metrics().counter("search.tape_rebuilds");
  static obs::Counter& m_episodic = obs::metrics().counter("search.episodic_probes");
  static obs::Counter& m_episodic_rejects = obs::metrics().counter("search.episodic_rejects");

  const TopologyOptions& topo = options.topology;
  RefineResult result;
  result.forest = initial;
  result.forest.build_movable_index();
  if (result.forest.num_movable() == 0) return result;  // nothing to refine

  const RectI die = design.die();
  const PenaltyWeights weights = options.weights;

  // Fresh-tape model evaluation of an arbitrary forest (round boundaries;
  // the per-candidate scoring below replays the retained program instead
  // whenever the shape allows).
  const auto model_eval = [&](const SteinerForest& f) {
    const auto cache = build_graph_cache(design, f);
    ScopedTimer timer(result.grad_record);
    return evaluate_timing(model, *cache, design, f.gather_x(), f.gather_y(), weights);
  };

  const GradientResult init_eval = model_eval(result.forest);
  result.init_wns = init_eval.eval_wns_ns;
  result.init_tns = init_eval.eval_tns_ns;

  const auto anchor_of = [&](const SteinerForest& f,
                             const GradientResult* have) -> SignoffProbeResult {
    if (topo.full_signoff) return topo.full_signoff(f);
    const GradientResult g = have != nullptr ? *have : model_eval(f);
    return {g.eval_wns_ns, g.eval_tns_ns, false};
  };
  const SignoffProbeResult init_anchor = anchor_of(result.forest, &init_eval);
  SignoffProbeResult best_anchor = init_anchor;
  SteinerForest best_forest = result.forest;
  const double anchor_sw = scale_of(init_anchor.wns_ns);
  const double anchor_st = scale_of(init_anchor.tns_ns);

  // Episodic probe bookkeeping: `pending_dirty` holds every net whose
  // geometry changed (including reverts) since the episodic callback last
  // saw the forest — the dirty-net contract of IncrementalSignoff::update.
  // The first call declares every net, a sound superset covering whatever
  // forest the caller's sign-off state was anchored on.
  const bool episodic = static_cast<bool>(topo.episodic_signoff);
  std::vector<char> pending_dirty(design.nets().size(), 0);
  bool first_probe = true;
  SignoffProbeResult episodic_baseline{};
  const auto episodic_probe = [&](const SteinerForest& f, int extra_net) {
    std::vector<int> dirty;
    for (std::size_t net = 0; net < pending_dirty.size(); ++net) {
      const bool all = first_probe && net < f.net_to_tree.size() && f.net_to_tree[net] >= 0;
      if (all || pending_dirty[net] || static_cast<int>(net) == extra_net) {
        dirty.push_back(static_cast<int>(net));
      }
    }
    first_probe = false;
    std::fill(pending_dirty.begin(), pending_dirty.end(), 0);
    m_episodic.add();
    return topo.episodic_signoff(f, dirty);
  };

  int global_iter = 0;
  for (int round = 0; round < topo.rounds; ++round) {
    TS_TRACE_SPAN_CAT("refine.search_round", "tsteiner");
    m_rounds.add();
    WallTimer round_timer;
    obs::RefineIterationRecord rec;
    rec.topology_round = true;
    rec.iter = global_iter;
    rec.lambda_w = weights.lambda_w;
    rec.lambda_t = weights.lambda_t;

    // --- search phase -----------------------------------------------------
    auto cache = build_graph_cache(design, result.forest);
    std::vector<double> xs = result.forest.gather_x();
    std::vector<double> ys = result.forest.gather_y();
    std::optional<GradientEvaluator> evaluator;
    {
      ScopedTimer timer(result.grad_record);
      evaluator.emplace(model, *cache, design, xs, ys, weights);
    }
    GradientResult g;
    {
      ScopedTimer timer(result.grad_replay);
      g = evaluator->gradients(xs, ys, weights);
    }
    double cur_wns = g.eval_wns_ns;
    double cur_tns = g.eval_tns_ns;
    double grad_sq = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      grad_sq += g.grad_x[i] * g.grad_x[i] + g.grad_y[i] * g.grad_y[i];
    }
    rec.grad_norm = std::sqrt(grad_sq);

    // Net selection: rank trees by the timing pressure the gradient puts on
    // their Steiner points; ties break by tree index.
    std::vector<double> tree_grad(result.forest.trees.size(), 0.0);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const MovableRef& ref = result.forest.movable()[i];
      tree_grad[static_cast<std::size_t>(ref.tree)] +=
          std::abs(g.grad_x[i]) + std::abs(g.grad_y[i]);
    }
    std::vector<int> ranked;
    for (std::size_t t = 0; t < result.forest.trees.size(); ++t) {
      if (result.forest.trees[t].nodes.size() >= 3) ranked.push_back(static_cast<int>(t));
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

    if (episodic && !ranked.empty()) episodic_baseline = episodic_probe(result.forest, -1);

    int edits_applied = 0;
    int edits_rejected = 0;
    for (int t : ranked) {
      m_nets.add();
      const SteinerTree& tree = result.forest.trees[static_cast<std::size_t>(t)];
      const int net = tree.net;
      // Movable span of tree t (contiguous, in node order) for the
      // shape-preserving replay fast path.
      std::size_t span_lo = 0, span_hi = 0;
      {
        const std::vector<MovableRef>& mov = result.forest.movable();
        while (span_lo < mov.size() && mov[span_lo].tree < t) ++span_lo;
        span_hi = span_lo;
        while (span_hi < mov.size() && mov[span_hi].tree == t) ++span_hi;
      }
      const double model_sw = scale_of(cur_wns);
      const double model_st = scale_of(cur_tns);

      search::MctsOptions mcts;
      mcts.rollouts = topo.rollouts;
      mcts.max_depth = topo.max_depth;
      mcts.seed = topo.seed;
      mcts.edits.max_candidates = topo.max_candidates;
      const search::TopoScoreFn score = [&](const SteinerTree& cand, bool shape_changed) {
        GradientResult ev;
        if (!shape_changed) {
          // Tier 1a: the edit only moved coordinates — replay the retained
          // program with the tree's span updated (dirty-group replay).
          std::vector<double> cand_xs = xs;
          std::vector<double> cand_ys = ys;
          for (std::size_t i = span_lo; i < span_hi; ++i) {
            const std::size_t node =
                static_cast<std::size_t>(result.forest.movable()[i].node);
            cand_xs[i] = cand.nodes[node].pos.x;
            cand_ys[i] = cand.nodes[node].pos.y;
          }
          ScopedTimer timer(result.grad_replay);
          ev = evaluator->evaluate(cand_xs, cand_ys, weights);
        } else {
          // Tier 1b: the tape's shape changed — rebuild cache + tape for
          // the candidate forest.
          m_rebuilds.add();
          SteinerForest scratch = result.forest;
          scratch.replace_tree(t, cand);
          const auto scratch_cache = build_graph_cache(design, scratch);
          ScopedTimer timer(result.grad_record);
          ev = evaluate_timing(model, *scratch_cache, design, scratch.gather_x(),
                               scratch.gather_y(), weights);
        }
        return (ev.eval_wns_ns - cur_wns) / model_sw + (ev.eval_tns_ns - cur_tns) / model_st;
      };

      const search::MctsResult found =
          search_tree_edits(tree, die, static_cast<std::uint64_t>(round),
                            static_cast<std::uint64_t>(net), score, mcts);
      edits_rejected += static_cast<int>(found.stats.rejected);
      if (found.best_path.empty() || found.best_score <= 0.0) continue;

      SteinerForest cand_forest = result.forest;
      cand_forest.replace_tree(t, found.best_tree);
      bool accept = true;
      if (episodic) {
        // Tier 2: the net's chosen sequence must pay off under sign-off
        // restricted to its own dirty set.
        const SignoffProbeResult after = episodic_probe(cand_forest, net);
        if (improvement(after, episodic_baseline, anchor_sw, anchor_st) <= 0.0) {
          accept = false;
          m_episodic_rejects.add();
          // The callback's state saw the candidate; the revert is itself a
          // geometry change of `net`, so re-anchor on the kept forest now.
          pending_dirty[static_cast<std::size_t>(net)] = 1;
          episodic_baseline = episodic_probe(result.forest, -1);
        } else {
          episodic_baseline = after;
        }
      }
      if (!accept) {
        edits_rejected += static_cast<int>(found.best_path.size());
        continue;
      }
      bool shape_changed = false;
      for (const search::TopologyEdit& e : found.best_path) {
        shape_changed = shape_changed || !search::shape_preserving(e);
      }
      result.forest = std::move(cand_forest);
      edits_applied += static_cast<int>(found.best_path.size());
      xs = result.forest.gather_x();
      ys = result.forest.gather_y();
      if (shape_changed) {
        cache = build_graph_cache(design, result.forest);
        ScopedTimer timer(result.grad_record);
        evaluator->rebind(model, *cache, design, xs, ys, weights);
        m_rebuilds.add();
      }
      {
        ScopedTimer timer(result.grad_replay);
        const GradientResult ev = evaluator->evaluate(xs, ys, weights);
        cur_wns = ev.eval_wns_ns;
        cur_tns = ev.eval_tns_ns;
      }
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
      const SignoffProbeResult post_search =
          episodic ? episodic_baseline : anchor_of(result.forest, nullptr);
      if (improvement(post_search, best_anchor, anchor_sw, anchor_st) > 0.0) {
        best_anchor = post_search;
        best_forest = result.forest;
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
    result.wns_trace.push_back(cur_wns);
    result.tns_trace.push_back(cur_tns);
    if (obs::iteration_log_enabled()) obs::log_refine_iteration(design.name(), rec);
    if (options.iteration_sink) options.iteration_sink(rec);
    result.iteration_log.push_back(rec);
    ++global_iter;

    // --- gradient phase ---------------------------------------------------
    RefineOptions gopts = options;
    gopts.topology = TopologyOptions{};  // classic loop on the current shape
    gopts.max_iterations = topo.gradient_iterations;
    gopts.min_return_improvement = 0.0;  // the outer anchor owns pass-through
    if (options.iteration_sink) {
      const int base = global_iter;
      gopts.iteration_sink = [&, base](const obs::RefineIterationRecord& r) {
        obs::RefineIterationRecord shifted = r;
        shifted.iter += base;
        options.iteration_sink(shifted);
      };
    }
    const std::vector<double> pre_xs = xs;
    const std::vector<double> pre_ys = ys;
    RefineResult seg = refine_steiner_points(design, result.forest, model, gopts);
    for (obs::RefineIterationRecord r : seg.iteration_log) {
      r.iter += global_iter;
      result.iteration_log.push_back(r);
    }
    result.wns_trace.insert(result.wns_trace.end(), seg.wns_trace.begin(), seg.wns_trace.end());
    result.tns_trace.insert(result.tns_trace.end(), seg.tns_trace.begin(), seg.tns_trace.end());
    result.grad_record.wall_s += seg.grad_record.wall_s;
    result.grad_record.busy_s += seg.grad_record.busy_s;
    result.grad_replay.wall_s += seg.grad_replay.wall_s;
    result.grad_replay.busy_s += seg.grad_replay.busy_s;
    result.theta = seg.theta;
    global_iter += seg.iterations;
    // Nets the segment moved become dirty for the next episodic anchor.
    {
      const std::vector<double> post_xs = seg.forest.gather_x();
      const std::vector<double> post_ys = seg.forest.gather_y();
      for (std::size_t i = 0; i < post_xs.size(); ++i) {
        if (post_xs[i] == pre_xs[i] && post_ys[i] == pre_ys[i]) continue;
        const MovableRef& ref = seg.forest.movable()[i];
        const int net = seg.forest.trees[static_cast<std::size_t>(ref.tree)].net;
        pending_dirty[static_cast<std::size_t>(net)] = 1;
      }
    }
    result.forest = std::move(seg.forest);

    // --- keep-best anchor -------------------------------------------------
    const SignoffProbeResult anchored = anchor_of(result.forest, nullptr);
    if (improvement(anchored, best_anchor, anchor_sw, anchor_st) > 0.0) {
      best_anchor = anchored;
      best_forest = result.forest;
    } else if (round + 1 < topo.rounds) {
      // Restart the next round from the best forest; every net that differs
      // from the discarded iterate changed geometry and must go dirty.
      for (std::size_t t = 0; t < result.forest.trees.size(); ++t) {
        const SteinerTree& cur = result.forest.trees[t];
        const SteinerTree& best = best_forest.trees[t];
        bool differs = cur.nodes.size() != best.nodes.size() ||
                       cur.edges.size() != best.edges.size();
        for (std::size_t i = 0; !differs && i < cur.nodes.size(); ++i) {
          differs = cur.nodes[i].pos.x != best.nodes[i].pos.x ||
                    cur.nodes[i].pos.y != best.nodes[i].pos.y ||
                    cur.nodes[i].pin != best.nodes[i].pin;
        }
        for (std::size_t i = 0; !differs && i < cur.edges.size(); ++i) {
          differs = cur.edges[i].a != best.edges[i].a || cur.edges[i].b != best.edges[i].b;
        }
        if (differs) pending_dirty[static_cast<std::size_t>(cur.net)] = 1;
      }
      result.forest = best_forest;
    }
  }

  result.iterations = global_iter;
  if (improvement(best_anchor, init_anchor, anchor_sw, anchor_st) <= 0.0) {
    // The anchor never improved: pass the input through unchanged (the
    // topology-search analogue of min_return_improvement).
    result.forest = initial;
    result.forest.build_movable_index();
    result.best_wns = result.init_wns;
    result.best_tns = result.init_tns;
  } else {
    result.forest = std::move(best_forest);
    const GradientResult fin = model_eval(result.forest);
    result.best_wns = fin.eval_wns_ns;
    result.best_tns = fin.eval_tns_ns;
  }
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
  TS_VERBOSE("TSteiner %s: %d rounds topology search, WNS %.3f -> %.3f, TNS %.1f -> %.1f",
             design.name().c_str(), topo.rounds, result.init_wns, result.best_wns,
             result.init_tns, result.best_tns);
  return result;
}

}  // namespace tsteiner::detail
