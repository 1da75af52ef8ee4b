// Retained-program replay bench: runs the identical deterministic
// refinement-shaped loop twice — once recording a fresh tape for every
// evaluation (the pre-retained behaviour) and once replaying one recorded
// TapeProgram in place — and checks that every per-iteration penalty,
// WNS/TNS, the final coordinates, and the sign-off STA metrics of the
// resulting forests are bit-identical.
//
// The loop mirrors src/tsteiner/refine.cpp: each iteration takes a gradient
// at the kept iterate, steps along the normalized gradient, and evaluates
// the trial point; a trial that does not improve the model-evaluated WNS is
// rejected, and the loop restores the kept iterate and halves its step.
// evaluate() is a forward-only trial pass that leaves the retained program
// at the kept iterate, so the gradient call after a rejection replays only
// the lambda-dependent tail of the forward plus the pruned backward; after
// an accept it also replays the forward at the new point. The headline
// `grad_eval_speedup` compares exactly that per-iteration gradient
// evaluation against recording a fresh tape for it; `iteration_speedup`
// compares the full evaluate+gradient iteration; `trial_dense_rows_reused_frac`
// is the share of the trial passes' dense rows copied from the kept iterate
// instead of recomputed. Results land in
// BENCH_replay.json; the process exits nonzero on any divergence so CI can
// gate on it at tiny scale and both thread widths.
//
// Knobs: TSTEINER_REPLAY_CELLS (default 1200), TSTEINER_REPLAY_ITERS
// (default 30), TSTEINER_THREADS (pool width).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "flow/flow.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "sta/sta.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/gradient.hpp"
#include "util/timer.hpp"

using namespace tsteiner;

namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

struct Prepared {
  Design design;
  SteinerForest forest;
  std::shared_ptr<const GraphCache> cache;
};

Prepared prepare(int comb) {
  GeneratorParams p;
  p.num_comb_cells = comb;
  p.num_registers = comb / 10;
  p.num_primary_inputs = 8;
  p.num_primary_outputs = 8;
  p.seed = 12;
  Prepared out{generate_design(lib(), p), {}, nullptr};
  place_design(out.design);
  out.forest = build_forest(out.design);
  const StaResult sta = run_sta(out.design, out.forest, nullptr);
  out.design.set_clock_period(0.6 * sta.max_arrival);
  out.cache = build_graph_cache(out.design, out.forest);
  return out;
}

using EvalFn = std::function<GradientResult(const std::vector<double>&,
                                            const std::vector<double>&,
                                            const PenaltyWeights&)>;

struct LoopResult {
  std::vector<double> eval_penalties, eval_wns, eval_tns;  ///< keep-best evals
  std::vector<double> grad_penalties;                      ///< gradient calls
  std::vector<double> xs, ys;          ///< final coordinates
  std::vector<double> best_xs, best_ys;  ///< keep-best coordinates
  std::vector<double> grad_call_s;  ///< wall time of each gradient evaluation
  int accepted = 0;                 ///< trials kept (the rest restored the kept iterate)
  double grad_s = 0.0;  ///< wall time inside the gradient evaluations only
  double eval_s = 0.0;  ///< wall time inside the keep-best evaluations only
};

/// The shared deterministic loop body: identical coordinate updates, lambda
/// schedule, and call ordering regardless of which evaluation path backs it,
/// so any bit difference in the traces comes from the path itself.
LoopResult run_loop(const Prepared& p, int iters, const EvalFn& eval_fn,
                    const EvalFn& grad_fn) {
  LoopResult out;
  out.xs = p.forest.gather_x();
  out.ys = p.forest.gather_y();
  PenaltyWeights w;
  double step = 4.0;  // DBU per iteration along the normalized gradient
  // Initial evaluation, as the refinement loop performs before iterating.
  {
    WallTimer t;
    const GradientResult cur = eval_fn(out.xs, out.ys, w);
    out.eval_s += t.seconds();
    out.eval_penalties.push_back(cur.penalty);
    out.eval_wns.push_back(cur.eval_wns_ns);
    out.eval_tns.push_back(cur.eval_tns_ns);
    out.best_xs = out.xs;
    out.best_ys = out.ys;
  }
  double best_wns = -1e30;
  for (int it = 0; it < iters; ++it) {
    if (it >= 5) {
      w.lambda_w *= 1.01;
      w.lambda_t *= 1.01;
    }
    // Gradient at the kept iterate: after a rejection the retained program
    // still holds its forward, so only the lambda leaves changed.
    WallTimer tg;
    const GradientResult g = grad_fn(out.xs, out.ys, w);
    out.grad_call_s.push_back(tg.seconds());
    out.grad_s += out.grad_call_s.back();
    out.grad_penalties.push_back(g.penalty);
    double norm = 0.0;
    for (double v : g.grad_x) norm += v * v;
    for (double v : g.grad_y) norm += v * v;
    norm = std::sqrt(norm);
    if (norm < 1e-12) break;
    for (std::size_t i = 0; i < out.xs.size(); ++i) {
      out.xs[i] -= step * g.grad_x[i] / norm;
      out.ys[i] -= step * g.grad_y[i] / norm;
    }
    WallTimer te;
    const GradientResult cur = eval_fn(out.xs, out.ys, w);
    out.eval_s += te.seconds();
    out.eval_penalties.push_back(cur.penalty);
    out.eval_wns.push_back(cur.eval_wns_ns);
    out.eval_tns.push_back(cur.eval_tns_ns);
    if (cur.eval_wns_ns > best_wns) {  // keep-best by model-evaluated WNS
      best_wns = cur.eval_wns_ns;
      out.best_xs = out.xs;
      out.best_ys = out.ys;
      ++out.accepted;
    } else {  // restore the kept iterate, as refine does, and backtrack
      out.xs = out.best_xs;
      out.ys = out.best_ys;
      step *= 0.5;
    }
  }
  return out;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

int main() {
  const int cells = bench::env_int("TSTEINER_REPLAY_CELLS", 1200);
  const int iters = bench::env_int("TSTEINER_REPLAY_ITERS", 30);
  std::printf("preparing design (%d comb cells) ...\n", cells);
  const Prepared p = prepare(cells);
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  const auto xs0 = p.forest.gather_x();
  const auto ys0 = p.forest.gather_y();
  const PenaltyWeights w0;
  std::printf("%zu movable Steiner coordinates, %d iterations\n", xs0.size(), iters);

  // --- fresh-tape path: re-record the graph for every evaluation --------
  const LoopResult fresh = run_loop(
      p, iters,
      [&](const auto& xs, const auto& ys, const PenaltyWeights& w) {
        return evaluate_timing(model, *p.cache, p.design, xs, ys, w);
      },
      [&](const auto& xs, const auto& ys, const PenaltyWeights& w) {
        return compute_timing_gradients(model, *p.cache, p.design, xs, ys, w);
      });

  // --- retained path: record once, replay in place ----------------------
  WallTimer record_timer;
  GradientEvaluator evaluator(model, *p.cache, p.design, xs0, ys0, w0);
  const double record_s = record_timer.seconds();
  const std::uint64_t alloc_cold = evaluator.program().allocation_count();
  const Tape::Stats st = evaluator.program().stats();
  const double trial_mb =
      static_cast<double>(evaluator.program().trial_scratch_bytes()) / (1024.0 * 1024.0);
  std::printf(
      "program: %zu nodes, %zu value doubles, %zu grad doubles, %.2f MB trial scratch\n",
      st.num_nodes, st.value_doubles, st.grad_doubles, trial_mb);
  std::uint64_t alloc_after_first = 0;
  int grad_calls = 0;
  const LoopResult replay = run_loop(
      p, iters,
      [&](const auto& xs, const auto& ys, const PenaltyWeights& w) {
        return evaluator.evaluate(xs, ys, w);
      },
      [&](const auto& xs, const auto& ys, const PenaltyWeights& w) {
        GradientResult g = evaluator.gradients(xs, ys, w);
        // The gradient arena materializes on the first backward replay;
        // every later replay must be allocation-free.
        if (++grad_calls == 1) alloc_after_first = evaluator.program().allocation_count();
        return g;
      });
  const std::uint64_t alloc_warm_delta =
      evaluator.program().allocation_count() - alloc_after_first;
  // Share of the trial passes' dense rows copied from the kept iterate
  // because none of their live operand rows moved.
  const TapeProgram::ReplayCounters& counters = evaluator.program().replay_counters();
  const std::uint64_t trial_rows = counters.trial_rows_computed + counters.trial_rows_reused;
  const double reused_frac =
      trial_rows > 0
          ? static_cast<double>(counters.trial_rows_reused) / static_cast<double>(trial_rows)
          : 0.0;

  // --- bit-identity: traces, final coordinates, sign-off metrics --------
  bool identical = bits_equal(fresh.eval_penalties, replay.eval_penalties) &&
                   bits_equal(fresh.eval_wns, replay.eval_wns) &&
                   bits_equal(fresh.eval_tns, replay.eval_tns) &&
                   bits_equal(fresh.grad_penalties, replay.grad_penalties) &&
                   bits_equal(fresh.xs, replay.xs) && bits_equal(fresh.ys, replay.ys) &&
                   bits_equal(fresh.best_xs, replay.best_xs) &&
                   bits_equal(fresh.best_ys, replay.best_ys) &&
                   fresh.accepted == replay.accepted;
  SteinerForest ff = p.forest, fr = p.forest;
  ff.scatter_xy(fresh.best_xs, fresh.best_ys);
  fr.scatter_xy(replay.best_xs, replay.best_ys);
  const StaResult sta_fresh = run_sta(p.design, ff, nullptr);
  const StaResult sta_replay = run_sta(p.design, fr, nullptr);
  identical = identical &&
              std::memcmp(&sta_fresh.wns, &sta_replay.wns, sizeof(double)) == 0 &&
              std::memcmp(&sta_fresh.tns, &sta_replay.tns, sizeof(double)) == 0;

  // Steady-state per-iteration gradient cost: the first gradient call is
  // excluded from both paths' means — for the retained program it
  // materializes the whole gradient arena (a one-time allocation +
  // first-touch cost, asserted zero afterwards via alloc_warm_delta), and
  // excluding it symmetrically keeps the comparison fair.
  const auto steady_mean = [](const std::vector<double>& calls) {
    if (calls.size() < 2) return calls.empty() ? 0.0 : calls[0];
    double s = 0.0;
    for (std::size_t i = 1; i < calls.size(); ++i) s += calls[i];
    return s / static_cast<double>(calls.size() - 1);
  };
  const int n = static_cast<int>(fresh.grad_penalties.size());
  const double fresh_grad_iter = steady_mean(fresh.grad_call_s);
  const double replay_grad_iter = steady_mean(replay.grad_call_s);
  const double replay_warmup_s = replay.grad_call_s.empty() ? 0.0 : replay.grad_call_s[0];
  const double grad_speedup =
      replay_grad_iter > 1e-12 ? fresh_grad_iter / replay_grad_iter : 0.0;
  const double fresh_iter_s = fresh.grad_s + fresh.eval_s;
  const double replay_iter_s = replay.grad_s + replay.eval_s;
  const double iter_speedup = replay_iter_s > 1e-12 ? fresh_iter_s / replay_iter_s : 0.0;
  std::printf("record once: %.3fs  (alloc cold %llu)\n", record_s,
              static_cast<unsigned long long>(alloc_cold));
  std::printf("fresh : grad %.3fs (%.1f ms/iter)  eval %.3fs\n", fresh.grad_s,
              1e3 * fresh_grad_iter, fresh.eval_s);
  std::printf(
      "replay: grad %.3fs (%.1f ms/iter steady, %.1f ms warmup)  eval %.3fs  "
      "(alloc warm delta %llu)\n",
      replay.grad_s, 1e3 * replay_grad_iter, 1e3 * replay_warmup_s, replay.eval_s,
      static_cast<unsigned long long>(alloc_warm_delta));
  std::printf("%d of %d trials accepted\n", replay.accepted, n);
  std::printf("trial dense rows: %llu computed, %llu reused (%.1f%% reused)\n",
              static_cast<unsigned long long>(counters.trial_rows_computed),
              static_cast<unsigned long long>(counters.trial_rows_reused), 100.0 * reused_frac);
  std::printf("grad eval speedup %.2fx, iteration speedup %.2fx, bit_identical %s\n",
              grad_speedup, iter_speedup, identical ? "yes" : "NO");
  std::printf("sign-off WNS %.4f / TNS %.4f ns\n", sta_replay.wns, sta_replay.tns);

  FILE* f = std::fopen("BENCH_replay.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"cells\": %d,\n  \"iterations\": %d,\n  \"movable\": %zu,\n",
                 cells, n, xs0.size());
    std::fprintf(f, "  \"record_s\": %.4f,\n  \"accepted\": %d,\n", record_s,
                 replay.accepted);
    std::fprintf(f, "  \"trial_scratch_mb\": %.3f,\n", trial_mb);
    std::fprintf(f, "  \"trial_dense_rows_reused_frac\": %.4f,\n", reused_frac);
    std::fprintf(f, "  \"fresh_grad_s\": %.4f,\n  \"replay_grad_s\": %.4f,\n", fresh.grad_s,
                 replay.grad_s);
    std::fprintf(f, "  \"fresh_eval_s\": %.4f,\n  \"replay_eval_s\": %.4f,\n", fresh.eval_s,
                 replay.eval_s);
    std::fprintf(f, "  \"fresh_grad_ms_per_iter\": %.3f,\n", 1e3 * fresh_grad_iter);
    std::fprintf(f, "  \"replay_grad_ms_per_iter\": %.3f,\n", 1e3 * replay_grad_iter);
    std::fprintf(f, "  \"replay_grad_warmup_ms\": %.3f,\n", 1e3 * replay_warmup_s);
    std::fprintf(f, "  \"grad_eval_speedup\": %.3f,\n  \"iteration_speedup\": %.3f,\n",
                 grad_speedup, iter_speedup);
    std::fprintf(f, "  \"alloc_cold\": %llu,\n  \"alloc_warm_delta\": %llu,\n",
                 static_cast<unsigned long long>(alloc_cold),
                 static_cast<unsigned long long>(alloc_warm_delta));
    std::fprintf(f, "  \"signoff_wns_ns\": %.6f,\n  \"signoff_tns_ns\": %.6f,\n",
                 sta_replay.wns, sta_replay.tns);
    std::fprintf(f, "  \"bit_identical\": %s\n}\n", identical ? "true" : "false");
    std::fclose(f);
    std::printf("Wrote BENCH_replay.json\n");
  }
  return identical ? 0 : 1;
}
