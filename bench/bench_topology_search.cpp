// Discrete topology search interleaved with gradient refinement
// (ROADMAP item 4): gradient-only vs search+gradient at an equal gradient
// budget, both signed off through the same Flow.
//
// The search arm wires the episodic IncrementalSignoff reward and the full
// run_signoff keep-best anchor exactly as the serve layer does. Three hard
// gates decide the exit code so CI can run this at small scale:
//   1. the search arm must be bit-identical at pool widths 1 and 4 and
//      across back-to-back runs (forest bits and model WNS/TNS bits);
//   2. the search arm's sign-off must be no worse than the initial forest's
//      (the anchor's pass-through guarantee, checked end to end);
//   3. the search arm must beat the gradient-only arm on sign-off WNS or
//      TNS;
// plus a byte-identity check that non-default topology knobs are inert
// while the enable flag stays off.
//
// Results land in BENCH_topology.json.
//
// Knobs: TSTEINER_TOPO_CELLS (default 260), TSTEINER_TOPO_ITERS (gradient
// iterations per round, default 12), TSTEINER_TOPO_ROUNDS (default 3),
// TSTEINER_TOPO_EPOCHS (evaluator training epochs, default 40),
// TSTEINER_THREADS (pool width).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flow/experiment.hpp"
#include "flow/incremental_signoff.hpp"
#include "gnn/trainer.hpp"
#include "tsteiner/random_move.hpp"
#include "tsteiner/refine.hpp"
#include "util/parallel.hpp"

using namespace tsteiner;

namespace {

bool forests_bit_identical(const SteinerForest& a, const SteinerForest& b) {
  if (a.trees.size() != b.trees.size()) return false;
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    const SteinerTree& x = a.trees[t];
    const SteinerTree& y = b.trees[t];
    if (x.net != y.net || x.nodes.size() != y.nodes.size() ||
        x.edges.size() != y.edges.size()) {
      return false;
    }
    for (std::size_t i = 0; i < x.nodes.size(); ++i) {
      if (std::memcmp(&x.nodes[i].pos.x, &y.nodes[i].pos.x, sizeof(double)) != 0 ||
          std::memcmp(&x.nodes[i].pos.y, &y.nodes[i].pos.y, sizeof(double)) != 0 ||
          x.nodes[i].pin != y.nodes[i].pin) {
        return false;
      }
    }
    for (std::size_t i = 0; i < x.edges.size(); ++i) {
      if (x.edges[i].a != y.edges[i].a || x.edges[i].b != y.edges[i].b) return false;
    }
  }
  return true;
}

bool bits_eq(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

int main() {
  const int cells = bench::env_int("TSTEINER_TOPO_CELLS", 260);
  const int iters = bench::env_int("TSTEINER_TOPO_ITERS", 12);
  const int rounds = bench::env_int("TSTEINER_TOPO_ROUNDS", 3);
  const int epochs = bench::env_int("TSTEINER_TOPO_EPOCHS", 40);

  // One seed-scale design plus a per-design trained evaluator (the
  // single-design variant of the suite pipeline).
  const CellLibrary lib = CellLibrary::make_default();
  BenchmarkSpec spec;
  spec.name = "topo_search";
  spec.target_cells = cells;
  spec.endpoints = std::max(16, cells / 4);
  spec.is_training = true;
  spec.seed = 4242;
  std::printf("preparing design (%d comb cells target) ...\n", cells);
  const PreparedDesign pd = prepare_design(lib, spec, 1.0);
  const Flow& flow = *pd.flow;
  const SteinerForest initial = flow.initial_forest();

  std::vector<TrainingSample> samples;
  samples.push_back(make_training_sample(pd, initial));
  Rng rng(77);
  const double dist = 2.0 * static_cast<double>(flow.options().router.gcell_size);
  for (int k = 0; k < 3; ++k) {
    Rng child = rng.fork();
    samples.push_back(make_training_sample(
        pd, random_disturb(initial, pd.design->die(), dist, child)));
  }
  TimingGnn model(GnnConfig{}, lib.num_types());
  TrainOptions topt;
  topt.epochs = epochs;
  topt.lr = 1e-3;
  Trainer trainer(&model, topt);
  trainer.fit(samples);

  const int budget = rounds * iters;
  RefineOptions gradient_only;
  gradient_only.gcell_size = flow.options().router.gcell_size;
  gradient_only.max_iterations = budget;

  const auto make_search_opts = [&](IncrementalSignoff& episodic) {
    RefineOptions o = gradient_only;
    o.topology.enabled = true;
    o.topology.rounds = rounds;
    o.topology.gradient_iterations = iters;
    o.topology.episodic_signoff =
        [&episodic](const SteinerForest& forest,
                    const std::vector<int>& dirty) -> SignoffProbeResult {
      const IncrementalSignoff::Result& r = episodic.update(forest, dirty);
      return {r.metrics.wns_ns, r.metrics.tns_ns, r.incremental};
    };
    o.topology.full_signoff = [&flow](const SteinerForest& forest) -> SignoffProbeResult {
      const FlowResult r = flow.run_signoff(forest);
      return {r.metrics.wns_ns, r.metrics.tns_ns, false};
    };
    return o;
  };

  std::printf("gradient-only arm (%d iterations) ...\n", budget);
  const RefineResult grad = refine_steiner_points(*pd.design, initial, model, gradient_only);

  std::printf("search+gradient arm (%d rounds x %d iterations) ...\n", rounds, iters);
  IncrementalSignoff episodic(pd.design.get(), flow.options());
  const RefineResult search =
      refine_steiner_points(*pd.design, initial, model, make_search_opts(episodic));
  int edits_applied = 0, edits_rejected = 0, nets_searched = 0;
  for (const obs::RefineIterationRecord& rec : search.iteration_log) {
    if (!rec.topology_round) continue;
    edits_applied += rec.search_edits_applied;
    edits_rejected += rec.search_edits_rejected;
    nets_searched += rec.search_nets;
  }
  std::printf("  search: %d nets searched, %d edits applied, %d rejected\n", nets_searched,
              edits_applied, edits_rejected);

  // Gate 1: width and rerun bit-identity of the search arm.
  set_parallel_threads(1);
  IncrementalSignoff ep1(pd.design.get(), flow.options());
  const RefineResult w1 = refine_steiner_points(*pd.design, initial, model, make_search_opts(ep1));
  set_parallel_threads(4);
  IncrementalSignoff ep4(pd.design.get(), flow.options());
  const RefineResult w4 = refine_steiner_points(*pd.design, initial, model, make_search_opts(ep4));
  set_parallel_threads(0);
  const bool widths_identical = forests_bit_identical(w1.forest, w4.forest) &&
                                forests_bit_identical(w1.forest, search.forest) &&
                                bits_eq(w1.best_wns, w4.best_wns) &&
                                bits_eq(w1.best_tns, w4.best_tns) &&
                                bits_eq(w1.best_wns, search.best_wns);

  // Off-knob byte-identity: non-default topology knobs with the enable flag
  // off must leave the classic loop untouched.
  RefineOptions off = gradient_only;
  off.topology.rounds = 9;
  off.topology.rollouts = 5;
  const RefineResult off_run = refine_steiner_points(*pd.design, initial, model, off);
  const bool off_identical = forests_bit_identical(off_run.forest, grad.forest) &&
                             bits_eq(off_run.best_wns, grad.best_wns) &&
                             bits_eq(off_run.best_tns, grad.best_tns);

  const FlowResult s_init = flow.run_signoff(initial);
  const FlowResult s_grad = flow.run_signoff(grad.forest);
  const FlowResult s_search = flow.run_signoff(search.forest);

  // Gate 2: no worse than the initial forest (anchor pass-through).
  const double tol = 1e-9;
  const bool no_worse = s_search.metrics.wns_ns >= s_init.metrics.wns_ns - tol &&
                        s_search.metrics.tns_ns >= s_init.metrics.tns_ns - tol;
  // Gate 3: beats gradient-only on WNS or TNS.
  const bool beats = s_search.metrics.wns_ns > s_grad.metrics.wns_ns + tol ||
                     s_search.metrics.tns_ns > s_grad.metrics.tns_ns + tol;

  std::printf("  initial:         WNS %9.4f ns  TNS %10.3f ns\n", s_init.metrics.wns_ns,
              s_init.metrics.tns_ns);
  std::printf("  gradient-only:   WNS %9.4f ns  TNS %10.3f ns\n", s_grad.metrics.wns_ns,
              s_grad.metrics.tns_ns);
  std::printf("  search+gradient: WNS %9.4f ns  TNS %10.3f ns  %s%s\n",
              s_search.metrics.wns_ns, s_search.metrics.tns_ns,
              no_worse ? "(no worse than initial) " : "(WORSE THAN INITIAL) ",
              beats ? "(beats gradient-only)" : "(no win vs gradient-only)");
  std::printf("  widths 1/4: %s   off-knob byte-identity: %s\n",
              widths_identical ? "bit-identical" : "DIVERGED",
              off_identical ? "ok" : "BROKEN");

  FILE* f = std::fopen("BENCH_topology.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"cells\": %d, \"rounds\": %d, \"iters_per_round\": %d,\n"
                 "  \"init_wns_ns\": %.6f, \"init_tns_ns\": %.6f,\n"
                 "  \"gradient_only_wns_ns\": %.6f, \"gradient_only_tns_ns\": %.6f,\n"
                 "  \"search_wns_ns\": %.6f, \"search_tns_ns\": %.6f,\n"
                 "  \"beats_gradient_only\": %s,\n"
                 "  \"no_worse_than_initial\": %s,\n"
                 "  \"widths_bit_identical\": %s,\n"
                 "  \"off_knob_byte_identical\": %s\n"
                 "}\n",
                 cells, rounds, iters, s_init.metrics.wns_ns, s_init.metrics.tns_ns,
                 s_grad.metrics.wns_ns, s_grad.metrics.tns_ns, s_search.metrics.wns_ns,
                 s_search.metrics.tns_ns, beats ? "true" : "false",
                 no_worse ? "true" : "false", widths_identical ? "true" : "false",
                 off_identical ? "true" : "false");
    std::fclose(f);
    std::printf("Wrote BENCH_topology.json\n");
  }

  const bool ok = widths_identical && off_identical && no_worse && beats;
  return ok ? 0 : 1;
}
