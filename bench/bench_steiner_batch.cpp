// Batched-construction bench: per-net iterated 1-Steiner vs the batched
// learned path (one padded predictor forward + gain-gated stitch) across
// design sizes whose routable-net counts land near 1k / 5k / 20k.
//
// Per scale it reports construction wall time for the exact per-net path and
// the batched path, the batched fallback rate, and the total-wirelength
// delta against the exact path (the stitch gain gate guarantees batched
// WL <= MST(pins) per net). Two hard gates decide the exit code so CI can
// run this at small scale:
//   1. batched forests at pool widths 1 and 4 must be bit-identical;
//   2. at the smallest scale, both constructions are refined with the same
//      model and signed off through the same Flow — the batched start must
//      not degrade post-refine WNS/TNS beyond a 0.1% noise floor.
//
// Results land in BENCH_steiner_batch.json.
//
// Knobs: TSTEINER_SB_CELLS (comma list, default "900,4500,18000"),
// TSTEINER_SB_REFINE_ITERS (default 20), TSTEINER_THREADS (pool width).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flow/flow.hpp"
#include "gnn/model.hpp"
#include "gnn/steiner_predictor.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/refine.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

using namespace tsteiner;

namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

std::vector<int> env_cells() {
  const char* v = std::getenv("TSTEINER_SB_CELLS");
  std::vector<int> out;
  if (v != nullptr && *v != '\0') {
    std::string s(v);
    std::size_t pos = 0;
    while (pos < s.size()) {
      out.push_back(std::atoi(s.c_str() + pos));
      const std::size_t comma = s.find(',', pos);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  if (out.empty()) out = {900, 4500, 18000};
  return out;
}

Design make_design(int comb) {
  GeneratorParams p;
  p.num_comb_cells = comb;
  p.num_registers = comb / 10;
  p.num_primary_inputs = 8;
  p.num_primary_outputs = 8;
  p.seed = 5023;
  Design d = generate_design(lib(), p);
  place_design(d);
  return d;
}

bool forests_bit_identical(const SteinerForest& a, const SteinerForest& b) {
  if (a.trees.size() != b.trees.size()) return false;
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    if (!bits_equal(a.trees[t], b.trees[t])) return false;
  }
  return true;
}

struct Row {
  int cells = 0;
  std::size_t nets = 0;
  double exact_s = 0.0;
  double batched_s = 0.0;
  double wl_exact = 0.0;
  double wl_batched = 0.0;
  double fallback_rate = 0.0;
  std::size_t inserted_points = 0;
  bool widths_identical = true;
};

}  // namespace

int main() {
  const std::vector<int> scales = env_cells();
  const int refine_iters = bench::env_int("TSTEINER_SB_REFINE_ITERS", 20);

  // Warm the shared predictor outside the timed regions (one pretrain per
  // build directory; later runs restore it from the weight cache).
  const auto predictor = SteinerPredictor::shared_pretrained();

  std::vector<Row> rows;
  bool all_widths_identical = true;

  for (const int cells : scales) {
    Row row;
    row.cells = cells;
    std::printf("preparing design (%d comb cells) ...\n", cells);
    const Design design = make_design(cells);

    const RsmtOptions rsmt;
    BatchBuildOptions batch;
    batch.fallback = rsmt;

    WallTimer te;
    const SteinerForest exact = build_forest(design, rsmt);
    row.exact_s = te.seconds();

    BatchBuildStats stats;
    WallTimer tb;
    const SteinerForest batched = build_forest_batched(design, *predictor, batch, &stats);
    row.batched_s = tb.seconds();

    row.nets = stats.num_nets;
    row.wl_exact = exact.total_wirelength();
    row.wl_batched = batched.total_wirelength();
    row.fallback_rate = stats.num_nets > 0 ? static_cast<double>(stats.num_fallback()) /
                                                 static_cast<double>(stats.num_nets)
                                           : 0.0;
    row.inserted_points = stats.num_inserted_points;

    // Thread-width gate: the batched construction promises bit-identical
    // forests at any pool width.
    set_parallel_threads(1);
    const SteinerForest w1 = build_forest_batched(design, *predictor, batch);
    set_parallel_threads(4);
    const SteinerForest w4 = build_forest_batched(design, *predictor, batch);
    set_parallel_threads(0);
    row.widths_identical = forests_bit_identical(w1, w4) && forests_bit_identical(w1, batched);
    all_widths_identical = all_widths_identical && row.widths_identical;

    const double speedup = row.batched_s > 1e-12 ? row.exact_s / row.batched_s : 0.0;
    std::printf(
        "%6zu nets: exact %8.3fs  batched %7.3fs (%5.1fx) | WL vs exact %+.2f%% | "
        "fallback %4.1f%%  +%zu points  widths %s\n",
        row.nets, row.exact_s, row.batched_s, speedup,
        1e2 * (row.wl_batched / row.wl_exact - 1.0), 1e2 * row.fallback_rate, row.inserted_points,
        row.widths_identical ? "bit-identical" : "DIVERGED");
    rows.push_back(row);
  }

  // Post-refine gate at the smallest scale: refine both constructions with
  // the same (deterministic) model and sign off through the same Flow, whose
  // routing capacities were pinned by the per-net baseline.
  std::printf("post-refine comparison (%d comb cells) ...\n", scales.front());
  Design design = make_design(scales.front());
  FlowOptions fopts;
  fopts.steiner.mode = SteinerBuildMode::kPerNet;
  const Flow flow(&design, fopts);
  const SteinerForest exact = flow.initial_forest();
  BatchBuildOptions batch;
  batch.fallback = flow.options().rsmt;
  const SteinerForest batched = build_forest_batched(design, *predictor, batch);

  const TimingGnn model(GnnConfig{}, lib().num_types());
  RefineOptions ropts;
  ropts.gcell_size = flow.options().router.gcell_size;
  ropts.max_iterations = refine_iters;
  const RefineResult r_exact = refine_steiner_points(design, exact, model, ropts);
  const RefineResult r_batched = refine_steiner_points(design, batched, model, ropts);
  const FlowResult s_exact = flow.run_signoff(r_exact.forest);
  const FlowResult s_batched = flow.run_signoff(r_batched.forest);
  // Noise floor: 0.1% of the clock period.
  const double tol = 1e-3 * design.clock_period();
  const bool refine_ok = s_batched.metrics.wns_ns >= s_exact.metrics.wns_ns - tol &&
                         s_batched.metrics.tns_ns >= s_exact.metrics.tns_ns - tol;
  std::printf("  exact:   post-refine WNS %9.4f ns  TNS %10.3f ns\n",
              s_exact.metrics.wns_ns, s_exact.metrics.tns_ns);
  std::printf("  batched: post-refine WNS %9.4f ns  TNS %10.3f ns  %s\n",
              s_batched.metrics.wns_ns, s_batched.metrics.tns_ns,
              refine_ok ? "(no worse)" : "(WORSE)");

  FILE* f = std::fopen("BENCH_steiner_batch.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const double speedup = row.batched_s > 1e-12 ? row.exact_s / row.batched_s : 0.0;
      std::fprintf(f,
                   "    {\"cells\": %d, \"nets\": %zu, \"exact_s\": %.4f, "
                   "\"batched_s\": %.4f, \"speedup\": %.2f, "
                   "\"wl_exact\": %.1f, \"wl_batched\": %.1f, "
                   "\"wl_vs_exact_pct\": %.3f, "
                   "\"fallback_rate\": %.4f, \"inserted_points\": %zu, "
                   "\"widths_bit_identical\": %s}%s\n",
                   row.cells, row.nets, row.exact_s, row.batched_s, speedup,
                   row.wl_exact, row.wl_batched,
                   1e2 * (row.wl_batched / row.wl_exact - 1.0), row.fallback_rate,
                   row.inserted_points, row.widths_identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"post_refine\": {\"cells\": %d, \"refine_iters\": %d, "
                 "\"exact_wns_ns\": %.6f, \"exact_tns_ns\": %.6f, "
                 "\"batched_wns_ns\": %.6f, \"batched_tns_ns\": %.6f, "
                 "\"no_worse\": %s},\n",
                 scales.front(), refine_iters, s_exact.metrics.wns_ns,
                 s_exact.metrics.tns_ns, s_batched.metrics.wns_ns,
                 s_batched.metrics.tns_ns, refine_ok ? "true" : "false");
    std::fprintf(f, "  \"widths_bit_identical\": %s\n}\n",
                 all_widths_identical ? "true" : "false");
    std::fclose(f);
    std::printf("Wrote BENCH_steiner_batch.json\n");
  }
  return all_widths_identical && refine_ok ? 0 : 1;
}
