// Incremental sign-off bench: anchors one IncrementalSignoff on a full
// sign-off, then sweeps dirty fractions (1%, 5%, 20%, 100% of movable trees).
// Each round moves that share of trees by small refine-sized nudges, runs
// `update(forest, dirty_nets)`, and re-runs the full Flow::run_signoff on the
// same forest as the reference. The headline `speedup` per fraction is
// full-pipeline wall time over incremental wall time; the exactness gate is
// bitwise — every SignoffMetrics field of every round must match the full
// pipeline exactly, and the process exits nonzero otherwise so CI can gate
// parity at tiny scale and both thread widths.
//
// Results land in BENCH_incremental.json. The ≤5% rows are the ones the
// refine probe cadence actually exercises (a handful of trees move between
// probes); 100% is the worst case and bounds the overhead of taking the
// incremental path when everything moved.
//
// A second, tight-capacity "contention" section perturbs one corner tree per
// round so every update re-runs rip-up-and-reroute; it is the bench's one
// bit-identity gate under congestion (the main sweep's headroom default never
// enters RRR) and reports its update and full wall times.
//
// Knobs: TSTEINER_INC_CELLS (default 16000), TSTEINER_INC_ROUNDS (rounds per
// fraction, default 3), TSTEINER_THREADS (pool width).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace tsteiner;

namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

/// Trees with at least one Steiner point, i.e. movable geometry.
std::vector<int> movable_trees(const SteinerForest& forest) {
  std::vector<int> out;
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    if (forest.trees[t].num_steiner_nodes() > 0) out.push_back(static_cast<int>(t));
  }
  return out;
}

/// Move every Steiner point of one tree; returns the tree's net.
int nudge_tree(SteinerForest& forest, int t, double dx, double dy) {
  SteinerTree& tree = forest.trees[static_cast<std::size_t>(t)];
  for (SteinerNode& n : tree.nodes) {
    if (n.is_steiner()) {
      n.pos.x += dx;
      n.pos.y += dy;
    }
  }
  return tree.net;
}

bool bits_eq(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool metrics_identical(const SignoffMetrics& a, const SignoffMetrics& b) {
  return bits_eq(a.wns_ns, b.wns_ns) && bits_eq(a.tns_ns, b.tns_ns) &&
         a.num_vios == b.num_vios && bits_eq(a.wirelength_dbu, b.wirelength_dbu) &&
         a.num_vias == b.num_vias && a.num_drvs == b.num_drvs;
}

struct SweepRow {
  double frac = 0.0;            ///< requested share of movable trees
  double net_dirty_frac = 0.0;  ///< mean declared-dirty nets / total nets
  std::size_t dirty_nets = 0;   ///< mean declared-dirty nets per round
  std::size_t rerouted = 0;     ///< mean rerouted connections per round
  double update_s = 0.0;        ///< total incremental wall time
  double full_s = 0.0;          ///< total full-pipeline wall time
  bool identical = true;
};

}  // namespace

int main() {
  const int cells = bench::env_int("TSTEINER_INC_CELLS", 16000);
  const int rounds = std::max(1, bench::env_int("TSTEINER_INC_ROUNDS", 3));

  std::printf("preparing design (%d comb cells) ...\n", cells);
  // The sweep needs the geometry the paper's sign-off has: nets that are
  // local against the die, so that moving a handful of trees perturbs a
  // neighborhood rather than the whole routing field. The generator default
  // of 30% global picks plus high-fanout control nets makes nearly every
  // tree cross the die center — the pathological case for ANY incremental
  // router, where 1% dirty nets legitimately reroute half the design.
  GeneratorParams p;
  p.num_comb_cells = cells;
  p.num_registers = cells / 10;
  p.num_primary_inputs = 8;
  p.num_primary_outputs = 8;
  p.locality_window_frac = 0.02;
  p.global_pick_prob = 0.05;
  p.num_control_sources = 0;
  p.placement_utilization = 0.45;
  p.seed = 21;
  Design design = generate_design(lib(), p);
  place_design(design);
  // Generated dies are compact; at the default 8-DBU gcell the whole design
  // fits in a ~15x15 routing grid where every maze window is the entire die.
  // A finer gcell plus a tighter maze margin restores windows that are small
  // against the die.
  FlowOptions fopts;
  fopts.router.gcell_size = 2;
  fopts.router.maze_margin = 4;
  // The flow default (0.92 x p90 demand) guarantees structural overflow:
  // every round rips thousands of victims and a single moved tree
  // legitimately cascades across the die. Real sign-off designs are
  // routable; headroom above p90 keeps congestion local so the incremental
  // contract (small perturbation -> small honest recompute) is even testable.
  fopts.router.capacity_factor = 2.0;
  const Flow flow(&design, fopts);  // pins capacities + calibrates the clock
  SteinerForest forest = flow.initial_forest();
  const std::vector<int> cand = movable_trees(forest);
  const std::size_t num_nets = design.nets().size();
  std::printf("%zu nets, %zu movable trees, %d round(s) per fraction\n", num_nets,
              cand.size(), rounds);
  if (cand.empty()) {
    std::printf("no movable trees; nothing to sweep\n");
    return 1;
  }

  IncrementalSignoff inc(&design, flow.options());
  WallTimer anchor_timer;
  inc.full(forest);
  const double anchor_s = anchor_timer.seconds();
  std::printf("anchor full sign-off: %.3fs\n", anchor_s);

  const double fracs[] = {0.01, 0.05, 0.20, 1.00};
  std::vector<SweepRow> rows;
  Rng rng(2026);
  bool all_identical = true;

  for (const double frac : fracs) {
    SweepRow row;
    row.frac = frac;
    const std::size_t k =
        std::min(cand.size(),
                 static_cast<std::size_t>(std::max<long long>(
                     1, std::llround(frac * static_cast<double>(cand.size())))));
    for (int r = 0; r < rounds; ++r) {
      // Refine-sized moves: every probe-cadence step shifts trees by a few DBU.
      std::vector<int> picks = cand;
      rng.shuffle(picks);
      picks.resize(k);
      std::vector<int> dirty;
      dirty.reserve(k);
      for (const int t : picks) {
        double dx = static_cast<double>(rng.uniform_int(-8, 8));
        double dy = static_cast<double>(rng.uniform_int(-8, 8));
        if (dx == 0.0 && dy == 0.0) dx = 3.0;
        dirty.push_back(nudge_tree(forest, t, dx, dy));
      }

      WallTimer tu;
      const IncrementalSignoff::Result& got = inc.update(forest, dirty);
      row.update_s += tu.seconds();
      WallTimer tf;
      const FlowResult ref = flow.run_signoff(forest);
      row.full_s += tf.seconds();

      const bool same = metrics_identical(got.metrics, ref.metrics);
      if (r == 0) {
        std::printf(
            "  [frac %.2f round 0] inc gr %.1f dr %.1f sta %.1f ms | full gr %.1f dr "
            "%.1f sta %.1f ms\n",
            frac, 1e3 * got.runtime.global_route.wall_s,
            1e3 * got.runtime.detailed_route.wall_s, 1e3 * got.runtime.sta.wall_s,
            1e3 * ref.runtime.global_route.wall_s,
            1e3 * ref.runtime.detailed_route.wall_s, 1e3 * ref.runtime.sta.wall_s);
      }
      row.identical = row.identical && same;
      row.dirty_nets += got.num_dirty_nets;
      row.rerouted += got.num_rerouted;
      if (!same) {
        std::printf("MISMATCH at frac %.2f round %d: WNS %.9f vs %.9f\n", frac, r,
                    got.metrics.wns_ns, ref.metrics.wns_ns);
      }
    }
    row.dirty_nets /= static_cast<std::size_t>(rounds);
    row.rerouted /= static_cast<std::size_t>(rounds);
    row.net_dirty_frac =
        static_cast<double>(row.dirty_nets) / static_cast<double>(std::max<std::size_t>(1, num_nets));
    all_identical = all_identical && row.identical;
    const double speedup = row.update_s > 1e-12 ? row.full_s / row.update_s : 0.0;
    std::printf(
        "frac %5.2f: %5zu dirty nets (%.3f of nets), %5zu rerouted | update %7.1f ms  "
        "full %7.1f ms  speedup %6.2fx  %s\n",
        frac, row.dirty_nets, row.net_dirty_frac, row.rerouted,
        1e3 * row.update_s / rounds, 1e3 * row.full_s / rounds, speedup,
        row.identical ? "bit-identical" : "MISMATCH");
    rows.push_back(row);
  }

  // Contention sweep: the headroom default never enters rip-up-and-reroute,
  // so the sweep above never exercises negotiation. This section re-runs the
  // design with tight capacities (RRR fires every round) and a localized
  // perturbation — one corner tree nudged by one gcell — and gates each
  // update's bits against a full sign-off.
  long long cont_mazes = 0;
  double cont_update_s = 0.0;
  double cont_full_s = 0.0;
  bool cont_identical = true;
  constexpr int kContRounds = 3;
  constexpr double kContCapf = 1.0;
  {
    FlowOptions copts = fopts;
    copts.router.capacity_factor = kContCapf;
    Design cdesign = generate_design(lib(), p);
    place_design(cdesign);
    const Flow cflow(&cdesign, copts);
    SteinerForest cforest = cflow.initial_forest();
    const std::vector<int> ccand = movable_trees(cforest);
    IncrementalSignoff cinc(&cdesign, cflow.options());
    cinc.full(cforest);
    // The movable tree nearest the lower-left corner, nudged one gcell per
    // round: the perturbation the refine probe cadence actually produces.
    int corner_tree = ccand.empty() ? -1 : ccand.front();
    double best = 1e300;
    for (const int t : ccand) {
      for (const SteinerNode& n : cforest.trees[static_cast<std::size_t>(t)].nodes) {
        if (n.is_steiner() && n.pos.x + n.pos.y < best) {
          best = n.pos.x + n.pos.y;
          corner_tree = t;
        }
      }
    }
    for (int r = 0; corner_tree >= 0 && r < kContRounds; ++r) {
      const int net = nudge_tree(cforest, corner_tree, 2.0, 2.0);
      WallTimer tu;
      const IncrementalSignoff::Result& got = cinc.update(cforest, {net});
      cont_update_s += tu.seconds();
      cont_mazes += got.total_mazes;
      WallTimer tf;
      const FlowResult ref = cflow.run_signoff(cforest);
      cont_full_s += tf.seconds();
      cont_identical = cont_identical && metrics_identical(got.metrics, ref.metrics);
    }
    cont_mazes /= kContRounds;
    std::printf(
        "contention (capf %.2f, 1 corner tree/round): %lld mazes | update %7.1f ms  full "
        "%7.1f ms  %s\n",
        kContCapf, cont_mazes, 1e3 * cont_update_s / kContRounds,
        1e3 * cont_full_s / kContRounds, cont_identical ? "bit-identical" : "MISMATCH");
    all_identical = all_identical && cont_identical;
  }

  // The acceptance target: >=10x per sign-off at <=5% dirty fraction.
  double speedup_at_5pct = 0.0;
  for (const SweepRow& row : rows) {
    if (row.frac <= 0.05 + 1e-9 && row.update_s > 1e-12) {
      speedup_at_5pct = std::max(speedup_at_5pct, row.full_s / row.update_s);
    }
  }
  if (speedup_at_5pct < 10.0) {
    std::printf("WARNING: best speedup at <=5%% dirty is %.2fx, below the 10x target\n",
                speedup_at_5pct);
  }

  FILE* f = std::fopen("BENCH_incremental.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"cells\": %d,\n  \"nets\": %zu,\n  \"movable_trees\": %zu,\n",
                 cells, num_nets, cand.size());
    std::fprintf(f, "  \"rounds_per_fraction\": %d,\n  \"anchor_full_s\": %.4f,\n", rounds,
                 anchor_s);
    std::fprintf(f, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& row = rows[i];
      const double speedup = row.update_s > 1e-12 ? row.full_s / row.update_s : 0.0;
      std::fprintf(f,
                   "    {\"dirty_frac\": %.2f, \"net_dirty_frac\": %.4f, "
                   "\"dirty_nets\": %zu, \"rerouted\": %zu, "
                   "\"update_ms\": %.3f, \"full_ms\": %.3f, \"speedup\": %.3f, "
                   "\"bit_identical\": %s}%s\n",
                   row.frac, row.net_dirty_frac, row.dirty_nets, row.rerouted,
                   1e3 * row.update_s / rounds,
                   1e3 * row.full_s / rounds, speedup,
                   row.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"contention\": {\"capacity_factor\": %.2f, \"rounds\": %d, "
                 "\"mazes\": %lld, \"update_ms\": %.3f, \"full_ms\": %.3f, "
                 "\"bit_identical\": %s},\n",
                 kContCapf, kContRounds, cont_mazes, 1e3 * cont_update_s / kContRounds,
                 1e3 * cont_full_s / kContRounds, cont_identical ? "true" : "false");
    std::fprintf(f, "  \"speedup_at_5pct\": %.3f,\n", speedup_at_5pct);
    std::fprintf(f, "  \"bit_identical\": %s\n}\n", all_identical ? "true" : "false");
    std::fclose(f);
    std::printf("Wrote BENCH_incremental.json\n");
  }
  return all_identical ? 0 : 1;
}
