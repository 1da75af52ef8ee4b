// Discrete topology search (src/search) and its refine integration:
//  * edit-op semantics per kind, invariant gating, stale-operand rejection;
//  * SteinerForest::replace_tree vs a from-scratch movable-index rebuild;
//  * MCTS determinism (bit-identical results across reruns);
//  * interleaved search+gradient refine: bit-identical WNS/TNS/forest at
//    pool widths 1 vs 4 and across back-to-back runs, keep-best
//    monotonicity with the full sign-off anchor wired, and byte-identity of
//    the classic loop when the topology knob stays off;
//  * with a trained evaluator at an equal gradient budget, the search arm is
//    deterministic, applies edits, signs off no worse than the initial
//    forest and beats gradient-only refinement on WNS or TNS.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "flow/experiment.hpp"
#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "gnn/trainer.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "search/mcts.hpp"
#include "search/topo_edits.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/random_move.hpp"
#include "tsteiner/refine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "testutil.hpp"
#include "verify/invariants.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

struct Fixture {
  Design design;
  SteinerForest forest;
};

Fixture make_fixture(std::uint64_t seed = 7, int comb_cells = 80) {
  GeneratorParams p;
  p.num_comb_cells = comb_cells;
  p.num_registers = comb_cells / 8;
  p.num_primary_inputs = 4;
  p.num_primary_outputs = 4;
  p.seed = seed;
  Fixture f{generate_design(lib(), p), {}};
  place_design(f.design);
  f.forest = build_forest(f.design);
  const StaResult sta = run_sta(f.design, f.forest, nullptr);
  f.design.set_clock_period(0.6 * sta.max_arrival);
  return f;
}

TimingGnn make_model() {
  GnnConfig cfg;
  cfg.hidden = 6;
  return TimingGnn(cfg, lib().num_types());
}

/// A hand-built valid tree: three pins joined through one Steiner hub.
///
///   p0 (driver, 10,10) --- s3 (20,20) --- p1 (30,30)
///                           |
///                          p2 (20,40)
SteinerTree make_star_tree() {
  SteinerTree t;
  t.net = 5;
  t.nodes = {{{10.0, 10.0}, 0}, {{30.0, 30.0}, 1}, {{20.0, 40.0}, 2}, {{20.0, 20.0}, -1}};
  t.edges = {{0, 3}, {1, 3}, {2, 3}};
  t.driver_node = 0;
  return t;
}

const RectI kDie{{0, 0}, {100, 100}};

// --- edit-op semantics ------------------------------------------------------

TEST(TopoEdits, InsertSplitsStarThroughMedianHananPoint) {
  // Degree-4 hub: detaching two neighbors leaves it at degree 3, so the new
  // Steiner node survives pruning.
  SteinerTree t;
  t.net = 5;
  t.nodes = {{{10.0, 10.0}, 0},
             {{30.0, 30.0}, 1},
             {{20.0, 40.0}, 2},
             {{5.0, 30.0}, 3},
             {{20.0, 20.0}, -1}};
  t.edges = {{0, 4}, {1, 4}, {2, 4}, {3, 4}};
  t.driver_node = 0;
  search::TopologyEdit e;
  e.kind = search::EditKind::kInsert;
  e.a = 4;  // hub
  e.b = 1;
  e.c = 2;
  e.pos = {20.0, 30.0};  // component-wise median of nodes 4, 1, 2
  const auto edited = search::apply_edit(t, kDie, e);
  ASSERT_TRUE(edited.has_value());
  EXPECT_TRUE(edited->is_valid_tree());
  EXPECT_EQ(edited->num_steiner_nodes(), 2);
  EXPECT_EQ(edited->nodes.size(), 6u);
  EXPECT_EQ(edited->edges.size(), 5u);
  EXPECT_TRUE(search::validate_edited_tree(t, *edited, kDie).empty());

  // On a degree-3 hub the same insert leaves the hub at degree 2, so the
  // pruning pass splices it straight back out: net effect is a no-op star.
  const SteinerTree star = make_star_tree();
  search::TopologyEdit collapse;
  collapse.kind = search::EditKind::kInsert;
  collapse.a = 3;
  collapse.b = 1;
  collapse.c = 2;
  collapse.pos = {20.0, 30.0};
  const auto pruned = search::apply_edit(star, kDie, collapse);
  ASSERT_TRUE(pruned.has_value());
  EXPECT_EQ(pruned->num_steiner_nodes(), 1);
  EXPECT_TRUE(search::validate_edited_tree(star, *pruned, kDie).empty());
}

TEST(TopoEdits, DeleteReconnectsNeighborsDeterministically) {
  const SteinerTree t = make_star_tree();
  search::TopologyEdit e;
  e.kind = search::EditKind::kDelete;
  e.a = 3;
  const auto edited = search::apply_edit(t, kDie, e);
  ASSERT_TRUE(edited.has_value());
  EXPECT_TRUE(edited->is_valid_tree());
  EXPECT_EQ(edited->num_steiner_nodes(), 0);
  EXPECT_EQ(edited->nodes.size(), 3u);
  EXPECT_EQ(edited->edges.size(), 2u);
  EXPECT_TRUE(search::validate_edited_tree(t, *edited, kDie).empty());
  // Deterministic: a second application produces the identical tree.
  const auto again = search::apply_edit(t, kDie, e);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(edited->edges.size(), again->edges.size());
  for (std::size_t i = 0; i < edited->edges.size(); ++i) {
    EXPECT_EQ(edited->edges[i].a, again->edges[i].a);
    EXPECT_EQ(edited->edges[i].b, again->edges[i].b);
  }
}

TEST(TopoEdits, ReshiftJumpsToHananPointAndIsShapePreserving) {
  const SteinerTree t = make_star_tree();
  search::TopologyEdit e;
  e.kind = search::EditKind::kReshift;
  e.a = 3;
  e.pos = {10.0, 40.0};  // x of neighbor p0, y of neighbor p2
  EXPECT_TRUE(search::shape_preserving(e));
  const auto edited = search::apply_edit(t, kDie, e);
  ASSERT_TRUE(edited.has_value());
  EXPECT_EQ(edited->nodes.size(), t.nodes.size());
  EXPECT_EQ(edited->edges.size(), t.edges.size());
  EXPECT_DOUBLE_EQ(edited->nodes[3].pos.x, 10.0);
  EXPECT_DOUBLE_EQ(edited->nodes[3].pos.y, 40.0);
  EXPECT_TRUE(search::validate_edited_tree(t, *edited, kDie).empty());
}

TEST(TopoEdits, SwapGateRejectsBrokenAttachmentsUnlessSkipped) {
  const SteinerTree t = make_star_tree();
  search::TopologyEdit bad;
  bad.kind = search::EditKind::kSwap;
  bad.a = t.edges[0].a;
  bad.b = t.edges[0].b;
  bad.c = bad.b;  // self-attachment: disconnects b's side
  std::string reason;
  EXPECT_FALSE(search::apply_edit(t, kDie, bad, {}, &reason).has_value());
  EXPECT_FALSE(reason.empty());

  // The mutation hook bypasses the gate — and the validator must then flag
  // the broken result (this is what the fuzz self-check relies on).
  search::EditOptions skip;
  skip.skip_validation = true;
  const auto broken = search::apply_edit(t, kDie, bad, skip);
  ASSERT_TRUE(broken.has_value());
  EXPECT_FALSE(search::validate_edited_tree(t, *broken, kDie).empty());
}

TEST(TopoEdits, StaleOrOutOfDieOperandsRejected) {
  const SteinerTree t = make_star_tree();
  search::TopologyEdit stale;
  stale.kind = search::EditKind::kDelete;
  stale.a = 99;  // out of range
  EXPECT_FALSE(search::apply_edit(t, kDie, stale).has_value());

  search::TopologyEdit pin;
  pin.kind = search::EditKind::kDelete;
  pin.a = 0;  // a pin, not a Steiner node
  EXPECT_FALSE(search::apply_edit(t, kDie, pin).has_value());

  search::TopologyEdit outside;
  outside.kind = search::EditKind::kReshift;
  outside.a = 3;
  outside.pos = {2000.0, 2000.0};
  EXPECT_FALSE(search::apply_edit(t, kDie, outside).has_value());
}

TEST(TopoEdits, EnumerateIsDeterministicInRngState) {
  const Fixture f = make_fixture(11);
  int checked = 0;
  for (const SteinerTree& tree : f.forest.trees) {
    if (tree.num_steiner_nodes() == 0) continue;
    Rng r1(42), r2(42);
    const auto a = search::enumerate_edits(tree, f.design.die(), r1);
    const auto b = search::enumerate_edits(tree, f.design.die(), r2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].a, b[i].a);
      EXPECT_EQ(a[i].b, b[i].b);
      EXPECT_EQ(a[i].c, b[i].c);
    }
    if (++checked >= 5) break;
  }
  EXPECT_GE(checked, 1);
}

// --- replace_tree vs from-scratch rebuild -----------------------------------

TEST(ReplaceTree, MatchesFromScratchMovableIndex) {
  Fixture f = make_fixture(13);
  f.forest.build_movable_index();
  Rng rng(99);
  int applied = 0;
  for (int attempt = 0; attempt < 40 && applied < 6; ++attempt) {
    const int t = static_cast<int>(rng.index(f.forest.trees.size()));
    const SteinerTree& tree = f.forest.trees[static_cast<std::size_t>(t)];
    if (tree.num_steiner_nodes() == 0) continue;
    for (const auto& e : search::enumerate_edits(tree, f.design.die(), rng)) {
      auto next = search::apply_edit(tree, f.design.die(), e);
      if (!next.has_value()) continue;
      f.forest.replace_tree(t, std::move(*next));
      ++applied;
      break;
    }
    SteinerForest scratch;
    scratch.trees = f.forest.trees;
    scratch.net_to_tree = f.forest.net_to_tree;
    scratch.build_movable_index();
    ASSERT_EQ(f.forest.num_movable(), scratch.num_movable());
    for (std::size_t i = 0; i < scratch.movable().size(); ++i) {
      ASSERT_EQ(f.forest.movable()[i].tree, scratch.movable()[i].tree) << "ref " << i;
      ASSERT_EQ(f.forest.movable()[i].node, scratch.movable()[i].node) << "ref " << i;
    }
  }
  EXPECT_GE(applied, 1);
  EXPECT_TRUE(verify::check_forest_invariants(f.design, f.forest,
                                              /*require_min_degree=*/true)
                  .empty());
}

// --- MCTS determinism -------------------------------------------------------

TEST(Mcts, BitIdenticalAcrossReruns) {
  const Fixture f = make_fixture(17);
  // Pure deterministic score: wirelength saved by the candidate topology.
  int searched = 0;
  for (const SteinerTree& tree : f.forest.trees) {
    if (tree.num_steiner_nodes() == 0) continue;
    const double wl0 = tree.wirelength();
    const search::TopoScoreFn score = [&](const SteinerTree& cand, bool) {
      return wl0 - cand.wirelength();
    };
    search::MctsOptions opts;
    opts.rollouts = 8;
    opts.seed = 0xfeed;
    const auto a = search::search_tree_edits(tree, f.design.die(), 1, 2, score, opts);
    const auto b = search::search_tree_edits(tree, f.design.die(), 1, 2, score, opts);
    EXPECT_EQ(a.best_path.size(), b.best_path.size());
    EXPECT_EQ(std::memcmp(&a.best_score, &b.best_score, sizeof(double)), 0);
    EXPECT_EQ(a.stats.proposed, b.stats.proposed);
    EXPECT_EQ(a.stats.rejected, b.stats.rejected);
    EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
    if (!a.best_path.empty()) {
      EXPECT_TRUE(search::validate_edited_tree(tree, a.best_tree, f.design.die()).empty());
    }
    if (++searched >= 4) break;
  }
  EXPECT_GE(searched, 1);
}

// --- interleaved refine determinism & contracts -----------------------------

RefineOptions topo_options() {
  RefineOptions opts;
  opts.max_iterations = 6;
  opts.topology.enabled = true;
  opts.topology.rounds = 2;
  opts.topology.gradient_iterations = 3;
  opts.topology.nets_per_round = 2;
  opts.topology.rollouts = 6;
  opts.topology.max_depth = 2;
  opts.topology.max_candidates = 6;
  return opts;
}

TEST(TopologyRefine, BitIdenticalAcrossPoolWidthsAndReruns) {
  const Fixture f = make_fixture(19);
  const TimingGnn model = make_model();
  const std::size_t prev = parallel_threads();

  auto run = [&](std::size_t width) {
    set_parallel_threads(width);
    return refine_steiner_points(f.design, f.forest, model, topo_options());
  };
  const RefineResult serial = run(1);
  const RefineResult wide = run(4);
  const RefineResult again = run(4);
  set_parallel_threads(prev);

  EXPECT_EQ(std::memcmp(&serial.best_wns, &wide.best_wns, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&serial.best_tns, &wide.best_tns, sizeof(double)), 0);
  EXPECT_TRUE(testutil::forests_bit_equal(serial.forest, wide.forest));
  EXPECT_EQ(std::memcmp(&wide.best_wns, &again.best_wns, sizeof(double)), 0);
  EXPECT_TRUE(testutil::forests_bit_equal(wide.forest, again.forest));
  EXPECT_TRUE(verify::check_forest_invariants(f.design, serial.forest,
                                              /*require_min_degree=*/true)
                  .empty());
}

TEST(TopologyRefine, OffKnobKeepsClassicLoopBitIdentical) {
  const Fixture f = make_fixture(23);
  const TimingGnn model = make_model();
  RefineOptions classic;
  classic.max_iterations = 5;
  RefineOptions off = classic;
  off.topology.rounds = 7;  // non-default knobs must be inert while disabled
  off.topology.rollouts = 3;
  const RefineResult a = refine_steiner_points(f.design, f.forest, model, classic);
  const RefineResult b = refine_steiner_points(f.design, f.forest, model, off);
  EXPECT_EQ(std::memcmp(&a.best_wns, &b.best_wns, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.best_tns, &b.best_tns, sizeof(double)), 0);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_TRUE(testutil::forests_bit_equal(a.forest, b.forest));
}

TEST(TopologyRefine, KeepBestMonotoneWithSignoffAnchor) {
  Fixture f = make_fixture(29);
  const Flow flow(&f.design);
  const SteinerForest initial = flow.initial_forest();
  const TimingGnn model = make_model();

  RefineOptions opts = topo_options();
  IncrementalSignoff episodic(&f.design, flow.options());
  opts.topology.episodic_signoff = [&](const SteinerForest& forest,
                                       const std::vector<int>& dirty) -> SignoffProbeResult {
    const IncrementalSignoff::Result& r = episodic.update(forest, dirty);
    return {r.metrics.wns_ns, r.metrics.tns_ns, r.incremental};
  };
  opts.topology.full_signoff = [&](const SteinerForest& forest) -> SignoffProbeResult {
    const FlowResult r = flow.run_signoff(forest);
    return {r.metrics.wns_ns, r.metrics.tns_ns, false};
  };

  const FlowResult before = flow.run_signoff(initial);
  const RefineResult result = refine_steiner_points(f.design, initial, model, opts);
  const FlowResult after = flow.run_signoff(result.forest);

  // The full sign-off anchors keep-best: the returned forest is either the
  // untouched input (pass-through guard) or strictly better under the
  // normalized WNS+TNS improvement the driver maximizes.
  const bool passthrough = testutil::forests_bit_equal(result.forest, initial);
  const double sw = std::max(std::abs(before.metrics.wns_ns), 1e-9);
  const double st = std::max(std::abs(before.metrics.tns_ns), 1e-9);
  const double gain = (after.metrics.wns_ns - before.metrics.wns_ns) / sw +
                      (after.metrics.tns_ns - before.metrics.tns_ns) / st;
  EXPECT_TRUE(passthrough || gain > 0.0)
      << "anchored keep-best regressed: gain=" << gain;
  EXPECT_TRUE(verify::check_forest_invariants(f.design, result.forest,
                                              /*require_min_degree=*/true)
                  .empty());
}

TEST(TopologyRefine, TrainedSearchDeterministicAndBeatsGradientOnly) {
  // One 260-cell design with an evaluator trained on its own sign-off
  // labels; 3 search rounds x 12 gradient iterations against 36
  // gradient-only iterations, both signed off through the same Flow. The
  // search arm wires the episodic reward and the full sign-off anchor as the
  // serve layer does.
  constexpr int kRounds = 3;
  constexpr int kIters = 12;
  BenchmarkSpec spec;
  spec.name = "topo_search";
  spec.target_cells = 260;
  spec.endpoints = 65;
  spec.is_training = true;
  spec.seed = 4242;
  const PreparedDesign pd = prepare_design(lib(), spec, 1.0);
  const Flow& flow = *pd.flow;
  const SteinerForest initial = flow.initial_forest();

  std::vector<TrainingSample> samples{make_training_sample(pd, initial)};
  Rng rng(77);
  const double dist = 2.0 * static_cast<double>(flow.options().router.gcell_size);
  for (int k = 0; k < 3; ++k) {
    Rng child = rng.fork();
    samples.push_back(
        make_training_sample(pd, random_disturb(initial, pd.design->die(), dist, child)));
  }
  TimingGnn model(GnnConfig{}, lib().num_types());
  TrainOptions topt;
  topt.epochs = 40;
  topt.lr = 1e-3;
  Trainer(&model, topt).fit(samples);

  RefineOptions gradient_only;
  gradient_only.gcell_size = flow.options().router.gcell_size;
  gradient_only.max_iterations = kRounds * kIters;
  const auto search = [&] {
    IncrementalSignoff episodic(pd.design.get(), flow.options());
    RefineOptions o = gradient_only;
    o.topology.enabled = true;
    o.topology.rounds = kRounds;
    o.topology.gradient_iterations = kIters;
    o.topology.episodic_signoff = [&](const SteinerForest& forest,
                                      const std::vector<int>& dirty) -> SignoffProbeResult {
      const IncrementalSignoff::Result& r = episodic.update(forest, dirty);
      return {r.metrics.wns_ns, r.metrics.tns_ns, r.incremental};
    };
    o.topology.full_signoff = [&](const SteinerForest& forest) -> SignoffProbeResult {
      const FlowResult r = flow.run_signoff(forest);
      return {r.metrics.wns_ns, r.metrics.tns_ns, false};
    };
    return refine_steiner_points(*pd.design, initial, model, o);
  };

  // Deterministic at pool widths 1 and 4 and on a rerun at the ambient width.
  const std::size_t prev = parallel_threads();
  const RefineResult rerun = search();
  set_parallel_threads(1);
  const RefineResult serial = search();
  set_parallel_threads(4);
  const RefineResult wide = search();
  set_parallel_threads(prev);
  EXPECT_TRUE(testutil::forests_bit_equal(serial.forest, wide.forest));
  EXPECT_TRUE(testutil::forests_bit_equal(serial.forest, rerun.forest));
  EXPECT_EQ(std::memcmp(&serial.best_wns, &wide.best_wns, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&serial.best_tns, &wide.best_tns, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&serial.best_wns, &rerun.best_wns, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&serial.best_tns, &rerun.best_tns, sizeof(double)), 0);

  // Non-default topology knobs are inert while the enable flag stays off.
  const RefineResult grad = refine_steiner_points(*pd.design, initial, model, gradient_only);
  RefineOptions off = gradient_only;
  off.topology.rounds = 9;
  off.topology.rollouts = 5;
  const RefineResult off_run = refine_steiner_points(*pd.design, initial, model, off);
  EXPECT_TRUE(testutil::forests_bit_equal(off_run.forest, grad.forest));
  EXPECT_EQ(std::memcmp(&off_run.best_wns, &grad.best_wns, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&off_run.best_tns, &grad.best_tns, sizeof(double)), 0);

  // The search edits the forest, its sign-off is no worse than the initial
  // forest's (the anchor's pass-through guarantee end to end), and it wins.
  int edits_applied = 0;
  for (const obs::RefineIterationRecord& rec : serial.iteration_log) {
    edits_applied += rec.search_edits_applied;
  }
  EXPECT_GT(edits_applied, 0);
  const SignoffMetrics s_init = flow.run_signoff(initial).metrics;
  const SignoffMetrics s_grad = flow.run_signoff(grad.forest).metrics;
  const SignoffMetrics s_search = flow.run_signoff(serial.forest).metrics;
  const double tol = 1e-9;
  EXPECT_GE(s_search.wns_ns, s_init.wns_ns - tol);
  EXPECT_GE(s_search.tns_ns, s_init.tns_ns - tol);
  EXPECT_TRUE(s_search.wns_ns > s_grad.wns_ns + tol || s_search.tns_ns > s_grad.tns_ns + tol)
      << "search WNS " << s_search.wns_ns << " TNS " << s_search.tns_ns
      << " vs gradient-only WNS " << s_grad.wns_ns << " TNS " << s_grad.tns_ns;
}

}  // namespace
}  // namespace tsteiner
