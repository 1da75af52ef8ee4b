// Bit-exactness of the incremental sign-off path against the full pipeline,
// layer by layer: global-route replay, detailed-route state, and the
// composed IncrementalSignoff versus Flow::run_signoff.
#include <gtest/gtest.h>

#include <cstring>

#include "flow/experiment.hpp"
#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "netlist/design_generator.hpp"
#include "obs/metrics.hpp"
#include "place/placer.hpp"
#include "tsteiner/refine.hpp"
#include "util/rng.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

Design make_design(std::uint64_t seed, int comb = 200) {
  GeneratorParams p;
  p.num_comb_cells = comb;
  p.num_registers = comb / 9;
  p.num_primary_inputs = 5;
  p.num_primary_outputs = 5;
  p.seed = seed;
  Design d = generate_design(lib(), p);
  place_design(d);
  return d;
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

void expect_gr_identical(const GlobalRouteResult& a, const GlobalRouteResult& b) {
  EXPECT_EQ(a.wirelength_dbu, b.wirelength_dbu);
  EXPECT_EQ(a.total_overflow, b.total_overflow);
  EXPECT_EQ(a.overflowed_edges, b.overflowed_edges);
  ASSERT_EQ(a.connections.size(), b.connections.size());
  for (std::size_t c = 0; c < a.connections.size(); ++c) {
    const auto& pa = a.connections[c].path;
    const auto& pb = b.connections[c].path;
    ASSERT_EQ(pa.size(), pb.size()) << "connection " << c;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].x, pb[i].x) << "connection " << c << " step " << i;
      EXPECT_EQ(pa[i].y, pb[i].y) << "connection " << c << " step " << i;
    }
  }
}

void expect_sta_identical(const StaResult& a, const StaResult& b) {
  ASSERT_EQ(a.arrival.size(), b.arrival.size());
  EXPECT_EQ(0, std::memcmp(a.arrival.data(), b.arrival.data(),
                           a.arrival.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(a.slew.data(), b.slew.data(), a.slew.size() * sizeof(double)));
  EXPECT_EQ(a.wns, b.wns);
  EXPECT_EQ(a.tns, b.tns);
  EXPECT_EQ(a.max_arrival, b.max_arrival);
  EXPECT_EQ(a.num_violations, b.num_violations);
  EXPECT_EQ(a.num_slew_violations, b.num_slew_violations);
  EXPECT_EQ(a.num_cap_violations, b.num_cap_violations);
}

void expect_signoff_identical(const IncrementalSignoff::Result& inc, const FlowResult& ref) {
  EXPECT_EQ(inc.metrics.wns_ns, ref.metrics.wns_ns);
  EXPECT_EQ(inc.metrics.tns_ns, ref.metrics.tns_ns);
  EXPECT_EQ(inc.metrics.num_vios, ref.metrics.num_vios);
  EXPECT_EQ(inc.metrics.wirelength_dbu, ref.metrics.wirelength_dbu);
  EXPECT_EQ(inc.metrics.num_vias, ref.metrics.num_vias);
  EXPECT_EQ(inc.metrics.num_drvs, ref.metrics.num_drvs);
  expect_gr_identical(*inc.gr, ref.gr);
  expect_sta_identical(*inc.sta, ref.sta);
}

TEST(GlobalRouterState, UpdateMatchesFreshRouteBitForBit) {
  Design d = make_design(201);
  const Flow flow(&d);
  GlobalRouterState state(&d, flow.options().router);
  state.route_full(flow.initial_forest());

  SteinerForest moved = flow.initial_forest();
  const std::vector<int> cand = movable_trees(moved);
  ASSERT_GE(cand.size(), 3u);
  std::vector<char> dirty(moved.trees.size(), 0);
  for (int k = 0; k < 3; ++k) {
    const int t = cand[static_cast<std::size_t>(k) * cand.size() / 3];
    nudge_tree(moved, t, 11.0 - 3.0 * k, -5.0 + 4.0 * k);
    dirty[static_cast<std::size_t>(t)] = 1;
  }
  const GlobalRouteResult& incremental = state.update(moved, dirty);
  const GlobalRouteResult fresh = global_route(d, moved, flow.options().router);
  expect_gr_identical(incremental, fresh);
}

TEST(GlobalRouterState, NoOpUpdateIsAHitAndIdentical) {
  Design d = make_design(202);
  const Flow flow(&d);
  GlobalRouterState state(&d, flow.options().router);
  const GlobalRouteResult full = state.route_full(flow.initial_forest());
  const long long mazes = state.last_total_mazes();
  ASSERT_GT(mazes, 0) << "no RRR mazes ran; the no-search check is vacuous";

  obs::set_metrics_enabled(true);
  const obs::Counter& searched = obs::metrics().counter("route.mazes_searched");
  const std::uint64_t searched_before = searched.value();
  const std::vector<char> dirty(flow.initial_forest().trees.size(), 0);
  const GlobalRouteResult& again = state.update(flow.initial_forest(), dirty);
  const std::uint64_t searched_after = searched.value();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(searched_after, searched_before) << "a no-move update must search no maze";
  EXPECT_TRUE(state.last_update_was_hit());
  EXPECT_EQ(state.last_total_mazes(), mazes);
  expect_gr_identical(again, full);

  // The sign-off reports the kept route's mazes as reused.
  IncrementalSignoff signoff(&d, flow.options());
  signoff.full(flow.initial_forest());
  const IncrementalSignoff::Result& r = signoff.update(flow.initial_forest(), {});
  EXPECT_EQ(r.total_mazes, mazes);
  EXPECT_EQ(r.reused_mazes, r.total_mazes);
}

/// Router options under which RRR fires on every route: 2-DBU gcells, a
/// 2-gcell maze margin and capacities at p90 demand.
FlowOptions congested_options() {
  FlowOptions fopts;
  fopts.router.gcell_size = 2;
  fopts.router.maze_margin = 2;
  fopts.router.capacity_factor = 1.0;
  return fopts;
}

/// The movable tree whose Steiner points sit closest to the lower-left die
/// corner: nudging it perturbs one corner of the routing field.
int corner_tree(const SteinerForest& forest) {
  const std::vector<int> cand = movable_trees(forest);
  int best_tree = cand.empty() ? -1 : cand.front();
  double best = 1e300;
  for (const int t : cand) {
    for (const SteinerNode& n : forest.trees[static_cast<std::size_t>(t)].nodes) {
      if (n.is_steiner() && n.pos.x + n.pos.y < best) {
        best = n.pos.x + n.pos.y;
        best_tree = t;
      }
    }
  }
  return best_tree;
}

// Under structural congestion a replay whose only change is one nudged
// corner tree re-runs every negotiation round and must land on the fresh
// route's exact paths.
TEST(GlobalRouterState, CongestedCornerUpdateMatchesFreshRoute) {
  Design d = make_design(206, 300);
  const Flow flow(&d, congested_options());  // pins calibrated capacities into options()
  GlobalRouterState state(&d, flow.options().router);
  state.route_full(flow.initial_forest());

  SteinerForest moved = flow.initial_forest();
  const int t = corner_tree(moved);
  ASSERT_GE(t, 0);
  nudge_tree(moved, t, 2.0, 2.0);
  std::vector<char> dirty(moved.trees.size(), 0);
  dirty[static_cast<std::size_t>(t)] = 1;
  const GlobalRouteResult& inc = state.update(moved, dirty);

  ASSERT_GT(state.last_total_mazes(), 0) << "no RRR mazes ran; the exactness check is vacuous";
  const GlobalRouteResult fresh = global_route(d, moved, flow.options().router);
  expect_gr_identical(inc, fresh);
}

// The no-move rule returns whatever the previous update left, so a no-move
// update right after a congested replay must still equal a fresh route.
TEST(GlobalRouterState, NoMoveUpdateAfterCongestedUpdateMatchesFreshRoute) {
  Design d = make_design(206, 300);
  const Flow flow(&d, congested_options());
  GlobalRouterState state(&d, flow.options().router);
  state.route_full(flow.initial_forest());

  SteinerForest moved = flow.initial_forest();
  const int t = corner_tree(moved);
  ASSERT_GE(t, 0);
  nudge_tree(moved, t, 2.0, 2.0);
  std::vector<char> dirty(moved.trees.size(), 0);
  dirty[static_cast<std::size_t>(t)] = 1;
  state.update(moved, dirty);
  const long long mazes = state.last_total_mazes();
  ASSERT_GT(mazes, 0);

  const GlobalRouteResult& again = state.update(moved, std::vector<char>(moved.trees.size(), 0));
  EXPECT_TRUE(state.changed_connections().empty());
  EXPECT_EQ(state.last_total_mazes(), mazes);
  const GlobalRouteResult fresh = global_route(d, moved, flow.options().router);
  expect_gr_identical(again, fresh);
}

TEST(GlobalRouterState, UpdateRejectsMissizedDirtyFlags) {
  Design d = make_design(209);
  const Flow flow(&d);
  GlobalRouterState state(&d, flow.options().router);
  state.route_full(flow.initial_forest());
  const std::size_t trees = flow.initial_forest().trees.size();
  EXPECT_THROW(state.update(flow.initial_forest(), std::vector<char>(trees + 1, 0)),
               std::invalid_argument);
  EXPECT_THROW(state.update(flow.initial_forest(), {}), std::invalid_argument);
}

TEST(DetailedRouteState, UpdateMatchesFullSurrogateBitForBit) {
  Design d = make_design(203);
  const Flow flow(&d);
  GlobalRouterState router(&d, flow.options().router);
  router.route_full(flow.initial_forest());

  DetailedRouteState dr(&d, flow.options().droute);
  dr.full(router.result());

  SteinerForest moved = flow.initial_forest();
  const std::vector<int> cand = movable_trees(moved);
  ASSERT_GE(cand.size(), 2u);
  std::vector<char> dirty(moved.trees.size(), 0);
  nudge_tree(moved, cand.front(), 17.0, 9.0);
  nudge_tree(moved, cand.back(), -13.0, 6.0);
  dirty[static_cast<std::size_t>(cand.front())] = 1;
  dirty[static_cast<std::size_t>(cand.back())] = 1;
  const GlobalRouteResult& gr = router.update(moved, dirty);

  const DetailedRouteResult& inc = dr.update(gr, router.changed_connections());
  const DetailedRouteResult ref = detailed_route(d, moved, gr, flow.options().droute);
  EXPECT_EQ(inc.wirelength_dbu, ref.wirelength_dbu);
  EXPECT_EQ(inc.num_vias, ref.num_vias);
  EXPECT_EQ(inc.num_drvs, ref.num_drvs);
  EXPECT_EQ(inc.repair_rounds_used, ref.repair_rounds_used);
  EXPECT_EQ(inc.repair_work, ref.repair_work);
}

TEST(IncrementalSignoff, FullMatchesFlowRunSignoff) {
  Design d = make_design(204);
  const Flow flow(&d);
  IncrementalSignoff signoff(&d, flow.options());
  const IncrementalSignoff::Result& r = signoff.full(flow.initial_forest());
  const FlowResult ref = flow.run_signoff(flow.initial_forest());
  EXPECT_FALSE(r.incremental);
  expect_signoff_identical(r, ref);
}

TEST(IncrementalSignoff, UpdateRoundsMatchFullSignoffBitForBit) {
  Design d = make_design(205);
  const Flow flow(&d);
  IncrementalSignoff signoff(&d, flow.options());
  signoff.full(flow.initial_forest());

  SteinerForest moved = flow.initial_forest();
  Rng rng(7);
  for (int round = 0; round < 4; ++round) {
    const std::vector<int> cand = movable_trees(moved);
    ASSERT_FALSE(cand.empty());
    std::vector<int> dirty;
    const int picks = 1 + static_cast<int>(rng.index(3));
    for (int k = 0; k < picks; ++k) {
      const int t = cand[rng.index(cand.size())];
      dirty.push_back(nudge_tree(moved, t, rng.uniform(-14.0, 14.0), rng.uniform(-14.0, 14.0)));
    }
    // Duplicates must be tolerated (refine emits one entry per moved point).
    dirty.push_back(dirty.front());
    const IncrementalSignoff::Result& r = signoff.update(moved, dirty);
    EXPECT_TRUE(r.incremental);
    const FlowResult ref = flow.run_signoff(moved);
    expect_signoff_identical(r, ref);
  }
}

TEST(IncrementalSignoff, EmptyDirtyListIsAnExactHit) {
  Design d = make_design(206);
  const Flow flow(&d);
  IncrementalSignoff signoff(&d, flow.options());
  const SignoffMetrics base = signoff.full(flow.initial_forest()).metrics;
  const IncrementalSignoff::Result& r = signoff.update(flow.initial_forest(), {});
  EXPECT_TRUE(r.incremental);
  EXPECT_EQ(r.num_rerouted, 0u);
  EXPECT_EQ(r.metrics.wns_ns, base.wns_ns);
  EXPECT_EQ(r.metrics.tns_ns, base.tns_ns);
  EXPECT_EQ(r.metrics.wirelength_dbu, base.wirelength_dbu);
  EXPECT_EQ(r.metrics.num_drvs, base.num_drvs);
}

TEST(IncrementalSignoff, UpdateRejectsUnknownDirtyNets) {
  Design d = make_design(210);
  const Flow flow(&d);
  IncrementalSignoff signoff(&d, flow.options());
  signoff.full(flow.initial_forest());
  const int nets = static_cast<int>(flow.initial_forest().net_to_tree.size());
  EXPECT_THROW(signoff.update(flow.initial_forest(), {-1}), std::out_of_range);
  EXPECT_THROW(signoff.update(flow.initial_forest(), {0, nets}), std::out_of_range);
  // A rejected call leaves the state usable.
  const IncrementalSignoff::Result& r = signoff.update(flow.initial_forest(), {});
  EXPECT_TRUE(r.incremental);
  expect_signoff_identical(r, flow.run_signoff(flow.initial_forest()));
}

TEST(Flow, ProbeRouteIsCachedAcrossConstructions) {
  obs::set_metrics_enabled(true);
  obs::metrics().counter("flow.probe_cache_hits").reset();
  Design d1 = make_design(208);
  Design d2 = make_design(208);
  const Flow f1(&d1);
  const std::uint64_t hits_after_first = obs::metrics().counter("flow.probe_cache_hits").value();
  const Flow f2(&d2);
  obs::set_metrics_enabled(false);
  // Identical design/forest/options: the second construction must reuse the
  // first probe route...
  EXPECT_GT(obs::metrics().counter("flow.probe_cache_hits").value(), hits_after_first);
  // ...and land on the identical pinned calibration.
  EXPECT_EQ(f1.options().router.fixed_h_cap, f2.options().router.fixed_h_cap);
  EXPECT_EQ(f1.options().router.fixed_v_cap, f2.options().router.fixed_v_cap);
  const FlowResult r1 = f1.run_signoff(f1.initial_forest());
  const FlowResult r2 = f2.run_signoff(f2.initial_forest());
  EXPECT_EQ(r1.metrics.wns_ns, r2.metrics.wns_ns);
  EXPECT_EQ(r1.metrics.wirelength_dbu, r2.metrics.wirelength_dbu);
}

TEST(IncrementalSignoff, UpdateWithoutPriorFullRunsFull) {
  Design d = make_design(207);
  const Flow flow(&d);
  IncrementalSignoff signoff(&d, flow.options());
  const IncrementalSignoff::Result& r = signoff.update(flow.initial_forest(), {});
  EXPECT_FALSE(r.incremental);
  const FlowResult ref = flow.run_signoff(flow.initial_forest());
  expect_signoff_identical(r, ref);
}

TEST(RefineProbe, IncrementalProbesMatchFullSignoffBitForBit) {
  // Wire a probe into the real refine loop and check, at every probe point,
  // that the incremental sign-off agrees with a full Flow::run_signoff on
  // the exact probed forest — the telemetry the JSONL stream reports must be
  // the golden numbers, not an approximation.
  const auto suite = benchmark_suite();
  PreparedDesign pd = prepare_design(lib(), suite[5], 1.0);  // spm
  GnnConfig cfg;
  cfg.hidden = 6;
  TimingGnn model(cfg, lib().num_types());

  RefineOptions ropts;
  ropts.max_iterations = 6;
  ropts.gcell_size = pd.flow->options().router.gcell_size;
  ropts.signoff_probe_every = 2;
  IncrementalSignoff inc(pd.design.get(), pd.flow->options());
  int probes = 0;
  int incremental_probes = 0;
  ropts.signoff_probe = [&](const SteinerForest& f, const std::vector<int>& dirty) {
    const IncrementalSignoff::Result& r = inc.update(f, dirty);
    const FlowResult ref = pd.flow->run_signoff(f);
    expect_signoff_identical(r, ref);
    ++probes;
    if (r.incremental) ++incremental_probes;
    return SignoffProbeResult{r.metrics.wns_ns, r.metrics.tns_ns, r.incremental};
  };

  const RefineResult rr =
      refine_steiner_points(*pd.design, pd.flow->initial_forest(), model, ropts);
  EXPECT_GE(probes, 2);
  EXPECT_GE(incremental_probes, 1) << "all probes after the anchor take the update path";
  int logged = 0;
  for (const obs::RefineIterationRecord& rec : rr.iteration_log) {
    if (!rec.has_signoff) continue;
    ++logged;
    EXPECT_GE(rec.signoff_dirty_frac, 0.0);
    EXPECT_LE(rec.signoff_dirty_frac, 1.0);
  }
  EXPECT_EQ(logged, probes);
}

}  // namespace
}  // namespace tsteiner
