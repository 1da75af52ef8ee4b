#include <gtest/gtest.h>

#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "steiner/edge_shift.hpp"
#include "steiner/rsmt.hpp"
#include "steiner/steiner_tree.hpp"
#include "util/parallel.hpp"

#include "testutil.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

/// A small placed design with a single multi-pin net.
Design make_star_net(const std::vector<PointI>& sink_positions, PointI driver_pos) {
  Design d("star", &lib());
  d.set_die({{0, 0}, {200, 200}});
  const int drv = d.add_cell(lib().find("INV_X1"));
  d.cell(drv).pos = driver_pos;
  const int net = d.add_net(d.cell(drv).output_pin);
  for (const PointI& p : sink_positions) {
    const int c = d.add_cell(lib().find("INV_X1"));
    d.cell(c).pos = p;
    d.connect_sink(net, d.cell(c).input_pins[0]);
  }
  return d;
}

TEST(Rsmt, TwoPinNetIsSingleEdge) {
  Design d = make_star_net({{30, 40}}, {0, 0});
  const SteinerTree t = build_rsmt(d, 0);
  EXPECT_TRUE(t.is_valid_tree());
  EXPECT_EQ(t.nodes.size(), 2u);
  EXPECT_EQ(t.edges.size(), 1u);
  EXPECT_EQ(t.num_steiner_nodes(), 0);
  EXPECT_DOUBLE_EQ(t.wirelength(), 70.0);
}

TEST(Rsmt, LShapedThreePinGetsSteinerPoint) {
  // Classic case: 3 pins at corners — one Steiner point saves wirelength.
  Design d = make_star_net({{100, 0}, {50, 80}}, {0, 0});
  const SteinerTree t = build_rsmt(d, 0);
  EXPECT_TRUE(t.is_valid_tree());
  EXPECT_EQ(t.num_steiner_nodes(), 1);
  // optimal RSMT: x-span 100 + y-span 80 ... = 180
  EXPECT_DOUBLE_EQ(t.wirelength(), 180.0);
}

TEST(Rsmt, CollinearPinsNeedNoSteiner) {
  Design d = make_star_net({{50, 0}, {100, 0}}, {0, 0});
  const SteinerTree t = build_rsmt(d, 0);
  EXPECT_EQ(t.num_steiner_nodes(), 0);
  EXPECT_DOUBLE_EQ(t.wirelength(), 100.0);
}

TEST(Rsmt, NeverLongerThanMst) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int k = static_cast<int>(rng.uniform_int(2, 9));
    std::vector<PointI> sinks;
    std::vector<PointF> pts{{0.0, 0.0}};
    for (int i = 0; i < k; ++i) {
      const PointI p{rng.uniform_int(0, 150), rng.uniform_int(0, 150)};
      sinks.push_back(p);
      pts.push_back(to_f(p));
    }
    Design d = make_star_net(sinks, {0, 0});
    const SteinerTree t = build_rsmt(d, 0);
    EXPECT_TRUE(t.is_valid_tree());
    EXPECT_LE(t.wirelength(), mst_length(pts) + 1e-9) << "trial " << trial;
    // Steiner ratio bound: RSMT >= 2/3 * MST for rectilinear metric
    EXPECT_GE(t.wirelength(), mst_length(pts) * 2.0 / 3.0 - 1e-9);
  }
}

TEST(Rsmt, SteinerNodesHaveDegreeAtLeastThree) {
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<PointI> sinks;
    for (int i = 0; i < 7; ++i) {
      sinks.push_back({rng.uniform_int(0, 99), rng.uniform_int(0, 99)});
    }
    Design d = make_star_net(sinks, {50, 50});
    const SteinerTree t = build_rsmt(d, 0);
    const auto adj = t.adjacency();
    for (std::size_t n = 0; n < t.nodes.size(); ++n) {
      if (t.nodes[n].is_steiner()) {
        const std::size_t degree = adj[n].size();
        EXPECT_GE(degree, 3u);
      }
    }
  }
}

TEST(Rsmt, LargeNetUsesMstCandidates) {
  Rng rng(33);
  std::vector<PointI> sinks;
  for (int i = 0; i < 30; ++i) {
    sinks.push_back({rng.uniform_int(0, 180), rng.uniform_int(0, 180)});
  }
  Design d = make_star_net(sinks, {90, 90});
  const SteinerTree t = build_rsmt(d, 0);
  EXPECT_TRUE(t.is_valid_tree());
  EXPECT_EQ(t.nodes.size(), t.edges.size() + 1);
}

TEST(Rsmt, SinklessNetThrows) {
  Design d("empty", &lib());
  d.set_die({{0, 0}, {10, 10}});
  const int c = d.add_cell(lib().find("INV_X1"));
  d.add_net(d.cell(c).output_pin);
  EXPECT_THROW(build_rsmt(d, 0), std::runtime_error);
}

TEST(SteinerTree, PathLengthsFromDriver) {
  Design d = make_star_net({{10, 0}, {10, 10}}, {0, 0});
  const SteinerTree t = build_rsmt(d, 0);
  const auto dist = t.path_lengths_from_driver();
  EXPECT_DOUBLE_EQ(dist[static_cast<std::size_t>(t.driver_node)], 0.0);
  for (std::size_t n = 0; n < t.nodes.size(); ++n) {
    if (static_cast<int>(n) != t.driver_node) {
      const double from_driver = dist[n];
      EXPECT_GT(from_driver, 0.0);
    }
  }
}

TEST(SteinerTree, ValidityChecks) {
  SteinerTree t;
  EXPECT_FALSE(t.is_valid_tree());  // empty
  t.nodes.push_back({{0, 0}, 0});
  t.driver_node = 0;
  EXPECT_TRUE(t.is_valid_tree());  // single pin, no edges
  t.nodes.push_back({{1, 1}, 1});
  EXPECT_FALSE(t.is_valid_tree());  // disconnected
  t.edges.push_back({0, 1});
  EXPECT_TRUE(t.is_valid_tree());
}

TEST(Forest, MovableIndexGatherScatterRoundTrip) {
  GeneratorParams p;
  p.num_comb_cells = 150;
  p.num_registers = 16;
  p.num_primary_inputs = 4;
  p.num_primary_outputs = 4;
  p.seed = 8;
  Design d = generate_design(lib(), p);
  place_design(d);
  SteinerForest f = build_forest(d);
  ASSERT_GT(f.num_movable(), 0u);
  auto xs = f.gather_x();
  auto ys = f.gather_y();
  for (double& x : xs) x += 1.5;
  for (double& y : ys) y -= 0.5;
  f.scatter_xy(xs, ys);
  EXPECT_EQ(f.gather_x(), xs);
  EXPECT_EQ(f.gather_y(), ys);
}

TEST(Forest, ClampAndRound) {
  SteinerForest f;
  SteinerTree t;
  t.net = 0;
  t.nodes.push_back({{0.0, 0.0}, 0});
  t.nodes.push_back({{-3.7, 12.2}, -1});
  t.nodes.push_back({{5.0, 5.0}, 1});
  t.nodes.push_back({{2.0, 2.0}, 2});
  t.edges = {{0, 1}, {1, 2}, {1, 3}};
  t.driver_node = 0;
  f.trees.push_back(t);
  f.build_movable_index();
  f.clamp_steiner_points({{0, 0}, {10, 10}});
  EXPECT_DOUBLE_EQ(f.trees[0].nodes[1].pos.x, 0.0);
  EXPECT_DOUBLE_EQ(f.trees[0].nodes[1].pos.y, 10.0);
  f.trees[0].nodes[1].pos = {3.6, 4.4};
  f.round_steiner_points();
  EXPECT_DOUBLE_EQ(f.trees[0].nodes[1].pos.x, 4.0);
  EXPECT_DOUBLE_EQ(f.trees[0].nodes[1].pos.y, 4.0);
  // pin nodes untouched by clamp/round
  EXPECT_DOUBLE_EQ(f.trees[0].nodes[2].pos.x, 5.0);
}

TEST(Forest, BuildForestCoversAllSinkfulNets) {
  GeneratorParams p;
  p.num_comb_cells = 120;
  p.num_registers = 12;
  p.num_primary_inputs = 4;
  p.num_primary_outputs = 4;
  p.seed = 9;
  Design d = generate_design(lib(), p);
  place_design(d);
  const SteinerForest f = build_forest(d);
  for (const Net& n : d.nets()) {
    if (!n.sink_pins.empty()) {
      EXPECT_GE(f.net_to_tree[static_cast<std::size_t>(n.id)], 0);
    }
  }
  for (const SteinerTree& t : f.trees) EXPECT_TRUE(t.is_valid_tree());
}

TEST(Forest, ParallelConstructionMatchesSerial) {
  GeneratorParams p;
  p.num_comb_cells = 300;
  p.num_registers = 30;
  p.num_primary_inputs = 6;
  p.num_primary_outputs = 6;
  p.seed = 10;
  Design d = generate_design(lib(), p);
  place_design(d);
  testutil::PoolWidthGuard guard;
  set_parallel_threads(1);
  const SteinerForest a = build_forest(d);
  set_parallel_threads(4);
  const std::uint64_t jobs0 = parallel_jobs();
  const SteinerForest b = build_forest(d);
  EXPECT_GT(parallel_jobs(), jobs0) << "width 4 never reached the pool";
  ASSERT_EQ(a.trees.size(), b.trees.size());
  EXPECT_EQ(a.net_to_tree, b.net_to_tree);
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    ASSERT_EQ(a.trees[t].nodes.size(), b.trees[t].nodes.size()) << "tree " << t;
    for (std::size_t n = 0; n < a.trees[t].nodes.size(); ++n) {
      EXPECT_EQ(a.trees[t].nodes[n].pin, b.trees[t].nodes[n].pin);
      EXPECT_EQ(a.trees[t].nodes[n].pos, b.trees[t].nodes[n].pos);
    }
  }
}

TEST(EdgeShift, ReducesCustomCost) {
  // Cost spikes for edges entering x > 50 — shifting should pull the
  // Steiner point left when wirelength allows.
  Design d = make_star_net({{100, 0}, {100, 80}}, {0, 40});
  SteinerTree t = build_rsmt(d, 0);
  ASSERT_EQ(t.num_steiner_nodes(), 1);
  const auto cost = [](const PointF& a, const PointF& b) {
    return manhattan(a, b) + (a.x > 50.0 ? 10.0 : 0.0) + (b.x > 50.0 ? 10.0 : 0.0);
  };
  double before = 0.0;
  for (const SteinerEdge& e : t.edges) {
    before += cost(t.nodes[static_cast<std::size_t>(e.a)].pos,
                   t.nodes[static_cast<std::size_t>(e.b)].pos);
  }
  edge_shift(t, cost);
  double after = 0.0;
  for (const SteinerEdge& e : t.edges) {
    after += cost(t.nodes[static_cast<std::size_t>(e.a)].pos,
                  t.nodes[static_cast<std::size_t>(e.b)].pos);
  }
  EXPECT_LE(after, before);
  EXPECT_TRUE(t.is_valid_tree());
}

TEST(EdgeShift, NoOpWhenCostIsWirelength) {
  Design d = make_star_net({{60, 0}, {30, 50}, {80, 70}}, {0, 0});
  SteinerTree t = build_rsmt(d, 0);
  const double wl_before = t.wirelength();
  edge_shift(t, [](const PointF& a, const PointF& b) { return manhattan(a, b); });
  // wirelength never increases beyond the slack tolerance
  EXPECT_LE(t.wirelength(), wl_before * 1.03);
}

TEST(EdgeShift, PreservesTopology) {
  Rng rng(44);
  std::vector<PointI> sinks;
  for (int i = 0; i < 12; ++i) {
    sinks.push_back({rng.uniform_int(0, 120), rng.uniform_int(0, 120)});
  }
  Design d = make_star_net(sinks, {60, 60});
  SteinerTree t = build_rsmt(d, 0);
  const std::size_t nodes_before = t.nodes.size();
  const std::size_t edges_before = t.edges.size();
  edge_shift(t, [&rng](const PointF& a, const PointF& b) {
    return manhattan(a, b) * (1.0 + 0.1 * std::sin(a.x + b.y));
  });
  EXPECT_EQ(t.nodes.size(), nodes_before);
  EXPECT_EQ(t.edges.size(), edges_before);
  EXPECT_TRUE(t.is_valid_tree());
}

}  // namespace
}  // namespace tsteiner
