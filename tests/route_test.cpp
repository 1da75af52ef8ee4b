#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "steiner/rsmt.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

TEST(GridGraph, DimensionsFromDie) {
  GridGraph g({{0, 0}, {80, 40}}, 8);
  EXPECT_GE(g.nx(), 10);
  EXPECT_GE(g.ny(), 5);
  EXPECT_EQ(g.gcell_size(), 8);
}

TEST(GridGraph, GcellLookupClamped) {
  GridGraph g({{0, 0}, {80, 80}}, 8);
  EXPECT_EQ(g.gcell_at(PointI{0, 0}).x, 0);
  EXPECT_EQ(g.gcell_at(PointI{7, 7}).x, 0);
  EXPECT_EQ(g.gcell_at(PointI{8, 0}).x, 1);
  // outside the die clamps to boundary gcells
  const GCell far = g.gcell_at(PointI{1000, 1000});
  EXPECT_EQ(far.x, g.nx() - 1);
  EXPECT_EQ(far.y, g.ny() - 1);
}

TEST(GridGraph, UsageAndOverflowAccounting) {
  GridGraph g({{0, 0}, {40, 40}}, 8);
  g.set_capacities(2.0, 2.0);
  EXPECT_DOUBLE_EQ(g.total_overflow(), 0.0);
  g.add_h_usage(0, 0, 3.0);
  EXPECT_DOUBLE_EQ(g.total_overflow(), 1.0);
  EXPECT_DOUBLE_EQ(g.max_overflow(), 1.0);
  EXPECT_EQ(g.num_overflowed_edges(), 1);
  g.clear_usage();
  EXPECT_DOUBLE_EQ(g.total_overflow(), 0.0);
}

TEST(GridGraph, CongestionBetweenAdjacent) {
  GridGraph g({{0, 0}, {40, 40}}, 8);
  g.set_capacities(4.0, 4.0);
  g.add_h_usage(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(g.congestion_between({1, 2}, {2, 2}), 0.5);
  EXPECT_DOUBLE_EQ(g.congestion_between({2, 2}, {1, 2}), 0.5);
  EXPECT_DOUBLE_EQ(g.congestion_between({1, 2}, {1, 2}), 0.0);
  EXPECT_THROW(g.congestion_between({0, 0}, {2, 2}), std::runtime_error);
}

TEST(GridGraph, SetCapacitiesRejectsNonPositiveOrNonFinite) {
  GridGraph g({{0, 0}, {40, 40}}, 8);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, kInf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(g.set_capacities(bad, 4.0), std::invalid_argument) << bad;
    EXPECT_THROW(g.set_capacities(4.0, bad), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(g.set_capacities(4.0, 4.0));
}

struct RoutedDesign {
  Design design;
  SteinerForest forest;
  GlobalRouteResult gr;
};

RoutedDesign route_small(std::uint64_t seed, RouterOptions opts = {}) {
  GeneratorParams p;
  p.num_comb_cells = 250;
  p.num_registers = 25;
  p.num_primary_inputs = 6;
  p.num_primary_outputs = 6;
  p.seed = seed;
  RoutedDesign rd{generate_design(lib(), p), {}, {}};
  place_design(rd.design);
  rd.forest = build_forest(rd.design);
  rd.gr = global_route(rd.design, rd.forest, opts);
  return rd;
}

TEST(GlobalRouter, RoutesEveryTreeEdge) {
  const RoutedDesign rd = route_small(31);
  std::size_t expected = 0;
  for (const SteinerTree& t : rd.forest.trees) expected += t.edges.size();
  EXPECT_EQ(rd.gr.connections.size(), expected);
  for (const auto& per_tree : rd.gr.conn_of_edge) {
    for (int ci : per_tree) EXPECT_GE(ci, 0);
  }
}

TEST(GlobalRouter, PathsAreConnectedGcellWalks) {
  const RoutedDesign rd = route_small(32);
  for (const RoutedConnection& c : rd.gr.connections) {
    ASSERT_FALSE(c.path.empty());
    for (std::size_t i = 1; i < c.path.size(); ++i) {
      const int dx = std::abs(c.path[i].x - c.path[i - 1].x);
      const int dy = std::abs(c.path[i].y - c.path[i - 1].y);
      EXPECT_EQ(dx + dy, 1) << "non-adjacent step";
    }
  }
}

TEST(GlobalRouter, PathEndpointsMatchTreeEdge) {
  const RoutedDesign rd = route_small(33);
  for (const RoutedConnection& c : rd.gr.connections) {
    const SteinerTree& t = rd.forest.trees[static_cast<std::size_t>(c.tree)];
    const SteinerEdge& e = t.edges[static_cast<std::size_t>(c.edge)];
    const GCell ga = rd.gr.grid.gcell_at(t.nodes[static_cast<std::size_t>(e.a)].pos);
    const GCell gb = rd.gr.grid.gcell_at(t.nodes[static_cast<std::size_t>(e.b)].pos);
    EXPECT_EQ(c.path.front(), ga);
    EXPECT_EQ(c.path.back(), gb);
  }
}

TEST(GlobalRouter, UsageMatchesCommittedPaths) {
  const RoutedDesign rd = route_small(34);
  GridGraph check(rd.design.die(), 8);
  for (const RoutedConnection& c : rd.gr.connections) {
    for (std::size_t i = 1; i < c.path.size(); ++i) {
      const GCell& p = c.path[i - 1];
      const GCell& q = c.path[i];
      if (p.y == q.y) check.add_h_usage(std::min(p.x, q.x), p.y, 1.0);
      else check.add_v_usage(p.x, std::min(p.y, q.y), 1.0);
    }
  }
  for (int y = 0; y < check.ny(); ++y) {
    for (int x = 0; x + 1 < check.nx(); ++x) {
      EXPECT_DOUBLE_EQ(check.h_usage(x, y), rd.gr.grid.h_usage(x, y));
    }
  }
  for (int y = 0; y + 1 < check.ny(); ++y) {
    for (int x = 0; x < check.nx(); ++x) {
      EXPECT_DOUBLE_EQ(check.v_usage(x, y), rd.gr.grid.v_usage(x, y));
    }
  }
}

TEST(GlobalRouter, RrrReducesOverflow) {
  RouterOptions no_rrr;
  no_rrr.rrr_iterations = 0;
  const RoutedDesign before = route_small(35, no_rrr);
  RouterOptions with_rrr;
  with_rrr.rrr_iterations = 4;
  // pin the same capacities for a fair comparison
  with_rrr.fixed_h_cap = before.gr.calibrated_h_cap;
  with_rrr.fixed_v_cap = before.gr.calibrated_v_cap;
  const RoutedDesign after = route_small(35, with_rrr);
  EXPECT_LE(after.gr.total_overflow, before.gr.total_overflow);
}

TEST(GlobalRouter, FixedCapacitiesAreRespected) {
  RouterOptions opts;
  opts.fixed_h_cap = 7.5;
  opts.fixed_v_cap = 9.5;
  const RoutedDesign rd = route_small(36, opts);
  EXPECT_DOUBLE_EQ(rd.gr.grid.h_capacity(), 7.5);
  EXPECT_DOUBLE_EQ(rd.gr.grid.v_capacity(), 9.5);
  EXPECT_DOUBLE_EQ(rd.gr.calibrated_h_cap, 7.5);
}

TEST(GlobalRouter, WirelengthAtLeastManhattan) {
  const RoutedDesign rd = route_small(37);
  double manhattan_total = 0.0;
  for (const SteinerTree& t : rd.forest.trees) manhattan_total += t.wirelength();
  // gcell quantization makes routed length approximate; it must be within a
  // small factor of the geometric wirelength and never wildly below it.
  EXPECT_GT(rd.gr.wirelength_dbu, 0.5 * manhattan_total);
}

TEST(GlobalRouter, CongestionForcesDetours) {
  // Starve capacity: negotiation must push some connections off the direct
  // L-route, so at least one path exceeds its Manhattan gcell distance.
  RouterOptions opts;
  opts.fixed_h_cap = 2.0;
  opts.fixed_v_cap = 2.0;
  opts.rrr_iterations = 6;
  const RoutedDesign rd = route_small(38, opts);
  int detours = 0;
  for (const RoutedConnection& c : rd.gr.connections) {
    const int direct = std::abs(c.path.back().x - c.path.front().x) +
                       std::abs(c.path.back().y - c.path.front().y);
    if (static_cast<int>(c.path.size()) - 1 > direct) ++detours;
  }
  EXPECT_GT(detours, 0) << "starved capacity must force maze detours";
  // Detoured paths still connect the right endpoints (structural test above
  // covers it; re-assert cheaply here on the longest path).
  for (const RoutedConnection& c : rd.gr.connections) {
    ASSERT_FALSE(c.path.empty());
  }
}

TEST(GlobalRouter, HistoryAccumulatesOnOverflow) {
  RouterOptions opts;
  opts.fixed_h_cap = 2.0;
  opts.fixed_v_cap = 2.0;
  opts.rrr_iterations = 3;
  const RoutedDesign rd = route_small(39, opts);
  double hist = 0.0;
  for (int y = 0; y < rd.gr.grid.ny(); ++y) {
    for (int x = 0; x + 1 < rd.gr.grid.nx(); ++x) hist += rd.gr.grid.h_history(x, y);
  }
  for (int y = 0; y + 1 < rd.gr.grid.ny(); ++y) {
    for (int x = 0; x < rd.gr.grid.nx(); ++x) hist += rd.gr.grid.v_history(x, y);
  }
  EXPECT_GT(hist, 0.0) << "negotiation must have charged history on hotspots";
  EXPECT_GT(rd.gr.rrr_rounds_used, 0);
}

TEST(GlobalRouter, RejectsInvalidOptions) {
  const RoutedDesign rd = route_small(40);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // A negative margin once made the maze window smaller than the
  // connection's bbox, and the maze wrote out of bounds.
  const std::vector<std::pair<const char*, void (*)(RouterOptions&)>> cases = {
      {"negative maze_margin", [](RouterOptions& o) { o.maze_margin = -1; }},
      {"negative rrr_iterations", [](RouterOptions& o) { o.rrr_iterations = -1; }},
      {"zero capacity_factor", [](RouterOptions& o) { o.capacity_factor = 0.0; }},
      {"negative capacity_factor", [](RouterOptions& o) { o.capacity_factor = -0.5; }},
      {"infinite capacity_factor", [](RouterOptions& o) { o.capacity_factor = kInf; }},
      {"NaN capacity_factor", [](RouterOptions& o) { o.capacity_factor = kNan; }},
      {"zero min_capacity", [](RouterOptions& o) { o.min_capacity = 0.0; }},
      {"infinite min_capacity", [](RouterOptions& o) { o.min_capacity = kInf; }},
      {"NaN min_capacity", [](RouterOptions& o) { o.min_capacity = kNan; }},
      {"infinite history_increment", [](RouterOptions& o) { o.history_increment = kInf; }},
      {"NaN history_increment", [](RouterOptions& o) { o.history_increment = kNan; }},
  };
  for (const auto& [what, mutate] : cases) {
    RouterOptions opts;
    mutate(opts);
    EXPECT_THROW(GlobalRouterState(&rd.design, opts), std::invalid_argument) << what;
    EXPECT_THROW(global_route(rd.design, rd.forest, opts), std::invalid_argument) << what;
  }
}

TEST(GlobalRouter, HugeMazeMarginSaturatesAtTheDie) {
  RouterOptions wide;
  wide.maze_margin = std::numeric_limits<int>::max();
  RouterOptions die;
  die.maze_margin = 100000;
  const RoutedDesign a = route_small(42, wide);
  const RoutedDesign b = route_small(42, die);
  EXPECT_GT(a.gr.rrr_rounds_used, 0);
  EXPECT_EQ(a.gr.wirelength_dbu, b.gr.wirelength_dbu);
  EXPECT_EQ(a.gr.total_overflow, b.gr.total_overflow);
}

/// FNV-1a over every connection's gcell path plus the bit patterns of the
/// wirelength, total overflow and round count: any change to which path the
/// maze picks, tie-breaks included, moves it.
std::uint64_t route_fingerprint(const GlobalRouteResult& gr) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const RoutedConnection& c : gr.connections) {
    mix(c.path.size());
    for (const GCell& g : c.path) {
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.x)));
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.y)));
    }
  }
  mix(std::bit_cast<std::uint64_t>(gr.wirelength_dbu));
  mix(std::bit_cast<std::uint64_t>(gr.total_overflow));
  mix(static_cast<std::uint64_t>(gr.rrr_rounds_used));
  return h;
}

TEST(GlobalRouter, PathFingerprintPinned) {
  // Default (calibrated, congested) options at two seeds.
  for (const auto& [seed, expected] :
       {std::pair<std::uint64_t, std::uint64_t>{41, 0xba32866282968ce7ULL},
        {42, 0x6656433af815efa5ULL}}) {
    const RoutedDesign rd = route_small(seed);
    EXPECT_GT(rd.gr.rrr_rounds_used, 0) << "seed " << seed << " must negotiate";
    EXPECT_EQ(route_fingerprint(rd.gr), expected) << "seed " << seed;
  }

  // Starved fixed capacities without history: most step costs are equal
  // integers, so equal-cost paths abound and the tie-break decides them.
  {
    RouterOptions opts;
    opts.fixed_h_cap = 2.0;
    opts.fixed_v_cap = 2.0;
    opts.history_increment = 0.0;
    opts.rrr_iterations = 3;
    const RoutedDesign rd = route_small(43, opts);
    EXPECT_GT(rd.gr.rrr_rounds_used, 0);
    EXPECT_EQ(route_fingerprint(rd.gr), 0x5950c02eb9c315c1ULL);
  }

  // An incremental update sequence: each step nudges a different slice of
  // the movable trees, flags them dirty and replays.
  {
    RoutedDesign rd = route_small(44);
    GlobalRouterState state(&rd.design, RouterOptions{});
    std::uint64_t h = route_fingerprint(state.route_full(rd.forest));
    for (int step = 0; step < 4; ++step) {
      std::vector<char> dirty(rd.forest.trees.size(), 0);
      for (std::size_t t = 0; t < rd.forest.trees.size(); ++t) {
        if (t % 5 != static_cast<std::size_t>(step)) continue;
        for (SteinerNode& node : rd.forest.trees[t].nodes) {
          if (!node.is_steiner()) continue;
          node.pos.x += 3.0 * step - 5.0;
          node.pos.y += 4.0 - 2.0 * step;
          dirty[t] = 1;
        }
      }
      const GlobalRouteResult& gr = state.update(rd.forest, dirty);
      EXPECT_GT(gr.rrr_rounds_used, 0) << "step " << step;
      h = h * 0x100000001b3ULL ^ route_fingerprint(gr);
    }
    EXPECT_EQ(h, 0xdf6466b17e3a1f4aULL);
  }
}

TEST(RoutedConnection, BendCounting) {
  RoutedConnection c;
  c.path = {{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}, {3, 2}};
  EXPECT_EQ(c.num_bends(), 2);
  RoutedConnection straight;
  straight.path = {{0, 0}, {1, 0}, {2, 0}};
  EXPECT_EQ(straight.num_bends(), 0);
}

}  // namespace
}  // namespace tsteiner
