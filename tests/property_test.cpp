// Property-based sweeps (parameterized gtest): invariants that must hold for
// every seed / design size, exercised across a matrix of configurations.
#include <gtest/gtest.h>

#include "droute/detailed_route.hpp"
#include "flow/flow.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "sta/sta.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/random_move.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

// ---------------------------------------------------------------------------
// RSMT invariants over random nets.
// ---------------------------------------------------------------------------
class RsmtProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RsmtProperty, TreeInvariants) {
  Rng rng(GetParam());
  Design d("prop", &lib());
  d.set_die({{0, 0}, {256, 256}});
  const int drv = d.add_cell(lib().find("BUF_X1"));
  d.cell(drv).pos = {rng.uniform_int(0, 256), rng.uniform_int(0, 256)};
  const int net = d.add_net(d.cell(drv).output_pin);
  const int sinks = static_cast<int>(rng.uniform_int(1, 24));
  std::vector<PointF> pts{to_f(d.cell(drv).pos)};
  for (int i = 0; i < sinks; ++i) {
    const int c = d.add_cell(lib().find("INV_X1"));
    d.cell(c).pos = {rng.uniform_int(0, 256), rng.uniform_int(0, 256)};
    d.connect_sink(net, d.cell(c).input_pins[0]);
    pts.push_back(to_f(d.cell(c).pos));
  }
  const SteinerTree t = build_rsmt(d, net);
  // (1) structural validity
  EXPECT_TRUE(t.is_valid_tree());
  // (2) wirelength between the Steiner lower bound and the MST upper bound
  const double mst = mst_length(pts);
  EXPECT_LE(t.wirelength(), mst + 1e-9);
  EXPECT_GE(t.wirelength(), mst * 2.0 / 3.0 - 1e-9);
  // (3) every Steiner node is a real junction
  const auto adj = t.adjacency();
  for (std::size_t n = 0; n < t.nodes.size(); ++n) {
    if (t.nodes[n].is_steiner()) {
      const std::size_t degree = adj[n].size();
      EXPECT_GE(degree, 3u);
    }
  }
  // (4) every pin of the net appears exactly once
  std::size_t pin_nodes = 0;
  for (const SteinerNode& n : t.nodes) pin_nodes += n.is_steiner() ? 0 : 1;
  EXPECT_EQ(pin_nodes, static_cast<std::size_t>(sinks) + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsmtProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

// ---------------------------------------------------------------------------
// STA invariants over generated designs.
// ---------------------------------------------------------------------------
// ctest names each case after gtest's print of it, which for these structs is
// their raw bytes. Every byte is therefore a declared member: `name_tag` takes
// the place of the padding, whose contents would otherwise change from run to
// run, and holds the bytes under which each case has always been listed.
struct StaCase {
  std::uint64_t seed;
  int cells;
  std::uint32_t name_tag;
};
static_assert(sizeof(StaCase) == 16, "StaCase must have no padding");

class StaProperty : public ::testing::TestWithParam<StaCase> {};

TEST_P(StaProperty, TimingInvariants) {
  GeneratorParams p;
  p.num_comb_cells = GetParam().cells;
  p.num_registers = std::max(8, GetParam().cells / 10);
  p.num_primary_inputs = 6;
  p.num_primary_outputs = 6;
  p.seed = GetParam().seed;
  Design d = generate_design(lib(), p);
  place_design(d);
  const SteinerForest f = build_forest(d);
  const StaResult r = run_sta(d, f, nullptr);

  // (1) arrivals non-negative and finite
  for (double a : r.arrival) {
    EXPECT_GE(a, 0.0);
    EXPECT_TRUE(std::isfinite(a));
  }
  // (2) every sink arrives no earlier than its net's driver
  for (const Net& n : d.nets()) {
    const double da = r.arrival[static_cast<std::size_t>(n.driver_pin)];
    for (int s : n.sink_pins) {
      EXPECT_GE(r.arrival[static_cast<std::size_t>(s)], da - 1e-12);
    }
  }
  // (3) cell outputs arrive strictly after each connected input
  for (const Cell& c : d.cells()) {
    if (d.is_register_cell(c.id)) continue;
    for (int ip : c.input_pins) {
      EXPECT_GT(r.arrival[static_cast<std::size_t>(c.output_pin)],
                r.arrival[static_cast<std::size_t>(ip)]);
    }
  }
  // (4) WNS/TNS/violations aggregate consistently
  double tns = 0.0, wns = 1e30;
  long long vios = 0;
  for (double s : r.endpoint_slack) {
    tns += std::min(0.0, s);
    wns = std::min(wns, s);
    vios += s < 0.0 ? 1 : 0;
  }
  EXPECT_NEAR(r.tns, tns, 1e-9);
  EXPECT_NEAR(r.wns, wns, 1e-12);
  EXPECT_EQ(r.num_violations, vios);
}

INSTANTIATE_TEST_SUITE_P(Cases, StaProperty,
                         ::testing::Values(StaCase{11, 80, 0xFFFFFFFFu},
                                           StaCase{12, 150, 0xCC47B133u},
                                           StaCase{13, 300, 0xFFFFFFFFu},
                                           StaCase{14, 500, 0x000055D9u},
                                           StaCase{15, 150, 0x000055D9u},
                                           StaCase{16, 300, 0x00007FF9u}));

// ---------------------------------------------------------------------------
// Global-router conservation over seeds.
// ---------------------------------------------------------------------------
class RouterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterProperty, UsageConservation) {
  GeneratorParams p;
  p.num_comb_cells = 220;
  p.num_registers = 24;
  p.num_primary_inputs = 6;
  p.num_primary_outputs = 6;
  p.seed = GetParam();
  Design d = generate_design(lib(), p);
  place_design(d);
  const SteinerForest f = build_forest(d);
  const GlobalRouteResult gr = global_route(d, f);

  // (1) one connection per tree edge, endpoints consistent
  std::size_t edges = 0;
  for (const SteinerTree& t : f.trees) edges += t.edges.size();
  EXPECT_EQ(gr.connections.size(), edges);
  // (2) total usage equals the sum of path steps
  double steps = 0.0;
  for (const RoutedConnection& c : gr.connections) {
    steps += static_cast<double>(c.path.size() - 1);
  }
  double usage = 0.0;
  for (int y = 0; y < gr.grid.ny(); ++y) {
    for (int x = 0; x + 1 < gr.grid.nx(); ++x) usage += gr.grid.h_usage(x, y);
  }
  for (int y = 0; y + 1 < gr.grid.ny(); ++y) {
    for (int x = 0; x < gr.grid.nx(); ++x) usage += gr.grid.v_usage(x, y);
  }
  EXPECT_NEAR(usage, steps, 1e-6);
  // (3) overflow is never negative, capacities positive
  EXPECT_GE(gr.total_overflow, 0.0);
  EXPECT_GT(gr.calibrated_h_cap, 0.0);
  EXPECT_GT(gr.calibrated_v_cap, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterProperty, ::testing::Range<std::uint64_t>(100, 108));

// ---------------------------------------------------------------------------
// Random disturbance: topology-preserving, bounded, pin-fixing over radii.
// ---------------------------------------------------------------------------
class DisturbProperty : public ::testing::TestWithParam<double> {};

TEST_P(DisturbProperty, BoundedTopologyPreserving) {
  GeneratorParams p;
  p.num_comb_cells = 150;
  p.num_registers = 16;
  p.num_primary_inputs = 4;
  p.num_primary_outputs = 4;
  p.seed = 42;
  Design d = generate_design(lib(), p);
  place_design(d);
  const SteinerForest f = build_forest(d);
  Rng rng(7);
  const double radius = GetParam();
  const SteinerForest moved = random_disturb(f, d.die(), radius, rng);
  ASSERT_EQ(moved.trees.size(), f.trees.size());
  for (std::size_t t = 0; t < f.trees.size(); ++t) {
    ASSERT_EQ(moved.trees[t].nodes.size(), f.trees[t].nodes.size());
    EXPECT_TRUE(moved.trees[t].is_valid_tree());
    for (std::size_t n = 0; n < f.trees[t].nodes.size(); ++n) {
      const SteinerNode& a = f.trees[t].nodes[n];
      const SteinerNode& b = moved.trees[t].nodes[n];
      if (a.is_steiner()) {
        EXPECT_LE(std::abs(a.pos.x - b.pos.x), radius + 1.0);
        EXPECT_LE(std::abs(a.pos.y - b.pos.y), radius + 1.0);
        EXPECT_TRUE(d.die().contains(b.pos));
      } else {
        EXPECT_EQ(a.pos, b.pos);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, DisturbProperty, ::testing::Values(0.5, 2.0, 8.0, 32.0, 128.0));

// ---------------------------------------------------------------------------
// Flow end-to-end: metrics sane across seeds and with/without edge shifting.
// ---------------------------------------------------------------------------
// `name_tag` fills the padding for a stable ctest name; see StaCase.
struct FlowCase {
  std::uint64_t seed;
  bool edge_shift;
  unsigned char name_tag[7];
};
static_assert(sizeof(FlowCase) == 16, "FlowCase must have no padding");

class FlowProperty : public ::testing::TestWithParam<FlowCase> {};

TEST_P(FlowProperty, SignoffMetricsSane) {
  GeneratorParams p;
  p.num_comb_cells = 240;
  p.num_registers = 26;
  p.num_primary_inputs = 6;
  p.num_primary_outputs = 6;
  p.seed = GetParam().seed;
  Design d = generate_design(lib(), p);
  place_design(d);
  FlowOptions fo;
  fo.edge_shifting = GetParam().edge_shift;
  const Flow flow(&d, fo);
  const FlowResult r = flow.run_signoff(flow.initial_forest());
  EXPECT_LT(r.metrics.wns_ns, 0.0);
  EXPECT_LE(r.metrics.tns_ns, r.metrics.wns_ns);
  EXPECT_GT(r.metrics.num_vios, 0);
  EXPECT_LE(r.metrics.num_vios, static_cast<long long>(d.endpoint_pins().size()));
  EXPECT_GT(r.metrics.wirelength_dbu, 0.0);
  EXPECT_GE(r.metrics.num_drvs, 0);
  EXPECT_GT(r.metrics.num_vias, 0);
}

INSTANTIATE_TEST_SUITE_P(Cases, FlowProperty,
                         ::testing::Values(
                             FlowCase{201, true, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
                             FlowCase{202, true, {0xF5, 0xF1, 0x03, 0x33, 0xB1, 0x47, 0xCC}},
                             FlowCase{203, false, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
                             FlowCase{204, false, {0xA5, 0xC3, 0x50, 0xD9, 0x55, 0x00, 0x00}},
                             FlowCase{205, true, {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}}));

}  // namespace
}  // namespace tsteiner
