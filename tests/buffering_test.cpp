#include <gtest/gtest.h>

#include "netlist/design_generator.hpp"
#include "opt/buffering.hpp"
#include "place/placer.hpp"
#include "sta/sta.hpp"
#include "steiner/rsmt.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

/// Driver at origin, one far sink: the classic case where a buffer halves
/// the quadratic wire delay.
Design make_long_wire(std::int64_t length, const CellLibrary& library = lib()) {
  Design d("wire", &library);
  d.set_die({{0, 0}, {length + 10, 100}});
  const int pi = d.add_primary_input({0, 50});
  const int drv = d.add_cell(library.find("INV_X1"));
  d.cell(drv).pos = {5, 50};
  const int nin = d.add_net(pi);
  d.connect_sink(nin, d.cell(drv).input_pins[0]);
  const int snk = d.add_cell(library.find("INV_X1"));
  d.cell(snk).pos = {length, 50};
  const int n = d.add_net(d.cell(drv).output_pin);
  d.connect_sink(n, d.cell(snk).input_pins[0]);
  const int po = d.add_primary_output({length + 10, 50});
  const int nout = d.add_net(d.cell(snk).output_pin);
  d.connect_sink(nout, po);
  return d;
}

TEST(Buffering, LongWireGetsBuffers) {
  Design d = make_long_wire(400);
  const SteinerForest f = build_forest(d);
  const int t = f.net_to_tree[1];  // the long net (net 0 is PI -> driver)
  ASSERT_GE(t, 0);
  const BufferingPlan plan = plan_buffering(d, f.trees[static_cast<std::size_t>(t)]);
  EXPECT_GT(plan.buffers.size(), 0u) << "a 400-DBU resistive wire must want buffers";
  EXPECT_LT(plan.delay_after_ns, plan.delay_before_ns * 0.8)
      << "buffering should cut the quadratic wire delay substantially";
}

TEST(Buffering, ShortWireNeedsNoBuffers) {
  Design d = make_long_wire(12);
  const SteinerForest f = build_forest(d);
  const int t = f.net_to_tree[1];
  const BufferingPlan plan = plan_buffering(d, f.trees[static_cast<std::size_t>(t)]);
  EXPECT_EQ(plan.buffers.size(), 0u);
  EXPECT_DOUBLE_EQ(plan.delay_after_ns, plan.delay_before_ns);
}

TEST(Buffering, ApplyRewiresAndValidates) {
  Design d = make_long_wire(400);
  const SteinerForest f = build_forest(d);
  const int t = f.net_to_tree[1];
  const SteinerTree tree = f.trees[static_cast<std::size_t>(t)];
  const BufferingPlan plan = plan_buffering(d, tree);
  ASSERT_GT(plan.buffers.size(), 0u);
  const std::size_t cells_before = d.cells().size();
  const auto inserted = apply_buffering(d, plan, tree);
  EXPECT_EQ(inserted.size(), plan.buffers.size());
  EXPECT_EQ(d.cells().size(), cells_before + inserted.size());
  EXPECT_NO_THROW(d.validate());
  // Every inserted buffer drives a net with at least one sink.
  for (int cell : inserted) {
    const int net = d.pin(d.cell(cell).output_pin).net;
    ASSERT_GE(net, 0);
    EXPECT_FALSE(d.net(net).sink_pins.empty());
  }
}

TEST(Buffering, ApplyImprovesStaTiming) {
  Design d = make_long_wire(400);
  d.set_clock_period(1.0);
  {
    const SteinerForest f = build_forest(d);
    const StaResult before = run_sta(d, f, nullptr);
    const int t = f.net_to_tree[1];
    const SteinerTree tree = f.trees[static_cast<std::size_t>(t)];
    const BufferingPlan plan = plan_buffering(d, tree);
    ASSERT_GT(plan.buffers.size(), 0u);
    apply_buffering(d, plan, tree);
    const SteinerForest f2 = build_forest(d);  // rebuild for the new netlist
    const StaResult after = run_sta(d, f2, nullptr);
    EXPECT_GT(after.wns, before.wns) << "golden STA must confirm the DP's improvement";
  }
}

TEST(Buffering, MultiSinkNetKeepsAllSinksConnected) {
  Design d("fanout", &lib());
  d.set_die({{0, 0}, {500, 500}});
  const int pi = d.add_primary_input({0, 0});
  const int drv = d.add_cell(lib().find("BUF_X1"));
  d.cell(drv).pos = {10, 10};
  const int nin = d.add_net(pi);
  d.connect_sink(nin, d.cell(drv).input_pins[0]);
  const int n = d.add_net(d.cell(drv).output_pin);
  Rng rng(5);
  std::vector<int> sinks;
  for (int i = 0; i < 9; ++i) {
    const int c = d.add_cell(lib().find("INV_X1"));
    d.cell(c).pos = {rng.uniform_int(100, 490), rng.uniform_int(100, 490)};
    d.connect_sink(n, d.cell(c).input_pins[0]);
    sinks.push_back(d.cell(c).input_pins[0]);
    const int po = d.add_primary_output({499, 10 * (i + 1)});
    const int no = d.add_net(d.cell(c).output_pin);
    d.connect_sink(no, po);
  }
  const SteinerForest f = build_forest(d);
  const int t = f.net_to_tree[static_cast<std::size_t>(n)];
  const SteinerTree tree = f.trees[static_cast<std::size_t>(t)];
  const BufferingPlan plan = plan_buffering(d, tree);
  apply_buffering(d, plan, tree);
  EXPECT_NO_THROW(d.validate());
  // Every original sink is still driven (possibly through buffers) and the
  // driver still reaches all of them through the buffer DAG.
  for (int sp : sinks) {
    EXPECT_GE(d.pin(sp).net, 0);
  }
}

TEST(Buffering, PlanDeterministic) {
  Design d = make_long_wire(300);
  const SteinerForest f = build_forest(d);
  const int t = f.net_to_tree[1];
  const SteinerTree& tree = f.trees[static_cast<std::size_t>(t)];
  const BufferingPlan a = plan_buffering(d, tree);
  const BufferingPlan b = plan_buffering(d, tree);
  ASSERT_EQ(a.buffers.size(), b.buffers.size());
  for (std::size_t i = 0; i < a.buffers.size(); ++i) {
    EXPECT_EQ(a.buffers[i].pos, b.buffers[i].pos);
  }
  EXPECT_DOUBLE_EQ(a.delay_after_ns, b.delay_after_ns);
}

TEST(Buffering, UnknownBufferTypeThrows) {
  // A library assembled from parts need not carry the buffer type.
  std::vector<CellType> types;
  for (int i = 0; i < lib().num_types(); ++i) {
    if (lib().type(i).name != kBufferType) types.push_back(lib().type(i));
  }
  const CellLibrary no_buffer =
      CellLibrary::from_parts(types, lib().wire_res_kohm_per_dbu(),
                              lib().wire_cap_pf_per_dbu(), lib().via_res_kohm());
  ASSERT_LT(no_buffer.find(kBufferType), 0);
  Design d = make_long_wire(400, no_buffer);
  const SteinerForest f = build_forest(d);
  const SteinerTree& tree = f.trees[static_cast<std::size_t>(f.net_to_tree[1])];
  EXPECT_THROW(plan_buffering(d, tree), std::runtime_error);
  BufferingPlan plan;
  plan.net = tree.net;
  plan.buffers.push_back({tree.nodes[0].pos});
  EXPECT_THROW(apply_buffering(d, plan, tree), std::runtime_error);
}

}  // namespace
}  // namespace tsteiner
