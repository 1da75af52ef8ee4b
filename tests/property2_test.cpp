// Second property-based suite: invariants of the optimization and analysis
// subsystems added on top of the core flow (buffering, incremental STA,
// layer assignment, autodiff fuzz).
#include <gtest/gtest.h>

#include "autodiff/tape.hpp"
#include "netlist/design_generator.hpp"
#include "opt/buffering.hpp"
#include "place/placer.hpp"
#include "route/layer_assign.hpp"
#include "sta/incremental.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/random_move.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

Design make_design(std::uint64_t seed, int comb = 220) {
  GeneratorParams p;
  p.num_comb_cells = comb;
  p.num_registers = comb / 10;
  p.num_primary_inputs = 6;
  p.num_primary_outputs = 6;
  p.seed = seed;
  Design d = generate_design(lib(), p);
  place_design(d);
  d.set_clock_period(1.0);
  return d;
}

// ---------------------------------------------------------------------------
// Buffering never breaks the netlist and never hurts the buffered net.
// ---------------------------------------------------------------------------
class BufferingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferingProperty, ApplyKeepsDesignValidAndHelps) {
  Design d = make_design(GetParam(), 260);
  const SteinerForest f = build_forest(d);
  const StaResult before = run_sta(d, f, nullptr);
  // Buffer the 5 nets with the largest total wirelength.
  std::vector<std::pair<double, int>> ranked;
  for (const SteinerTree& t : f.trees) ranked.push_back({-t.wirelength(), t.net});
  std::sort(ranked.begin(), ranked.end());
  int applied = 0;
  for (int k = 0; k < 5 && k < static_cast<int>(ranked.size()); ++k) {
    const int net = ranked[static_cast<std::size_t>(k)].second;
    const int t = f.net_to_tree[static_cast<std::size_t>(net)];
    const SteinerTree& tree = f.trees[static_cast<std::size_t>(t)];
    const BufferingPlan plan = plan_buffering(d, tree);
    EXPECT_LE(plan.delay_after_ns, plan.delay_before_ns + 1e-12);
    if (plan.buffers.empty()) continue;
    apply_buffering(d, plan, tree);
    ++applied;
  }
  EXPECT_NO_THROW(d.validate());
  if (applied > 0) {
    const SteinerForest f2 = build_forest(d);
    const StaResult after = run_sta(d, f2, nullptr);
    // Buffering the longest nets must not blow up global timing.
    EXPECT_GT(after.wns, before.wns - 0.25 * std::abs(before.wns));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferingProperty, ::testing::Values(301, 302, 303, 304, 305));

// ---------------------------------------------------------------------------
// Incremental STA stays exact under random multi-net updates.
// ---------------------------------------------------------------------------
class IncrementalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalProperty, ExactAfterRandomUpdates) {
  Design d = make_design(GetParam(), 260);
  SteinerForest f = build_forest(d);
  IncrementalSta inc(d);
  inc.analyze(f, nullptr);
  Rng rng(GetParam() * 31 + 1);
  for (int round = 0; round < 3; ++round) {
    std::vector<int> dirty;
    for (int k = 0; k < 4; ++k) {
      const std::size_t t = rng.index(f.trees.size());
      SteinerTree& tree = f.trees[t];
      bool moved = false;
      for (SteinerNode& n : tree.nodes) {
        if (n.is_steiner()) {
          n.pos.x += rng.uniform(-5.0, 5.0);
          n.pos.y += rng.uniform(-5.0, 5.0);
          moved = true;
        }
      }
      if (moved) dirty.push_back(tree.net);
    }
    if (dirty.empty()) continue;
    inc.update(f, nullptr, dirty);
    const StaResult full = run_sta(d, f, nullptr);
    EXPECT_NEAR(inc.result().wns, full.wns, 1e-9) << "round " << round;
    EXPECT_NEAR(inc.result().tns, full.tns, 1e-9) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalProperty,
                         ::testing::Values(311, 312, 313, 314, 315, 316));

// ---------------------------------------------------------------------------
// Layer assignment: faster layers can only help; budgets hold at any policy.
// ---------------------------------------------------------------------------
// ctest names each case after gtest's print of it, which for this struct is
// its raw bytes. `name_tag` takes the place of the padding, whose contents
// would otherwise change from run to run, and holds the bytes under which
// each case has always been listed.
struct LayerCase {
  std::uint64_t seed;
  LayerPolicy policy;
  std::uint32_t name_tag;
};
static_assert(sizeof(LayerCase) == 16, "LayerCase must have no padding");

class LayerProperty : public ::testing::TestWithParam<LayerCase> {};

TEST_P(LayerProperty, NeverHurtsTiming) {
  Design d = make_design(GetParam().seed, 240);
  const SteinerForest f = build_forest(d);
  const GlobalRouteResult gr = global_route(d, f);
  const StaResult base = run_sta(d, f, &gr);
  const auto crit = connection_criticality(d, f, gr, base.arrival);
  const LayerAssignment la = assign_layers(f, gr, GetParam().policy, &crit);
  const StaResult after = run_sta(d, f, &gr, {}, &la);
  EXPECT_GE(after.wns, base.wns - 1e-12);
  EXPECT_GE(after.tns, base.tns - 1e-9);
  EXPECT_EQ(la.layer_of_connection.size(), gr.connections.size());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LayerProperty,
    ::testing::Values(LayerCase{321, LayerPolicy::kWirelength, 0xFEF6C7F2u},
                      LayerCase{322, LayerPolicy::kWirelength, 0xFFFFFFFFu},
                      LayerCase{321, LayerPolicy::kTimingDriven, 0x00005559u},
                      LayerCase{322, LayerPolicy::kTimingDriven, 0x00000000u},
                      LayerCase{323, LayerPolicy::kTimingDriven, 0x00007FA1u}));

// ---------------------------------------------------------------------------
// Autodiff fuzz: random small compositions of ops gradient-check cleanly.
// ---------------------------------------------------------------------------
class TapeFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TapeFuzzProperty, RandomCompositionGradChecks) {
  Rng rng(GetParam());
  const std::size_t rows = 3 + rng.index(3);
  const std::size_t cols = 1 + rng.index(3);
  const Tensor x0 = Tensor::randn(rng, rows, cols, 0.8);
  const Tensor w = Tensor::randn(rng, cols, 2, 0.8);
  const int variant = static_cast<int>(rng.index(4));

  auto graph = [&](Tape& t, Value x) {
    Value v = x;
    switch (variant) {
      case 0:
        v = t.sigmoid(t.scale(v, 1.3));
        v = t.dense({{{v}, t.leaf(w)}}, t.leaf(Tensor(1, 2, 0.0)), Tape::Act::kNone);
        break;
      case 1:
        v = t.softplus(t.mul(v, v));
        v = t.gather_rows(v, {0, 1, 1, 0});
        break;
      case 2:
        v = t.smooth_abs(v, 0.5);
        v = t.scatter_add_rows(v, std::vector<int>(rows, 0), 2);
        break;
      default:
        v = t.sigmoid(v);
        v = t.segment_sum(v, std::vector<int>(rows, static_cast<int>(rows) % 2), 2);
        break;
    }
    return t.mean_all(t.mul(v, v));
  };

  Tape tape;
  const Value x = tape.leaf(x0, true);
  const Value root = graph(tape, x);
  tape.backward(root);
  const Tensor& analytic = tape.grad(x);
  auto eval = [&](const Tensor& xv) {
    Tape t2;
    return t2.value(graph(t2, t2.leaf(xv, true)))[0];
  };
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(analytic[i], numeric_gradient(eval, x0, i), 2e-5)
        << "variant " << variant << " element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TapeFuzzProperty,
                         ::testing::Range<std::uint64_t>(400, 416));

}  // namespace
}  // namespace tsteiner
