#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "gnn/trainer.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/gradient.hpp"
#include "tsteiner/optimizer.hpp"
#include "tsteiner/penalty.hpp"
#include "tsteiner/random_move.hpp"
#include "tsteiner/refine.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

struct Fixture {
  Design design;
  SteinerForest forest;
  std::shared_ptr<const GraphCache> cache;
};

Fixture make_fixture(std::uint64_t seed = 81) {
  GeneratorParams p;
  p.num_comb_cells = 120;
  p.num_registers = 14;
  p.num_primary_inputs = 4;
  p.num_primary_outputs = 4;
  p.seed = seed;
  Fixture f{generate_design(lib(), p), {}, nullptr};
  place_design(f.design);
  f.forest = build_forest(f.design);
  // Tight clock so endpoints violate.
  const StaResult sta = run_sta(f.design, f.forest, nullptr);
  f.design.set_clock_period(0.6 * sta.max_arrival);
  f.cache = build_graph_cache(f.design, f.forest);
  return f;
}

TEST(Penalty, HardMetricsMatchManualComputation) {
  const Fixture f = make_fixture();
  GnnConfig cfg;
  cfg.hidden = 8;
  const TimingGnn model(cfg, lib().num_types());
  Tape tape;
  const auto bound = model.bind(tape);
  const Value xs = tape.leaf(Tensor::column(f.forest.gather_x()));
  const Value ys = tape.leaf(Tensor::column(f.forest.gather_y()));
  const Value arrival = model.forward(tape, *f.cache, bound, xs, ys);
  PenaltyWeights w;
  const PenaltyTerms terms = build_timing_penalty(tape, *f.cache, f.design, arrival, w);
  // Recompute hard WNS/TNS from arrivals by hand.
  const Tensor& a = tape.value(arrival);
  double wns = 1e30, tns = 0.0;
  for (int ep : f.design.endpoint_pins()) {
    double req = f.design.clock_period();
    const Pin& p = f.design.pin(ep);
    if (p.kind == PinKind::kCellInput) req -= f.design.cell_type(p.cell).setup_ns;
    const double slack = req - a[static_cast<std::size_t>(ep)] * f.cache->clock;
    wns = std::min(wns, slack);
    tns += std::min(0.0, slack);
  }
  EXPECT_NEAR(terms.hard_wns_ns, wns, 1e-9);
  EXPECT_NEAR(terms.hard_tns_ns, tns, 1e-9);
}

TEST(Penalty, SmoothWnsBoundsHardWns) {
  const Fixture f = make_fixture(82);
  GnnConfig cfg;
  cfg.hidden = 8;
  const TimingGnn model(cfg, lib().num_types());
  Tape tape;
  const auto bound = model.bind(tape);
  const Value xs = tape.leaf(Tensor::column(f.forest.gather_x()));
  const Value ys = tape.leaf(Tensor::column(f.forest.gather_y()));
  const Value arrival = model.forward(tape, *f.cache, bound, xs, ys);
  PenaltyWeights w;
  w.gamma_ns = 0.01;  // tight smoothing: LSE(min) <= hard min, close to it
  const PenaltyTerms terms = build_timing_penalty(tape, *f.cache, f.design, arrival, w);
  const double smooth_wns = tape.value(terms.smooth_wns)[0] * f.cache->clock;
  EXPECT_LE(smooth_wns, terms.hard_wns_ns + 1e-9);
  EXPECT_NEAR(smooth_wns, terms.hard_wns_ns, 0.05 * std::abs(terms.hard_wns_ns) + 0.05);
}

TEST(Penalty, GradientReachesAllEndpointsWithLargeGamma) {
  // With LSE smoothing the gradient must touch more than the single worst
  // path — that is the whole point of Eq. (5).
  const Fixture f = make_fixture(83);
  GnnConfig cfg;
  cfg.hidden = 8;
  const TimingGnn model(cfg, lib().num_types());
  Tape tape;
  const auto bound = model.bind(tape);
  const Value xs = tape.leaf(Tensor::column(f.forest.gather_x()), true);
  const Value ys = tape.leaf(Tensor::column(f.forest.gather_y()), true);
  const Value arrival = model.forward(tape, *f.cache, bound, xs, ys);
  PenaltyWeights w;  // gamma 10ns: very smooth
  const PenaltyTerms terms = build_timing_penalty(tape, *f.cache, f.design, arrival, w);
  tape.backward(terms.penalty);
  const Tensor& g = tape.grad(arrival);
  int touched = 0;
  for (int ep : f.design.endpoint_pins()) {
    if (g[static_cast<std::size_t>(ep)] != 0.0) ++touched;
  }
  EXPECT_GT(touched, 1) << "smoothing should spread gradient across endpoints";
}

TEST(Gradient, MatchesFiniteDifferenceOfPenalty) {
  const Fixture f = make_fixture(84);
  GnnConfig cfg;
  cfg.hidden = 6;
  const TimingGnn model(cfg, lib().num_types());
  PenaltyWeights w;
  auto xs = f.forest.gather_x();
  auto ys = f.forest.gather_y();
  const GradientResult g = compute_timing_gradients(model, *f.cache, f.design, xs, ys, w);
  ASSERT_EQ(g.grad_x.size(), xs.size());
  // Check a few coordinates with central differences.
  const double eps = 1e-4;
  int checked = 0;
  for (std::size_t i = 0; i < xs.size() && checked < 5; i += std::max<std::size_t>(1, xs.size() / 5)) {
    auto xp = xs;
    auto xm = xs;
    xp[i] += eps;
    xm[i] -= eps;
    const double fp = evaluate_timing(model, *f.cache, f.design, xp, ys, w).penalty;
    const double fm = evaluate_timing(model, *f.cache, f.design, xm, ys, w).penalty;
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(g.grad_x[i], numeric, 1e-4 + 0.05 * std::abs(numeric)) << "coord " << i;
    ++checked;
  }
  EXPECT_GE(checked, 1);
}

TEST(SteinerOptimizer, MemorylessStepIsScaleInvariant) {
  // Eq. (7) without momentum: step magnitude ~ theta * (1-b1)/sqrt(1-b2)
  // regardless of gradient scale.
  SoOptions so;
  SteinerOptimizer opt(2, /*theta=*/1.0, so);
  std::vector<double> x{0.0, 0.0};
  opt.step(x, {1e-3, 1e3}, /*max_move=*/100.0);
  EXPECT_NEAR(x[0], x[1], 1e-2) << "both coordinates should move almost equally";
  EXPECT_LT(x[0], 0.0);
}

TEST(SteinerOptimizer, RespectsMaxMove) {
  SteinerOptimizer opt(1, /*theta=*/100.0);
  std::vector<double> x{0.0};
  opt.step(x, {5.0}, /*max_move=*/2.0);
  EXPECT_GE(x[0], -2.0);
}

TEST(SteinerOptimizer, ZeroGradientNoMove) {
  SteinerOptimizer opt(3, 1.0);
  std::vector<double> x{1.0, 2.0, 3.0};
  opt.step(x, {0.0, 0.0, 0.0}, 10.0);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(Gradient, EvaluateAgreesWithComputeOnMetrics) {
  const Fixture f = make_fixture(93);
  GnnConfig cfg;
  cfg.hidden = 6;
  const TimingGnn model(cfg, lib().num_types());
  PenaltyWeights w;
  const auto xs = f.forest.gather_x();
  const auto ys = f.forest.gather_y();
  const GradientResult a = evaluate_timing(model, *f.cache, f.design, xs, ys, w);
  const GradientResult b = compute_timing_gradients(model, *f.cache, f.design, xs, ys, w);
  EXPECT_DOUBLE_EQ(a.eval_wns_ns, b.eval_wns_ns);
  EXPECT_DOUBLE_EQ(a.eval_tns_ns, b.eval_tns_ns);
  EXPECT_DOUBLE_EQ(a.penalty, b.penalty);
  EXPECT_TRUE(a.grad_x.empty());   // forward-only
  EXPECT_FALSE(b.grad_x.empty());  // backward pass ran
}

TEST(AdaptiveTheta, PositiveAndFinite) {
  const Fixture f = make_fixture(85);
  GnnConfig cfg;
  cfg.hidden = 6;
  const TimingGnn model(cfg, lib().num_types());
  PenaltyWeights w;
  const double theta = adaptive_theta(model, *f.cache, f.design, f.forest.gather_x(),
                                      f.forest.gather_y(), w, 5.0);
  EXPECT_GT(theta, 0.0);
  EXPECT_TRUE(std::isfinite(theta));
}

TEST(Refine, KeepsTopologyAndStaysInBounds) {
  const Fixture f = make_fixture(86);
  GnnConfig cfg;
  cfg.hidden = 6;
  const TimingGnn model(cfg, lib().num_types());
  RefineOptions opts;
  opts.max_iterations = 6;
  const RefineResult r = refine_steiner_points(f.design, f.forest, model, opts);
  ASSERT_EQ(r.forest.trees.size(), f.forest.trees.size());
  for (std::size_t t = 0; t < r.forest.trees.size(); ++t) {
    EXPECT_EQ(r.forest.trees[t].nodes.size(), f.forest.trees[t].nodes.size());
    EXPECT_EQ(r.forest.trees[t].edges.size(), f.forest.trees[t].edges.size());
    EXPECT_TRUE(r.forest.trees[t].is_valid_tree());
    for (const SteinerNode& n : r.forest.trees[t].nodes) {
      EXPECT_TRUE(f.design.die().contains(n.pos)) << "node escaped the die";
      if (n.is_steiner()) {
        // rounded post-processing
        EXPECT_DOUBLE_EQ(n.pos.x, std::round(n.pos.x));
        EXPECT_DOUBLE_EQ(n.pos.y, std::round(n.pos.y));
      }
    }
  }
  EXPECT_GT(r.iterations, 0);
  EXPECT_EQ(r.iteration_log.size(), static_cast<std::size_t>(r.iterations));
}

TEST(Refine, BestNeverWorseThanInit) {
  const Fixture f = make_fixture(87);
  GnnConfig cfg;
  cfg.hidden = 6;
  const TimingGnn model(cfg, lib().num_types());
  RefineOptions opts;
  opts.max_iterations = 8;
  const RefineResult r = refine_steiner_points(f.design, f.forest, model, opts);
  EXPECT_GE(r.best_wns, r.init_wns - 1e-9);
  EXPECT_GE(r.best_tns, r.init_tns - 1e-9);
}

TEST(Refine, PinsNeverMove) {
  const Fixture f = make_fixture(88);
  GnnConfig cfg;
  cfg.hidden = 6;
  const TimingGnn model(cfg, lib().num_types());
  RefineOptions opts;
  opts.max_iterations = 4;
  const RefineResult r = refine_steiner_points(f.design, f.forest, model, opts);
  for (std::size_t t = 0; t < r.forest.trees.size(); ++t) {
    for (std::size_t n = 0; n < r.forest.trees[t].nodes.size(); ++n) {
      if (!f.forest.trees[t].nodes[n].is_steiner()) {
        EXPECT_EQ(r.forest.trees[t].nodes[n].pos, f.forest.trees[t].nodes[n].pos);
      }
    }
  }
}

TEST(Refine, EmptyMovableSetIsNoop) {
  // chain design: all nets 2-pin -> no Steiner points
  Design d("chain", &lib());
  d.set_die({{0, 0}, {100, 100}});
  const int pi = d.add_primary_input({0, 50});
  const int inv = d.add_cell(lib().find("INV_X1"));
  d.cell(inv).pos = {50, 50};
  const int n1 = d.add_net(pi);
  d.connect_sink(n1, d.cell(inv).input_pins[0]);
  const int po = d.add_primary_output({100, 50});
  const int n2 = d.add_net(d.cell(inv).output_pin);
  d.connect_sink(n2, po);
  d.set_clock_period(0.05);
  const SteinerForest forest = build_forest(d);
  GnnConfig cfg;
  cfg.hidden = 4;
  const TimingGnn model(cfg, lib().num_types());
  const RefineResult r = refine_steiner_points(d, forest, model, {});
  EXPECT_EQ(r.iterations, 0);
}

TEST(Refine, HugeGateReturnsInitialForestExactly) {
  const Fixture f = make_fixture(90);
  GnnConfig cfg;
  cfg.hidden = 6;
  const TimingGnn model(cfg, lib().num_types());
  RefineOptions opts;
  opts.max_iterations = 5;
  opts.min_return_improvement = 0.99;  // nothing can clear this bar
  const RefineResult r = refine_steiner_points(f.design, f.forest, model, opts);
  for (std::size_t t = 0; t < r.forest.trees.size(); ++t) {
    for (std::size_t n = 0; n < r.forest.trees[t].nodes.size(); ++n) {
      const PointF& a = f.forest.trees[t].nodes[n].pos;
      const PointF& b = r.forest.trees[t].nodes[n].pos;
      // positions identical up to the final rounding post-process
      EXPECT_NEAR(a.x, b.x, 0.51);
      EXPECT_NEAR(a.y, b.y, 0.51);
    }
  }
  EXPECT_DOUBLE_EQ(r.best_wns, r.init_wns);
  EXPECT_DOUBLE_EQ(r.best_tns, r.init_tns);
}

TEST(Refine, PaperModeWithoutBacktrackingRuns) {
  const Fixture f = make_fixture(91);
  GnnConfig cfg;
  cfg.hidden = 6;
  const TimingGnn model(cfg, lib().num_types());
  RefineOptions opts;
  opts.max_iterations = 6;
  opts.theta_backtrack = 1.0;  // the paper's literal loop
  const RefineResult r = refine_steiner_points(f.design, f.forest, model, opts);
  EXPECT_GT(r.iterations, 0);
  EXPECT_GE(r.best_wns, r.init_wns - 1e-9);
}

TEST(Refine, GammaRelativeOverrideAccepted) {
  const Fixture f = make_fixture(92);
  GnnConfig cfg;
  cfg.hidden = 6;
  const TimingGnn model(cfg, lib().num_types());
  RefineOptions opts;
  opts.max_iterations = 3;
  opts.weights.gamma_relative = 0.5;
  const RefineResult r = refine_steiner_points(f.design, f.forest, model, opts);
  EXPECT_GE(r.iterations, 1);
  for (const obs::RefineIterationRecord& rec : r.iteration_log) {
    EXPECT_TRUE(std::isfinite(rec.wns));
  }
}

TEST(RandomMove, StaysInBoundsAndKeepsPins) {
  const Fixture f = make_fixture(89);
  Rng rng(5);
  const SteinerForest moved = random_disturb(f.forest, f.design.die(), 16.0, rng);
  ASSERT_EQ(moved.trees.size(), f.forest.trees.size());
  bool any_moved = false;
  for (std::size_t t = 0; t < moved.trees.size(); ++t) {
    for (std::size_t n = 0; n < moved.trees[t].nodes.size(); ++n) {
      const SteinerNode& a = f.forest.trees[t].nodes[n];
      const SteinerNode& b = moved.trees[t].nodes[n];
      if (a.is_steiner()) {
        EXPECT_TRUE(f.design.die().contains(b.pos));
        EXPECT_LE(std::abs(a.pos.x - b.pos.x), 17.0);  // +1 for rounding
        if (!(a.pos == b.pos)) any_moved = true;
      } else {
        EXPECT_EQ(a.pos, b.pos);
      }
    }
  }
  EXPECT_TRUE(any_moved);
}

}  // namespace
}  // namespace tsteiner
