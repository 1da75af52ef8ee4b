// Retained-program (record/replay) correctness: replayed forward/backward
// must be bit-identical to a freshly recorded tape at any thread-pool
// width, steady-state replay must not allocate, and a program must reject
// inputs from a different topology instead of silently corrupting results.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "autodiff/program.hpp"
#include "flow/flow.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "search/topo_edits.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/gradient.hpp"
#include "tsteiner/refine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

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

Fixture make_fixture(std::uint64_t seed = 81, int comb_cells = 120) {
  GeneratorParams p;
  p.num_comb_cells = comb_cells;
  p.num_registers = comb_cells / 8;
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

TimingGnn make_model() {
  GnnConfig cfg;
  cfg.hidden = 6;
  return TimingGnn(cfg, lib().num_types());
}

/// Deterministic coordinate disturbance, distinct per step.
void perturb(std::vector<double>& xs, std::vector<double>& ys, int step) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] += static_cast<double>((i + static_cast<std::size_t>(step)) % 7) - 3.0;
    ys[i] += static_cast<double>((i * 3 + static_cast<std::size_t>(step)) % 5) - 2.0;
  }
}

::testing::AssertionResult bits_equal(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size mismatch";
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "element " << i << ": " << a[i] << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult results_bit_equal(const GradientResult& a,
                                             const GradientResult& b) {
  if (std::memcmp(&a.penalty, &b.penalty, sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "penalty " << a.penalty << " vs " << b.penalty;
  }
  if (std::memcmp(&a.eval_wns_ns, &b.eval_wns_ns, sizeof(double)) != 0 ||
      std::memcmp(&a.eval_tns_ns, &b.eval_tns_ns, sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "WNS/TNS differ";
  }
  ::testing::AssertionResult gx = bits_equal(a.grad_x, b.grad_x);
  if (!gx) return gx;
  return bits_equal(a.grad_y, b.grad_y);
}

TEST(Replay, BitIdenticalToFreshTapeAcrossLeafUpdates) {
  const Fixture f = make_fixture(91);
  const TimingGnn model = make_model();
  PenaltyWeights w;
  auto xs = f.forest.gather_x();
  auto ys = f.forest.gather_y();
  ASSERT_GT(xs.size(), 0u);

  GradientEvaluator evaluator(model, *f.cache, f.design, xs, ys, w);
  for (int step = 0; step < 4; ++step) {
    if (step > 0) {
      perturb(xs, ys, step);
      // Exercise the mutable lambda leaves the way the refine schedule does.
      w.lambda_w *= 1.01;
      w.lambda_t *= 1.01;
    }
    const GradientResult fresh = compute_timing_gradients(model, *f.cache, f.design, xs, ys, w);
    const GradientResult replayed = evaluator.gradients(xs, ys, w);
    EXPECT_TRUE(results_bit_equal(fresh, replayed)) << "step " << step;
    ASSERT_EQ(replayed.grad_x.size(), xs.size());

    const GradientResult fresh_fwd = evaluate_timing(model, *f.cache, f.design, xs, ys, w);
    const GradientResult replayed_fwd = evaluator.evaluate(xs, ys, w);
    EXPECT_TRUE(results_bit_equal(fresh_fwd, replayed_fwd)) << "forward-only step " << step;
  }
}

TEST(Replay, BitIdenticalAcrossThreadWidths) {
  // 120 cells keep the tape kernels inline; at 1500 cells the larger ones
  // split into pool chunks.
  for (const int comb_cells : {120, 1500}) {
    SCOPED_TRACE(comb_cells);
    const Fixture f = make_fixture(92, comb_cells);
    const TimingGnn model = make_model();
    const auto xs0 = f.forest.gather_x();
    const auto ys0 = f.forest.gather_y();

    std::uint64_t jobs = 0;
    auto run_sequence = [&](std::size_t width) {
      set_parallel_threads(width);
      const std::uint64_t jobs0 = parallel_jobs();
      PenaltyWeights w;
      auto xs = xs0;
      auto ys = ys0;
      GradientEvaluator evaluator(model, *f.cache, f.design, xs, ys, w);
      std::vector<GradientResult> out;
      for (int step = 0; step < 3; ++step) {
        perturb(xs, ys, step);
        w.lambda_w *= 1.01;
        out.push_back(evaluator.gradients(xs, ys, w));
      }
      jobs = parallel_jobs() - jobs0;
      return out;
    };

    const std::vector<GradientResult> serial = run_sequence(1);
    EXPECT_EQ(jobs, 0u) << "width 1 dispatched to the pool";
    const std::vector<GradientResult> wide = run_sequence(4);
    if (comb_cells >= 1500) {
      EXPECT_GT(jobs, 0u) << "width 4 never used the pool";
    }
    set_parallel_threads(0);  // restore TSTEINER_THREADS / hardware default
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(results_bit_equal(serial[i], wide[i])) << "step " << i;
    }
  }
}

TEST(Replay, NumericGradientAgreesOnReplayedPenalty) {
  const Fixture f = make_fixture(84);
  const TimingGnn model = make_model();
  PenaltyWeights w;
  const auto xs = f.forest.gather_x();
  const auto ys = f.forest.gather_y();
  GradientEvaluator evaluator(model, *f.cache, f.design, xs, ys, w);
  const GradientResult g = evaluator.gradients(xs, ys, w);
  ASSERT_EQ(g.grad_x.size(), xs.size());

  const double eps = 1e-4;
  int checked = 0;
  for (std::size_t i = 0; i < xs.size() && checked < 5;
       i += std::max<std::size_t>(1, xs.size() / 5)) {
    auto xp = xs;
    auto xm = xs;
    xp[i] += eps;
    xm[i] -= eps;
    const double fp = evaluator.evaluate(xp, ys, w).penalty;
    const double fm = evaluator.evaluate(xm, ys, w).penalty;
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(g.grad_x[i], numeric, 1e-4 + 0.05 * std::abs(numeric)) << "coord " << i;
    ++checked;
  }
  EXPECT_GE(checked, 1);
}

TEST(Replay, TopologyChangeRejected) {
  const Fixture f = make_fixture(93);
  const Fixture other = make_fixture(94, /*comb_cells=*/60);
  const TimingGnn model = make_model();
  PenaltyWeights w;
  GradientEvaluator evaluator(model, *f.cache, f.design, f.forest.gather_x(),
                              f.forest.gather_y(), w);

  // A different forest topology has a different movable-point count: the
  // program must refuse to replay it rather than corrupt the leaf arena.
  const auto xs_b = other.forest.gather_x();
  const auto ys_b = other.forest.gather_y();
  ASSERT_NE(xs_b.size(), f.forest.gather_x().size());
  EXPECT_THROW(evaluator.gradients(xs_b, ys_b, w), std::runtime_error);

  // Gamma is baked into the recorded nonlinearities; a weight set resolving
  // to a different temperature needs a new recording too.
  PenaltyWeights other_gamma = w;
  other_gamma.gamma_ns = 2.0 * w.gamma_ns;
  EXPECT_THROW(
      evaluator.gradients(f.forest.gather_x(), f.forest.gather_y(), other_gamma),
      std::runtime_error);

  // Lambda-only changes are the supported mutation and must NOT throw.
  PenaltyWeights grown = w;
  grown.lambda_w *= 1.05;
  grown.lambda_t *= 1.05;
  EXPECT_NO_THROW(evaluator.gradients(f.forest.gather_x(), f.forest.gather_y(), grown));
}

TEST(Replay, SteadyStateReplayDoesNotAllocate) {
  const Fixture f = make_fixture(95);
  const TimingGnn model = make_model();
  PenaltyWeights w;
  auto xs = f.forest.gather_x();
  auto ys = f.forest.gather_y();
  GradientEvaluator evaluator(model, *f.cache, f.design, xs, ys, w);

  // First replay warms the arena: gradient buffers and segment-max scratch
  // are allocated once here.
  (void)evaluator.gradients(xs, ys, w);
  const std::uint64_t warm = evaluator.program().allocation_count();
  for (int step = 1; step <= 3; ++step) {
    perturb(xs, ys, step);
    w.lambda_w *= 1.01;
    w.lambda_t *= 1.01;
    (void)evaluator.gradients(xs, ys, w);
    (void)evaluator.evaluate(xs, ys, w);
    EXPECT_EQ(evaluator.program().allocation_count(), warm) << "step " << step;
  }
}

TEST(Replay, FinalizedProgramRejectsRecordingAndForeignLeaves) {
  TapeProgram program;
  Tape& tape = program.tape();
  const Value x = tape.leaf(Tensor::column({1.0, 2.0, 3.0}), /*requires_grad=*/true);
  const Value c = tape.leaf(Tensor::column({2.0, 0.5, -1.0}));
  const Value root = tape.sum_all(tape.mul(x, c));
  program.finalize(root, {x}, {x});

  EXPECT_THROW(program.tape().scale(x, 2.0), std::runtime_error);      // frozen
  EXPECT_THROW(program.set_leaf(c, std::vector<double>{9.0, 9.0, 9.0}),
               std::runtime_error);  // not mutable
  EXPECT_THROW(program.set_leaf(x, std::vector<double>{1.0, 2.0}),
               std::runtime_error);  // shape change

  program.set_leaf(x, std::vector<double>{4.0, 5.0, 6.0});
  program.replay_forward();
  EXPECT_DOUBLE_EQ(program.value(root)[0], 4.0 * 2.0 + 5.0 * 0.5 + 6.0 * -1.0);
  program.replay_backward();
  const Tensor& gx = program.grad(x);
  ASSERT_EQ(gx.size(), 3u);
  EXPECT_DOUBLE_EQ(gx[0], 2.0);
  EXPECT_DOUBLE_EQ(gx[1], 0.5);
  EXPECT_DOUBLE_EQ(gx[2], -1.0);
}

TEST(Replay, TapeReserveAndStats) {
  Tape tape;
  tape.reserve(8);
  const Value a = tape.leaf(Tensor::column({1.0, -2.0, 3.0}), /*requires_grad=*/true);
  const Value b = tape.leaf(Tensor::column({0.5, 0.5, 0.5}));
  const Value root = tape.sum_all(tape.mul(tape.relu(a), b));
  const Tape::Stats cold = tape.stats();
  EXPECT_EQ(cold.num_nodes, 5u);
  EXPECT_EQ(cold.num_leaves, 2u);
  EXPECT_EQ(cold.value_doubles, 3u + 3u + 3u + 3u + 1u);
  EXPECT_EQ(cold.grad_doubles, 0u);
  EXPECT_GE(cold.allocations, cold.num_nodes);

  tape.backward(root);
  const Tape::Stats warm = tape.stats();
  EXPECT_EQ(warm.grad_doubles, warm.value_doubles);
  EXPECT_GT(warm.allocations, cold.allocations);
  // A second backward reuses every gradient buffer.
  tape.backward(root);
  EXPECT_EQ(tape.stats().allocations, warm.allocations);
}

TEST(Replay, RebindAfterTopologyEditsMatchesFreshTapeAndFiniteDifference) {
  Fixture f = make_fixture(96);
  f.forest.build_movable_index();
  const TimingGnn model = make_model();
  PenaltyWeights w;
  const RectI die = f.design.die();
  Rng rng(4242);

  auto xs = f.forest.gather_x();
  auto ys = f.forest.gather_y();
  ASSERT_GT(xs.size(), 0u);
  GradientEvaluator evaluator(model, *f.cache, f.design, xs, ys, w);
  std::size_t bound = xs.size();
  std::shared_ptr<const GraphCache> cache = f.cache;

  // Apply a handful of discrete topology edits (insert / delete / reshift /
  // swap as the enumeration offers them); after each accepted edit the tape
  // is rebuilt in place via rebind() and must match a fresh recording bit
  // for bit — and the finite-difference slope of the replayed penalty.
  int applied = 0;
  std::set<search::EditKind> kinds;
  for (int attempt = 0; attempt < 64 && applied < 4; ++attempt) {
    const int t = static_cast<int>(rng.index(f.forest.trees.size()));
    const SteinerTree& tree = f.forest.trees[static_cast<std::size_t>(t)];
    if (tree.num_steiner_nodes() == 0) continue;
    bool edited = false;
    search::TopologyEdit chosen;
    for (const auto& e : search::enumerate_edits(tree, die, rng)) {
      auto next = search::apply_edit(tree, die, e);
      if (!next.has_value()) continue;
      chosen = e;
      f.forest.replace_tree(t, std::move(*next));
      edited = true;
      break;
    }
    if (!edited) continue;
    ++applied;
    kinds.insert(chosen.kind);

    const auto xs2 = f.forest.gather_x();
    const auto ys2 = f.forest.gather_y();
    if (xs2.size() != bound) {
      // Stale program: a changed movable count must be rejected, never
      // silently replayed.
      EXPECT_THROW(evaluator.gradients(xs2, ys2, w), std::runtime_error);
    }
    cache = build_graph_cache(f.design, f.forest);
    evaluator.rebind(model, *cache, f.design, xs2, ys2, w);
    bound = xs2.size();

    const GradientResult fresh = compute_timing_gradients(model, *cache, f.design, xs2, ys2, w);
    const GradientResult replayed = evaluator.gradients(xs2, ys2, w);
    EXPECT_TRUE(results_bit_equal(fresh, replayed))
        << "edit " << applied << " kind " << static_cast<int>(chosen.kind);

    if (!xs2.empty()) {
      const double eps = 1e-4;
      const std::size_t i = xs2.size() / 2;
      auto xp = xs2;
      auto xm = xs2;
      xp[i] += eps;
      xm[i] -= eps;
      const double numeric =
          (evaluator.evaluate(xp, ys2, w).penalty - evaluator.evaluate(xm, ys2, w).penalty) /
          (2.0 * eps);
      EXPECT_NEAR(replayed.grad_x[i], numeric, 1e-4 + 0.05 * std::abs(numeric))
          << "edit " << applied;
    }
  }
  ASSERT_GE(applied, 2) << "edit enumeration never produced an applicable edit";
  EXPECT_GE(kinds.size(), 1u);
}

TEST(Replay, RefineUsesSharedInitialGradientAndReportsPhases) {
  const Fixture f = make_fixture(86);
  const TimingGnn model = make_model();
  RefineOptions opts;
  opts.max_iterations = 4;
  const RefineResult r = refine_steiner_points(f.design, f.forest, model, opts);
  // One recording, many replays: both phases must have been populated.
  EXPECT_GT(r.grad_record.wall_s, 0.0);
  EXPECT_GT(r.grad_replay.wall_s, 0.0);
}

}  // namespace
}  // namespace tsteiner
