// Retained-program (record/replay) correctness: replayed forward/backward
// and trial evaluations must be bit-identical to a freshly recorded tape at
// any thread-pool width, a trial must leave the kept iterate's forward and
// op scratch intact, steady-state replay must not allocate, and a program
// must reject inputs from a different topology instead of silently
// corrupting results.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "autodiff/program.hpp"
#include "flow/flow.hpp"
#include "netlist/design_generator.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "place/placer.hpp"
#include "search/topo_edits.hpp"
#include "steiner/rsmt.hpp"
#include "testutil.hpp"
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
        // A rejected trial step, then the gradient back at the kept point.
        auto xt = xs;
        auto yt = ys;
        perturb(xt, yt, step + 7);
        out.push_back(evaluator.evaluate(xt, yt, w));
        w.lambda_t *= 1.01;
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

TEST(Replay, TrialEvaluationLeavesKeptIterateIntact) {
  const Fixture f = make_fixture(97);
  const TimingGnn model = make_model();
  PenaltyWeights w;
  const auto xs = f.forest.gather_x();
  const auto ys = f.forest.gather_y();
  ASSERT_GT(xs.size(), 0u);
  GradientEvaluator evaluator(model, *f.cache, f.design, xs, ys, w);

  const GradientResult kept = evaluator.gradients(xs, ys, w);
  EXPECT_TRUE(results_bit_equal(compute_timing_gradients(model, *f.cache, f.design, xs, ys, w),
                                kept));
  // Rejected trials: each must score like a fresh tape at its own point.
  for (int step = 1; step <= 3; ++step) {
    auto xt = xs;
    auto yt = ys;
    perturb(xt, yt, step);
    EXPECT_TRUE(results_bit_equal(evaluate_timing(model, *f.cache, f.design, xt, yt, w),
                                  evaluator.evaluate(xt, yt, w)))
        << "trial " << step;
  }
  // ... and leave the kept iterate's forward in place: the gradient back at
  // it runs no forward op at all.
  const TapeProgram::ReplayCounters before = evaluator.program().replay_counters();
  const GradientResult again = evaluator.gradients(xs, ys, w);
  const TapeProgram::ReplayCounters& after = evaluator.program().replay_counters();
  EXPECT_TRUE(results_bit_equal(kept, again));
  EXPECT_EQ(after.ops_executed, before.ops_executed);
  EXPECT_EQ(after.full_forward_skips, before.full_forward_skips + 1);
  EXPECT_EQ(after.trial_forwards, before.trial_forwards);

  // A lambda-only change back at the kept iterate replays just the penalty
  // tail, a small fraction of what a coordinate move replays.
  PenaltyWeights grown = w;
  grown.lambda_w *= 1.01;
  grown.lambda_t *= 1.01;
  auto xt = xs;
  auto yt = ys;
  perturb(xt, yt, 4);
  const std::uint64_t trial_ops0 = evaluator.program().replay_counters().trial_ops_executed;
  (void)evaluator.evaluate(xt, yt, grown);
  const std::uint64_t trial_ops =
      evaluator.program().replay_counters().trial_ops_executed - trial_ops0;
  const std::uint64_t ops0 = evaluator.program().replay_counters().ops_executed;
  const GradientResult fresh_grown =
      compute_timing_gradients(model, *f.cache, f.design, xs, ys, grown);
  EXPECT_TRUE(results_bit_equal(fresh_grown, evaluator.gradients(xs, ys, grown)));
  const std::uint64_t tail_ops = evaluator.program().replay_counters().ops_executed - ops0;
  EXPECT_GT(tail_ops, 0u);
  EXPECT_LT(10 * tail_ops, trial_ops);

  // A trial at the program's own leaves runs nothing and reads the main
  // values.
  const std::uint64_t idle0 = evaluator.program().replay_counters().trial_ops_executed;
  const GradientResult same = evaluator.evaluate(xs, ys, grown);
  EXPECT_EQ(evaluator.program().replay_counters().trial_ops_executed, idle0);
  EXPECT_TRUE(
      results_bit_equal(evaluate_timing(model, *f.cache, f.design, xs, ys, grown), same));
  EXPECT_GT(evaluator.program().trial_scratch_bytes(), 0u);
}

TEST(Replay, PerOpKindCountersMatchPassTotals) {
  const Fixture f = make_fixture(98);
  const TimingGnn model = make_model();
  const PenaltyWeights w;
  const auto xs = f.forest.gather_x();
  const auto ys = f.forest.gather_y();
  auto xt = xs;
  auto yt = ys;
  perturb(xt, yt, 1);
  GradientEvaluator evaluator(model, *f.cache, f.design, xs, ys, w);
  using Counts = TapeProgram::OpKindCounts;
  const auto total = [](const Counts& c) {
    std::uint64_t calls = 0;
    for (const TapeProgram::OpKindCount& k : c) calls += k.calls;
    return calls;
  };
  const auto dense_kind = [] {
    for (std::size_t k = 0; k < std::tuple_size_v<Counts>; ++k) {
      if (std::string(TapeProgram::op_kind_name(k)) == "dense") return k;
    }
    return std::tuple_size_v<Counts>;
  }();
  ASSERT_LT(dense_kind, std::tuple_size_v<Counts>);

  obs::metrics().reset_values();
  obs::set_metrics_enabled(true);
  const TapeProgram::ReplayCounters before = evaluator.program().replay_counters();
  (void)evaluator.gradients(xt, yt, w);
  (void)evaluator.evaluate(xs, ys, w);
  const TapeProgram::ReplayCounters after = evaluator.program().replay_counters();
  const std::string json = obs::metrics().to_json();
  obs::set_metrics_enabled(false);
  obs::metrics().reset_values();

  // Each pass's per-kind calls add up to its op total; every GNN layer is
  // one dense op in each pass.
  EXPECT_EQ(total(after.forward_kinds) - total(before.forward_kinds),
            after.ops_executed - before.ops_executed);
  EXPECT_EQ(total(after.trial_kinds) - total(before.trial_kinds),
            after.trial_ops_executed - before.trial_ops_executed);
  const std::uint64_t fwd_dense =
      after.forward_kinds[dense_kind].calls - before.forward_kinds[dense_kind].calls;
  const std::uint64_t trial_dense =
      after.trial_kinds[dense_kind].calls - before.trial_kinds[dense_kind].calls;
  const std::uint64_t bwd_dense =
      after.backward_kinds[dense_kind].calls - before.backward_kinds[dense_kind].calls;
  EXPECT_GT(fwd_dense, 0u);
  EXPECT_EQ(trial_dense, fwd_dense);
  EXPECT_GT(bwd_dense, 0u);
  EXPECT_GT(after.forward_kinds[dense_kind].elems, before.forward_kinds[dense_kind].elems);

  // The evaluator surfaces the deltas: forward and trial under .calls,
  // the backward under .bwd_calls.
  const auto doc = obs::parse_json(json);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* counters = doc->find_object("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->number_or("grad.op.dense.calls", 0.0),
            static_cast<double>(fwd_dense + trial_dense));
  EXPECT_EQ(counters->number_or("grad.op.dense.bwd_calls", 0.0), static_cast<double>(bwd_dense));
  EXPECT_EQ(counters->number_or("grad.op.dense.elems", 0.0),
            static_cast<double>(after.forward_kinds[dense_kind].elems -
                                before.forward_kinds[dense_kind].elems +
                                after.trial_kinds[dense_kind].elems -
                                before.trial_kinds[dense_kind].elems));
}

TEST(Replay, TrialPassKeepsValueDependentOpScratch) {
  // segment_max winners and the log_sum_exp max both differ between the
  // kept point and the trial point, so a trial pass that wrote the main
  // argmax or m/z would send the next backward down the trial's winners.
  const auto build = [](Tape& tape, const std::vector<double>& x0) {
    const Value x = tape.leaf(Tensor::column(x0), /*requires_grad=*/true);
    const Value seg = tape.segment_max(tape.scale(x, 2.0), {0, 0, 1, 1, 2}, 3);
    return std::pair{x, tape.log_sum_exp(seg, 0.5)};
  };
  const std::vector<double> kept = {1.0, 3.0, 5.0, 2.0, -1.0};   // winners 1, 2, 4
  const std::vector<double> trial = {4.0, 0.0, 1.0, 6.0, -2.0};  // winners 0, 3, 4
  const auto fresh = [&](const std::vector<double>& at) {
    Tape tape;
    const auto [x, root] = build(tape, at);
    tape.backward(root);
    return std::pair{tape.value(root)[0], tape.grad(x).data()};
  };
  const auto [kept_root, kept_grad] = fresh(kept);
  const auto [trial_root, trial_grad] = fresh(trial);
  ASSERT_FALSE(bits_equal(kept_grad, trial_grad));

  TapeProgram program;
  const auto [x, root] = build(program.tape(), kept);
  program.finalize(root, {x}, {x});
  program.replay_backward();
  EXPECT_TRUE(bits_equal(program.grad(x).data(), kept_grad));

  const std::uint64_t allocs = program.allocation_count();
  for (int rep = 0; rep < 2; ++rep) {
    program.set_trial_leaf(x, trial);
    program.trial_forward();
    ASSERT_EQ(program.trial_value(root).size(), 1u);
    EXPECT_EQ(std::memcmp(&program.trial_value(root)[0], &trial_root, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(program.value(root).data().data(), &kept_root, sizeof(double)), 0);
    program.replay_forward();  // nothing pending: a no-op
    program.replay_backward();
    EXPECT_TRUE(bits_equal(program.grad(x).data(), kept_grad)) << "rep " << rep;
  }
  EXPECT_EQ(program.allocation_count(), allocs);
  EXPECT_EQ(program.replay_counters().ops_executed, 0u);

  // Only declared outputs are readable, and a trial needs current main
  // values underneath it.
  EXPECT_THROW((void)program.trial_value(x), std::runtime_error);
  program.set_leaf(x, trial);
  EXPECT_THROW(program.trial_forward(), std::logic_error);
  program.replay_forward();
  program.replay_backward();
  EXPECT_TRUE(bits_equal(program.grad(x).data(), trial_grad));
}

TEST(Replay, TrialRecomputesOnlyMovedDenseRows) {
  const Fixture f = make_fixture(99);
  const TimingGnn model = make_model();
  const PenaltyWeights w;
  const auto xs = f.forest.gather_x();
  const auto ys = f.forest.gather_y();
  GradientEvaluator evaluator(model, *f.cache, f.design, xs, ys, w);
  const GradientResult kept = evaluator.gradients(xs, ys, w);
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < kept.grad_x.size(); ++i) {
    if (kept.grad_x[i] != 0.0) live.push_back(i);
  }
  ASSERT_GE(live.size(), 2u);

  obs::metrics().reset_values();
  obs::set_metrics_enabled(true);
  struct Rows {
    std::uint64_t computed, reused;
  };
  const auto trial = [&](const std::vector<double>& xt) {
    const TapeProgram::ReplayCounters before = evaluator.program().replay_counters();
    EXPECT_TRUE(results_bit_equal(evaluate_timing(model, *f.cache, f.design, xt, ys, w),
                                  evaluator.evaluate(xt, ys, w)));
    const TapeProgram::ReplayCounters& after = evaluator.program().replay_counters();
    return Rows{after.trial_rows_computed - before.trial_rows_computed,
                after.trial_rows_reused - before.trial_rows_reused};
  };
  auto x_one = xs;
  x_one[live.front()] += 3.0;
  const Rows one = trial(x_one);
  auto x_other = xs;
  x_other[live.back()] -= 3.0;
  const Rows other = trial(x_other);
  auto x_all = xs;
  for (double& x : x_all) x += 3.0;
  const Rows all = trial(x_all);
  const std::string json = obs::metrics().to_json();
  obs::set_metrics_enabled(false);
  obs::metrics().reset_values();

  // One moved Steiner point leaves most dense rows as the kept iterate had
  // them.
  EXPECT_GT(one.computed, 0u);
  EXPECT_GT(one.reused, one.computed);
  // Every trial that moves only x coordinates runs the same dense ops, so
  // the two counts always split the same number of rows; moving every
  // point recomputes more of them.
  EXPECT_EQ(other.computed + other.reused, one.computed + one.reused);
  EXPECT_EQ(all.computed + all.reused, one.computed + one.reused);
  EXPECT_GT(all.computed, one.computed);

  const auto doc = obs::parse_json(json);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* counters = doc->find_object("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->number_or("grad.trial_dense_rows_computed", 0.0),
            static_cast<double>(one.computed + other.computed + all.computed));
  EXPECT_EQ(counters->number_or("grad.trial_dense_rows_reused", 0.0),
            static_cast<double>(one.reused + other.reused + all.reused));
}

/// A 4-row, two-term tanh dense op: term 0 joins a live 4x2 part `x` with
/// a constant 4x3 part under the weight `w`, term 1 a constant 4x3 part.
struct DenseGraph {
  Value x, w, out, root;
};

Tensor filled(std::size_t rows, std::size_t cols, const std::vector<double>& values) {
  Tensor t(rows, cols);
  t.data() = values;
  return t;
}

DenseGraph build_dense_graph(Tape& tape, const Tensor& x0, const Tensor& w0) {
  DenseGraph g;
  g.x = tape.leaf(x0, /*requires_grad=*/true);
  const Value c = tape.leaf(
      filled(4, 3, {0.5, -1.0, 2.0, 0.0, 1.5, -0.5, 1.0, 1.0, 1.0, -2.0, 0.25, 0.75}));
  g.w = tape.leaf(w0, /*requires_grad=*/true);
  const Value c2 = tape.leaf(
      filled(4, 3, {1.0, 0.0, -1.0, 0.5, 0.5, 0.5, -0.25, 2.0, 0.0, 0.0, 0.0, 1.0}));
  const Value w2 = tape.leaf(filled(3, 3, {0.3, -0.2, 0.1, 0.0, 0.4, -0.6, 0.2, 0.2, -0.1}));
  const Value bias = tape.leaf(filled(1, 3, {0.05, -0.1, 0.2}));
  g.out = tape.dense({{{g.x, c}, g.w}, {{c2}, w2}}, bias, Tape::Act::kTanh);
  g.root = tape.sum_all(g.out);
  return g;
}

const Tensor& dense_x0() {
  static const Tensor x = filled(4, 2, {1.0, -2.0, 0.0, 0.5, 3.0, 1.0, -1.5, 2.5});
  return x;
}

const Tensor& dense_w0() {
  static const Tensor w = filled(5, 3, {0.1, 0.2, -0.3, -0.4, 0.5, 0.6, 0.7, -0.8, 0.9, 0.15,
                                        0.25, -0.35, 0.45, -0.55, 0.65});
  return w;
}

/// The dense graph recorded at (dense_x0, dense_w0), with x and w mutable.
struct DenseProgram {
  TapeProgram program;
  DenseGraph g;
  DenseProgram() {
    g = build_dense_graph(program.tape(), dense_x0(), dense_w0());
    program.finalize(g.root, {g.x, g.w}, {g.x}, {g.out});
  }

  struct Rows {
    std::uint64_t computed, reused;
  };
  /// One trial pass at (x, w); its `out` must bit-equal an eager recording
  /// there. Returns the dense rows it recomputed and reused.
  Rows trial(const Tensor& x, const Tensor& w) {
    const TapeProgram::ReplayCounters before = program.replay_counters();
    program.set_trial_leaf(g.x, x.data());
    program.set_trial_leaf(g.w, w.data());
    program.trial_forward();
    const std::span<const double> out = program.trial_value(g.out);
    Tape fresh;
    EXPECT_TRUE(bits_equal(std::vector<double>(out.begin(), out.end()),
                           fresh.value(build_dense_graph(fresh, x, w).out).data()));
    const TapeProgram::ReplayCounters& after = program.replay_counters();
    return Rows{after.trial_rows_computed - before.trial_rows_computed,
                after.trial_rows_reused - before.trial_rows_reused};
  }
};

TEST(Replay, TrialRecomputesDenseRowWhoseZeroChangedSign) {
  DenseProgram p;
  // -0.0 in place of +0.0 is equal under == but not under memcmp, so row 1
  // is recomputed (to the same bits: the kernel skips zero inputs).
  Tensor x = dense_x0();
  x.data()[2] = -0.0;
  const DenseProgram::Rows r = p.trial(x, dense_w0());
  EXPECT_EQ(r.computed, 1u);
  EXPECT_EQ(r.reused, 3u);
}

TEST(Replay, TrialDenseReuseAcrossTermsAndLiveWeights) {
  DenseProgram p;
  // One moved row of the live part: only that row is recomputed, through
  // both terms and the constant parts.
  Tensor x = dense_x0();
  x.data()[5] = 4.0;  // row 2
  DenseProgram::Rows r = p.trial(x, dense_w0());
  EXPECT_EQ(r.computed, 1u);
  EXPECT_EQ(r.reused, 3u);

  // A staged weight that differs moves every row, even with x unchanged.
  Tensor w = dense_w0();
  w.data()[7] = -0.75;
  r = p.trial(dense_x0(), w);
  EXPECT_EQ(r.computed, 4u);
  EXPECT_EQ(r.reused, 0u);

  // Staging the main bytes runs no dense op at all.
  r = p.trial(dense_x0(), dense_w0());
  EXPECT_EQ(r.computed, 0u);
  EXPECT_EQ(r.reused, 0u);
  EXPECT_EQ(p.program.replay_counters().ops_executed, 0u);
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
  const Value root = tape.sum_all(tape.mul(tape.sigmoid(a), b));
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
  const std::string path = testutil::test_tmp_dir() + "/refine_trace.json";
  obs::reset_trace();
  obs::enable_trace(path);
  refine_steiner_points(f.design, f.forest, model, opts);
  obs::disable_trace();
  obs::reset_trace();

  // One recording, many replays, each phase visible as a trace span.
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto doc = obs::parse_json(text);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->find_array("traceEvents");
  ASSERT_NE(events, nullptr);
  int records = 0, gradients = 0;
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* name = e.find_string("name");
    if (name == nullptr) continue;
    records += name->str == "refine.record";
    gradients += name->str == "refine.gradient";
  }
  EXPECT_EQ(records, 1);
  EXPECT_GE(gradients, 1);
}

}  // namespace
}  // namespace tsteiner
