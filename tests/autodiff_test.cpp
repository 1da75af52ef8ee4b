#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autodiff/program.hpp"
#include "autodiff/tape.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tsteiner {
namespace {

// Gradient check: compares the tape gradient of a scalar function against a
// central finite difference, elementwise.
void check_gradient(const std::function<Value(Tape&, Value)>& graph, const Tensor& x0,
                    double tol = 1e-6) {
  Tape tape;
  const Value x = tape.leaf(x0, /*requires_grad=*/true);
  const Value root = graph(tape, x);
  ASSERT_EQ(tape.value(root).size(), 1u);
  tape.backward(root);
  const Tensor& analytic = tape.grad(x);
  ASSERT_EQ(analytic.size(), x0.size());

  auto eval = [&graph](const Tensor& xv) {
    Tape t2;
    const Value xx = t2.leaf(xv, true);
    return t2.value(graph(t2, xx))[0];
  };
  for (std::size_t i = 0; i < x0.size(); ++i) {
    const double numeric = numeric_gradient(eval, x0, i);
    EXPECT_NEAR(analytic[i], numeric, tol) << "element " << i;
  }
}

Tensor make_input() {
  Rng rng(5);
  return Tensor::randn(rng, 4, 3, 1.0);
}

TEST(Tape, LeafValueRoundTrip) {
  Tape tape;
  Tensor t(2, 2);
  t.at(0, 0) = 1.0;
  t.at(1, 1) = -2.0;
  const Value v = tape.leaf(t);
  EXPECT_DOUBLE_EQ(tape.value(v).at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(tape.value(v).at(1, 1), -2.0);
}

TEST(TapeGrad, SumAll) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(x); }, make_input());
}

TEST(TapeGrad, MeanAll) {
  check_gradient([](Tape& t, Value x) { return t.mean_all(x); }, make_input());
}

TEST(TapeGrad, ScaleAndAddScalar) {
  check_gradient(
      [](Tape& t, Value x) { return t.sum_all(t.add_scalar(t.scale(x, 2.5), -1.0)); },
      make_input());
}

TEST(TapeGrad, AddSubMulChain) {
  check_gradient(
      [](Tape& t, Value x) {
        const Value y = t.mul(x, x);       // x^2
        const Value z = t.sub(y, x);       // x^2 - x
        const Value w = t.add(z, y);       // 2x^2 - x
        return t.sum_all(w);
      },
      make_input());
}

TEST(TapeGrad, RowBroadcastAdd) {
  Rng rng(9);
  const Tensor bias = Tensor::randn(rng, 1, 3, 1.0);
  check_gradient(
      [bias](Tape& t, Value x) {
        const Value b = t.leaf(bias);
        return t.sum_all(t.mul(t.add(x, b), t.add(x, b)));
      },
      make_input());
}

TEST(TapeGrad, MatmulBothSides) {
  Rng rng(11);
  const Tensor w = Tensor::randn(rng, 3, 2, 1.0);
  // gradient w.r.t. left operand
  check_gradient(
      [w](Tape& t, Value x) { return t.sum_all(t.matmul(x, t.leaf(w))); }, make_input());
  // gradient w.r.t. right operand (x plays the role of W)
  const Tensor a = Tensor::randn(rng, 2, 4, 1.0);
  check_gradient(
      [a](Tape& t, Value x) { return t.sum_all(t.matmul(t.leaf(a), x)); }, make_input());
}

TEST(TapeGrad, Relu) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.mul(t.relu(x), t.relu(x))); },
                 make_input(), 1e-5);
}

TEST(TapeGrad, Tanh) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.tanh_op(x)); }, make_input());
}

TEST(TapeGrad, Sigmoid) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.sigmoid(x)); }, make_input());
}

TEST(TapeGrad, Softplus) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.softplus(x)); }, make_input());
}

TEST(TapeGrad, AbsAwayFromZero) {
  Tensor x0(3, 1);
  x0[0] = 1.5;
  x0[1] = -2.5;
  x0[2] = 0.75;
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.mul(t.abs_op(x), t.abs_op(x))); },
                 x0);
}

TEST(TapeGrad, ConcatCols) {
  Rng rng(13);
  const Tensor other = Tensor::randn(rng, 4, 2, 1.0);
  check_gradient(
      [other](Tape& t, Value x) {
        const Value c = t.concat_cols({x, t.leaf(other)});
        return t.sum_all(t.mul(c, c));
      },
      make_input());
}

TEST(TapeGrad, GatherRows) {
  check_gradient(
      [](Tape& t, Value x) {
        const Value g = t.gather_rows(x, {0, 2, 2, 1});  // repeated row
        return t.sum_all(t.mul(g, g));
      },
      make_input());
}

TEST(TapeGrad, ScatterAddRows) {
  check_gradient(
      [](Tape& t, Value x) {
        const Value s = t.scatter_add_rows(x, {1, 0, 1, 2}, 3);  // collisions
        return t.sum_all(t.mul(s, s));
      },
      make_input());
}

TEST(TapeGrad, SegmentSum) {
  check_gradient(
      [](Tape& t, Value x) {
        const Value s = t.segment_sum(x, {0, 0, 1, 1}, 2);
        return t.sum_all(t.mul(s, s));
      },
      make_input());
}

TEST(TapeGrad, SegmentMax) {
  // distinct values so the argmax is stable under the finite-difference eps
  Tensor x0(4, 2);
  double v = 0.1;
  for (std::size_t i = 0; i < x0.size(); ++i) x0[i] = (v += 0.37);
  check_gradient(
      [](Tape& t, Value x) {
        const Value s = t.segment_max(x, {0, 1, 0, 1}, 2);
        return t.sum_all(t.mul(s, s));
      },
      x0);
}

TEST(Tape, SegmentMaxEmptySegmentGetsFill) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = 5.0;
  x[1] = 3.0;
  const Value v = tape.leaf(x, true);
  const Value s = tape.segment_max(v, {0, 0}, 3, -7.0);
  EXPECT_DOUBLE_EQ(tape.value(s).at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(tape.value(s).at(1, 0), -7.0);
  EXPECT_DOUBLE_EQ(tape.value(s).at(2, 0), -7.0);
}

TEST(TapeGrad, LogSumExp) {
  Tensor x0(5, 1);
  x0[0] = -1.0;
  x0[1] = 0.5;
  x0[2] = 2.0;
  x0[3] = -3.0;
  x0[4] = 1.0;
  check_gradient([](Tape& t, Value x) { return t.log_sum_exp(x, 0.7); }, x0);
}

TEST(Tape, LogSumExpApproachesMax) {
  // gamma -> 0 makes LSE converge to the hard maximum
  Tape tape;
  Tensor x(3, 1);
  x[0] = 1.0;
  x[1] = 4.0;
  x[2] = -2.0;
  const Value v = tape.leaf(x);
  EXPECT_NEAR(tape.value(tape.log_sum_exp(v, 1e-3))[0], 4.0, 1e-2);
  // and is an upper bound for any gamma
  EXPECT_GE(tape.value(tape.log_sum_exp(v, 10.0))[0], 4.0);
}

TEST(Tape, LogSumExpNumericallyStableForLargeInputs) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = 1e6;
  x[1] = 1e6 - 1.0;
  const Value v = tape.leaf(x);
  const double out = tape.value(tape.log_sum_exp(v, 1.0))[0];
  EXPECT_TRUE(std::isfinite(out));
  EXPECT_NEAR(out, 1e6 + std::log(1.0 + std::exp(-1.0)), 1e-6);
}

TEST(TapeGrad, SoftMin0) {
  Tensor x0(4, 1);
  x0[0] = -2.0;
  x0[1] = -0.1;
  x0[2] = 0.1;
  x0[3] = 3.0;
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.soft_min0(x, 0.5)); }, x0);
}

TEST(Tape, SoftMin0Limits) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = -100.0;  // deep violation: ~identity
  x[1] = 100.0;   // large positive slack: ~0
  const Value v = tape.leaf(x);
  const Tensor& out = tape.value(tape.soft_min0(v, 1.0));
  EXPECT_NEAR(out[0], -100.0, 1e-6);
  EXPECT_NEAR(out[1], 0.0, 1e-6);
}

TEST(TapeGrad, SmoothAbs) {
  Tensor x0(4, 1);
  x0[0] = -6.0;
  x0[1] = -0.5;
  x0[2] = 0.0;
  x0[3] = 7.0;
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.smooth_abs(x, 2.0)); }, x0);
}

TEST(Tape, SmoothAbsProperties) {
  Tape tape;
  Tensor x(3, 1);
  x[0] = 0.0;
  x[1] = 100.0;
  x[2] = -100.0;
  const Value v = tape.leaf(x, true);
  const Tensor& out = tape.value(tape.smooth_abs(v, 4.0));
  EXPECT_DOUBLE_EQ(out[0], 0.0);                 // exact zero at origin
  EXPECT_NEAR(out[1], 100.0 - 4.0 + 0.08, 0.1);  // |x| - delta in the tails
  EXPECT_DOUBLE_EQ(out[1], out[2]);              // even function
  // gradient vanishes at the origin (flat basin, unlike abs)
  Tape t2;
  Tensor zero(1, 1, 0.0);
  const Value z = t2.leaf(zero, true);
  const Value root = t2.sum_all(t2.smooth_abs(z, 4.0));
  t2.backward(root);
  EXPECT_DOUBLE_EQ(t2.grad(z)[0], 0.0);
}

TEST(Tape, SmoothAbsZeroDeltaFallsBackToAbs) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = -3.0;
  x[1] = 2.0;
  const Value v = tape.leaf(x);
  const Tensor& out = tape.value(tape.smooth_abs(v, 0.0));
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(TapeGrad, Mse) {
  Tensor target(4, 3);
  for (std::size_t i = 0; i < target.size(); ++i) target[i] = 0.1 * static_cast<double>(i);
  check_gradient([target](Tape& t, Value x) { return t.mse(x, target); }, make_input());
}

TEST(Tape, BackwardOnlyReachesUsedLeaves) {
  Tape tape;
  const Value a = tape.leaf(Tensor(2, 1, 1.0), true);
  const Value b = tape.leaf(Tensor(2, 1, 2.0), true);
  const Value root = tape.sum_all(a);
  tape.backward(root);
  EXPECT_DOUBLE_EQ(tape.grad(a)[0], 1.0);
  // b untouched: zero grad
  const Tensor& gb = tape.grad(b);
  for (std::size_t i = 0; i < gb.size(); ++i) EXPECT_DOUBLE_EQ(gb[i], 0.0);
}

TEST(Tape, BackwardThrowsOnNonScalarRoot) {
  Tape tape;
  const Value a = tape.leaf(Tensor(2, 2, 1.0), true);
  EXPECT_THROW(tape.backward(a), std::runtime_error);
}

TEST(Tape, ShapeMismatchThrows) {
  Tape tape;
  const Value a = tape.leaf(Tensor(2, 2, 1.0));
  const Value b = tape.leaf(Tensor(3, 2, 1.0));
  EXPECT_THROW(tape.sub(a, b), std::runtime_error);
  EXPECT_THROW(tape.mul(a, b), std::runtime_error);
  EXPECT_THROW(tape.matmul(a, b), std::runtime_error);
}

// --- gather_frontiers ---------------------------------------------------------

TEST(TapeGrad, GatherFrontiers) {
  Tensor x0(5, 1);
  for (std::size_t i = 0; i < x0.size(); ++i) x0[i] = 0.3 * static_cast<double>(i) - 0.7;
  check_gradient(
      [](Tape& t, Value x) {
        const Value a = t.tanh_op(x);                                  // source 0: 5 rows
        const Value b = t.scale(t.gather_rows(x, {4, 1, 0}), 3.0);     // source 1: 3 rows
        // (0, 2) repeats; slot -1 reads +0.0 and takes no gradient.
        const Value f = t.gather_frontiers({a, b}, {0, 1, -1, 1, 0, 0}, {2, 0, 3, 2, 2, 4});
        return t.sum_all(t.mul(f, f));
      },
      x0);
}

TEST(Tape, GatherFrontiersUnwrittenSlotReadsPositiveZero) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = 4.0;
  x[1] = -3.0;
  const Value v = tape.leaf(x, true);
  const Value f = tape.gather_frontiers({v}, {-1, 0, -1}, {0, 1, 0});
  const Tensor& out = tape.value(f);
  ASSERT_EQ(out.rows(), 3u);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_FALSE(std::signbit(out[0]));
  EXPECT_EQ(out[1], -3.0);
  EXPECT_FALSE(std::signbit(out[2]));
  // Zero sources: a constant column of +0.0.
  const Value z = tape.gather_frontiers({}, {-1, -1}, {0, 0});
  EXPECT_EQ(tape.value(z).rows(), 2u);
  EXPECT_FALSE(std::signbit(tape.value(z)[1]));
  tape.backward(tape.sum_all(f));
  EXPECT_EQ(tape.grad(v)[0], 0.0);
  EXPECT_EQ(tape.grad(v)[1], 1.0);
}

TEST(Tape, GatherFrontiersRepeatedPairsAccumulate) {
  Tape tape;
  const Value a = tape.leaf(Tensor(3, 1, 1.0), true);
  const Value b = tape.leaf(Tensor(2, 1, 2.0), true);
  const Value f = tape.gather_frontiers({a, b}, {0, 1, 0, 0, 1, -1}, {1, 0, 1, 2, 0, 0});
  tape.backward(tape.sum_all(tape.scale(f, 0.5)));
  EXPECT_EQ(tape.grad(a)[0], 0.0);
  EXPECT_EQ(tape.grad(a)[1], 1.0);  // (0, 1) twice
  EXPECT_EQ(tape.grad(a)[2], 0.5);
  EXPECT_EQ(tape.grad(b)[0], 1.0);  // (1, 0) twice
  EXPECT_EQ(tape.grad(b)[1], 0.0);
}

TEST(Tape, GatherFrontiersNormalizesNegativeZero) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = -0.0;
  x[1] = 1.5;
  const Value v = tape.leaf(x);
  ASSERT_TRUE(std::signbit(tape.value(tape.gather_rows(v, {0}))[0]));  // a plain copy keeps it
  const Tensor& out = tape.value(tape.gather_frontiers({v}, {0, 0}, {0, 1}));
  EXPECT_EQ(out[0], 0.0);
  EXPECT_FALSE(std::signbit(out[0]));
  EXPECT_EQ(out[1], 1.5);
}

TEST(Tape, GatherFrontiersRejectsBadIndices) {
  Tape tape;
  const Value col = tape.leaf(Tensor(3, 1, 1.0));
  const Value wide = tape.leaf(Tensor(3, 2, 1.0));
  EXPECT_THROW(tape.gather_frontiers({col}, {0, 0}, {0}), std::runtime_error);
  EXPECT_THROW(tape.gather_frontiers({col}, {1}, {0}), std::runtime_error);
  EXPECT_THROW(tape.gather_frontiers({col}, {0}, {3}), std::runtime_error);
  EXPECT_THROW(tape.gather_frontiers({wide}, {0}, {0}), std::runtime_error);
}

// Level-synchronous propagation shaped like the timing GNN's: each level
// records a frontier that reads earlier frontiers (or +0.0) plus a term of
// x, and a final assembly reads every frontier. Large enough that the
// forward kernel splits into several pool chunks.
Value frontier_chain(Tape& t, Value x) {
  const std::size_t n = t.value(x).rows();
  Rng rng(17);
  std::vector<Value> fr{t.tanh_op(x)};
  auto random_read = [&](std::size_t rows) {
    std::vector<int> slots(rows), idx(rows, 0);
    for (std::size_t k = 0; k < rows; ++k) {
      slots[k] = static_cast<int>(rng.uniform_int(-1, static_cast<std::int64_t>(fr.size()) - 1));
      if (slots[k] >= 0) {
        const auto src_rows = t.value(fr[static_cast<std::size_t>(slots[k])]).rows();
        idx[k] = static_cast<int>(rng.index(src_rows));
      }
    }
    return t.gather_frontiers(fr, slots, idx);
  };
  for (int l = 1; l <= 4; ++l) {
    const Value read = random_read(n);
    fr.push_back(t.tanh_op(t.add(read, t.scale(x, 0.1 * l))));
  }
  const Value out = random_read(n + n / 2);
  return t.sum_all(t.mul(out, out));
}

Tensor chain_input(double shift) {
  Rng rng(23);
  Tensor x(20000, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal() + shift;
  return x;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

TEST(Tape, GatherFrontiersReplayBitIdenticalToEagerAcrossWidths) {
  for (std::size_t width : {1u, 4u}) {
    set_parallel_threads(width);
    TapeProgram program;
    const Value px = program.tape().leaf(chain_input(0.0), true);
    const Value proot = frontier_chain(program.tape(), px);
    program.finalize(proot, {px}, {px});
    for (double shift : {0.0, 0.25, -0.5}) {
      Tape eager;
      const Value ex = eager.leaf(chain_input(shift), true);
      const Value eroot = frontier_chain(eager, ex);
      eager.backward(eroot);
      program.set_leaf(px, chain_input(shift));
      program.replay_forward();
      program.replay_backward();
      EXPECT_TRUE(same_bits(program.value(proot), eager.value(eroot)))
          << "width " << width << " shift " << shift;
      EXPECT_TRUE(same_bits(program.grad(px), eager.grad(ex)))
          << "width " << width << " shift " << shift;
    }
  }
  set_parallel_threads(0);
}

TEST(Tape, GatherFrontiersWarmReplayDoesNotAllocate) {
  TapeProgram program;
  const Value px = program.tape().leaf(chain_input(0.0), true);
  const Value proot = frontier_chain(program.tape(), px);
  program.finalize(proot, {px}, {px});
  program.set_leaf(px, chain_input(0.1));
  program.replay_forward();
  program.replay_backward();
  const std::uint64_t warm = program.allocation_count();
  for (int step = 0; step < 3; ++step) {
    program.set_leaf(px, chain_input(0.2 * step));
    program.replay_forward();
    program.replay_backward();
    EXPECT_EQ(program.allocation_count(), warm) << "step " << step;
  }
}

TEST(TapeGrad, ComposedMlpBlock) {
  // A realistic block: relu(x W1 + b1) W2 summed — the delay-head pattern.
  Rng rng(21);
  const Tensor w1 = Tensor::randn(rng, 3, 5, 0.7);
  const Tensor b1 = Tensor::randn(rng, 1, 5, 0.3);
  const Tensor w2 = Tensor::randn(rng, 5, 1, 0.7);
  check_gradient(
      [&](Tape& t, Value x) {
        const Value hidden = t.relu(t.add(t.matmul(x, t.leaf(w1)), t.leaf(b1)));
        return t.sum_all(t.softplus(t.matmul(hidden, t.leaf(w2))));
      },
      make_input(), 1e-5);
}

}  // namespace
}  // namespace tsteiner
