#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

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

// The product inside dense(): gradients w.r.t. the input, the weight and the
// bias, under each activation.
TEST(TapeGrad, MatmulBothSides) {
  using Act = Tape::Act;
  Rng rng(11);
  const Tensor w = Tensor::randn(rng, 3, 2, 1.0);
  const Tensor b = Tensor::randn(rng, 1, 2, 0.3);
  const Tensor a = Tensor::randn(rng, 2, 4, 1.0);
  const Tensor b3 = Tensor::randn(rng, 1, 3, 0.3);
  const Tensor bias_in = Tensor::randn(rng, 4, 1, 1.0);
  for (Act act : {Act::kNone, Act::kRelu, Act::kTanh}) {
    // w.r.t. the input part
    check_gradient(
        [&](Tape& t, Value x) { return t.sum_all(t.dense({{{x}, t.leaf(w)}}, t.leaf(b), act)); },
        make_input());
    // w.r.t. the weight (x plays the role of W)
    check_gradient(
        [&](Tape& t, Value x) { return t.sum_all(t.dense({{{t.leaf(a)}, x}}, t.leaf(b3), act)); },
        make_input());
    // w.r.t. the bias (x's first row plays the role of b, through a gather)
    check_gradient(
        [&](Tape& t, Value x) {
          const Value bias = t.gather_rows(x, {0});
          return t.sum_all(t.dense({{{t.leaf(bias_in)}, t.leaf(Tensor(1, 3, 0.5))}}, bias, act));
        },
        make_input());
  }
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

// dense() over a column concatenation, and a second term.
TEST(TapeGrad, ConcatCols) {
  Rng rng(13);
  const Tensor other = Tensor::randn(rng, 4, 2, 1.0);
  const Tensor w = Tensor::randn(rng, 5, 3, 0.7);
  const Tensor w2 = Tensor::randn(rng, 3, 3, 0.7);
  const Tensor b = Tensor::randn(rng, 1, 3, 0.3);
  check_gradient(
      [&](Tape& t, Value x) {
        const Value c =
            t.dense({{{x, t.leaf(other)}, t.leaf(w)}, {{x}, t.leaf(w2)}}, t.leaf(b), Tape::Act::kTanh);
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
  EXPECT_THROW(tape.add(a, b), std::runtime_error);
  const Value bias = tape.leaf(Tensor(1, 2, 0.0));
  EXPECT_THROW(tape.add(a, bias), std::runtime_error) << "add takes no row broadcast";
  EXPECT_THROW(tape.dense({{{a}, b}}, bias, Tape::Act::kNone), std::runtime_error);
  EXPECT_THROW(tape.dense({{{a, b}, a}}, bias, Tape::Act::kNone), std::runtime_error);
  EXPECT_THROW(tape.dense({{{a}, a}}, tape.leaf(Tensor(1, 3, 0.0)), Tape::Act::kNone),
               std::runtime_error);
  EXPECT_THROW(tape.dense({}, bias, Tape::Act::kNone), std::runtime_error);
}

// --- gather_frontiers ---------------------------------------------------------

TEST(TapeGrad, GatherFrontiers) {
  Tensor x0(5, 1);
  for (std::size_t i = 0; i < x0.size(); ++i) x0[i] = 0.3 * static_cast<double>(i) - 0.7;
  check_gradient(
      [](Tape& t, Value x) {
        const Value a = t.sigmoid(x);                                  // source 0: 5 rows
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
// x, and a final assembly reads every frontier. chain_input picks the row
// count: 20k rows stay below one pool chunk per kernel, 80k rows split every
// kernel into several chunks.
Value frontier_chain(Tape& t, Value x) {
  const std::size_t n = t.value(x).rows();
  Rng rng(17);
  std::vector<Value> fr{t.sigmoid(x)};
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
    fr.push_back(t.sigmoid(t.add(read, t.scale(x, 0.1 * l))));
  }
  const Value out = random_read(n + n / 2);
  return t.sum_all(t.mul(out, out));
}

Tensor chain_input(double shift, std::size_t rows = 20000) {
  Rng rng(23);
  Tensor x(rows, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal() + shift;
  return x;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

TEST(Tape, GatherFrontiersReplayBitIdenticalToEagerAcrossWidths) {
  for (std::size_t rows : {std::size_t{20000}, std::size_t{80000}}) {
    std::vector<Tensor> grads;
    for (std::size_t width : {1u, 4u}) {
      set_parallel_threads(width);
      const std::uint64_t jobs0 = parallel_jobs();
      TapeProgram program;
      const Value px = program.tape().leaf(chain_input(0.0, rows), true);
      const Value proot = frontier_chain(program.tape(), px);
      program.finalize(proot, {px}, {px});
      for (double shift : {0.0, 0.25, -0.5}) {
        Tape eager;
        const Value ex = eager.leaf(chain_input(shift, rows), true);
        const Value eroot = frontier_chain(eager, ex);
        eager.backward(eroot);
        program.set_leaf(px, chain_input(shift, rows));
        program.replay_forward();
        program.replay_backward();
        EXPECT_TRUE(same_bits(program.value(proot), eager.value(eroot)))
            << "rows " << rows << " width " << width << " shift " << shift;
        EXPECT_TRUE(same_bits(program.grad(px), eager.grad(ex)))
            << "rows " << rows << " width " << width << " shift " << shift;
      }
      grads.push_back(program.grad(px));
      if (width == 1) {
        EXPECT_EQ(parallel_jobs(), jobs0) << "rows " << rows;
      } else if (rows == 80000) {
        EXPECT_GT(parallel_jobs(), jobs0) << "rows " << rows << ": width 4 never used the pool";
      }
    }
    EXPECT_TRUE(same_bits(grads[0], grads[1])) << "rows " << rows << ": widths 1 and 4 differ";
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

// --- dense: bits of the unfused chain ------------------------------------------

/// The chain dense() replaced, written out with the historical kernels'
/// arithmetic: per term one matmul over the concatenated columns (k
/// ascending, zero inputs skipped, from +0.0), the terms added left to
/// right, the row-broadcast bias, the activation; and the eager backward
/// from a seed gradient `g`, every intermediate's gradient accumulated onto
/// a zeroed slot (so each carries the `0.0 +` normalization).
struct UnfusedDense {
  Tensor out;
  std::vector<std::vector<Tensor>> d_parts;
  std::vector<Tensor> d_weights;
  Tensor d_bias;
};

UnfusedDense unfused_dense(const std::vector<std::vector<Tensor>>& parts,
                           const std::vector<Tensor>& weights, const Tensor& bias,
                           Tape::Act act, const Tensor& g) {
  const std::size_t rows = parts[0][0].rows(), cols = bias.cols();
  std::vector<Tensor> xs;  // the concatenations
  for (const auto& term : parts) {
    std::size_t k_cols = 0;
    for (const Tensor& p : term) k_cols += p.cols();
    Tensor x(rows, k_cols);
    std::size_t off = 0;
    for (const Tensor& p : term) {
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < p.cols(); ++c) x.at(r, off + c) = p.at(r, c);
      }
      off += p.cols();
    }
    xs.push_back(std::move(x));
  }
  Tensor sum;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    Tensor prod(rows, cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t k = 0; k < xs[t].cols(); ++k) {
        const double av = xs[t].at(r, k);
        if (av == 0.0) continue;
        for (std::size_t c = 0; c < cols; ++c) prod.at(r, c) += av * weights[t].at(k, c);
      }
    }
    if (t == 0) {
      sum = prod;
    } else {
      for (std::size_t k = 0; k < sum.size(); ++k) sum[k] = sum[k] + prod[k];
    }
  }
  Tensor pre(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) pre.at(r, c) = sum.at(r, c) + bias.at(0, c);
  }
  UnfusedDense u;
  u.out = pre;
  for (std::size_t k = 0; k < pre.size(); ++k) {
    if (act == Tape::Act::kRelu) u.out[k] = std::max(0.0, pre[k]);
    if (act == Tape::Act::kTanh) u.out[k] = std::tanh(pre[k]);
  }
  // Backward: activation into the zeroed pre-activation slot (relu masks on
  // the pre-activation itself), bias column sums, then per term dA/dB.
  Tensor dpre(rows, cols, 0.0);
  for (std::size_t k = 0; k < pre.size(); ++k) {
    if (act == Tape::Act::kNone) dpre[k] += g[k];
    if (act == Tape::Act::kRelu && pre[k] > 0.0) dpre[k] += g[k];
    if (act == Tape::Act::kTanh) dpre[k] += g[k] * (1.0 - u.out[k] * u.out[k]);
  }
  u.d_bias = Tensor(1, cols, 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) u.d_bias.at(0, c) += dpre.at(r, c);
  }
  for (std::size_t t = 0; t < xs.size(); ++t) {
    const Tensor& w = weights[t];
    Tensor dx(rows, xs[t].cols(), 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t k = 0; k < w.rows(); ++k) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        std::size_t c = 0;
        for (; c + 4 <= cols; c += 4) {
          s0 += dpre.at(r, c) * w.at(k, c);
          s1 += dpre.at(r, c + 1) * w.at(k, c + 1);
          s2 += dpre.at(r, c + 2) * w.at(k, c + 2);
          s3 += dpre.at(r, c + 3) * w.at(k, c + 3);
        }
        double s = (s0 + s1) + (s2 + s3);
        for (; c < cols; ++c) s += dpre.at(r, c) * w.at(k, c);
        dx.at(r, k) = 0.0 + s;
      }
    }
    Tensor dw(w.rows(), cols, 0.0);
    for (std::size_t k = 0; k < w.rows(); ++k) {
      for (std::size_t c = 0; c < cols; ++c) {
        double s = 0.0;
        for (std::size_t r = 0; r < rows; ++r) s += xs[t].at(r, k) * dpre.at(r, c);
        dw.at(k, c) = 0.0 + s;
      }
    }
    u.d_weights.push_back(std::move(dw));
    std::vector<Tensor> d_term;
    std::size_t off = 0;
    for (const Tensor& p : parts[t]) {
      Tensor dp(rows, p.cols(), 0.0);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < p.cols(); ++c) dp.at(r, c) += dx.at(r, off + c);
      }
      off += p.cols();
      d_term.push_back(std::move(dp));
    }
    u.d_parts.push_back(std::move(d_term));
  }
  return u;
}

/// Inputs with exact zeros (the forward skips them) and negative zeros.
Tensor sparse_randn(Rng& rng, std::size_t rows, std::size_t cols) {
  Tensor t = Tensor::randn(rng, rows, cols, 1.0);
  for (double& v : t.data()) {
    const std::size_t pick = rng.index(10);
    if (pick == 0) v = 0.0;
    if (pick == 1) v = -0.0;
  }
  return t;
}

TEST(Tape, DenseMatchesUnfusedChainBits) {
  // Sizes past one chunk in the row-parallel loops, so the pool splits
  // rows in the forward and dX.
  constexpr std::size_t kRows = 3000, kCols = 12;
  Rng rng(61);
  const std::vector<std::vector<Tensor>> parts = {
      {sparse_randn(rng, kRows, 12), sparse_randn(rng, kRows, 12), sparse_randn(rng, kRows, 1)},
      {sparse_randn(rng, kRows, 12)}};
  const std::vector<Tensor> weights = {Tensor::randn(rng, 25, kCols, 0.3),
                                       Tensor::randn(rng, 12, kCols, 0.3)};
  const Tensor bias = Tensor::randn(rng, 1, kCols, 0.2);
  const Tensor seed = sparse_randn(rng, kRows, kCols);

  for (Tape::Act act : {Tape::Act::kNone, Tape::Act::kRelu, Tape::Act::kTanh}) {
    const UnfusedDense want = unfused_dense(parts, weights, bias, act, seed);
    for (std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      set_parallel_threads(width);
      // Eager recording, then a retained program replayed at the same
      // leaves (its backward takes the first-touch `0.0 + x` path).
      for (bool replay : {false, true}) {
        TapeProgram program;
        Tape& t = program.tape();
        std::vector<std::vector<Value>> vp;
        std::vector<Tape::DenseTerm> terms;
        for (std::size_t k = 0; k < parts.size(); ++k) {
          vp.emplace_back();
          for (const Tensor& p : parts[k]) vp.back().push_back(t.leaf(p, true));
          terms.push_back({vp.back(), t.leaf(weights[k], true)});
        }
        const Value vb = t.leaf(bias, true);
        const Value out = t.dense(terms, vb, act);
        const Value root = t.sum_all(t.mul(out, t.leaf(seed)));
        const auto grad = [&](Value v) -> const Tensor& {
          return replay ? program.grad(v) : t.grad(v);
        };
        if (replay) {
          program.finalize(root, {vp[0][0]});
          program.set_leaf(vp[0][0], parts[0][0]);
          program.replay_forward();
          program.replay_backward();
        } else {
          t.backward(root);
        }
        const std::string where = std::string("act ") + std::to_string(static_cast<int>(act)) +
                                  " width " + std::to_string(width) +
                                  (replay ? " replay" : " eager");
        EXPECT_TRUE(same_bits(program.value(out), want.out)) << where;
        EXPECT_TRUE(same_bits(grad(vb), want.d_bias)) << where;
        for (std::size_t k = 0; k < parts.size(); ++k) {
          EXPECT_TRUE(same_bits(grad(terms[k].weight), want.d_weights[k])) << where << " W" << k;
          for (std::size_t j = 0; j < parts[k].size(); ++j) {
            EXPECT_TRUE(same_bits(grad(vp[k][j]), want.d_parts[k][j]))
                << where << " part " << k << "." << j;
          }
        }
      }
    }
  }
  set_parallel_threads(0);
}

TEST(Tape, DenseReluWithNoLiveUnitWritesZeroGradients) {
  // Every pre-activation is negative: the unfused chain stopped at the
  // relu, so a replay's first-touch slots must still read as exact zeros.
  TapeProgram program;
  Tape& t = program.tape();
  const Value x = t.leaf(Tensor(4, 2, 1.0), true);
  const Value w = t.leaf(Tensor(2, 3, -1.0), true);
  const Value b = t.leaf(Tensor(1, 3, -0.5), true);
  const Value root = t.sum_all(t.dense({{{x}, w}}, b, Tape::Act::kRelu));
  program.finalize(root, {x});
  for (int step = 0; step < 2; ++step) {
    program.set_leaf(x, Tensor(4, 2, 2.0 + step));
    program.replay_forward();
    program.replay_backward();
    for (Value v : {x, w, b}) {
      for (double d : program.grad(v).data()) {
        EXPECT_EQ(std::memcmp(&d, "\0\0\0\0\0\0\0\0", sizeof(double)), 0) << "step " << step;
      }
    }
  }
}

TEST(TapeGrad, ComposedMlpBlock) {
  // A realistic block: softplus(relu(x W1 + b1) W2 + b2) summed — the
  // free-form delay-head pattern.
  Rng rng(21);
  const Tensor w1 = Tensor::randn(rng, 3, 5, 0.7);
  const Tensor b1 = Tensor::randn(rng, 1, 5, 0.3);
  const Tensor w2 = Tensor::randn(rng, 5, 1, 0.7);
  const Tensor b2 = Tensor::randn(rng, 1, 1, 0.3);
  check_gradient(
      [&](Tape& t, Value x) {
        const Value hidden = t.dense({{{x}, t.leaf(w1)}}, t.leaf(b1), Tape::Act::kRelu);
        return t.sum_all(
            t.softplus(t.dense({{{hidden}, t.leaf(w2)}}, t.leaf(b2), Tape::Act::kNone)));
      },
      make_input(), 1e-5);
}


/// Values on a quarter grid (many ties) with exact and negative zeros.
Tensor tied_signed_zeros(Rng& rng, std::size_t rows, std::size_t cols) {
  Tensor t(rows, cols);
  for (double& v : t.data()) {
    const std::size_t pick = rng.index(8);
    v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : std::round(4.0 * rng.normal()) / 4.0;
  }
  return t;
}

TEST(Tape, RepeatedDestinationKernelsBitIdenticalAcrossWidths) {
  // The serial accumulation sites — scatter_add_rows / segment_sum and
  // segment_max forward, gather_rows backward, the dense bias and weight
  // gradients — at sizes that used to split them over the pool, and where
  // the graph's row-parallel kernels still do. Repeated destinations,
  // segment_max ties, an empty segment and +-0.0 in values and seeds.
  constexpr std::size_t kRows = 6144, kCols = 12, kSegs = kRows / 8;
  Rng rng(97);
  const Tensor x = tied_signed_zeros(rng, kRows, kCols);
  std::vector<int> dst(kRows), src(kRows);
  for (std::size_t k = 0; k < kRows; ++k) {
    dst[k] = static_cast<int>(rng.index(kSegs - 1));  // segment kSegs - 1 stays empty
    src[k] = static_cast<int>(rng.index(kRows / 4));  // every source row read ~4 times
  }
  const Tensor w = Tensor::randn(rng, kCols, kCols, 0.3);
  const Tensor bias = Tensor::randn(rng, 1, kCols, 0.2);
  const Tensor seed_seg = tied_signed_zeros(rng, kSegs, kCols);
  const Tensor seed_rows = tied_signed_zeros(rng, kRows, kCols);

  std::vector<std::vector<Tensor>> runs;
  for (std::size_t width = 1; width <= 4; ++width) {
    set_parallel_threads(width);
    const std::uint64_t jobs0 = parallel_jobs();
    Tape t;
    const Value vx = t.leaf(x, true);
    const Value vw = t.leaf(w, true);
    const Value vb = t.leaf(bias, true);
    const Value scatter = t.scatter_add_rows(vx, dst, kSegs);
    const Value seg_sum = t.segment_sum(t.scale(vx, 0.5), dst, kSegs);
    const Value seg_max = t.segment_max(vx, dst, kSegs, -1.0);
    const Value layer = t.dense({{{t.gather_rows(vx, src)}, vw}}, vb, Tape::Act::kTanh);
    const Value root = t.add(
        t.add(t.sum_all(t.mul(scatter, t.leaf(seed_seg))),
              t.sum_all(t.mul(t.add(seg_sum, seg_max), t.leaf(seed_seg)))),
        t.sum_all(t.mul(layer, t.leaf(seed_rows))));
    t.backward(root);
    runs.push_back({t.value(scatter), t.value(seg_sum), t.value(seg_max), t.value(layer),
                    t.grad(vx), t.grad(vw), t.grad(vb)});
    if (width == 1) {
      EXPECT_EQ(parallel_jobs(), jobs0);
    } else {
      EXPECT_GT(parallel_jobs(), jobs0) << "width " << width << " never used the pool";
    }
  }
  set_parallel_threads(0);
  EXPECT_EQ(runs[0][2].at(kSegs - 1, 0), -1.0) << "the empty segment takes the fill";
  const char* const names[] = {"scatter_add_rows", "segment_sum", "segment_max", "dense",
                               "dX", "dW", "dbias"};
  for (std::size_t width = 2; width <= 4; ++width) {
    for (std::size_t k = 0; k < runs[0].size(); ++k) {
      EXPECT_TRUE(same_bits(runs[width - 1][k], runs[0][k]))
          << names[k] << ": width " << width << " differs from width 1";
    }
  }
}

TEST(Tape, PrunedBackwardMatchesAllLeavesRequiringGrad) {
  // The trainer's shape: constant coordinates run through gather,
  // smooth_abs and scatter into features, which meet a constant feature
  // column and the weights in a dense layer. Marking the constants
  // requires_grad adds backward work on their paths but must not move a
  // weight-gradient bit; unmarked, their grad() reads zeros.
  constexpr std::size_t kRows = 2000;
  Rng rng(101);
  const Tensor coords = tied_signed_zeros(rng, kRows, 1);
  const Tensor feature = tied_signed_zeros(rng, kRows, 3);
  std::vector<int> from(kRows), to(kRows);
  for (std::size_t k = 0; k < kRows; ++k) {
    from[k] = static_cast<int>(rng.index(kRows));
    to[k] = static_cast<int>(rng.index(kRows));
  }
  const Tensor w1 = Tensor::randn(rng, 4, 8, 0.5);
  const Tensor b1 = Tensor::randn(rng, 1, 8, 0.1);
  const Tensor w2 = Tensor::randn(rng, 8, 1, 0.5);
  const Tensor b2 = Tensor::randn(rng, 1, 1, 0.1);
  const Tensor target = tied_signed_zeros(rng, kRows, 1);

  struct Run {
    std::vector<Tensor> weight_grads;
    Tensor coord_grad, feature_grad, length_grad;
  };
  const auto run = [&](bool all_leaves) {
    Tape t;
    const Value c = t.leaf(coords, all_leaves);
    const Value f = t.leaf(feature, all_leaves);
    const std::vector<Value> params = {t.leaf(w1, true), t.leaf(b1, true), t.leaf(w2, true),
                                       t.leaf(b2, true)};
    const Value length =
        t.smooth_abs(t.sub(t.gather_rows(c, from), t.gather_rows(c, to)), 0.25);
    const Value spread = t.scatter_add_rows(length, to, kRows);
    const Value hidden = t.dense({{{spread, f}, params[0]}}, params[1], Tape::Act::kRelu);
    const Value pred = t.softplus(t.dense({{{hidden}, params[2]}}, params[3], Tape::Act::kNone));
    t.backward(t.mse(pred, target));
    Run r;
    for (Value p : params) r.weight_grads.push_back(t.grad(p));
    r.coord_grad = t.grad(c);
    r.feature_grad = t.grad(f);
    r.length_grad = t.grad(length);
    return r;
  };
  const Run full = run(true);
  const Run pruned = run(false);
  for (std::size_t k = 0; k < full.weight_grads.size(); ++k) {
    EXPECT_TRUE(same_bits(pruned.weight_grads[k], full.weight_grads[k])) << "param " << k;
  }
  const auto nonzero = [](const Tensor& g) {
    return std::any_of(g.data().begin(), g.data().end(), [](double v) { return v != 0.0; });
  };
  ASSERT_TRUE(nonzero(full.coord_grad) && nonzero(full.feature_grad) &&
              nonzero(full.length_grad))
      << "the unpruned pass must reach the constants";
  for (const auto& [g, size] : {std::pair{&pruned.coord_grad, kRows},
                                 std::pair{&pruned.feature_grad, 3 * kRows},
                                 std::pair{&pruned.length_grad, kRows}}) {
    ASSERT_EQ(g->size(), size);
    EXPECT_FALSE(nonzero(*g)) << "a pruned node's grad() reads zeros";
  }
}

}  // namespace
}  // namespace tsteiner
