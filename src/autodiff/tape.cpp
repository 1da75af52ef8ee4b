#include "autodiff/tape.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/parallel.hpp"

namespace tsteiner {

namespace {

// Parallelization policy for the dense kernels. Every loop below writes
// disjoint slots per parallel index (rows for matmul/gather, columns for
// scatter-style accumulation), and within each slot iterates in the same
// order as the serial code — so results are bit-identical for any pool
// width. Each loop states its work per index (a row's columns, a column's
// rows); util/parallel sizes the chunks and runs small tensors inline.
// Scalar whole-tensor folds (sum_all, log_sum_exp, mse) stay serial: they
// are O(n) with a tiny constant and exact parity with the historical
// element order matters more than their share of the runtime.

template <class Fn>
void pointwise(std::size_t n, Fn&& fn) {
  parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

/// Gradient accumulation dst[k] += expr(k). `fresh` marks a logically-zero
/// first-touch destination: that path writes `0.0 + expr(k)` without reading
/// dst — bit-identical to accumulating onto an explicitly zeroed buffer
/// (signed zeros normalize the same way under strict IEEE). The loops are
/// split so neither carries a per-element branch.
template <class Expr>
void accumulate_pointwise(bool fresh, Tensor& dst, std::size_t n, Expr&& expr) {
  if (fresh) {
    pointwise(n, [&](std::size_t k) { dst[k] = 0.0 + expr(k); });
  } else {
    pointwise(n, [&](std::size_t k) { dst[k] += expr(k); });
  }
}

}  // namespace

Value Tape::leaf(Tensor value, bool requires_grad) {
  check_recordable();
  Node n;
  n.value = std::move(value);
  n.requires_grad = requires_grad;
  nodes_.push_back(std::move(n));
  ops_.push_back(OpRecord{});  // OpCode::kLeaf
  ++allocations_;              // the moved-in buffer joins the arena
  return Value{static_cast<int>(nodes_.size()) - 1};
}

Value Tape::push(std::size_t rows, std::size_t cols, OpRecord op) {
  check_recordable();
  Node n;
  n.value = Tensor(rows, cols);
  ++allocations_;
  nodes_.push_back(std::move(n));
  ops_.push_back(std::move(op));
  const Value v{static_cast<int>(nodes_.size()) - 1};
  run_forward(static_cast<std::size_t>(v.id));
  return v;
}

void Tape::check_recordable() const {
  if (frozen_) {
    throw std::runtime_error(
        "Tape: frozen by TapeProgram::finalize — recording requires a new program");
  }
}

const Tensor& Tape::value(Value v) const {
  return nodes_[static_cast<std::size_t>(v.id)].value;
}

const Tensor& Tape::grad(Value v) const {
  const Node& n = nodes_[static_cast<std::size_t>(v.id)];
  static const Tensor kEmpty;
  return n.grad.size() == n.value.size() ? n.grad : kEmpty;
}

void Tape::ensure_grad(Value v) {
  Node& n = nodes_[static_cast<std::size_t>(v.id)];
  if (n.grad.size() != n.value.size()) {
    n.grad = Tensor::zeros(n.value.rows(), n.value.cols());
    ++allocations_;
  }
}

void Tape::reserve(std::size_t num_nodes) {
  nodes_.reserve(num_nodes);
  ops_.reserve(num_nodes);
}

Tape::Stats Tape::stats() const {
  Stats s;
  s.num_nodes = nodes_.size();
  s.allocations = allocations_;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (ops_[i].code == OpCode::kLeaf) ++s.num_leaves;
    s.value_doubles += nodes_[i].value.size();
    s.grad_doubles += nodes_[i].grad.size();
  }
  return s;
}

bool Tape::set_leaf(Value v, const Tensor& t) {
  Node& n = nodes_[static_cast<std::size_t>(v.id)];
  if (ops_[static_cast<std::size_t>(v.id)].code != OpCode::kLeaf) {
    throw std::runtime_error("set_leaf: node is not a leaf");
  }
  if (!n.value.same_shape(t)) {
    throw std::runtime_error(
        "set_leaf: shape mismatch — graph topology changed, re-record the program");
  }
  if (t.size() != 0 && std::memcmp(n.value.data().data(), t.data().data(),
                                   t.size() * sizeof(double)) == 0) {
    return false;
  }
  std::copy(t.data().begin(), t.data().end(), n.value.data().begin());
  return true;
}

bool Tape::set_leaf(Value v, const std::vector<double>& column) {
  Node& n = nodes_[static_cast<std::size_t>(v.id)];
  if (ops_[static_cast<std::size_t>(v.id)].code != OpCode::kLeaf) {
    throw std::runtime_error("set_leaf: node is not a leaf");
  }
  if (n.value.rows() != column.size() || n.value.cols() != 1) {
    throw std::runtime_error(
        "set_leaf: shape mismatch — graph topology changed, re-record the program");
  }
  if (!column.empty() && std::memcmp(n.value.data().data(), column.data(),
                                     column.size() * sizeof(double)) == 0) {
    return false;
  }
  std::copy(column.begin(), column.end(), n.value.data().begin());
  return true;
}

// --- op builders: validate shapes, append a record, execute it eagerly -----

Value Tape::add(Value a, Value b) {
  const Tensor& ta = value(a);
  const Tensor& tb = value(b);
  OpRecord op;
  op.a = a.id;
  op.b = b.id;
  if (tb.same_shape(ta)) {
    op.code = OpCode::kAdd;
  } else if (tb.rows() == 1 && tb.cols() == ta.cols()) {
    op.code = OpCode::kAddBroadcast;
  } else {
    throw std::runtime_error("add: incompatible shapes");
  }
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::sub(Value a, Value b) {
  const Tensor& ta = value(a);
  if (!ta.same_shape(value(b))) throw std::runtime_error("sub: shape mismatch");
  OpRecord op;
  op.code = OpCode::kSub;
  op.a = a.id;
  op.b = b.id;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::mul(Value a, Value b) {
  const Tensor& ta = value(a);
  if (!ta.same_shape(value(b))) throw std::runtime_error("mul: shape mismatch");
  OpRecord op;
  op.code = OpCode::kMul;
  op.a = a.id;
  op.b = b.id;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::scale(Value a, double s) {
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kScale;
  op.a = a.id;
  op.s0 = s;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::add_scalar(Value a, double s) {
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kAddScalar;
  op.a = a.id;
  op.s0 = s;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::matmul(Value a, Value b) {
  const Tensor& ta = value(a);
  const Tensor& tb = value(b);
  if (ta.cols() != tb.rows()) throw std::runtime_error("matmul: inner dims differ");
  OpRecord op;
  op.code = OpCode::kMatmul;
  op.a = a.id;
  op.b = b.id;
  const std::size_t rows = ta.rows(), cols = tb.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::relu(Value a) {
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kRelu;
  op.a = a.id;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::tanh_op(Value a) {
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kTanh;
  op.a = a.id;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::sigmoid(Value a) {
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kSigmoid;
  op.a = a.id;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::abs_op(Value a) {
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kAbs;
  op.a = a.id;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::smooth_abs(Value a, double delta) {
  if (delta <= 0.0) return abs_op(a);
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kSmoothAbs;
  op.a = a.id;
  op.s0 = delta;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::softplus(Value a) {
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kSoftplus;
  op.a = a.id;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::concat_cols(const std::vector<Value>& parts) {
  if (parts.empty()) throw std::runtime_error("concat_cols: empty");
  const std::size_t rows = value(parts[0]).rows();
  std::size_t cols = 0;
  for (Value p : parts) {
    if (value(p).rows() != rows) throw std::runtime_error("concat_cols: row mismatch");
    cols += value(p).cols();
  }
  OpRecord op;
  op.code = OpCode::kConcatCols;
  op.inputs.reserve(parts.size());
  for (Value p : parts) op.inputs.push_back(p.id);
  return push(rows, cols, std::move(op));
}

Value Tape::gather_rows(Value a, std::vector<int> indices) {
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kGatherRows;
  op.a = a.id;
  op.indices = std::move(indices);
  const std::size_t rows = op.indices.size(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::scatter_add_rows(Value a, std::vector<int> indices, std::size_t out_rows) {
  const Tensor& ta = value(a);
  if (indices.size() != ta.rows()) throw std::runtime_error("scatter_add: index count");
  OpRecord op;
  op.code = OpCode::kScatterAddRows;
  op.a = a.id;
  op.indices = std::move(indices);
  op.dim0 = out_rows;
  const std::size_t cols = ta.cols();
  return push(out_rows, cols, std::move(op));
}

Value Tape::segment_max(Value a, std::vector<int> segments, std::size_t num_segments,
                        double empty_fill) {
  const Tensor& ta = value(a);
  if (segments.size() != ta.rows()) throw std::runtime_error("segment_max: index count");
  OpRecord op;
  op.code = OpCode::kSegmentMax;
  op.a = a.id;
  op.indices = std::move(segments);
  op.dim0 = num_segments;
  op.s0 = empty_fill;
  const std::size_t cols = ta.cols();
  return push(num_segments, cols, std::move(op));
}

Value Tape::segment_sum(Value a, std::vector<int> segments, std::size_t num_segments) {
  return scatter_add_rows(a, std::move(segments), num_segments);
}

Value Tape::gather_frontiers(const std::vector<Value>& sources, const std::vector<int>& slots,
                             const std::vector<int>& rows) {
  if (slots.size() != rows.size()) throw std::runtime_error("gather_frontiers: index count");
  for (Value s : sources) {
    if (value(s).cols() != 1) throw std::runtime_error("gather_frontiers: sources must be columns");
  }
  OpRecord op;
  op.code = OpCode::kGatherFrontiers;
  op.inputs.reserve(sources.size());
  for (Value s : sources) op.inputs.push_back(s.id);
  // (slot, row) pairs, interleaved so each output row reads one cache line.
  op.indices.resize(2 * slots.size());
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const int slot = slots[k];
    if (slot >= static_cast<int>(sources.size()) ||
        (slot >= 0 && (rows[k] < 0 ||
                       static_cast<std::size_t>(rows[k]) >=
                           value(sources[static_cast<std::size_t>(slot)]).rows()))) {
      throw std::runtime_error("gather_frontiers: (slot, row) out of range");
    }
    op.indices[2 * k] = slot < 0 ? -1 : slot;
    op.indices[2 * k + 1] = slot < 0 ? 0 : rows[k];
  }
  return push(slots.size(), 1, std::move(op));
}

Value Tape::sum_all(Value a) {
  OpRecord op;
  op.code = OpCode::kSumAll;
  op.a = a.id;
  return push(1, 1, std::move(op));
}

Value Tape::mean_all(Value a) {
  const auto n = static_cast<double>(value(a).size());
  return scale(sum_all(a), 1.0 / n);
}

Value Tape::log_sum_exp(Value a, double gamma) {
  if (gamma <= 0.0) throw std::runtime_error("log_sum_exp: gamma must be positive");
  if (value(a).size() == 0) throw std::runtime_error("log_sum_exp: empty input");
  OpRecord op;
  op.code = OpCode::kLogSumExp;
  op.a = a.id;
  op.s0 = gamma;
  return push(1, 1, std::move(op));
}

Value Tape::soft_min0(Value a, double gamma) {
  if (gamma <= 0.0) throw std::runtime_error("soft_min0: gamma must be positive");
  const Tensor& ta = value(a);
  OpRecord op;
  op.code = OpCode::kSoftMin0;
  op.a = a.id;
  op.s0 = gamma;
  const std::size_t rows = ta.rows(), cols = ta.cols();
  return push(rows, cols, std::move(op));
}

Value Tape::mse(Value prediction, const Tensor& target) {
  if (!value(prediction).same_shape(target)) throw std::runtime_error("mse: shape mismatch");
  OpRecord op;
  op.code = OpCode::kMse;
  op.a = prediction.id;
  op.constant = target;
  return push(1, 1, std::move(op));
}

// --- forward executor ------------------------------------------------------
//
// One kernel per opcode, shared by eager recording, TapeProgram's main replay
// and its trial pass: whatever path triggers the execution, the arithmetic,
// iteration order and parallel chunking are the same, so results are
// bit-identical. Only the storage the kernel reads and writes is resolved
// through the Binding.

namespace {

/// Row-major view of one node's storage: its own value buffer, or a slot of
/// a trial arena.
template <class T>
struct View {
  T* p;
  std::size_t r, c;
  std::size_t rows() const { return r; }
  std::size_t cols() const { return c; }
  std::size_t size() const { return r * c; }
  T& at(std::size_t row, std::size_t col) const {
    assert(row < r && col < c);
    return p[row * c + col];
  }
  T& operator[](std::size_t k) const {
    assert(k < r * c);
    return p[k];
  }
  T* begin() const { return p; }
  T* end() const { return p + r * c; }
};

}  // namespace

void Tape::run_forward(std::size_t i, const Binding& b) {
  OpRecord& r = ops_[i];
  const auto in = [&](int id) {
    const Tensor& t = nodes_[static_cast<std::size_t>(id)].value;
    const double* p = b.mask != nullptr && (b.mask[id] & b.live) != 0
                          ? b.arena + b.slot[id]
                          : t.data().data();
    return View<const double>{p, t.rows(), t.cols()};
  };
  Tensor& own = nodes_[i].value;
  const View<double> vo{b.mask != nullptr ? b.arena + b.slot[i] : own.data().data(), own.rows(),
                        own.cols()};
  switch (r.code) {
    case OpCode::kLeaf:
      return;
    case OpCode::kAdd: {
      const auto ta = in(r.a), tb = in(r.b);
      pointwise(vo.size(), [&](std::size_t k) { vo[k] = ta[k] + tb[k]; });
      return;
    }
    case OpCode::kAddBroadcast: {
      const auto ta = in(r.a), tb = in(r.b);
      parallel_for(0, ta.rows(), ta.cols(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t row = lo; row < hi; ++row) {
          for (std::size_t c = 0; c < ta.cols(); ++c) vo.at(row, c) = ta.at(row, c) + tb.at(0, c);
        }
      });
      return;
    }
    case OpCode::kSub: {
      const auto ta = in(r.a), tb = in(r.b);
      pointwise(vo.size(), [&](std::size_t k) { vo[k] = ta[k] - tb[k]; });
      return;
    }
    case OpCode::kMul: {
      const auto ta = in(r.a), tb = in(r.b);
      pointwise(vo.size(), [&](std::size_t k) { vo[k] = ta[k] * tb[k]; });
      return;
    }
    case OpCode::kScale: {
      const auto ta = in(r.a);
      const double s = r.s0;
      pointwise(vo.size(), [&](std::size_t k) { vo[k] = ta[k] * s; });
      return;
    }
    case OpCode::kAddScalar: {
      const auto ta = in(r.a);
      const double s = r.s0;
      pointwise(vo.size(), [&](std::size_t k) { vo[k] = ta[k] + s; });
      return;
    }
    case OpCode::kMatmul: {
      const auto ta = in(r.a), tb = in(r.b);
      std::fill(vo.begin(), vo.end(), 0.0);
      parallel_for(0, ta.rows(), ta.cols() * tb.cols(),
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t row = lo; row < hi; ++row) {
                       for (std::size_t k = 0; k < ta.cols(); ++k) {
                         const double av = ta.at(row, k);
                         if (av == 0.0) continue;
                         for (std::size_t c = 0; c < tb.cols(); ++c) {
                           vo.at(row, c) += av * tb.at(k, c);
                         }
                       }
                     }
                   });
      return;
    }
    case OpCode::kRelu: {
      const auto ta = in(r.a);
      pointwise(vo.size(), [&](std::size_t k) { vo[k] = std::max(0.0, ta[k]); });
      return;
    }
    case OpCode::kTanh: {
      const auto ta = in(r.a);
      pointwise(vo.size(), [&](std::size_t k) { vo[k] = std::tanh(ta[k]); });
      return;
    }
    case OpCode::kSigmoid: {
      const auto ta = in(r.a);
      pointwise(vo.size(), [&](std::size_t k) { vo[k] = 1.0 / (1.0 + std::exp(-ta[k])); });
      return;
    }
    case OpCode::kAbs: {
      const auto ta = in(r.a);
      pointwise(vo.size(), [&](std::size_t k) { vo[k] = std::fabs(ta[k]); });
      return;
    }
    case OpCode::kSmoothAbs: {
      const auto ta = in(r.a);
      const double delta = r.s0;
      pointwise(vo.size(), [&](std::size_t k) {
        const double x = ta[k];
        vo[k] = std::sqrt(x * x + delta * delta) - delta;
      });
      return;
    }
    case OpCode::kSoftplus: {
      const auto ta = in(r.a);
      pointwise(vo.size(), [&](std::size_t k) {
        const double x = ta[k];
        vo[k] = std::log1p(std::exp(-std::fabs(x))) + std::max(x, 0.0);
      });
      return;
    }
    case OpCode::kConcatCols: {
      std::size_t off = 0;
      for (int pid : r.inputs) {
        const auto tp = in(pid);
        parallel_for(0, tp.rows(), tp.cols(), [&](std::size_t lo, std::size_t hi) {
          for (std::size_t row = lo; row < hi; ++row) {
            for (std::size_t c = 0; c < tp.cols(); ++c) vo.at(row, off + c) = tp.at(row, c);
          }
        });
        off += tp.cols();
      }
      return;
    }
    case OpCode::kGatherRows: {
      const auto ta = in(r.a);
      const std::vector<int>& idx = r.indices;
      parallel_for(0, idx.size(), ta.cols(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const auto src = static_cast<std::size_t>(idx[k]);
          for (std::size_t c = 0; c < ta.cols(); ++c) vo.at(k, c) = ta.at(src, c);
        }
      });
      return;
    }
    case OpCode::kScatterAddRows: {
      const auto ta = in(r.a);
      const std::vector<int>& idx = r.indices;
      std::fill(vo.begin(), vo.end(), 0.0);
      parallel_for(0, ta.cols(), idx.size(), [&](std::size_t clo, std::size_t chi) {
        for (std::size_t k = 0; k < idx.size(); ++k) {
          const auto dst = static_cast<std::size_t>(idx[k]);
          for (std::size_t c = clo; c < chi; ++c) vo.at(dst, c) += ta.at(k, c);
        }
      });
      return;
    }
    case OpCode::kSegmentMax: {
      const auto ta = in(r.a);
      const std::vector<int>& seg = r.indices;
      std::fill(vo.begin(), vo.end(), r.s0);
      const std::size_t scratch = r.dim0 * ta.cols();
      if (b.mask == nullptr && r.argmax.size() != scratch) {
        r.argmax.assign(scratch, -1);
        ++allocations_;
      }
      // argmax row per (segment, col) for the backward pass (a trial pass
      // writes its own buffer, which no backward reads). Column-parallel:
      // each (s, c) cell is owned by exactly one column chunk, and rows are
      // visited in serial order, so ties resolve identically to the serial
      // code.
      int* const am = b.mask != nullptr ? b.argmax : r.argmax.data();
      std::fill(am, am + scratch, -1);
      parallel_for(0, ta.cols(), seg.size(), [&](std::size_t clo, std::size_t chi) {
        for (std::size_t k = 0; k < seg.size(); ++k) {
          const auto s = static_cast<std::size_t>(seg[k]);
          for (std::size_t c = clo; c < chi; ++c) {
            const std::size_t cell = s * ta.cols() + c;
            if (am[cell] < 0 || ta.at(k, c) > vo.at(s, c)) {
              vo.at(s, c) = ta.at(k, c);
              am[cell] = static_cast<int>(k);
            }
          }
        }
      });
      return;
    }
    case OpCode::kGatherFrontiers: {
      const std::vector<int>& sr = r.indices;
      parallel_for(0, vo.rows(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const int slot = sr[2 * k];
          if (slot < 0) {
            vo[k] = 0.0;
            continue;
          }
          const auto src = in(r.inputs[static_cast<std::size_t>(slot)]);
          vo[k] = 0.0 + src[static_cast<std::size_t>(sr[2 * k + 1])];
        }
      });
      return;
    }
    case OpCode::kSumAll: {
      const auto ta = in(r.a);
      double s = 0.0;
      for (double x : ta) s += x;
      vo[0] = s;
      return;
    }
    case OpCode::kLogSumExp: {
      const auto ta = in(r.a);
      const double gamma = r.s0;
      double m = ta[0];
      for (double x : ta) m = std::max(m, x);
      double z = 0.0;
      for (double x : ta) z += std::exp((x - m) / gamma);
      vo[0] = m + gamma * std::log(z);
      if (b.mask == nullptr) {  // the backward's scratch; a trial pass keeps it
        r.m = m;
        r.z = z;
      }
      return;
    }
    case OpCode::kSoftMin0: {
      const auto ta = in(r.a);
      const double gamma = r.s0;
      pointwise(vo.size(), [&](std::size_t k) {
        const double t = -ta[k] / gamma;
        // -gamma * softplus(-x/gamma), with stable softplus.
        const double sp = std::log1p(std::exp(-std::fabs(t))) + std::max(t, 0.0);
        vo[k] = -gamma * sp;
      });
      return;
    }
    case OpCode::kMse: {
      const auto ta = in(r.a);
      double s = 0.0;
      for (std::size_t k = 0; k < ta.size(); ++k) {
        const double d = ta[k] - r.constant[k];
        s += d * d;
      }
      vo[0] = s / static_cast<double>(ta.size());
      return;
    }
  }
}

// --- backward executor -----------------------------------------------------

void Tape::run_backward(std::size_t i, const std::vector<std::uint8_t>* need,
                        const std::vector<std::uint8_t>* fresh, int grad_from) {
  const OpRecord& r = ops_[i];
  const auto needed = [need](int id) {
    return need == nullptr || (*need)[static_cast<std::size_t>(id)] != 0;
  };
  // First accumulation into a logically-zero slot: write `0.0 + x` without
  // reading the destination. The literal 0.0 term keeps the result
  // bit-identical to zero-then-accumulate (signed zeros normalize the same
  // way); strict IEEE semantics (no -ffast-math) keep it from folding away.
  const auto fresh_dst = [fresh](int id) {
    return fresh != nullptr && (*fresh)[static_cast<std::size_t>(id)] != 0;
  };
  const Tensor& g = nodes_[grad_from < 0 ? i : static_cast<std::size_t>(grad_from)].grad;
  const Value va_v{r.a};
  const Value vb_v{r.b};
  switch (r.code) {
    case OpCode::kLeaf:
      return;
    case OpCode::kAdd: {
      if (needed(r.a)) {
        ensure_grad(va_v);
        Tensor& ga = grad_ref(va_v);
        accumulate_pointwise(fresh_dst(r.a), ga, g.size(),
                             [&](std::size_t k) { return g[k]; });
      }
      if (needed(r.b)) {
        ensure_grad(vb_v);
        Tensor& gb = grad_ref(vb_v);
        accumulate_pointwise(fresh_dst(r.b), gb, g.size(),
                             [&](std::size_t k) { return g[k]; });
      }
      return;
    }
    case OpCode::kAddBroadcast: {
      if (needed(r.a)) {
        ensure_grad(va_v);
        Tensor& ga = grad_ref(va_v);
        accumulate_pointwise(fresh_dst(r.a), ga, g.size(),
                             [&](std::size_t k) { return g[k]; });
      }
      if (needed(r.b)) {
        ensure_grad(vb_v);
        Tensor& gb = grad_ref(vb_v);
        const bool fb = fresh_dst(r.b);
        // Column-parallel so each gb slot accumulates rows in serial order.
        parallel_for(0, g.cols(), g.rows(), [&](std::size_t clo, std::size_t chi) {
          for (std::size_t c = clo; c < chi; ++c) {
            if (fb) gb.at(0, c) = 0.0;
            for (std::size_t row = 0; row < g.rows(); ++row) gb.at(0, c) += g.at(row, c);
          }
        });
      }
      return;
    }
    case OpCode::kSub: {
      const bool na = needed(r.a), nb = needed(r.b);
      if (na) ensure_grad(va_v);
      if (nb) ensure_grad(vb_v);
      if (na) {
        Tensor& ga = grad_ref(va_v);
        accumulate_pointwise(fresh_dst(r.a), ga, g.size(),
                             [&](std::size_t k) { return g[k]; });
      }
      if (nb) {
        // x - y == x + (-y) exactly, so the shared accumulate helper applies.
        Tensor& gb = grad_ref(vb_v);
        accumulate_pointwise(fresh_dst(r.b), gb, g.size(),
                             [&](std::size_t k) { return -g[k]; });
      }
      return;
    }
    case OpCode::kMul: {
      const bool na = needed(r.a), nb = needed(r.b);
      if (na) ensure_grad(va_v);
      if (nb) ensure_grad(vb_v);
      const Tensor& ta = nodes_[static_cast<std::size_t>(r.a)].value;
      const Tensor& tb = nodes_[static_cast<std::size_t>(r.b)].value;
      if (na) {
        Tensor& ga = grad_ref(va_v);
        accumulate_pointwise(fresh_dst(r.a), ga, g.size(),
                             [&](std::size_t k) { return g[k] * tb[k]; });
      }
      if (nb) {
        Tensor& gb = grad_ref(vb_v);
        accumulate_pointwise(fresh_dst(r.b), gb, g.size(),
                             [&](std::size_t k) { return g[k] * ta[k]; });
      }
      return;
    }
    case OpCode::kScale: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      Tensor& ga = grad_ref(va_v);
      const double s = r.s0;
      accumulate_pointwise(fresh_dst(r.a), ga, g.size(),
                           [&](std::size_t k) { return g[k] * s; });
      return;
    }
    case OpCode::kAddScalar: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      Tensor& ga = grad_ref(va_v);
      accumulate_pointwise(fresh_dst(r.a), ga, g.size(),
                           [&](std::size_t k) { return g[k]; });
      return;
    }
    case OpCode::kMatmul: {
      const Tensor& ta = nodes_[static_cast<std::size_t>(r.a)].value;
      const Tensor& tb = nodes_[static_cast<std::size_t>(r.b)].value;
      if (needed(r.a)) {
        ensure_grad(va_v);
        Tensor& ga = grad_ref(va_v);
        const bool fa = fresh_dst(r.a);
        // dA = dOut * B^T, row-parallel over A's rows. Four independent
        // accumulator chains keep the dot off the FP-add latency chain; the
        // combine order is fixed, so the result is deterministic (and
        // identical at every thread width — chunking is by row).
        const std::size_t nc = tb.cols();
        parallel_for(0, ta.rows(), ta.cols() * nc,
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t row = lo; row < hi; ++row) {
                         const double* gr = g.data().data() + row * nc;
                         for (std::size_t k = 0; k < ta.cols(); ++k) {
                           const double* br = tb.data().data() + k * nc;
                           double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                           std::size_t c = 0;
                           for (; c + 4 <= nc; c += 4) {
                             s0 += gr[c] * br[c];
                             s1 += gr[c + 1] * br[c + 1];
                             s2 += gr[c + 2] * br[c + 2];
                             s3 += gr[c + 3] * br[c + 3];
                           }
                           double s = (s0 + s1) + (s2 + s3);
                           for (; c < nc; ++c) s += gr[c] * br[c];
                           ga.at(row, k) = (fa ? 0.0 : ga.at(row, k)) + s;
                         }
                       }
                     });
      }
      if (needed(r.b)) {
        ensure_grad(vb_v);
        Tensor& gb = grad_ref(vb_v);
        const bool fb = fresh_dst(r.b);
        // dB = A^T * dOut, row-parallel over B's rows.
        parallel_for(0, tb.rows(), ta.rows() * tb.cols(),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t k = lo; k < hi; ++k) {
                         for (std::size_t c = 0; c < tb.cols(); ++c) {
                           double s = 0.0;
                           for (std::size_t row = 0; row < ta.rows(); ++row) {
                             s += ta.at(row, k) * g.at(row, c);
                           }
                           gb.at(k, c) = (fb ? 0.0 : gb.at(k, c)) + s;
                         }
                       }
                     });
      }
      return;
    }
    case OpCode::kRelu: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const Tensor& ta = nodes_[static_cast<std::size_t>(r.a)].value;
      Tensor& ga = grad_ref(va_v);
      pointwise(g.size(), [&](std::size_t k) {
        if (ta[k] > 0.0) ga[k] += g[k];
      });
      return;
    }
    case OpCode::kTanh: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const Tensor& vo = nodes_[i].value;
      Tensor& ga = grad_ref(va_v);
      accumulate_pointwise(fresh_dst(r.a), ga, g.size(),
                           [&](std::size_t k) { return g[k] * (1.0 - vo[k] * vo[k]); });
      return;
    }
    case OpCode::kSigmoid: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const Tensor& vo = nodes_[i].value;
      Tensor& ga = grad_ref(va_v);
      accumulate_pointwise(fresh_dst(r.a), ga, g.size(),
                           [&](std::size_t k) { return g[k] * vo[k] * (1.0 - vo[k]); });
      return;
    }
    case OpCode::kAbs: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const Tensor& ta = nodes_[static_cast<std::size_t>(r.a)].value;
      Tensor& ga = grad_ref(va_v);
      accumulate_pointwise(fresh_dst(r.a), ga, g.size(), [&](std::size_t k) {
        const double sgn = ta[k] > 0.0 ? 1.0 : (ta[k] < 0.0 ? -1.0 : 0.0);
        return g[k] * sgn;
      });
      return;
    }
    case OpCode::kSmoothAbs: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const Tensor& ta = nodes_[static_cast<std::size_t>(r.a)].value;
      Tensor& ga = grad_ref(va_v);
      const double delta = r.s0;
      accumulate_pointwise(fresh_dst(r.a), ga, g.size(), [&](std::size_t k) {
        return g[k] * ta[k] / std::sqrt(ta[k] * ta[k] + delta * delta);
      });
      return;
    }
    case OpCode::kSoftplus: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const Tensor& ta = nodes_[static_cast<std::size_t>(r.a)].value;
      Tensor& ga = grad_ref(va_v);
      accumulate_pointwise(fresh_dst(r.a), ga, g.size(),
                           [&](std::size_t k) { return g[k] / (1.0 + std::exp(-ta[k])); });
      return;
    }
    case OpCode::kConcatCols: {
      std::size_t off = 0;
      for (int pid : r.inputs) {
        const Value p{pid};
        const std::size_t pcols = nodes_[static_cast<std::size_t>(pid)].value.cols();
        if (needed(pid)) {
          ensure_grad(p);
          Tensor& gp = grad_ref(p);
          const bool fp = fresh_dst(pid);
          parallel_for(0, gp.rows(), pcols, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t row = lo; row < hi; ++row) {
              for (std::size_t c = 0; c < pcols; ++c) {
                gp.at(row, c) = (fp ? 0.0 : gp.at(row, c)) + g.at(row, off + c);
              }
            }
          });
        }
        off += pcols;
      }
      return;
    }
    case OpCode::kGatherRows: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      Tensor& ga = grad_ref(va_v);
      const std::vector<int>& idx = r.indices;
      // Scatter with repeats: column-parallel, rows in serial order per
      // column, so each destination accumulates in the same order as the
      // serial code.
      parallel_for(0, g.cols(), idx.size(), [&](std::size_t clo, std::size_t chi) {
        for (std::size_t k = 0; k < idx.size(); ++k) {
          const auto dst = static_cast<std::size_t>(idx[k]);
          for (std::size_t c = clo; c < chi; ++c) ga.at(dst, c) += g.at(k, c);
        }
      });
      return;
    }
    case OpCode::kScatterAddRows: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      Tensor& ga = grad_ref(va_v);
      const std::vector<int>& idx = r.indices;
      const bool fa = fresh_dst(r.a);
      // Gather semantics: row-parallel, each output row touched once.
      parallel_for(0, idx.size(), g.cols(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const auto src = static_cast<std::size_t>(idx[k]);
          for (std::size_t c = 0; c < g.cols(); ++c) {
            ga.at(k, c) = (fa ? 0.0 : ga.at(k, c)) + g.at(src, c);
          }
        }
      });
      return;
    }
    case OpCode::kSegmentMax: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      Tensor& ga = grad_ref(va_v);
      const std::vector<int>& am = r.argmax;
      // Each argmax row belongs to exactly one segment, so distinct (s, c)
      // write distinct ga cells: segment-row-parallel is race-free.
      parallel_for(0, g.rows(), g.cols(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          for (std::size_t c = 0; c < g.cols(); ++c) {
            const int k = am[s * g.cols() + c];
            if (k >= 0) ga.at(static_cast<std::size_t>(k), c) += g.at(s, c);
          }
        }
      });
      return;
    }
    case OpCode::kGatherFrontiers: {
      for (int id : r.inputs) {
        if (needed(id)) ensure_grad(Value{id});
      }
      // A scatter with repeats into several sources: serial in row order,
      // so every source row accumulates in the same order at any width.
      const std::vector<int>& sr = r.indices;
      for (std::size_t k = 0; k < g.rows(); ++k) {
        const int slot = sr[2 * k];
        if (slot < 0) continue;
        const int id = r.inputs[static_cast<std::size_t>(slot)];
        if (!needed(id)) continue;
        nodes_[static_cast<std::size_t>(id)].grad[static_cast<std::size_t>(sr[2 * k + 1])] += g[k];
      }
      return;
    }
    case OpCode::kSumAll: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const double g0 = g[0];
      Tensor& ga = grad_ref(va_v);
      accumulate_pointwise(fresh_dst(r.a), ga, ga.size(), [&](std::size_t) { return g0; });
      return;
    }
    case OpCode::kLogSumExp: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const double g0 = g[0];
      const Tensor& ta = nodes_[static_cast<std::size_t>(r.a)].value;
      Tensor& ga = grad_ref(va_v);
      const double gamma = r.s0, m = r.m, z = r.z;
      accumulate_pointwise(fresh_dst(r.a), ga, ta.size(), [&](std::size_t k) {
        return g0 * std::exp((ta[k] - m) / gamma) / z;  // softmax weights
      });
      return;
    }
    case OpCode::kSoftMin0: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const Tensor& ta = nodes_[static_cast<std::size_t>(r.a)].value;
      Tensor& ga = grad_ref(va_v);
      const double gamma = r.s0;
      accumulate_pointwise(fresh_dst(r.a), ga, g.size(), [&](std::size_t k) {
        const double sig = 1.0 / (1.0 + std::exp(ta[k] / gamma));  // d/dx = sigma(-x/gamma)
        return g[k] * sig;
      });
      return;
    }
    case OpCode::kMse: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      const double g0 = g[0];
      const Tensor& ta = nodes_[static_cast<std::size_t>(r.a)].value;
      const Tensor& target = r.constant;
      Tensor& ga = grad_ref(va_v);
      const double k2 = 2.0 / static_cast<double>(ta.size());
      accumulate_pointwise(fresh_dst(r.a), ga, ta.size(),
                           [&](std::size_t k) { return g0 * k2 * (ta[k] - target[k]); });
      return;
    }
  }
}

void Tape::append_inputs(std::size_t i, std::vector<int>& out) const {
  const OpRecord& r = ops_[i];
  if (r.code == OpCode::kLeaf) return;
  if (r.code == OpCode::kConcatCols || r.code == OpCode::kGatherFrontiers) {
    out.insert(out.end(), r.inputs.begin(), r.inputs.end());
    return;
  }
  if (r.a >= 0) out.push_back(r.a);
  if (r.b >= 0) out.push_back(r.b);
}

bool Tape::grad_nonzero(std::size_t i) const {
  for (double g : nodes_[i].grad.data()) {
    if (g != 0.0) return true;
  }
  return false;
}

void Tape::reset_grad(std::size_t i) {
  Node& n = nodes_[i];
  if (n.grad.size() != n.value.size()) {
    n.grad = Tensor::zeros(n.value.rows(), n.value.cols());
    ++allocations_;
  } else {
    std::fill(n.grad.data().begin(), n.grad.data().end(), 0.0);
  }
}

void Tape::backward(Value root) {
  Node& r = nodes_[static_cast<std::size_t>(root.id)];
  if (r.value.size() != 1) throw std::runtime_error("backward: root must be scalar");
  for (std::size_t i = 0; i < nodes_.size(); ++i) reset_grad(i);
  grad_ref(root)[0] = 1.0;
  // Node order stays sequential (the tape is a dependency chain); each
  // node's backward kernel parallelizes internally.
  for (int i = root.id; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    if (is_leaf(idx)) continue;
    if (grad_nonzero(idx)) run_backward(idx, nullptr);
  }
}

double numeric_gradient(const std::function<double(const Tensor&)>& f, const Tensor& at,
                        std::size_t index, double eps) {
  Tensor plus = at;
  Tensor minus = at;
  plus[index] += eps;
  minus[index] -= eps;
  return (f(plus) - f(minus)) / (2.0 * eps);
}

}  // namespace tsteiner
