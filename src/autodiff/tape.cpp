#include "autodiff/tape.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/parallel.hpp"

namespace tsteiner {

namespace {

// Parallelization policy for the kernels. Every parallel loop below writes
// disjoint rows per parallel index and within each row iterates in the same
// order as the serial code — so results are bit-identical for any pool
// width. Each loop states its work per index (a row's columns); util/parallel
// sizes the chunks and runs small tensors inline.
// Serial by design: accumulations with repeated destinations (scatter_add /
// segment_sum and segment_max forward, gather_rows and gather_frontiers
// backward, the dense bias and weight gradients) and the scalar
// whole-tensor folds (sum_all, log_sum_exp, mse). Splitting the former by
// columns or weight rows cost 2.5-4.5x their serial CPU at width 4 for no
// wall gain on GNN-sized tensors (docs/parallelism.md); the latter are O(n)
// with a tiny constant.

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
  if (!tb.same_shape(ta)) throw std::runtime_error("add: incompatible shapes");
  op.code = OpCode::kAdd;
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

Value Tape::dense(const std::vector<DenseTerm>& terms, Value bias, Act act) {
  if (terms.empty() || terms[0].parts.empty()) throw std::runtime_error("dense: empty term");
  const std::size_t rows = value(terms[0].parts[0]).rows();
  const std::size_t cols = value(bias).cols();
  if (value(bias).rows() != 1) throw std::runtime_error("dense: bias must be a 1xC row");
  OpRecord op;
  op.code = OpCode::kDense;
  op.act = act;
  op.indices.push_back(0);
  std::size_t k_max = 0;
  for (const DenseTerm& t : terms) {
    if (t.parts.empty()) throw std::runtime_error("dense: empty term");
    std::size_t k = 0;
    for (Value p : t.parts) {
      if (value(p).rows() != rows) throw std::runtime_error("dense: row mismatch");
      k += value(p).cols();
      op.inputs.push_back(p.id);
    }
    if (value(t.weight).rows() != k || value(t.weight).cols() != cols) {
      throw std::runtime_error("dense: weight shape does not match its parts and the bias");
    }
    k_max = std::max(k_max, k);
    op.indices.push_back(static_cast<int>(op.inputs.size()));
  }
  for (const DenseTerm& t : terms) op.inputs.push_back(t.weight.id);
  op.inputs.push_back(bias.id);
  const std::size_t scratch = (rows + k_max) * cols;
  if (dense_scratch_.size() < scratch) {
    dense_scratch_.resize(scratch);
    ++allocations_;
  }
  if (dense_reused_.size() < rows) {
    dense_reused_.resize(rows);
    ++allocations_;
  }
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
    case OpCode::kDense:
      dense_forward(i, b, vo.p);
      return;
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
      for (std::size_t k = 0; k < idx.size(); ++k) {
        const auto dst = static_cast<std::size_t>(idx[k]);
        for (std::size_t c = 0; c < ta.cols(); ++c) vo.at(dst, c) += ta.at(k, c);
      }
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
      // writes its own buffer, which no backward reads). Rows in order: the
      // first of tied rows wins.
      int* const am = b.mask != nullptr ? b.argmax : r.argmax.data();
      std::fill(am, am + scratch, -1);
      for (std::size_t k = 0; k < seg.size(); ++k) {
        const auto s = static_cast<std::size_t>(seg[k]);
        for (std::size_t c = 0; c < ta.cols(); ++c) {
          const std::size_t cell = s * ta.cols() + c;
          if (am[cell] < 0 || ta.at(k, c) > vo.at(s, c)) {
            vo.at(s, c) = ta.at(k, c);
            am[cell] = static_cast<int>(k);
          }
        }
      }
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
    case OpCode::kDense:
      dense_backward(i, g, need, fresh);
      return;
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
    case OpCode::kGatherRows: {
      if (!needed(r.a)) return;
      ensure_grad(va_v);
      Tensor& ga = grad_ref(va_v);
      const std::vector<int>& idx = r.indices;
      // A scatter with repeats: rows in order.
      for (std::size_t k = 0; k < idx.size(); ++k) {
        const auto dst = static_cast<std::size_t>(idx[k]);
        for (std::size_t c = 0; c < g.cols(); ++c) ga.at(dst, c) += g.at(k, c);
      }
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

// --- dense layer ---------------------------------------------------------------
//
// One op per MLP layer: act(sum_t concat(parts_t) * W_t + bias). The kernels
// reproduce the bits of the unfused chain (concat, one matmul per term, the
// adds, the activation) while storing only the activated output; see
// docs/autodiff.md for the grouping and sign-of-zero rules. Operand layout:
// term t's parts are inputs[indices[t] .. indices[t + 1]), then one weight
// per term, then the bias.

namespace {

/// Four-chain dot product: the independent accumulators keep it off the
/// FP-add latency chain, and the fixed combine order keeps it deterministic.
double dot4(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    s0 += a[c] * b[c];
    s1 += a[c + 1] * b[c + 1];
    s2 += a[c + 2] * b[c + 2];
    s3 += a[c + 3] * b[c + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; c < n; ++c) s += a[c] * b[c];
  return s;
}

}  // namespace

void Tape::dense_forward(std::size_t i, const Binding& b, double* out) {
  const OpRecord& r = ops_[i];
  const auto live = [&](int id) { return b.mask != nullptr && (b.mask[id] & b.live) != 0; };
  const auto data = [&](int id) {
    return live(id) ? static_cast<const double*>(b.arena + b.slot[id])
                    : nodes_[static_cast<std::size_t>(id)].value.data().data();
  };
  const std::size_t num_terms = r.indices.size() - 1;
  const int* const weight_ids = r.inputs.data() + r.indices.back();
  const int bias_id = r.inputs.back();
  const std::size_t cols = nodes_[static_cast<std::size_t>(bias_id)].value.cols();
  const std::size_t rows = nodes_[static_cast<std::size_t>(r.inputs[0])].value.rows();
  std::size_t k_total = 0;
  for (std::size_t t = 0; t < num_terms; ++t) {
    k_total += nodes_[static_cast<std::size_t>(weight_ids[t])].value.rows();
  }
  const double* bias = data(bias_id);
  double* const partial = dense_scratch_.data();
  // A trial pass reuses rows. An output row reads only its own part rows, W
  // and b, and the main values hold the kept iterate (trial_forward refuses
  // to run with set_leaf changes pending), so where every live part row
  // equals the main one bit for bit (memcmp: -0.0 differs from +0.0) the
  // kept output row is the recomputed row. A live weight or bias moves every
  // row.
  const double* kept = b.mask != nullptr ? nodes_[i].value.data().data() : nullptr;
  for (std::size_t t = 0; t < num_terms; ++t) {
    if (live(weight_ids[t])) kept = nullptr;
  }
  if (live(bias_id)) kept = nullptr;
  std::uint8_t* const reused = dense_reused_.data();
  const auto skip = [&](std::size_t row) { return kept != nullptr && reused[row] != 0; };
  // Row-parallel. Per output element the k order, the zero-input skip and
  // the +0.0 start are the unfused matmul's; term 0 accumulates in place,
  // later terms in the scratch block, then join left to right.
  parallel_for(0, rows, k_total * cols, [&](std::size_t lo, std::size_t hi) {
    if (kept != nullptr) {
      for (std::size_t row = lo; row < hi; ++row) {
        bool same = true;
        for (int j = 0; same && j < r.indices.back(); ++j) {
          const int pid = r.inputs[static_cast<std::size_t>(j)];
          if (!live(pid)) continue;
          const Tensor& main = nodes_[static_cast<std::size_t>(pid)].value;
          const std::size_t pc = main.cols();
          same = std::memcmp(data(pid) + row * pc, main.data().data() + row * pc,
                             pc * sizeof(double)) == 0;
        }
        reused[row] = same ? 1 : 0;
      }
    }
    for (std::size_t t = 0; t < num_terms; ++t) {
      double* const acc = t == 0 ? out : partial;
      std::fill(acc + lo * cols, acc + hi * cols, 0.0);
      const double* w = data(weight_ids[t]);
      for (int j = r.indices[t]; j < r.indices[t + 1]; ++j) {
        const int pid = r.inputs[static_cast<std::size_t>(j)];
        const std::size_t pc = nodes_[static_cast<std::size_t>(pid)].value.cols();
        const double* x = data(pid);
        for (std::size_t row = lo; row < hi; ++row) {
          if (skip(row)) continue;
          double* const a = acc + row * cols;
          const double* xr = x + row * pc;
          for (std::size_t k = 0; k < pc; ++k) {
            const double av = xr[k];
            if (av == 0.0) continue;
            const double* wr = w + k * cols;
            for (std::size_t c = 0; c < cols; ++c) a[c] += av * wr[c];
          }
        }
        w += pc * cols;
      }
      if (t > 0) {
        for (std::size_t row = lo; row < hi; ++row) {
          if (skip(row)) continue;
          for (std::size_t k = row * cols; k < (row + 1) * cols; ++k) out[k] += partial[k];
        }
      }
    }
    for (std::size_t row = lo; row < hi; ++row) {
      double* const o = out + row * cols;
      if (skip(row)) {
        std::copy(kept + row * cols, kept + (row + 1) * cols, o);
        continue;
      }
      for (std::size_t c = 0; c < cols; ++c) o[c] = o[c] + bias[c];
      switch (r.act) {
        case Act::kNone:
          break;
        case Act::kRelu:
          for (std::size_t c = 0; c < cols; ++c) o[c] = std::max(0.0, o[c]);
          break;
        case Act::kTanh:
          for (std::size_t c = 0; c < cols; ++c) o[c] = std::tanh(o[c]);
          break;
      }
    }
  });
  if (b.mask == nullptr) return;
  const auto n_reused =
      kept != nullptr ? static_cast<std::size_t>(std::count(reused, reused + rows, 1)) : 0;
  *b.dense_rows_reused += n_reused;
  *b.dense_rows_computed += rows - n_reused;
}

void Tape::dense_backward(std::size_t i, const Tensor& g, const std::vector<std::uint8_t>* need,
                          const std::vector<std::uint8_t>* fresh) {
  const OpRecord& r = ops_[i];
  const auto needed = [need](int id) {
    return need == nullptr || (*need)[static_cast<std::size_t>(id)] != 0;
  };
  const auto fresh_dst = [fresh](int id) {
    return fresh != nullptr && (*fresh)[static_cast<std::size_t>(id)] != 0;
  };
  const std::size_t num_terms = r.indices.size() - 1;
  const int* const weight_ids = r.inputs.data() + r.indices.back();
  const Tensor& o = nodes_[i].value;
  const std::size_t rows = o.rows(), cols = o.cols(), n = o.size();

  // Pre-activation gradient, normalized (`0.0 + x`) exactly as the unfused
  // chain's accumulation onto a zeroed pre-activation slot normalized it.
  // relu's mask o > 0 holds exactly when the pre-activation is > 0.
  double* const dpre = dense_scratch_.data();
  switch (r.act) {
    case Act::kNone:
      pointwise(n, [&](std::size_t k) { dpre[k] = 0.0 + g[k]; });
      break;
    case Act::kRelu:
      pointwise(n, [&](std::size_t k) { dpre[k] = o[k] > 0.0 ? 0.0 + g[k] : 0.0; });
      break;
    case Act::kTanh:
      pointwise(n, [&](std::size_t k) { dpre[k] = 0.0 + g[k] * (1.0 - o[k] * o[k]); });
      break;
  }
  // The unfused chain stopped at an all-zero gradient (its later nodes were
  // skipped), so nothing accumulates — but a first-touch slot must still
  // read as zero.
  if (std::all_of(dpre, dpre + n, [](double v) { return v == 0.0; })) {
    for (int id : r.inputs) {
      if (!needed(id) || !fresh_dst(id)) continue;
      ensure_grad(Value{id});
      std::vector<double>& d = grad_ref(Value{id}).data();
      std::fill(d.begin(), d.end(), 0.0);
    }
    return;
  }

  // Bias: column sums in row order, accumulated onto the slot.
  const int bias_id = r.inputs.back();
  if (needed(bias_id)) {
    ensure_grad(Value{bias_id});
    Tensor& gb = grad_ref(Value{bias_id});
    if (fresh_dst(bias_id)) std::fill(gb.data().begin(), gb.data().end(), 0.0);
    for (std::size_t row = 0; row < rows; ++row) {
      for (std::size_t c = 0; c < cols; ++c) gb[c] += dpre[row * cols + c];
    }
  }

  // Terms last to first, as the unfused chain's matmuls ran in reverse.
  for (std::size_t t = num_terms; t-- > 0;) {
    const int wid = weight_ids[t];
    const Tensor& w = nodes_[static_cast<std::size_t>(wid)].value;
    const std::size_t k_rows = w.rows();
    const auto jb = static_cast<std::size_t>(r.indices[t]);
    const auto je = static_cast<std::size_t>(r.indices[t + 1]);
    // A multi-part term was a concat: its matmul wrote `0.0 + s` into the
    // concat's slot, which the concat then added into the part.
    const bool multi = je - jb > 1;

    // dX = dpre * W^T, row-parallel.
    bool any_part = false;
    for (std::size_t j = jb; j < je; ++j) {
      if (!needed(r.inputs[j])) continue;
      ensure_grad(Value{r.inputs[j]});
      any_part = true;
    }
    if (any_part) {
      parallel_for(0, rows, k_rows * cols, [&](std::size_t lo, std::size_t hi) {
        std::size_t k0 = 0;
        for (std::size_t j = jb; j < je; ++j) {
          const int pid = r.inputs[j];
          Node& part = nodes_[static_cast<std::size_t>(pid)];
          const std::size_t pc = part.value.cols();
          if (needed(pid)) {
            const bool fp = fresh_dst(pid);
            for (std::size_t row = lo; row < hi; ++row) {
              const double* gr = dpre + row * cols;
              double* const dst = part.grad.data().data() + row * pc;
              for (std::size_t k = 0; k < pc; ++k) {
                const double s = dot4(gr, w.data().data() + (k0 + k) * cols, cols);
                dst[k] = (fp ? 0.0 : dst[k]) + (multi ? 0.0 + s : s);
              }
            }
          }
          k0 += pc;
        }
      });
    }

    // dW = X^T * dpre. The partial sums accumulate row-major (for each
    // input row, for each k, for each c), so every element sums over input
    // rows in order from +0.0, and the sum is added onto the slot once.
    if (!needed(wid)) continue;
    ensure_grad(Value{wid});
    Tensor& gw = grad_ref(Value{wid});
    const bool fw = fresh_dst(wid);
    double* const acc = dpre + n;
    std::fill(acc, acc + k_rows * cols, 0.0);
    std::size_t k0 = 0;
    for (std::size_t j = jb; j < je; ++j) {
      const Tensor& x = nodes_[static_cast<std::size_t>(r.inputs[j])].value;
      const std::size_t pc = x.cols();
      for (std::size_t row = 0; row < rows; ++row) {
        const double* gr = dpre + row * cols;
        const double* xr = x.data().data() + row * pc;
        for (std::size_t k = 0; k < pc; ++k) {
          const double av = xr[k];
          double* const a = acc + (k0 + k) * cols;
          for (std::size_t c = 0; c < cols; ++c) a[c] += av * gr[c];
        }
      }
      k0 += pc;
    }
    for (std::size_t k = 0; k < k_rows * cols; ++k) gw[k] = (fw ? 0.0 : gw[k]) + acc[k];
  }
}

const char* Tape::op_name(OpCode code) {
  switch (code) {
    case OpCode::kLeaf: return "leaf";
    case OpCode::kAdd: return "add";
    case OpCode::kSub: return "sub";
    case OpCode::kMul: return "mul";
    case OpCode::kScale: return "scale";
    case OpCode::kAddScalar: return "add_scalar";
    case OpCode::kDense: return "dense";
    case OpCode::kSigmoid: return "sigmoid";
    case OpCode::kAbs: return "abs";
    case OpCode::kSmoothAbs: return "smooth_abs";
    case OpCode::kSoftplus: return "softplus";
    case OpCode::kGatherRows: return "gather_rows";
    case OpCode::kScatterAddRows: return "scatter_add_rows";
    case OpCode::kSegmentMax: return "segment_max";
    case OpCode::kGatherFrontiers: return "gather_frontiers";
    case OpCode::kSumAll: return "sum_all";
    case OpCode::kLogSumExp: return "log_sum_exp";
    case OpCode::kSoftMin0: return "soft_min0";
    case OpCode::kMse: return "mse";
  }
  return "?";
}

void Tape::append_inputs(std::size_t i, std::vector<int>& out) const {
  const OpRecord& r = ops_[i];
  if (r.code == OpCode::kLeaf) return;
  if (r.code == OpCode::kDense || r.code == OpCode::kGatherFrontiers) {
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

std::vector<std::uint8_t> Tape::grad_need(const std::vector<Value>& targets) const {
  const std::size_t n = nodes_.size();
  std::vector<std::uint8_t> need(n, 0);
  if (targets.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (is_leaf(i) && nodes_[i].requires_grad) need[i] = 1;
    }
  } else {
    for (Value v : targets) need[static_cast<std::size_t>(v.id)] = 1;
  }
  // Operands precede their ops, so one ascending sweep closes the mask.
  std::vector<int> ins;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_leaf(i) || need[i]) continue;
    ins.clear();
    append_inputs(i, ins);
    need[i] = std::any_of(ins.begin(), ins.end(),
                          [&](int a) { return need[static_cast<std::size_t>(a)] != 0; });
  }
  return need;
}

void Tape::backward(Value root) {
  Node& r = nodes_[static_cast<std::size_t>(root.id)];
  if (r.value.size() != 1) throw std::runtime_error("backward: root must be scalar");
  for (std::size_t i = 0; i < nodes_.size(); ++i) reset_grad(i);
  grad_ref(root)[0] = 1.0;
  // Only ops on a path to a requires_grad leaf run, and they accumulate only
  // into such operands: every other gradient would be computed and never
  // read. A needed node's consumers are all needed, so its gradient bits are
  // those of the unpruned pass. Node order stays sequential (the tape is a
  // dependency chain); each node's backward kernel parallelizes internally.
  const std::vector<std::uint8_t> need = grad_need({});
  for (int i = root.id; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    if (is_leaf(idx) || !need[idx]) continue;
    if (grad_nonzero(idx)) run_backward(idx, &need);
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
