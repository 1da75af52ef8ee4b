// Reverse-mode automatic differentiation on a tape of tensor operations.
//
// This is the substrate the paper gets from PyTorch: the timing evaluator's
// forward pass is recorded as a graph of tensor ops, and Tape::backward
// accumulates gradients into every leaf marked requires_grad — in TSteiner's
// case, the Steiner-point coordinate vectors (X_s, Y_s) and the model
// weights. The op set is exactly what the customized GNN and the smoothed
// WNS/TNS penalty need: fused dense layers, pointwise nonlinearities,
// gather/scatter for message passing, frontier gathers for level-by-level
// propagation, segment reductions for max-style aggregation, and
// numerically stable Log-Sum-Exp (Eq. 5).
//
// Each recorded op is a compact OpRecord (opcode + operand ids + immediates)
// executed by switch-based forward/backward kernels; the eager builders and
// TapeProgram's replay run the *same* kernels over the same preallocated
// value/grad buffers, which is what makes replayed results bit-identical to
// a freshly recorded tape (see docs/autodiff.md).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "autodiff/tensor.hpp"

namespace tsteiner {

/// Opaque handle to a tape node.
struct Value {
  int id = -1;
  bool valid() const { return id >= 0; }
};

class Tape {
 public:
  /// Create a leaf. Leaves with requires_grad accumulate into grad(v).
  Value leaf(Tensor value, bool requires_grad = false);

  const Tensor& value(Value v) const;
  /// Gradient of the last backward() w.r.t. v (zeros if v was unused).
  const Tensor& grad(Value v) const;

  std::size_t num_nodes() const { return nodes_.size(); }

  /// Pre-size the node/op arenas (e.g. to the node count of a previous
  /// record of the same graph) so recording does not pay vector growth.
  void reserve(std::size_t num_nodes);

  /// Arena accounting, reported by the replay bench and asserted by the
  /// zero-allocation tests. `allocations` counts every tensor/scratch buffer
  /// the tape has allocated (node values, gradient buffers, segment-max
  /// argmax scratch); a steady-state replay must not advance it.
  struct Stats {
    std::size_t num_nodes = 0;
    std::size_t num_leaves = 0;
    std::size_t value_doubles = 0;  ///< forward arena, in doubles
    std::size_t grad_doubles = 0;   ///< gradient arena currently allocated
    std::uint64_t allocations = 0;  ///< cumulative buffer allocations
  };
  Stats stats() const;

  /// Overwrite a leaf's value in place (no allocation). Throws if v is not a
  /// leaf or the shape differs from the recorded one — a shape change means
  /// the graph topology changed and the program must be re-recorded.
  /// Returns whether the stored bytes actually changed (TapeProgram uses
  /// this to skip replaying ops whose inputs are bitwise unchanged).
  bool set_leaf(Value v, const Tensor& t);
  /// Column-vector convenience for coordinate leaves.
  bool set_leaf(Value v, const std::vector<double>& column);

  // --- elementwise / linear ops -------------------------------------------
  Value add(Value a, Value b);        ///< same-shape elementwise
  Value sub(Value a, Value b);        ///< same-shape elementwise
  Value mul(Value a, Value b);        ///< same-shape elementwise
  Value scale(Value a, double s);
  Value add_scalar(Value a, double s);
  Value neg(Value a) { return scale(a, -1.0); }
  Value sigmoid(Value a);
  Value abs_op(Value a);
  /// Smooth absolute value sqrt(x^2 + delta^2) - delta: zero at the origin,
  /// |x|-like in the tails, gradient x / sqrt(x^2 + delta^2). Used for edge
  /// lengths so WL-optimal Steiner corners are flat basins instead of sharp
  /// V kinks (which would dominate the refinement gradient with
  /// wirelength-slope noise).
  Value smooth_abs(Value a, double delta);
  /// Numerically stable log(1 + e^x); smooth non-negative delay head.
  Value softplus(Value a);

  // --- dense layers ----------------------------------------------------------
  /// Activation applied by dense().
  enum class Act : std::uint8_t { kNone, kRelu, kTanh };
  /// One input term of dense(): the column concatenation of `parts` (all
  /// with the same row count) times `weight` (rows = the parts' total
  /// column count).
  struct DenseTerm {
    std::vector<Value> parts;
    Value weight;
  };
  /// One MLP layer as one node: act(sum_t concat(parts_t) * W_t + bias),
  /// with `bias` a 1xC row and every W_t C columns wide. Only the activated
  /// output is stored — no concatenation, product or pre-activation tensor
  /// — and the result bits equal the unfused chain's: each term accumulates
  /// over its concatenated columns in order from +0.0 (skipping zero
  /// inputs), terms are added left to right, then the bias, then `act`. A
  /// head whose nonlinearity needs the pre-activation in its backward
  /// (softplus) records dense(..., kNone) and applies it as a separate op.
  Value dense(const std::vector<DenseTerm>& terms, Value bias, Act act);

  // --- structure ops --------------------------------------------------------
  /// out.row(i) = a.row(indices[i]); rows may repeat.
  Value gather_rows(Value a, std::vector<int> indices);
  /// out has out_rows rows; out.row(indices[i]) += a.row(i).
  Value scatter_add_rows(Value a, std::vector<int> indices, std::size_t out_rows);
  /// out.row(s) = max over rows i with segment[i] == s (per column);
  /// segments with no member yield `empty_fill` and zero gradient.
  Value segment_max(Value a, std::vector<int> segments, std::size_t num_segments,
                    double empty_fill = 0.0);
  /// out.row(s) = sum over rows i with segment[i] == s.
  Value segment_sum(Value a, std::vector<int> segments, std::size_t num_segments);
  /// Level-synchronous message passing over column (n x 1) sources: output
  /// row k is +0.0 when slots[k] < 0, else 0.0 + sources[slots[k]][rows[k]]
  /// (the `0.0 +` normalizes -0.0 the way accumulating onto a zeroed buffer
  /// does). Backward adds row k's gradient into that source row, k
  /// ascending. Each propagation level records only its frontier and reads
  /// earlier levels' values through this op, so a graph with L levels costs
  /// O(nodes) tape memory instead of O(L x nodes).
  Value gather_frontiers(const std::vector<Value>& sources, const std::vector<int>& slots,
                         const std::vector<int>& rows);

  // --- reductions -----------------------------------------------------------
  Value sum_all(Value a);  ///< 1x1
  Value mean_all(Value a);
  /// Smoothed maximum, Eq. (5): gamma * log(sum_i exp(a_i / gamma)), over all
  /// elements; numerically stabilized. Result 1x1.
  Value log_sum_exp(Value a, double gamma);
  /// Smooth elementwise min(0, x): -gamma * softplus(-x / gamma). Used for
  /// the TNS term so backward reaches every endpoint (Section III-A).
  Value soft_min0(Value a, double gamma);
  /// Mean squared error against a constant target (no grad to target).
  Value mse(Value prediction, const Tensor& target);

  /// Reverse pass from a 1x1 root with seed gradient 1. Every gradient slot
  /// is reset, but only ops on a path to a requires_grad leaf run, and only
  /// into operands on such a path: grad() of a requires_grad leaf, or of an
  /// interior node that depends on one, holds its full gradient; any other
  /// node's reads zeros.
  void backward(Value root);

 private:
  friend class TapeProgram;

  enum class OpCode : std::uint8_t {
    kLeaf,
    kAdd,            // same-shape elementwise
    kSub,
    kMul,
    kScale,          // s0 = factor
    kAddScalar,      // s0 = addend
    kDense,          // inputs = parts..., weights..., bias; indices = term part offsets
    kSigmoid,
    kAbs,
    kSmoothAbs,      // s0 = delta
    kSoftplus,
    kGatherRows,     // indices = source rows
    kScatterAddRows, // indices = destination rows, dim0 = out_rows
    kSegmentMax,     // indices = segments, dim0 = num_segments, s0 = empty_fill
    kGatherFrontiers,  // inputs = sources, indices = (slot, row) pair per output row
    kSumAll,
    kLogSumExp,      // s0 = gamma; m/z recomputed by every forward
    kSoftMin0,       // s0 = gamma
    kMse,            // constant = target; the last code (kNumOpCodes)
  };
  static constexpr std::size_t kNumOpCodes = static_cast<std::size_t>(OpCode::kMse) + 1;
  static const char* op_name(OpCode code);

  struct OpRecord {
    OpCode code = OpCode::kLeaf;
    int a = -1;                 ///< first operand node id
    int b = -1;                 ///< second operand node id (binary ops)
    double s0 = 0.0;            ///< immediate (scale / gamma / delta / fill)
    std::size_t dim0 = 0;       ///< out_rows / num_segments
    std::vector<int> indices;   ///< gather / scatter / segment map
    std::vector<int> inputs;    ///< dense operands / frontier sources
    Act act = Act::kNone;       ///< dense activation
    Tensor constant;            ///< mse target
    // Value-dependent scratch, overwritten by every forward execution and
    // consumed by the matching backward (preallocated at first execution).
    std::vector<int> argmax;    ///< segment_max winner rows
    double m = 0.0;             ///< log_sum_exp max
    double z = 0.0;             ///< log_sum_exp normalizer
  };

  struct Node {
    Tensor value;
    Tensor grad;
    bool requires_grad = false;  // leaves only; interior nodes always get grad
  };

  /// Where one forward execution reads its operands and writes its result
  /// and value-dependent scratch. The default binds every node to its own
  /// value buffer and op record (eager recording, TapeProgram's main
  /// replay). TapeProgram's trial pass binds each node whose dirty-group
  /// mask meets `live` to its slot of a scratch arena and hands segment_max
  /// a trial-owned argmax buffer (log_sum_exp keeps its m/z local), so the
  /// node values and the op scratch the next backward reads stay untouched.
  /// Under a trial binding a dense node copies each output row whose live
  /// operand rows equal the main ones bit for bit from its main value (the
  /// kept iterate's) instead of recomputing it, and counts both kinds of row.
  struct Binding {
    const std::uint64_t* mask = nullptr;  ///< by node id; null = own buffers
    std::uint64_t live = 0;               ///< groups recomputed into the arena
    const std::size_t* slot = nullptr;    ///< by node id: arena offset, in doubles
    double* arena = nullptr;
    int* argmax = nullptr;                ///< segment_max winners, sized by the planner
    std::uint64_t* dense_rows_computed = nullptr;  ///< set with `mask`: dense rows recomputed
    std::uint64_t* dense_rows_reused = nullptr;    ///< set with `mask`: rows copied from main
  };

  /// Append a node + record and eagerly execute its forward kernel.
  Value push(std::size_t rows, std::size_t cols, OpRecord op);
  /// Recompute node i's value from its operands — the one kernel set behind
  /// eager recording, the main replay and the trial pass.
  void run_forward(std::size_t i, const Binding& b);
  void run_forward(std::size_t i) { run_forward(i, Binding{}); }
  /// Accumulate node i's gradient into its operands. `need` restricts
  /// accumulation to operand ids with a nonzero entry (nullptr = all).
  /// `fresh` marks operands whose gradient slot is logically zero but not
  /// materialized: kernels that fully cover the operand write `0.0 + x`
  /// instead of reading a zeroed buffer — bit-identical under IEEE (it
  /// preserves the `0.0 + -0.0 == +0.0` normalization a real accumulation
  /// performs) while skipping the clear pass and the first read of the
  /// destination. Only TapeProgram sets it, and never for kernels that
  /// write a subset of the operand (gather_rows, segment_max,
  /// gather_frontiers).
  /// `grad_from` >= 0 reads the incoming gradient from that node's slot
  /// instead of node i's own — TapeProgram points it at the physical slot
  /// when i's gradient was forwarded through dropped identity ops.
  void run_backward(std::size_t i, const std::vector<std::uint8_t>* need,
                    const std::vector<std::uint8_t>* fresh = nullptr, int grad_from = -1);
  void append_inputs(std::size_t i, std::vector<int>& out) const;
  /// By node id: 1 where the node lies on a path to a gradient target —
  /// `targets`, or every requires_grad leaf when it is empty. The `need`
  /// filter of both backward passes (eager and TapeProgram's replay).
  std::vector<std::uint8_t> grad_need(const std::vector<Value>& targets) const;
  bool is_leaf(std::size_t i) const { return ops_[i].code == OpCode::kLeaf; }
  bool grad_nonzero(std::size_t i) const;
  /// Allocate-or-zero one node's gradient buffer.
  void reset_grad(std::size_t i);
  /// The dense op's kernels; both work in dense_scratch_.
  void dense_forward(std::size_t i, const Binding& b, double* out);
  void dense_backward(std::size_t i, const Tensor& g,
                      const std::vector<std::uint8_t>* need,
                      const std::vector<std::uint8_t>* fresh);
  void check_recordable() const;
  void freeze() { frozen_ = true; }

  Tensor& grad_ref(Value v) { return nodes_[static_cast<std::size_t>(v.id)].grad; }
  void ensure_grad(Value v);

  std::vector<Node> nodes_;
  std::vector<OpRecord> ops_;
  /// Shared dense-op scratch: a rows x C block (a later term's partial
  /// products in the forward, the pre-activation gradient in the backward)
  /// followed by K rows of C (weight-gradient partial sums).
  /// Grown at record time to the largest dense op; kernels never allocate.
  std::vector<double> dense_scratch_;
  /// A trial pass's per-row reuse flags for one dense op, sized at record
  /// time to the most rows any dense op has.
  std::vector<std::uint8_t> dense_reused_;
  std::uint64_t allocations_ = 0;
  bool frozen_ = false;
};

/// Numeric-vs-analytic gradient check used by the autodiff tests: rebuilds
/// the graph via `build` after perturbing leaf element (r, c) of the leaf
/// created inside build (the function returns the scalar root and exposes
/// the leaf by pointer).
double numeric_gradient(const std::function<double(const Tensor&)>& f, const Tensor& at,
                        std::size_t index, double eps = 1e-5);

}  // namespace tsteiner
