#include "autodiff/program.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

namespace tsteiner {

void TapeProgram::reset() {
  tape_ = Tape();
  root_ = Value{};
  finalized_ = false;
  mutable_leaf_.clear();
  leaf_group_.clear();
  pending_dirty_ = 0;
  needs_grad_.clear();
  mutable_ids_.clear();
  node_mask_.clear();
  forward_schedule_.clear();
  backward_schedule_.clear();
  src_sched_.clear();
  redirect_.clear();
  bwd_input_offset_.clear();
  bwd_inputs_.clear();
  bwd_fresh_ok_.clear();
  fresh_.clear();
  grad_stamp_.clear();
  epoch_ = 0;
  trial_schedule_.clear();
  trial_slot_.clear();
  trial_output_.clear();
  trial_staged_.clear();
  trial_arena_.clear();
  trial_argmax_.clear();
  trial_pending_ = 0;
  trial_live_ = 0;
}

void TapeProgram::finalize(Value root, const std::vector<Value>& mutable_leaves,
                           const std::vector<Value>& grad_targets,
                           const std::vector<Value>& trial_outputs) {
  if (finalized_) throw std::runtime_error("TapeProgram: already finalized");
  const std::size_t n = tape_.nodes_.size();
  if (!root.valid() || static_cast<std::size_t>(root.id) >= n) {
    throw std::runtime_error("TapeProgram: invalid root");
  }
  if (tape_.value(root).size() != 1) {
    throw std::runtime_error("TapeProgram: root must be scalar");
  }
  root_ = root;

  // Dirty groups: one bit per mutable leaf (leaves past 64 share the last
  // bit — conservative, never skips a dirty op).
  mutable_leaf_.assign(n, 0);
  leaf_group_.assign(n, 0);
  std::uint64_t next_group = 0;
  for (Value v : mutable_leaves) {
    if (!v.valid() || static_cast<std::size_t>(v.id) >= n ||
        !tape_.is_leaf(static_cast<std::size_t>(v.id))) {
      throw std::runtime_error("TapeProgram: mutable handle is not a leaf");
    }
    if (!mutable_leaf_[static_cast<std::size_t>(v.id)]) mutable_ids_.push_back(v.id);
    mutable_leaf_[static_cast<std::size_t>(v.id)] = 1;
    leaf_group_[static_cast<std::size_t>(v.id)] |=
        std::uint64_t{1} << std::min<std::uint64_t>(next_group++, 63);
  }

  // Forward schedule: every op reachable from a mutable leaf, in recording
  // (= topological) order, tagged with the groups it depends on. Clean ops
  // keep their record-time values.
  node_mask_.assign(n, 0);
  std::vector<int> ins;
  for (std::size_t i = 0; i < n; ++i) {
    if (tape_.is_leaf(i)) {
      node_mask_[i] = leaf_group_[i];
      continue;
    }
    ins.clear();
    tape_.append_inputs(i, ins);
    for (int a : ins) node_mask_[i] |= node_mask_[static_cast<std::size_t>(a)];
    if (node_mask_[i] != 0) forward_schedule_.push_back(static_cast<int>(i));
  }

  // Backward pruning. needs_grad: the node lies on a path *to* a gradient
  // target (bottom-up). An op executes in reverse only when it also lies on
  // a path *from* the root (top-down) — gradient can actually arrive there.
  for (Value v : grad_targets) {
    if (!v.valid() || static_cast<std::size_t>(v.id) >= n) {
      throw std::runtime_error("TapeProgram: invalid gradient target");
    }
  }
  needs_grad_ = tape_.grad_need(grad_targets);

  std::vector<std::uint8_t> reach(n, 0);
  reach[static_cast<std::size_t>(root.id)] = 1;
  // By node id: the schedule position and bwd_inputs_ slot of its latest
  // occurrence as an operand (duplicate detection in O(operands)).
  std::vector<int> last_op(n, -1), last_pos(n, -1);
  bwd_input_offset_.push_back(0);
  for (int i = root.id; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    if (tape_.is_leaf(idx) || !reach[idx] || !needs_grad_[idx]) continue;
    backward_schedule_.push_back(i);
    ins.clear();
    tape_.append_inputs(idx, ins);
    // The operands this op accumulates into (the kernels' `need` filter uses
    // the same needs_grad mask). When the kernel writes the operand's whole
    // gradient tensor, the first accumulation of a replay can assign
    // `0.0 + x` instead of zero-then-accumulate (bit-identical, see
    // run_backward); kernels that touch a subset (gather_rows, segment_max,
    // gather_frontiers) — or an operand the op uses twice, e.g. mul(x, x) —
    // fall back to an explicit zeroing just before the op runs. dense
    // writes every operand's gradient in full, parts, weights and bias
    // alike, whatever its activation masks.
    const auto code = tape_.ops_[idx].code;
    const bool covers_fully = code != Tape::OpCode::kGatherRows &&
                              code != Tape::OpCode::kSegmentMax &&
                              code != Tape::OpCode::kGatherFrontiers;
    const int op_k = static_cast<int>(backward_schedule_.size()) - 1;
    for (int a : ins) {
      const auto ai = static_cast<std::size_t>(a);
      if (needs_grad_[ai]) {
        reach[ai] = 1;
        // A repeated operand: neither occurrence may take the fresh path
        // (earlier repeats were already cleared when the second one came).
        const bool dup = last_op[ai] == op_k;
        if (dup) bwd_fresh_ok_[static_cast<std::size_t>(last_pos[ai])] = 0;
        last_op[ai] = op_k;
        last_pos[ai] = static_cast<int>(bwd_inputs_.size());
        bwd_inputs_.push_back(a);
        bwd_fresh_ok_.push_back(covers_fully && !dup ? 1 : 0);
      }
    }
    bwd_input_offset_.push_back(static_cast<int>(bwd_inputs_.size()));
  }
  fresh_.assign(n, 0);

  // Gradient forwarding: where an add/sub/add_scalar kernel would hand an
  // operand an exact copy of the op's own gradient, and that operand
  // receives no other contribution, the copy is pure memory traffic.
  // Redirect such operands to read the op's (physical) gradient slot
  // directly and suppress the kernel's write — clearing needs_grad_ for the
  // operand is safe precisely because this op was its sole contributor. An
  // op whose needed operands are all forwarded vanishes from the replay
  // schedule entirely; one kept for a genuine multi-contribution sum still
  // skips the copy halves. Chains collapse because consumers
  // (higher ids) are processed first, so `redirect_` entries are already
  // fully resolved when an operand looks one up.
  {
    std::vector<int> contrib(n, 0);
    for (int a : bwd_inputs_) ++contrib[static_cast<std::size_t>(a)];
    redirect_.assign(n, -1);
    std::vector<int> sched2, inputs2, off2{0};
    std::vector<std::uint8_t> fresh2;
    for (std::size_t k = 0; k < backward_schedule_.size(); ++k) {
      const int idx = backward_schedule_[k];
      const auto& op = tape_.ops_[static_cast<std::size_t>(idx)];
      const int jb = bwd_input_offset_[k], je = bwd_input_offset_[k + 1];
      const int src =
          redirect_[static_cast<std::size_t>(idx)] >= 0 ? redirect_[static_cast<std::size_t>(idx)] : idx;
      const bool identity_code =
          op.code == Tape::OpCode::kAdd || op.code == Tape::OpCode::kSub ||
          op.code == Tape::OpCode::kAddScalar;
      std::size_t kept = 0;
      for (int j = jb; j < je; ++j) {
        const auto a = static_cast<std::size_t>(bwd_inputs_[static_cast<std::size_t>(j)]);
        // Every identity op is same-shape. Only the first operand of sub /
        // add_scalar sees the raw gradient; kAdd passes it to both sides. A
        // duplicated operand (e.g. add(x, x)) has contrib >= 2 and is never
        // forwarded.
        const bool forward = identity_code &&
                             (op.code == Tape::OpCode::kAdd || bwd_inputs_[static_cast<std::size_t>(j)] == op.a) &&
                             contrib[a] == 1;
        if (forward) {
          redirect_[a] = src;
          needs_grad_[a] = 0;  // sole contributor: no kernel may write this slot now
        } else {
          inputs2.push_back(static_cast<int>(a));
          fresh2.push_back(bwd_fresh_ok_[static_cast<std::size_t>(j)]);
          ++kept;
        }
      }
      if (kept == 0) continue;  // fully forwarded: the op itself disappears
      sched2.push_back(idx);
      src_sched_.push_back(src);
      off2.push_back(static_cast<int>(inputs2.size()));
    }
    backward_schedule_.swap(sched2);
    bwd_inputs_.swap(inputs2);
    bwd_input_offset_.swap(off2);
    bwd_fresh_ok_.swap(fresh2);
  }

  grad_stamp_.assign(n, std::numeric_limits<std::uint32_t>::max());
  pending_dirty_ = 0;  // recorded values are current
  std::vector<Value> outputs = trial_outputs;
  outputs.push_back(root);
  plan_trial(outputs);
  tape_.freeze();
  finalized_ = true;
}

namespace {

/// Offset allocator for the trial arena plan: best-fit over coalesced free
/// blocks, growing the arena's end only when no block fits. Units are
/// doubles, and every block is rounded up to whole 64-byte lines.
class ArenaPlanner {
 public:
  static std::size_t round_up(std::size_t len) { return (len + 7) & ~std::size_t{7}; }

  std::size_t take(std::size_t len) {
    len = round_up(len);
    if (len == 0) return 0;
    auto fit = by_len_.lower_bound({len, 0});
    if (fit != by_len_.end()) {
      const auto [blen, off] = *fit;
      by_len_.erase(fit);
      by_off_.erase(off);
      if (blen > len) insert(off + len, blen - len);
      return off;
    }
    std::size_t off = end_;
    if (!by_off_.empty()) {  // a free block at the end grows in place
      const auto last = std::prev(by_off_.end());
      if (last->first + last->second == end_) {
        off = last->first;
        by_len_.erase({last->second, last->first});
        by_off_.erase(last);
      }
    }
    end_ = off + len;
    return off;
  }

  void give(std::size_t off, std::size_t len) {
    len = round_up(len);
    if (len == 0) return;
    auto next = by_off_.lower_bound(off);
    if (next != by_off_.end() && off + len == next->first) {
      len += next->second;
      by_len_.erase({next->second, next->first});
      next = by_off_.erase(next);
    }
    if (next != by_off_.begin()) {
      const auto prev = std::prev(next);
      if (prev->first + prev->second == off) {
        off = prev->first;
        len += prev->second;
        by_len_.erase({prev->second, prev->first});
        by_off_.erase(prev);
      }
    }
    insert(off, len);
  }

  std::size_t peak() const { return end_; }

 private:
  void insert(std::size_t off, std::size_t len) {
    by_off_.emplace(off, len);
    by_len_.emplace(len, off);
  }

  std::map<std::size_t, std::size_t> by_off_;           // free offset -> length
  std::set<std::pair<std::size_t, std::size_t>> by_len_;  // (length, offset)
  std::size_t end_ = 0;
};

}  // namespace

void TapeProgram::plan_trial(const std::vector<Value>& outputs) {
  const std::size_t n = tape_.nodes_.size();
  trial_output_.assign(n, 0);
  std::vector<std::uint8_t> needed(n, 0);
  for (Value v : outputs) {
    if (!v.valid() || static_cast<std::size_t>(v.id) >= n) {
      throw std::runtime_error("TapeProgram: invalid trial output");
    }
    trial_output_[static_cast<std::size_t>(v.id)] = 1;
    needed[static_cast<std::size_t>(v.id)] = 1;
  }
  std::vector<int> ins;
  for (std::size_t i = n; i-- > 0;) {
    if (!needed[i]) continue;
    ins.clear();
    tape_.append_inputs(i, ins);
    for (int a : ins) needed[static_cast<std::size_t>(a)] = 1;
  }
  std::size_t argmax_cells = 0;
  for (int id : forward_schedule_) {
    const auto i = static_cast<std::size_t>(id);
    if (!needed[i]) continue;
    trial_schedule_.push_back(id);
    const Tape::OpRecord& op = tape_.ops_[i];
    if (op.code == Tape::OpCode::kSegmentMax) {
      argmax_cells = std::max(argmax_cells, op.dim0 * tape_.nodes_[i].value.cols());
    }
  }

  // Liveness over the all-groups-dirty pass: a slot is free again once the
  // last scheduled reader of its node has run. Any real pass runs a subset
  // in the same order, and a recomputed node's readers all recompute too,
  // so the plan holds for every dirty set. The staged leaf copies are live
  // from staging; outputs stay pinned so trial_value() can read them.
  constexpr int kPinned = std::numeric_limits<int>::max();
  std::vector<int> last_read(n, -1);
  for (std::size_t k = 0; k < trial_schedule_.size(); ++k) {
    ins.clear();
    tape_.append_inputs(static_cast<std::size_t>(trial_schedule_[k]), ins);
    for (int a : ins) last_read[static_cast<std::size_t>(a)] = static_cast<int>(k);
  }
  trial_slot_.assign(n, 0);
  ArenaPlanner planner;
  const auto size_of = [&](std::size_t i) { return tape_.nodes_[i].value.size(); };
  for (int id : mutable_ids_) {
    const auto i = static_cast<std::size_t>(id);
    trial_slot_[i] = planner.take(size_of(i));
    if (trial_output_[i] || last_read[i] < 0) last_read[i] = kPinned;
  }
  for (std::size_t k = 0; k < trial_schedule_.size(); ++k) {
    const auto i = static_cast<std::size_t>(trial_schedule_[k]);
    trial_slot_[i] = planner.take(size_of(i));  // never aliases a live operand
    if (trial_output_[i]) last_read[i] = kPinned;
    ins.clear();
    tape_.append_inputs(i, ins);
    for (int a : ins) {
      const auto ai = static_cast<std::size_t>(a);
      // Only arena residents (mutable leaves, trial ops) hold a slot; a
      // repeated operand is released once.
      if (node_mask_[ai] == 0 || last_read[ai] != static_cast<int>(k)) continue;
      planner.give(trial_slot_[ai], size_of(ai));
      last_read[ai] = -1;
    }
  }
  trial_arena_.assign(planner.peak(), 0.0);
  trial_argmax_.assign(argmax_cells, -1);
  trial_staged_.assign(n, 0);
  trial_pending_ = 0;
  trial_live_ = 0;
}

void TapeProgram::check_mutable(Value leaf) const {
  if (!finalized_) return;  // pre-finalize writes are plain leaf updates
  if (!leaf.valid() || static_cast<std::size_t>(leaf.id) >= mutable_leaf_.size() ||
      !mutable_leaf_[static_cast<std::size_t>(leaf.id)]) {
    throw std::runtime_error(
        "TapeProgram: leaf was not declared mutable at finalize — re-record");
  }
}

void TapeProgram::mark_dirty(Value leaf, bool changed) {
  if (finalized_ && changed) {
    pending_dirty_ |= leaf_group_[static_cast<std::size_t>(leaf.id)];
  }
}

void TapeProgram::set_leaf(Value leaf, const Tensor& t) {
  check_mutable(leaf);
  mark_dirty(leaf, tape_.set_leaf(leaf, t));
}

void TapeProgram::set_leaf(Value leaf, const std::vector<double>& column) {
  check_mutable(leaf);
  mark_dirty(leaf, tape_.set_leaf(leaf, column));
}

void TapeProgram::set_leaf_scalar(Value leaf, double s) {
  check_mutable(leaf);
  Tensor& v = tape_.nodes_[static_cast<std::size_t>(leaf.id)].value;
  if (v.size() != 1) {
    throw std::runtime_error("TapeProgram: set_leaf_scalar needs a 1x1 leaf");
  }
  mark_dirty(leaf, std::memcmp(&v[0], &s, sizeof(double)) != 0);
  v[0] = s;
}

void TapeProgram::replay_forward() {
  if (!finalized_) throw std::runtime_error("TapeProgram: finalize before replay");
  ++replay_counters_.forward_replays;
  if (pending_dirty_ == 0) {
    ++replay_counters_.full_forward_skips;
    return;
  }
  std::uint64_t executed = 0;
  for (int id : forward_schedule_) {
    if (node_mask_[static_cast<std::size_t>(id)] & pending_dirty_) {
      tape_.run_forward(static_cast<std::size_t>(id));
      count_op(replay_counters_.forward_kinds, static_cast<std::size_t>(id));
      ++executed;
    }
  }
  replay_counters_.ops_executed += executed;
  replay_counters_.ops_skipped += forward_schedule_.size() - executed;
  pending_dirty_ = 0;
}

void TapeProgram::set_trial_leaf(Value leaf, std::span<const double> values) {
  if (!finalized_) throw std::runtime_error("TapeProgram: finalize before a trial");
  check_mutable(leaf);
  const auto id = static_cast<std::size_t>(leaf.id);
  const Tensor& main = tape_.nodes_[id].value;
  if (values.size() != main.size()) {
    throw std::runtime_error(
        "TapeProgram: trial leaf size mismatch — graph topology changed, re-record the "
        "program");
  }
  if (!values.empty() &&
      std::memcmp(main.data().data(), values.data(), values.size() * sizeof(double)) != 0) {
    trial_pending_ |= leaf_group_[id];
  }
  std::copy(values.begin(), values.end(),
            trial_arena_.begin() + static_cast<std::ptrdiff_t>(trial_slot_[id]));
  trial_staged_[id] = 1;
}

void TapeProgram::trial_forward() {
  if (!finalized_) throw std::runtime_error("TapeProgram: finalize before a trial");
  if (pending_dirty_ != 0) {
    throw std::logic_error(
        "TapeProgram: trial pass with set_leaf changes pending — replay_forward first");
  }
  ++replay_counters_.trial_forwards;
  trial_live_ = trial_pending_;
  trial_pending_ = 0;
  for (int id : mutable_ids_) {
    const auto i = static_cast<std::size_t>(id);
    // A leaf sharing a live group (past 64 leaves) but not staged this time
    // must read as its main value.
    if (!trial_staged_[i] && (leaf_group_[i] & trial_live_) != 0) {
      const Tensor& main = tape_.nodes_[i].value;
      std::copy(main.data().begin(), main.data().end(),
                trial_arena_.begin() + static_cast<std::ptrdiff_t>(trial_slot_[i]));
    }
    trial_staged_[i] = 0;
  }
  if (trial_live_ == 0) return;
  const Tape::Binding binding{node_mask_.data(),
                              trial_live_,
                              trial_slot_.data(),
                              trial_arena_.data(),
                              trial_argmax_.data(),
                              &replay_counters_.trial_rows_computed,
                              &replay_counters_.trial_rows_reused};
  std::uint64_t executed = 0;
  for (int id : trial_schedule_) {
    if (node_mask_[static_cast<std::size_t>(id)] & trial_live_) {
      tape_.run_forward(static_cast<std::size_t>(id), binding);
      count_op(replay_counters_.trial_kinds, static_cast<std::size_t>(id));
      ++executed;
    }
  }
  replay_counters_.trial_ops_executed += executed;
}

std::span<const double> TapeProgram::trial_value(Value v) const {
  if (!finalized_ || !v.valid() || static_cast<std::size_t>(v.id) >= trial_output_.size() ||
      !trial_output_[static_cast<std::size_t>(v.id)]) {
    throw std::runtime_error("TapeProgram: not a declared trial output");
  }
  const auto id = static_cast<std::size_t>(v.id);
  const std::vector<double>& main = tape_.nodes_[id].value.data();
  if ((node_mask_[id] & trial_live_) == 0) return main;
  return {trial_arena_.data() + trial_slot_[id], main.size()};
}

void TapeProgram::replay_backward() {
  if (!finalized_) throw std::runtime_error("TapeProgram: finalize before replay");
  if (++epoch_ == 0) {  // stamp wrap: invalidate everything once per 2^32 replays
    std::fill(grad_stamp_.begin(), grad_stamp_.end(), std::numeric_limits<std::uint32_t>::max());
    epoch_ = 1;
  }
  const auto root_id = static_cast<std::size_t>(root_.id);
  tape_.reset_grad(root_id);
  tape_.grad_ref(root_)[0] = 1.0;
  grad_stamp_[root_id] = epoch_;
  // Same descending walk and same has-gradient early-out as Tape::backward,
  // restricted to the ops gradient can actually cross. A slot whose stamp is
  // stale has had no contribution this replay — logically zero, exactly the
  // freshly allocated buffer the one-shot backward would see.
  for (std::size_t k = 0; k < backward_schedule_.size(); ++k) {
    const auto idx = static_cast<std::size_t>(backward_schedule_[k]);
    // Where this op's incoming gradient physically lives: its own slot, or a
    // higher op's slot when every copy between them was forwarded away.
    const auto src = static_cast<std::size_t>(src_sched_[k]);
    if (grad_stamp_[src] != epoch_) continue;
    if (!tape_.grad_nonzero(src)) continue;
    const int jb = bwd_input_offset_[k], je = bwd_input_offset_[k + 1];
    bool any_fresh = false;
    for (int j = jb; j < je; ++j) {
      const auto a = static_cast<std::size_t>(bwd_inputs_[static_cast<std::size_t>(j)]);
      if (grad_stamp_[a] != epoch_) {
        grad_stamp_[a] = epoch_;
        if (bwd_fresh_ok_[static_cast<std::size_t>(j)]) {
          fresh_[a] = 1;  // kernel fully writes the slot: no zeroing needed
          any_fresh = true;
        } else {
          tape_.reset_grad(a);
        }
      }
    }
    tape_.run_backward(idx, &needs_grad_, any_fresh ? &fresh_ : nullptr,
                       src == idx ? -1 : static_cast<int>(src));
    count_op(replay_counters_.backward_kinds, idx);
    if (any_fresh) {
      for (int j = jb; j < je; ++j) {
        fresh_[static_cast<std::size_t>(bwd_inputs_[static_cast<std::size_t>(j)])] = 0;
      }
    }
  }
}

void TapeProgram::count_op(OpKindCounts& counts, std::size_t id) const {
  OpKindCount& c = counts[static_cast<std::size_t>(tape_.ops_[id].code)];
  ++c.calls;
  c.elems += tape_.nodes_[id].value.size();
}

const char* TapeProgram::op_kind_name(std::size_t kind) {
  return kind < Tape::kNumOpCodes ? Tape::op_name(static_cast<Tape::OpCode>(kind)) : "?";
}

const Tensor& TapeProgram::grad(Value v) {
  if (finalized_ && v.valid() && static_cast<std::size_t>(v.id) < grad_stamp_.size()) {
    const auto id = static_cast<std::size_t>(v.id);
    // A forwarded node's gradient lives in the slot it was redirected to.
    if (redirect_[id] >= 0 && grad_stamp_[static_cast<std::size_t>(redirect_[id])] == epoch_) {
      return tape_.grad(Value{redirect_[id]});
    }
    if (grad_stamp_[id] != epoch_) {  // untouched this replay: reads as zeros
      tape_.reset_grad(id);
      grad_stamp_[id] = epoch_;
    }
  }
  return tape_.grad(v);
}

}  // namespace tsteiner
