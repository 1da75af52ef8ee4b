// Retained autodiff execution: record the graph once, replay it in place.
//
// The refinement loop (Algorithm 1) evaluates the same penalty graph dozens
// of times per (design, forest) pair; only the Steiner coordinate leaves and
// the lambda weights change between iterations. TapeProgram wraps a Tape,
// freezes it after recording, and precomputes three schedules:
//
//  * a forward schedule — the ops downstream of the declared mutable leaves
//    (everything else keeps its record-time value). Each mutable leaf gets a
//    dirty-group bit and each scheduled op the OR of the groups it depends
//    on, so a replay re-executes only ops downstream of leaves whose bytes
//    actually changed since the last replay (set_leaf compares before
//    copying). A replay at unchanged leaves skips the whole forward, and a
//    lambda-only change replays just the final penalty combination.
//  * a backward schedule — the ops through which gradient can flow from the
//    root to the declared gradient targets, with a per-node mask so kernels
//    skip operand gradients nobody asked for (e.g. the weight gradients of
//    every GNN layer). Two memory-traffic optimizations keep replayed results
//    bit-identical while avoiding most gradient-arena passes: gradient
//    slots are never cleared wholesale (each slot is epoch-stamped, and the
//    first accumulation of a replay writes `0.0 + x` without reading the
//    destination), and identity pass-through ops — an add whose operands
//    receive no other contribution — are dropped from the schedule
//    entirely, their operands' gradients *forwarded* to the op's own slot
//    instead of copied.
//  * a trial schedule — the forward-schedule ops the declared trial outputs
//    depend on, with a liveness-planned scratch arena. trial_forward()
//    scores candidate leaf values (a refine step, a search edit) without
//    touching the program: recomputed nodes live in arena slots, each slot
//    reused once its node's last reader has run, and everything clean is
//    read from the main values; a dense node recomputes only the rows whose
//    live operand rows moved off the kept iterate and copies the rest from
//    its main value. The kept iterate's forward, its op scratch
//    (segment_max argmax, log_sum_exp m/z) and its dirty bits survive, so
//    the gradient call after a rejected step replays only what its own leaf
//    changes dirty.
//
// replay_forward()/replay_backward()/trial_forward() execute those schedules
// with the *same* switch kernels the eager recording used: results are
// bit-identical to re-recording a fresh tape at the new leaf values, at any
// thread-pool width, with zero steady-state heap allocation (see
// docs/autodiff.md).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "autodiff/tape.hpp"

namespace tsteiner {

class TapeProgram {
 public:
  /// The tape to record into. Recording after finalize() throws.
  Tape& tape() { return tape_; }
  const Tape& tape() const { return tape_; }

  /// Freeze the recording, compile the replay schedules and plan (and
  /// allocate) the trial arena.
  ///  * `root` — the scalar node replay_backward() seeds with gradient 1;
  ///  * `mutable_leaves` — the leaves set_leaf() may overwrite between
  ///    replays (the forward schedule covers exactly their descendants);
  ///  * `grad_targets` — the leaves whose gradients replay_backward() must
  ///    produce; empty means every requires_grad leaf;
  ///  * `trial_outputs` — the nodes trial_value() may read after a trial
  ///    pass, besides the root (their arena slots are pinned).
  void finalize(Value root, const std::vector<Value>& mutable_leaves,
                const std::vector<Value>& grad_targets = {},
                const std::vector<Value>& trial_outputs = {});
  bool finalized() const { return finalized_; }
  Value root() const { return root_; }

  /// Overwrite a mutable leaf in place. Throws if the leaf was not declared
  /// mutable at finalize() or the shape differs from the recorded one (a
  /// topology change invalidates the program — re-record). Writing bytes
  /// identical to the stored ones leaves the leaf's dirty group clean.
  void set_leaf(Value leaf, const Tensor& t);
  void set_leaf(Value leaf, const std::vector<double>& column);
  void set_leaf_scalar(Value leaf, double s);

  /// Re-execute the ops downstream of the mutable leaves whose values
  /// changed since the last replay, in recording order. Values of untouched
  /// ops are preserved (bitwise-equal inputs produce bitwise-equal outputs,
  /// so skipping clean ops cannot change the result).
  void replay_forward();
  /// Seed the root with gradient 1 and run the pruned reverse schedule,
  /// zeroing each live gradient slot just before its first accumulation.
  /// Gradients of the declared targets match a full Tape::backward() on a
  /// freshly recorded tape bit-for-bit.
  void replay_backward();

  /// Forward-only trial pass. set_trial_leaf() stages a candidate value for
  /// a mutable leaf (a mutable leaf left unstaged keeps its main value);
  /// trial_forward() then runs exactly the trial-schedule ops downstream of
  /// the staged leaves whose bytes differ from the main ones, in schedule
  /// order, into the scratch arena. The program's values, op scratch and
  /// dirty bits are left as they were. It throws while set_leaf() changes
  /// are pending a replay_forward(): clean operands are read from the main
  /// values, which must be current.
  void set_trial_leaf(Value leaf, std::span<const double> values);
  void set_trial_leaf_scalar(Value leaf, double s) { set_trial_leaf(leaf, {&s, 1}); }
  void trial_forward();
  /// A trial output (or the root) as of the last trial_forward(): its arena
  /// slot when the pass recomputed it, else the main value. Valid until the
  /// next set_trial_leaf(), trial_forward() or replay_forward().
  std::span<const double> trial_value(Value v) const;

  const Tensor& value(Value v) const { return tape_.value(v); }
  /// Gradient after the last replay_backward(); slots no gradient reached
  /// this replay read as zeros (matching a fresh tape's untouched buffers).
  const Tensor& grad(Value v);

  Tape::Stats stats() const { return tape_.stats(); }
  /// Cumulative buffer allocations inside the tape; constant across
  /// steady-state replays (asserted in tests/replay_test.cpp).
  std::uint64_t allocation_count() const { return tape_.stats().allocations; }
  /// Bytes of the trial pass's scratch (value arena + segment_max winners),
  /// planned and allocated once at finalize() for the all-leaves-dirty case.
  std::size_t trial_scratch_bytes() const {
    return trial_arena_.size() * sizeof(double) + trial_argmax_.size() * sizeof(int);
  }

  /// Cumulative dirty-group effectiveness of replay_forward(), and the work
  /// of trial_forward(). Raw counters (no dependency on the obs layer —
  /// GradientEvaluator translates deltas into obs metrics): how many replays
  /// ran, how many were skipped outright because no leaf byte changed, of
  /// the scheduled ops considered how many executed vs. were masked off as
  /// clean, and how many trial passes ran how many ops and how many of their
  /// dense rows they recomputed vs. reused from the kept iterate (a dense
  /// row whose live operand rows are unchanged). Per op kind (indexed
  /// by op_kind_name's argument), each pass also counts the ops it ran and
  /// the output elements they covered — two additions per op, no clock.
  struct OpKindCount {
    std::uint64_t calls = 0;
    std::uint64_t elems = 0;
  };
  using OpKindCounts = std::array<OpKindCount, Tape::kNumOpCodes>;
  struct ReplayCounters {
    std::uint64_t forward_replays = 0;      ///< replay_forward() calls
    std::uint64_t full_forward_skips = 0;   ///< ... that returned with zero dirty groups
    std::uint64_t ops_executed = 0;         ///< scheduled ops re-run
    std::uint64_t ops_skipped = 0;          ///< scheduled ops masked off as clean
    std::uint64_t trial_forwards = 0;       ///< trial_forward() calls
    std::uint64_t trial_ops_executed = 0;   ///< trial-schedule ops run into the arena
    std::uint64_t trial_rows_computed = 0;  ///< dense rows a trial pass recomputed
    std::uint64_t trial_rows_reused = 0;    ///< ... and copied from the kept iterate
    OpKindCounts forward_kinds{};           ///< replay_forward() ops, by kind
    OpKindCounts trial_kinds{};             ///< trial_forward() ops, by kind
    OpKindCounts backward_kinds{};          ///< replay_backward() ops, by kind
  };
  /// Name of op kind `kind` < Tape::kNumOpCodes ("dense", "gather_rows", ...).
  static const char* op_kind_name(std::size_t kind);
  const ReplayCounters& replay_counters() const { return replay_counters_; }

  /// Discard the recorded graph and schedules and return to a blank,
  /// recordable state — the tape-rebuild entry point for topology edits,
  /// which change the graph's *shape* and therefore cannot be replayed.
  /// Cumulative replay counters survive (they feed obs deltas).
  void reset();

 private:
  void check_mutable(Value leaf) const;
  void mark_dirty(Value leaf, bool changed);
  void plan_trial(const std::vector<Value>& outputs);
  void count_op(OpKindCounts& counts, std::size_t id) const;

  Tape tape_;
  Value root_{};
  bool finalized_ = false;
  std::vector<std::uint8_t> mutable_leaf_;     // by node id
  std::vector<std::uint64_t> leaf_group_;      // by node id: dirty-group bit
  std::uint64_t pending_dirty_ = 0;            // groups changed since last replay
  std::vector<std::uint8_t> needs_grad_;       // grad reaches a target from here
  std::vector<int> mutable_ids_;               // declared mutable leaves
  std::vector<std::uint64_t> node_mask_;       // by node id: groups it depends on
  std::vector<int> forward_schedule_;          // mutable-dependent ops, ascending
  std::vector<int> backward_schedule_;         // grad-path ops, descending
  std::vector<int> src_sched_;                 // physical grad slot per scheduled op
  std::vector<int> redirect_;                  // by node id: forwarded grad slot, -1 = own
  std::vector<int> bwd_input_offset_;          // per scheduled op into bwd_inputs_
  std::vector<int> bwd_inputs_;                // needs_grad operands per scheduled op
  std::vector<std::uint8_t> bwd_fresh_ok_;     // op fully writes this operand's grad
  std::vector<std::uint8_t> fresh_;            // by node id: first-touch flag (transient)
  std::vector<std::uint32_t> grad_stamp_;      // slot cleared/written this epoch?
  std::uint32_t epoch_ = 0;
  std::vector<int> trial_schedule_;            // forward ops a trial output needs
  std::vector<std::size_t> trial_slot_;        // by node id: arena offset, in doubles
  std::vector<std::uint8_t> trial_output_;     // by node id: pinned, readable after a pass
  std::vector<std::uint8_t> trial_staged_;     // by node id: set_trial_leaf since last pass
  std::vector<double> trial_arena_;
  std::vector<int> trial_argmax_;              // shared segment_max winners (never read)
  std::uint64_t trial_pending_ = 0;            // staged groups that differ from main
  std::uint64_t trial_live_ = 0;               // groups the last trial pass recomputed
  ReplayCounters replay_counters_;
};

}  // namespace tsteiner
