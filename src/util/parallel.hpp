// Process-wide deterministic thread pool shared by every parallel hot path
// (tape kernels, GNN level assembly, STA, routing, RSMT construction).
//
// Determinism contract: work is split into chunks whose boundaries depend
// only on the call's arguments — never on the thread count. Any kernel that
// writes disjoint slots per index therefore produces bit-identical results
// whether the pool runs 1 or N threads; reductions write per-index partials
// and fold them serially. See docs/parallelism.md.
//
// Size-aware dispatch: callers state the work per index (inner operations),
// and every chunk carries about kChunkWork of it. A call whose whole range
// fits in one chunk runs inline on the caller without touching the pool, so
// small kernels cost a plain loop.
//
// The pool is lazily started on first use. Width comes from the
// TSTEINER_THREADS environment variable when set (>= 1), otherwise from
// std::thread::hardware_concurrency(); set_parallel_threads overrides it, and
// no call takes a per-call width. Calls made from inside a parallel
// region execute serially (no nested parallelism, no deadlock).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace tsteiner {

/// Inner operations one chunk carries. Below it a pool dispatch (wake-up,
/// ticket loop, completion wait) costs more than the chunk saves; calibrated
/// on traced refine runs at pool widths 1 and 4 (docs/parallelism.md).
inline constexpr std::size_t kChunkWork = std::size_t{1} << 15;

/// Indices per chunk for a loop whose index costs `work_per_index` inner
/// operations (0 counts as 1). A work of kChunkWork or more gives every index
/// its own chunk.
constexpr std::size_t chunk_length(std::size_t work_per_index) {
  return std::max<std::size_t>(1, kChunkWork / std::max<std::size_t>(1, work_per_index));
}

/// Current pool width (total concurrency including the calling thread).
std::size_t parallel_threads();

/// Override the pool width (testing / scaling benches). 0 restores the
/// TSTEINER_THREADS / hardware default. Must not be called from inside a
/// parallel region or concurrently with parallel work.
void set_parallel_threads(std::size_t n);

/// Cumulative nanoseconds worker threads (excluding callers) have spent
/// executing chunks since process start. The delta across a phase, added to
/// the phase's wall time, approximates total CPU-seconds spent in it; see
/// PhaseStat in util/timer.hpp.
std::uint64_t parallel_busy_ns();

/// Stable pool index of the calling thread: 0 for any thread the pool did
/// not spawn (the main thread, callers participating in their own jobs),
/// 1..width-1 for pool workers. Used by the tracer and the logger so span
/// and log lines attribute work to a deterministic worker lane.
int parallel_worker_index();

/// Cumulative number of calls handed to the pool since process start. Calls
/// that ran inline (one chunk of work, pool width 1, or nested inside a
/// parallel region) do not count.
std::uint64_t parallel_jobs();

namespace detail {
using ChunkFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);
/// Run fn over [begin, end) split into ceil((end-begin)/chunk) chunks; only
/// parallel_for calls it, with chunk >= 1 and at least two chunks.
void run_chunks(std::size_t begin, std::size_t end, std::size_t chunk, ChunkFn fn,
                void* ctx);
}  // namespace detail

/// Invoke fn(lo, hi) on subranges that exactly cover [begin, end). fn must
/// only write state owned by indices in [lo, hi). `work_per_index` estimates
/// the inner operations one index costs; subranges hold chunk_length(it)
/// indices, and a range that fits in one runs inline as fn(begin, end).
template <class Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t work_per_index, Fn&& fn) {
  if (begin >= end) return;
  const std::size_t chunk = chunk_length(work_per_index);
  if (end - begin <= chunk) {
    fn(begin, end);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  detail::run_chunks(
      begin, end, chunk,
      [](void* ctx, std::size_t lo, std::size_t hi) { (*static_cast<F*>(ctx))(lo, hi); },
      &fn);
}

}  // namespace tsteiner
