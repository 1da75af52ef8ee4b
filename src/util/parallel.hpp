// Process-wide deterministic thread pool shared by every parallel hot path
// (tape kernels, GNN level assembly, STA, routing, RSMT construction).
//
// Determinism contract: work is split into chunks whose boundaries depend
// only on the call's arguments — never on the thread count — and
// parallel_reduce combines per-chunk partials in chunk order. Any kernel
// that writes disjoint slots per index, plus any reduction built on
// parallel_reduce, therefore produces bit-identical results whether the
// pool runs 1 or N threads. See docs/parallelism.md.
//
// Size-aware dispatch: callers state the work per index (inner operations),
// and every chunk carries about kChunkWork of it. A call whose whole range
// fits in one chunk runs inline on the caller without touching the pool, so
// small kernels cost a plain loop.
//
// The pool is lazily started on first use. Width comes from the
// TSTEINER_THREADS environment variable when set (>= 1), otherwise from
// std::thread::hardware_concurrency(). Calls made from inside a parallel
// region execute serially (no nested parallelism, no deadlock).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Normalize a user-facing thread-count request: negative values clamp to 0
/// (= pool default); 0 and positive values pass through. 1 means serial.
int clamp_thread_request(int requested);

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
/// that ran inline (one chunk of work, pool width 1, a max_threads cap of 1,
/// or nested inside a parallel region) do not count.
std::uint64_t parallel_jobs();

namespace detail {
using ChunkFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);
/// Run fn over [begin, end) split into ceil((end-begin)/chunk) chunks; only
/// parallel_for calls it, with chunk >= 1 and at least two chunks.
/// max_threads > 0 caps the number of participating threads for this call.
void run_chunks(std::size_t begin, std::size_t end, std::size_t chunk, ChunkFn fn,
                void* ctx, int max_threads);
}  // namespace detail

/// Invoke fn(lo, hi) on subranges that exactly cover [begin, end). fn must
/// only write state owned by indices in [lo, hi). `work_per_index` estimates
/// the inner operations one index costs; subranges hold chunk_length(it)
/// indices, and a range that fits in one runs inline as fn(begin, end).
/// `max_threads` caps concurrency for this call (0 = pool default,
/// 1 = serial).
template <class Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t work_per_index, Fn&& fn,
                  int max_threads = 0) {
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
      &fn, max_threads);
}

/// Deterministic reduction: map_chunk(lo, hi) -> T over fixed-grain chunks,
/// then an ordered left fold combine(acc, partial) in chunk order. The
/// result is bit-identical for any thread count (chunk boundaries and
/// combine order never depend on it). The fold grain is explicit because it
/// defines the result; the fold chunks go to the pool by the parallel_for
/// rule at one inner operation per element, so a small range folds inline.
/// Note the chunked fold is not, in general, bit-identical to an
/// element-by-element serial fold — callers that must preserve a legacy
/// serial sum should parallel_for into a buffer and fold it serially
/// instead.
template <class T, class MapFn, class CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain, T identity,
                  MapFn&& map_chunk, CombineFn&& combine, int max_threads = 0) {
  if (begin >= end) return identity;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t num_chunks = (end - begin + g - 1) / g;
  std::vector<T> partials(num_chunks, identity);
  parallel_for(
      0, num_chunks, g,
      [&](std::size_t clo, std::size_t chi) {
        for (std::size_t c = clo; c < chi; ++c) {
          const std::size_t lo = begin + c * g;
          partials[c] = map_chunk(lo, std::min(end, lo + g));
        }
      },
      max_threads);
  T acc = std::move(partials[0]);
  for (std::size_t c = 1; c < num_chunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[c]));
  }
  return acc;
}

}  // namespace tsteiner
