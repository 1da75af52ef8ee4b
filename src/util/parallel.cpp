#include "util/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tsteiner {

namespace {

/// Set while the current thread is executing chunks of some job; parallel
/// calls made from inside a region run serially instead of re-entering the
/// pool.
thread_local bool tl_in_parallel_region = false;

/// 0 = not a pool thread; workers get 1..width-1 at spawn.
thread_local int tl_worker_index = 0;

std::atomic<std::uint64_t> g_busy_ns{0};
std::atomic<std::uint64_t> g_jobs{0};

std::size_t default_width() {
  if (const char* env = std::getenv("TSTEINER_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct Job {
  detail::ChunkFn fn = nullptr;
  void* ctx = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<int> active{0};
  std::mutex err_mutex;
  std::exception_ptr error;
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t width() {
    std::lock_guard<std::mutex> lk(state_mutex_);
    return width_;
  }

  void set_width(std::size_t n) {
    std::lock_guard<std::mutex> run_lk(run_mutex_);
    stop_workers();
    std::lock_guard<std::mutex> lk(state_mutex_);
    width_ = n == 0 ? default_width() : n;
  }

  void run(std::size_t begin, std::size_t end, std::size_t chunk, detail::ChunkFn fn,
           void* ctx) {
    // Nested in a region or a width-1 pool: inline.
    if (tl_in_parallel_region || width() <= 1) {
      fn(ctx, begin, end);
      return;
    }
    const std::size_t num_chunks = (end - begin + chunk - 1) / chunk;

    // One job at a time; concurrent callers queue up here.
    std::lock_guard<std::mutex> run_lk(run_mutex_);
    g_jobs.fetch_add(1, std::memory_order_relaxed);
    ensure_workers();

    Job job;
    job.fn = fn;
    job.ctx = ctx;
    job.begin = begin;
    job.end = end;
    job.chunk = chunk;
    job.num_chunks = num_chunks;
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      job_ = &job;
      ++generation_;
    }
    cv_work_.notify_all();

    execute(job, /*is_worker=*/false);  // the caller is a participant too

    {
      std::unique_lock<std::mutex> lk(state_mutex_);
      cv_done_.wait(lk, [&] {
        return job.done.load(std::memory_order_acquire) == job.num_chunks &&
               job.active.load(std::memory_order_acquire) == 0;
      });
      job_ = nullptr;  // cleared under the lock: late workers see null
    }
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  Pool() = default;
  ~Pool() { stop_workers(); }

  void ensure_workers() {
    std::size_t target;
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      target = width_ > 0 ? width_ - 1 : 0;
      shutdown_ = false;
    }
    while (workers_.size() < target) {
      const int index = static_cast<int>(workers_.size()) + 1;
      workers_.emplace_back([this, index] {
        tl_worker_index = index;
        worker_loop();
      });
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(state_mutex_);
        cv_work_.wait(lk, [&] {
          return shutdown_ || (job_ != nullptr && generation_ != seen_generation);
        });
        if (shutdown_) return;
        seen_generation = generation_;
        job = job_;
        if (job == nullptr) continue;
        job->active.fetch_add(1, std::memory_order_acq_rel);  // registered under lock
      }
      execute(*job, /*is_worker=*/true);
      {
        // Deregister under the lock: the caller's completion predicate runs
        // under the same lock, so it cannot observe active == 0 — and destroy
        // the stack-allocated Job — until every access here has finished.
        std::lock_guard<std::mutex> lk(state_mutex_);
        const bool complete =
            job->done.load(std::memory_order_acquire) == job->num_chunks;
        if (job->active.fetch_sub(1, std::memory_order_acq_rel) == 1 && complete) {
          cv_done_.notify_all();
        }
      }
    }
  }

  /// Ticket loop: grab chunk indices until exhausted. Chunk boundaries are a
  /// pure function of (begin, end, chunk), so which thread runs a chunk never
  /// affects what the chunk computes.
  void execute(Job& job, bool is_worker) {
    tl_in_parallel_region = true;
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t executed = 0;
    for (;;) {
      const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.num_chunks) break;
      const std::size_t lo = job.begin + c * job.chunk;
      const std::size_t hi = std::min(job.end, lo + job.chunk);
      try {
        job.fn(job.ctx, lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lk(job.err_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      ++executed;
      job.done.fetch_add(1, std::memory_order_acq_rel);
    }
    tl_in_parallel_region = false;
    if (is_worker && executed > 0) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      g_busy_ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
    }
    if (job.done.load(std::memory_order_acquire) == job.num_chunks) {
      // Wake the caller in case workers finished the tail while it waited.
      std::lock_guard<std::mutex> lk(state_mutex_);
      cv_done_.notify_all();
    }
  }

  std::mutex run_mutex_;    // serializes run() / set_width()
  std::mutex state_mutex_;  // guards job_, generation_, shutdown_, width_
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::size_t width_ = default_width();
};

}  // namespace

std::size_t parallel_threads() { return Pool::instance().width(); }

void set_parallel_threads(std::size_t n) { Pool::instance().set_width(n); }

std::uint64_t parallel_busy_ns() { return g_busy_ns.load(std::memory_order_relaxed); }

std::uint64_t parallel_jobs() { return g_jobs.load(std::memory_order_relaxed); }

int parallel_worker_index() { return tl_worker_index; }

namespace detail {
void run_chunks(std::size_t begin, std::size_t end, std::size_t chunk, ChunkFn fn,
                void* ctx) {
  Pool::instance().run(begin, end, chunk, fn, ctx);
}
}  // namespace detail

}  // namespace tsteiner
