// Wall-clock timing for the Table IV runtime breakdown.
#pragma once

#include <chrono>

// tsbench/common.hpp reaches parallel_busy_ns() through this header.
#include "util/parallel.hpp"

namespace tsteiner {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction / last reset.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Wall time plus total CPU-seconds for one flow phase. busy_s counts the
/// calling thread's wall time plus every pool worker-second spent inside the
/// phase, so utilization() reads as "effective threads": ~1.0 for a serial
/// phase, approaching the pool width for a well-parallelized one. This is
/// what lets the Table-IV benches report serial vs. parallel wall time
/// without any per-loop instrumentation.
struct PhaseStat {
  double wall_s = 0.0;
  double busy_s = 0.0;

  double utilization() const { return wall_s > 1e-12 ? busy_s / wall_s : 1.0; }
};

/// Wall and pool-busy time of the sign-off stages, accumulated by
/// obs::ScopedPhase (Table IV's runtime split).
struct RuntimeBreakdown {
  PhaseStat global_route;
  PhaseStat detailed_route;
  PhaseStat sta;
};

}  // namespace tsteiner
