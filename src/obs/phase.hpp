// ScopedPhase: the one phase timer.
//
// One scoped object gives a flow phase all three observability views at
// once, each independently gated:
//   * PhaseStat accumulation (wall + pool-busy seconds) into the caller's
//     struct (e.g. a RuntimeBreakdown field) — always on;
//   * a trace span named `name` (when TSTEINER_TRACE is armed);
//   * a named phase row in the run report (when TSTEINER_RUN_REPORT is
//     armed), summing wall/busy over every interval with the same name.
//
// `name` must be a string literal (it is retained until trace flush and
// keyed into the report).
#pragma once

#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace tsteiner::obs {

class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name, PhaseStat* stat = nullptr)
      : name_(name), stat_(stat), span_(name, "phase"), busy0_ns_(parallel_busy_ns()) {}

  ~ScopedPhase() {
    PhaseStat delta;
    delta.wall_s = timer_.seconds();
    delta.busy_s =
        delta.wall_s + static_cast<double>(parallel_busy_ns() - busy0_ns_) * 1e-9;
    if (stat_ != nullptr) {
      stat_->wall_s += delta.wall_s;
      stat_->busy_s += delta.busy_s;
    }
    if (run_report_enabled()) run_report().add_phase(name_, delta);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const char* name_;
  PhaseStat* stat_;
  TraceSpan span_;  // declared before timer_ so the span closes last
  WallTimer timer_;
  std::uint64_t busy0_ns_;
};

}  // namespace tsteiner::obs
