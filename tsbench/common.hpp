// Shared plumbing for the tsbench workloads: arguments, the metric report,
// timing of library layers from outside the program, seeded design
// generation, and bit-exact comparison helpers.
//
// Layer attribution works by wrapping each public call the benchmark makes
// into a layer (global_route, detailed_route, run_sta, GradientEvaluator,
// IncrementalSignoff::update, ...) in a LayerStat: it records the call's wall
// time, the pool-worker busy time it caused (util/parallel's
// parallel_busy_ns), and, while tracing is on, one span on the tracer clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "netlist/liberty.hpp"
#include "netlist/netlist.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny sizes: every workload and gate in seconds
};

/// What one workload run reports. Metric values are keyed by the names in
/// end_to_end_specs() / per_layer_specs(); main() prints the set the run's
/// mode asks for, with 0 for a per-layer metric the workload never touches.
struct Report {
  std::map<std::string, double> metrics;
  long long attempted = 0;  ///< operations issued in the timed phase(s)
  long long failed = 0;     ///< operations that failed or mismatched
  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Record a failure; `ops` operations count as failed.
  void fail(const std::string& why, long long ops = 1);
};

/// Names and units of every metric, in BENCHMARK.json order. Workloads set
/// what they measure; a per-layer metric a workload does not exercise
/// reports 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds of every thread of this process. Unlike wall time it leaves
/// out time the hypervisor steals from the machine's vCPUs.
double process_cpu_s();

/// Wall time, CPU time, pool busy time and call count of one layer.
struct LayerStat {
  std::vector<double> ms;      ///< wall, per call
  std::vector<double> cpu_ms;  ///< process CPU, per call
  double wall_s = 0.0;
  double busy_s = 0.0;  ///< wall + pool-worker seconds, as PhaseStat counts it
  double median_ms() const;
  double median_cpu_ms() const;
  double util() const { return wall_s > 0.0 ? busy_s / wall_s : 0.0; }
};

/// Time `fn()` as one call into a layer; emits a span named `span` (a string
/// literal) while tracing is on. Returns the call's wall time in ms.
template <class Fn>
double time_layer(const char* span, LayerStat& stat, Fn&& fn);

double median(std::vector<double> v);
double peak_rss_mb();

bool same_bits(double a, double b);
bool same_metrics(const tsteiner::SignoffMetrics& a, const tsteiner::SignoffMetrics& b);

const tsteiner::CellLibrary& library();

/// A placed design with its Flow; the design lives on the heap so the Flow's
/// pointer stays valid when the struct moves.
struct PlacedDesign {
  std::unique_ptr<tsteiner::Design> design;
  std::unique_ptr<tsteiner::Flow> flow;
};

/// Generate and place the design of `comb_cells` combinational cells numbered
/// `design_id`, then construct its Flow. Generation, placement and Flow
/// construction are timed into the three stats.
///
/// Designs are fixed per workload and do not depend on --seed: across design
/// seeds the timed work itself spreads by 13-33% (IQR / median over five
/// seeds), more than any regression bound the benchmark could hold. The seed
/// drives everything else: training variants and model initialisation, move
/// sequences and session plans.
PlacedDesign make_design(int comb_cells, std::uint64_t design_id,
                         const tsteiner::FlowOptions& options, LayerStat& generate,
                         LayerStat& place, LayerStat& flow);

/// Indices of trees that have at least one Steiner point.
std::vector<int> movable_trees(const tsteiner::SteinerForest& forest);

/// Route, detail-route and STA `forest` once each through the stage
/// functions, and Steiner-build the design once; fills the route.*,
/// droute.*, sta.* and steiner.* per-layer metrics.
void measure_signoff_layers(const tsteiner::Flow& flow, const tsteiner::SteinerForest& forest,
                            Report& report);

/// Cold Steiner-predictor pretraining, bypassing every cache.
double measure_pretrain_s();

/// IncrementalSignoff::update calls and their work counts.
struct IncStats {
  LayerStat update;
  long long dirty_nets = 0, rerouted = 0, maze_reused = 0, maze_total = 0;
  void add(const tsteiner::IncrementalSignoff::Result& r);
};
/// Fill the inc.* metrics (work counts as means per update).
void report_inc(const IncStats& inc, Report& report);

/// Traced runs write their spans to trace_<workload>.json in the working
/// directory. A traced run measures its timed phase twice, untraced then
/// traced, so trace.overhead_frac compares equal work.
void start_trace(const Args& args);
void stop_trace();

/// Setup runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

// ---------------------------------------------------------------------------

std::uint64_t trace_now_if_on();
void emit_layer_span(const char* span, std::uint64_t start_ns);

template <class Fn>
double time_layer(const char* span, LayerStat& stat, Fn&& fn) {
  const std::uint64_t trace0 = trace_now_if_on();
  const std::uint64_t busy0 = tsteiner::parallel_busy_ns();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  fn();
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_s() - cpu0;
  const std::uint64_t busy1 = tsteiner::parallel_busy_ns();
  emit_layer_span(span, trace0);
  stat.ms.push_back(1e3 * wall);
  stat.cpu_ms.push_back(1e3 * cpu);
  stat.wall_s += wall;
  stat.busy_s += wall + static_cast<double>(busy1 - busy0) * 1e-9;
  return 1e3 * wall;
}

// Workload entry points.
void run_refine(const Args& args, Report& report);
void run_signoff(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

}  // namespace tsbench
