#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "netlist/design_generator.hpp"
#include "obs/trace.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tsbench {

using namespace tsteiner;

void Report::fail(const std::string& why, long long ops) {
  std::fprintf(stderr, "tsbench: FAILED: %s\n", why.c_str());
  failed += ops;
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"unit_cpu_s", "s"},
      {"op_cpu_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"wall.setup_s", "s"},
      {"wall.unit_s", "s"},
      {"wall.op_p50_ms", "ms"},
      {"wall.ops_per_s", "1/s"},
      {"wall.full_signoff_ms", "ms"},
      {"tape.record_ms", "ms"},
      {"tape.eval_replay_ms", "ms"},
      {"tape.grad_replay_ms", "ms"},
      {"tape.grad_replay_ms.w1", "ms"},
      {"tape.nodes", "count"},
      {"tape.value_mb", "MB"},
      {"tape.grad_mb", "MB"},
      {"tape.util", "x"},
      {"gnn.graph_cache_ms", "ms"},
      {"gnn.label_s", "s"},
      {"gnn.train_s", "s"},
      {"refine.iterations", "count"},
      {"refine.accepted", "count"},
      {"refine.probe_ms", "ms"},
      {"refine.probe_count", "count"},
      {"refine.util", "x"},
      {"route.global_ms", "ms"},
      {"route.rrr_rounds", "count"},
      {"route.overflow", "count"},
      {"route.util", "x"},
      {"droute.ms", "ms"},
      {"droute.util", "x"},
      {"sta.full_ms", "ms"},
      {"sta.util", "x"},
      {"inc.update_ms", "ms"},
      {"inc.dirty_nets", "count"},
      {"inc.rerouted", "count"},
      {"inc.maze_reused", "count"},
      {"inc.maze_total", "count"},
      {"inc.util", "x"},
      {"steiner.build_s", "s"},
      {"steiner.fallback_frac", "frac"},
      {"steiner.pretrain_s", "s"},
      {"steiner.util", "x"},
      {"place.s", "s"},
      {"netlist.generate_s", "s"},
      {"flow.construct_s", "s"},
      {"db.save_ms", "ms"},
      {"db.load_ms", "ms"},
      {"serve.open_p50_ms", "ms"},
      {"serve.whatif_p50_ms", "ms"},
      {"serve.wirelength_p50_ms", "ms"},
      {"serve.signoff_p50_ms", "ms"},
      {"serve.close_p50_ms", "ms"},
      {"serve.p99_ms", "ms"},
      {"serve.requests", "count"},
      {"serve.direct_whatif_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.batches", "count"},
      {"serve.mean_batch", "count"},
      {"serve.cache_loads", "count"},
      {"serve.cache_hits", "count"},
      {"serve.cache_evictions", "count"},
      {"serve.util", "x"},
      {"quality.wns_ns", "ns"},
      {"quality.tns_ns", "ns"},
      {"trace.overhead_frac", "frac"},
  };
  return specs;
}

double LayerStat::median_ms() const { return median(ms); }

double LayerStat::median_cpu_ms() const { return median(cpu_ms); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_metrics(const SignoffMetrics& a, const SignoffMetrics& b) {
  return same_bits(a.wns_ns, b.wns_ns) && same_bits(a.tns_ns, b.tns_ns) &&
         a.num_vios == b.num_vios && same_bits(a.wirelength_dbu, b.wirelength_dbu) &&
         a.num_vias == b.num_vias && a.num_drvs == b.num_drvs;
}

const CellLibrary& library() {
  static const CellLibrary lib = CellLibrary::make_default();
  return lib;
}

PlacedDesign make_design(int comb_cells, std::uint64_t design_id, const FlowOptions& options,
                         LayerStat& generate, LayerStat& place, LayerStat& flow) {
  GeneratorParams p;
  p.name = "tsbench_" + std::to_string(design_id);
  p.num_comb_cells = comb_cells;
  p.num_registers = std::max(4, comb_cells / 10);
  p.num_primary_inputs = 8;
  p.num_primary_outputs = 8;
  p.seed = Rng::mix(0x75be7c4, design_id);
  PlacedDesign out;
  time_layer("tsbench.netlist.generate", generate,
             [&] { out.design = std::make_unique<Design>(generate_design(library(), p)); });
  time_layer("tsbench.place", place, [&] { place_design(*out.design); });
  time_layer("tsbench.flow.construct", flow,
             [&] { out.flow = std::make_unique<Flow>(out.design.get(), options); });
  return out;
}

std::vector<int> movable_trees(const SteinerForest& forest) {
  std::vector<int> out;
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    if (forest.trees[t].num_steiner_nodes() > 0) out.push_back(static_cast<int>(t));
  }
  return out;
}

void measure_signoff_layers(const Flow& flow, const SteinerForest& forest, Report& report) {
  const Design& design = flow.design();
  const FlowOptions& opts = flow.options();
  LayerStat route, droute, sta, steiner;
  GlobalRouteResult gr;
  time_layer("tsbench.route.global", route,
             [&] { gr = global_route(design, forest, opts.router); });
  time_layer("tsbench.droute", droute,
             [&] { (void)detailed_route(design, forest, gr, opts.droute); });
  time_layer("tsbench.sta.full", sta, [&] { (void)run_sta(design, forest, &gr, opts.sta); });
  BatchBuildStats stats;
  time_layer("tsbench.steiner.build", steiner, [&] {
    (void)build_initial_forest(design, opts.steiner, opts.rsmt, &stats);
  });
  report.set("route.global_ms", route.median_ms());
  report.set("route.rrr_rounds", gr.rrr_rounds_used);
  report.set("route.overflow", gr.total_overflow);
  report.set("route.util", route.util());
  report.set("droute.ms", droute.median_ms());
  report.set("droute.util", droute.util());
  report.set("sta.full_ms", sta.median_ms());
  report.set("sta.util", sta.util());
  report.set("steiner.build_s", 1e-3 * steiner.median_ms());
  report.set("steiner.fallback_frac",
             stats.num_nets > 0 ? static_cast<double>(stats.num_fallback()) /
                                      static_cast<double>(stats.num_nets)
                                : 0.0);
  report.set("steiner.util", steiner.util());
}

double measure_pretrain_s() {
  LayerStat stat;
  time_layer("tsbench.steiner.pretrain", stat, [] {
    SteinerPredictor predictor(SteinerPredictorConfig{});
    predictor.pretrain();
  });
  return 1e-3 * stat.median_ms();
}

void IncStats::add(const IncrementalSignoff::Result& r) {
  dirty_nets += static_cast<long long>(r.num_dirty_nets);
  rerouted += static_cast<long long>(r.num_rerouted);
  maze_reused += r.reused_mazes;
  maze_total += r.total_mazes;
}

void report_inc(const IncStats& inc, Report& report) {
  const double n = static_cast<double>(std::max<std::size_t>(1, inc.update.ms.size()));
  report.set("inc.update_ms", inc.update.median_ms());
  report.set("inc.dirty_nets", static_cast<double>(inc.dirty_nets) / n);
  report.set("inc.rerouted", static_cast<double>(inc.rerouted) / n);
  report.set("inc.maze_reused", static_cast<double>(inc.maze_reused) / n);
  report.set("inc.maze_total", static_cast<double>(inc.maze_total) / n);
  report.set("inc.util", inc.update.util());
}

void start_trace(const Args& args) {
  obs::enable_trace("trace_" + args.workload + ".json");
}

void stop_trace() { obs::disable_trace(); }

// 0 means "not tracing"; a real timestamp is bumped to at least 1.
std::uint64_t trace_now_if_on() {
  return obs::trace_enabled() ? std::max<std::uint64_t>(1, obs::trace_clock_ns()) : 0;
}

void emit_layer_span(const char* span, std::uint64_t start_ns) {
  if (start_ns != 0 && obs::trace_enabled()) {
    obs::emit_span(span, "tsbench", start_ns, obs::trace_clock_ns());
  }
}

}  // namespace tsbench
