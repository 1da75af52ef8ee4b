#include "flow/flow.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "steiner/edge_shift.hpp"
#include "util/log.hpp"

namespace tsteiner {

namespace {

/// Congestion cost of an L-route between two points, sampled on the grid;
/// used to drive edge shifting toward less congested regions.
double l_route_congestion(const GridGraph& grid, const PointF& a, const PointF& b) {
  GCell ga = grid.gcell_at(a);
  const GCell gb = grid.gcell_at(b);
  double cost = 0.0;
  // x-first walk; congestion starts costing at 50% utilization, like
  // FastRoute's aggressive congestion-driven shifting.
  while (ga.x != gb.x) {
    const GCell next{ga.x + (gb.x > ga.x ? 1 : -1), ga.y};
    cost += std::max(0.0, grid.congestion_between(ga, next) - 0.3);
    ga = next;
  }
  while (ga.y != gb.y) {
    const GCell next{ga.x, ga.y + (gb.y > ga.y ? 1 : -1)};
    cost += std::max(0.0, grid.congestion_between(ga, next) - 0.3);
    ga = next;
  }
  return cost;
}

/// Content fingerprint of a (design, forest, router options) triple — the
/// complete input set of the probe route. Two independent 64-bit FNV streams
/// over the forest coordinates keep the collision probability negligible.
struct ProbeKey {
  std::string design_name;
  std::size_t num_cells = 0;
  std::size_t num_nets = 0;
  std::size_t num_pins = 0;
  std::size_t num_trees = 0;
  RectI die{};
  std::int64_t gcell_size = 0;
  double capacity_factor = 0.0;
  double min_capacity = 0.0;
  int rrr_iterations = 0;
  double history_increment = 0.0;
  int maze_margin = 0;
  std::uint64_t coord_hash_a = 0;
  std::uint64_t coord_hash_b = 0;

  bool operator==(const ProbeKey& o) const {
    return design_name == o.design_name && num_cells == o.num_cells && num_nets == o.num_nets &&
           num_pins == o.num_pins && num_trees == o.num_trees && die.lo.x == o.die.lo.x &&
           die.lo.y == o.die.lo.y && die.hi.x == o.die.hi.x && die.hi.y == o.die.hi.y &&
           gcell_size == o.gcell_size && capacity_factor == o.capacity_factor &&
           min_capacity == o.min_capacity && rrr_iterations == o.rrr_iterations &&
           history_increment == o.history_increment && maze_margin == o.maze_margin &&
           coord_hash_a == o.coord_hash_a && coord_hash_b == o.coord_hash_b;
  }
};

ProbeKey make_probe_key(const Design& design, const SteinerForest& forest,
                        const RouterOptions& probe) {
  ProbeKey key;
  key.design_name = design.name();
  key.num_cells = design.cells().size();
  key.num_nets = design.nets().size();
  key.num_pins = design.pins().size();
  key.num_trees = forest.trees.size();
  key.die = design.die();
  key.gcell_size = probe.gcell_size;
  key.capacity_factor = probe.capacity_factor;
  key.min_capacity = probe.min_capacity;
  key.rrr_iterations = probe.rrr_iterations;
  key.history_increment = probe.history_increment;
  key.maze_margin = probe.maze_margin;
  // Two FNV-1a streams with different offsets/primes over the exact node
  // bits (doubles bit-cast to u64) plus per-tree structure.
  std::uint64_t ha = 1469598103934665603ull;
  std::uint64_t hb = 0x9e3779b97f4a7c15ull;
  auto mix = [&](std::uint64_t v) {
    ha = (ha ^ v) * 1099511628211ull;
    hb ^= v + 0x9e3779b97f4a7c15ull + (hb << 6) + (hb >> 2);
  };
  for (const SteinerTree& tree : forest.trees) {
    mix(static_cast<std::uint64_t>(tree.net));
    mix(tree.nodes.size());
    mix(tree.edges.size());
    for (const SteinerNode& n : tree.nodes) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &n.pos.x, sizeof(bits));
      mix(bits);
      std::memcpy(&bits, &n.pos.y, sizeof(bits));
      mix(bits);
    }
  }
  key.coord_hash_a = ha;
  key.coord_hash_b = hb;
  return key;
}

/// Process-wide LRU of probe routes. Benchmarks and tests construct many
/// Flows over the same (design, forest) — the probe global route is the
/// dominant construction cost and is a pure function of the key above, so
/// repeated construction reuses the first result. Entries are shared_ptr so
/// an evicted entry stays alive while a Flow constructor still reads it.
const GlobalRouteResult* probe_route_cached(
    const Design& design, const SteinerForest& forest, const RouterOptions& probe,
    std::shared_ptr<const GlobalRouteResult>& holder) {
  struct Entry {
    ProbeKey key;
    std::shared_ptr<const GlobalRouteResult> route;
  };
  static std::mutex mu;
  static std::vector<Entry> cache;  // front = most recently used
  constexpr std::size_t kMaxEntries = 4;

  static obs::Counter& m_hits = obs::metrics().counter("flow.probe_cache_hits");
  static obs::Counter& m_misses = obs::metrics().counter("flow.probe_cache_misses");

  const ProbeKey key = make_probe_key(design, forest, probe);
  {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < cache.size(); ++i) {
      if (cache[i].key == key) {
        holder = cache[i].route;
        if (i != 0) std::rotate(cache.begin(), cache.begin() + static_cast<long>(i),
                                cache.begin() + static_cast<long>(i) + 1);
        m_hits.add();
        return holder.get();
      }
    }
  }
  m_misses.add();
  holder = std::make_shared<const GlobalRouteResult>(global_route(design, forest, probe));
  {
    std::lock_guard<std::mutex> lock(mu);
    // Double-checked insert: concurrent constructors of the same (design,
    // forest) both compute on a miss (the route is a pure function, so both
    // results are identical); adopt the first inserted entry instead of
    // letting duplicates crowd other keys out of the small LRU.
    for (std::size_t i = 0; i < cache.size(); ++i) {
      if (cache[i].key == key) {
        holder = cache[i].route;
        return holder.get();
      }
    }
    cache.insert(cache.begin(), Entry{key, holder});
    if (cache.size() > kMaxEntries) cache.resize(kMaxEntries);
  }
  return holder.get();
}

}  // namespace

Flow::Flow(Design* design, const FlowOptions& options)
    : design_(design), options_(options) {
  TS_TRACE_SPAN("flow.calibrate");
  // 1. Initial Steiner trees (FLUTE substitute): one batched predictor
  //    forward over the whole design by default, per-net exact on request
  //    (and as the in-batch fallback for small/invariant-failing nets).
  initial_forest_ = build_initial_forest(*design_, options_.steiner, options_.rsmt);

  // 2. Clock calibration from a pre-routing STA so every design starts with
  //    realistic negative slack (the paper's designs all violate timing).
  const StaResult pre = run_sta(*design_, initial_forest_, nullptr, options_.sta);
  design_->set_clock_period(std::max(0.05, kClockTightness * pre.max_arrival));

  // 3. Probe route on the raw forest: calibrates capacities (pinned for all
  //    later runs) and provides the congestion map for edge shifting. The
  //    probe is a pure function of (design, forest, probe options), so
  //    repeated Flow construction on the same inputs (benchmarks, fuzz
  //    cases, snapshot round-trips) reuses a process-wide cached result.
  RouterOptions probe = options_.router;
  probe.fixed_h_cap = 0.0;
  probe.fixed_v_cap = 0.0;
  std::shared_ptr<const GlobalRouteResult> probe_holder;
  const GlobalRouteResult& probe_route =
      *probe_route_cached(*design_, initial_forest_, probe, probe_holder);
  options_.router.fixed_h_cap = probe_route.calibrated_h_cap;
  options_.router.fixed_v_cap = probe_route.calibrated_v_cap;

  // 4. Edge shifting [17] against the probe congestion.
  if (options_.edge_shifting) {
    const GridGraph& grid = probe_route.grid;
    const int moves = edge_shift_forest(
        initial_forest_,
        [&grid](const PointF& a, const PointF& b) { return l_route_congestion(grid, a, b); });
    TS_VERBOSE("%s: edge shifting moved %d Steiner points", design_->name().c_str(), moves);
  }
  initial_forest_.build_movable_index();
}

Flow Flow::from_snapshot(Design* design, const FlowOptions& options,
                         const FlowCalibration& cal, SteinerForest initial_forest) {
  FlowOptions opts = options;
  opts.router.fixed_h_cap = cal.fixed_h_cap;
  opts.router.fixed_v_cap = cal.fixed_v_cap;
  design->set_clock_period(cal.clock_period_ns);
  initial_forest.build_movable_index();
  return Flow(design, opts, std::move(initial_forest));
}

SignoffMetrics signoff_metrics(const StaResult& sta, const DetailedRouteResult& dr) {
  SignoffMetrics m;
  m.wns_ns = sta.wns;
  m.tns_ns = sta.tns;
  m.num_vios = sta.num_violations;
  m.wirelength_dbu = dr.wirelength_dbu;
  m.num_vias = dr.num_vias;
  m.num_drvs = dr.num_drvs;
  return m;
}

FlowResult Flow::run_signoff(const SteinerForest& forest) const {
  FlowResult r;
  {
    obs::ScopedPhase phase("flow.global_route", &r.runtime.global_route);
    r.gr = global_route(*design_, forest, options_.router);
  }
  DetailedRouteResult dr;
  {
    obs::ScopedPhase phase("flow.detailed_route", &r.runtime.detailed_route);
    dr = detailed_route(*design_, forest, r.gr, options_.droute);
  }
  {
    obs::ScopedPhase phase("flow.sta", &r.runtime.sta);
    r.sta = run_sta(*design_, forest, &r.gr, options_.sta);
  }

  r.metrics = signoff_metrics(r.sta, dr);
  return r;
}

StaResult Flow::run_preroute_sta(const SteinerForest& forest) const {
  return run_sta(*design_, forest, nullptr, options_.sta);
}

}  // namespace tsteiner
