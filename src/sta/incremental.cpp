#include "sta/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace tsteiner {

CellArcTiming evaluate_cell_arcs(const Design& design, int cell_id,
                                 const std::vector<double>& arrival,
                                 const std::vector<double>& slew, double load) {
  const CellType& t = design.cell_type(cell_id);
  CellArcTiming out;
  for (int ip : design.cell(cell_id).input_pins) {
    const Pin& p = design.pin(ip);
    if (p.net < 0) continue;
    const TimingArc& arc = t.arcs[static_cast<std::size_t>(p.input_slot)];
    const double in_slew = slew[static_cast<std::size_t>(ip)];
    const double a = arrival[static_cast<std::size_t>(ip)] + arc.delay.lookup(in_slew, load);
    if (out.critical_input < 0 || a > out.arrival) {
      out.arrival = a;
      out.slew = arc.out_slew.lookup(in_slew, load);
      out.critical_input = ip;
    }
  }
  return out;
}

IncrementalSta::IncrementalSta(const Design& design, const StaOptions& options)
    : design_(&design), options_(options) {
  topo_order_ = design.combinational_topo_order();
  topo_index_.assign(design.cells().size(), -1);
  for (std::size_t i = 0; i < topo_order_.size(); ++i) {
    topo_index_[static_cast<std::size_t>(topo_order_[i])] = static_cast<int>(i);
  }
}

const StaResult& IncrementalSta::analyze(const SteinerForest& forest,
                                         const GlobalRouteResult* gr,
                                         const LayerAssignment* layers) {
  TS_TRACE_SPAN_CAT("sta.full", "sta");
  static obs::Counter& m_full_runs = obs::metrics().counter("sta.full_runs");
  m_full_runs.add();
  const Design& design = *design_;
  layers_ = layers;

  // Nets are independent: RC extraction + Elmore per net in parallel, each
  // writing only its own NetTiming slot. A net costs ~1k inner operations
  // (tree BFS, per-edge RC, Elmore, a few small allocations; measured
  // 1.1-1.5 us, see docs/parallelism.md).
  net_timing_.assign(design.nets().size(), {});
  parallel_for(0, design.nets().size(), 1024, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t ni = lo; ni < hi; ++ni) extract_net(forest, gr, static_cast<int>(ni));
  });

  result_ = StaResult{};
  result_.arrival.assign(design.pins().size(), 0.0);
  result_.slew.assign(design.pins().size(), kPrimaryInputSlewNs);
  // Startpoints: primary inputs keep arrival 0 and the primary-input slew,
  // registers launch through CK->Q; then every startpoint net feeds its sinks.
  for (const Cell& c : design.cells()) {
    if (design.is_register_cell(c.id)) launch_register(c.id);
  }
  for (const Net& n : design.nets()) {
    const Pin& drv = design.pin(n.driver_pin);
    if (drv.cell < 0 || design.is_register_cell(drv.cell)) propagate_net_sinks(n.id);
  }
  // Combinational cells in topological order: a cell reads the sinks its
  // drivers already wrote and feeds its own output net. Serial: at the
  // benchmark's largest design (4,408 nets) a cell costs ~300 ns and a
  // topological level holds 3 cells on average (155 at most), so per-level
  // chunks would not pay for a pool dispatch (docs/parallelism.md).
  for (int cid : topo_order_) {
    propagate_cell(cid);
    const int out_net = design.pin(design.cell(cid).output_pin).net;
    if (out_net >= 0) propagate_net_sinks(out_net);
  }

  result_.endpoints = design.endpoint_pins();
  fold_endpoints();
  fold_electrical_rules();
  last_cells_ = static_cast<long long>(design.cells().size());
  return result_;
}

bool IncrementalSta::extract_net(const SteinerForest& forest, const GlobalRouteResult* gr,
                                 int net_id) {
  const int t = forest.net_to_tree[static_cast<std::size_t>(net_id)];
  if (t < 0) return false;
  net_timing_[static_cast<std::size_t>(net_id)] =
      extract_net_timing(*design_, forest.trees[static_cast<std::size_t>(t)], gr, t, layers_);
  return true;
}

double IncrementalSta::load_of(int out_pin) const {
  const int net_id = design_->pin(out_pin).net;
  return net_id >= 0 ? net_timing_[static_cast<std::size_t>(net_id)].total_cap_pf : 0.0;
}

void IncrementalSta::launch_register(int cell_id) {
  const int out = design_->cell(cell_id).output_pin;
  const TimingArc& ck2q = design_->cell_type(cell_id).arcs[0];
  const double load = load_of(out);
  result_.arrival[static_cast<std::size_t>(out)] = ck2q.delay.lookup(kClockSourceSlewNs, load);
  result_.slew[static_cast<std::size_t>(out)] = ck2q.out_slew.lookup(kClockSourceSlewNs, load);
}

void IncrementalSta::propagate_cell(int cell_id) {
  const int out = design_->cell(cell_id).output_pin;
  const CellArcTiming t =
      evaluate_cell_arcs(*design_, cell_id, result_.arrival, result_.slew, load_of(out));
  result_.arrival[static_cast<std::size_t>(out)] = t.arrival;
  result_.slew[static_cast<std::size_t>(out)] = t.slew;
}

void IncrementalSta::propagate_net_sinks(int net_id) {
  const Net& net = design_->net(net_id);
  const NetTiming& nt = net_timing_[static_cast<std::size_t>(net_id)];
  const double da = result_.arrival[static_cast<std::size_t>(net.driver_pin)];
  const double ds = result_.slew[static_cast<std::size_t>(net.driver_pin)];
  for (std::size_t s = 0; s < net.sink_pins.size(); ++s) {
    const int sp = net.sink_pins[s];
    result_.arrival[static_cast<std::size_t>(sp)] = da + nt.sink_delay_ns[s];
    const double ramp = nt.sink_ramp_ns[s];
    result_.slew[static_cast<std::size_t>(sp)] = std::sqrt(ds * ds + ramp * ramp);
  }
}

void IncrementalSta::fold_endpoints() {
  // Serial, in endpoint order: the WNS/TNS fold must keep the historical
  // element order to stay bit-identical. max_arrival is rebuilt from scratch
  // (seed 0.0, the endpoint arrivals, then the grouping-invariant max over
  // every pin): folding from the previous value would let a stale maximum
  // survive after arrivals shrink.
  result_.endpoint_slack.clear();
  result_.wns = result_.endpoints.empty() ? 0.0 : std::numeric_limits<double>::infinity();
  result_.tns = 0.0;
  result_.num_violations = 0;
  result_.max_arrival = 0.0;
  for (int ep : result_.endpoints) {
    const double arrival = result_.arrival[static_cast<std::size_t>(ep)];
    const double slack = design_->required_time(ep) - arrival;
    result_.endpoint_slack.push_back(slack);
    result_.wns = std::min(result_.wns, slack);
    result_.tns += std::min(0.0, slack);
    if (slack < 0.0) ++result_.num_violations;
    result_.max_arrival = std::max(result_.max_arrival, arrival);
  }
  double max_pin_arrival = -std::numeric_limits<double>::infinity();
  for (const double a : result_.arrival) max_pin_arrival = std::max(max_pin_arrival, a);
  result_.max_arrival = std::max(result_.max_arrival, max_pin_arrival);
}

void IncrementalSta::fold_electrical_rules() {
  result_.num_slew_violations = 0;
  result_.num_cap_violations = 0;
  result_.worst_slew_ns = 0.0;
  result_.worst_cap_pf = 0.0;
  for (const Net& n : design_->nets()) {
    const double load = net_timing_[static_cast<std::size_t>(n.id)].total_cap_pf;
    result_.worst_cap_pf = std::max(result_.worst_cap_pf, load);
    if (load > options_.max_cap_pf) ++result_.num_cap_violations;
    for (int s : n.sink_pins) {
      const double slew = result_.slew[static_cast<std::size_t>(s)];
      result_.worst_slew_ns = std::max(result_.worst_slew_ns, slew);
      if (slew > options_.max_slew_ns) ++result_.num_slew_violations;
    }
  }
}

const StaResult& IncrementalSta::update(const SteinerForest& forest,
                                        const GlobalRouteResult* gr,
                                        const std::vector<int>& dirty_nets) {
  TS_TRACE_SPAN_CAT("sta.incremental_update", "sta");
  static obs::Counter& m_updates = obs::metrics().counter("sta.incremental_updates");
  m_updates.add();
  last_cells_ = 0;

  // Nothing moved: the cached result is already exact, so skip the endpoint
  // refresh and electrical rescan entirely.
  if (dirty_nets.empty()) return result_;

  // 1. Re-extract dirty nets; seed the worklist with their driver cells
  //    (load changed -> their output arrival changes) and re-propagate their
  //    sinks directly.
  // Worklist keyed by topological index so every cell is processed once and
  // after all its predecessors. Every enqueue targets a combinational sink
  // of the cell (or net) being processed, which sits strictly later in topo
  // order, so a flat queued bitmap swept forward once replaces an ordered
  // set — same processing order, no per-node allocation.
  std::vector<std::uint8_t> queued(topo_order_.size(), 0);
  std::size_t scan_from = topo_order_.size();
  auto enqueue_cell = [&](int cell_id) {
    const int ti = topo_index_[static_cast<std::size_t>(cell_id)];
    if (ti >= 0) {
      queued[static_cast<std::size_t>(ti)] = 1;
      scan_from = std::min(scan_from, static_cast<std::size_t>(ti));
    }
  };
  // Rewrites a net's sinks from its driver and queues their combinational
  // cells (registers have no topological index, so their D pins end the cone).
  auto feed_sinks = [&](int net_id) {
    propagate_net_sinks(net_id);
    for (int sp : design_->net(net_id).sink_pins) {
      const int cell = design_->pin(sp).cell;
      if (cell >= 0) enqueue_cell(cell);
    }
  };

  // Callers assembling dirty lists from per-move records routinely repeat a
  // net (several Steiner points of one tree moved) or include sinkless nets.
  // Re-extracting a net twice would double-propagate its sinks through the
  // worklist seeding below, so dedup here; sinkless nets carry no timing.
  std::vector<std::uint8_t> seen(design_->nets().size(), 0);
  for (int net_id : dirty_nets) {
    if (seen[static_cast<std::size_t>(net_id)]) continue;
    seen[static_cast<std::size_t>(net_id)] = 1;
    if (design_->net(net_id).sink_pins.empty()) continue;
    if (!extract_net(forest, gr, net_id)) continue;
    const Pin& drv = design_->pin(design_->net(net_id).driver_pin);
    if (drv.cell >= 0) {
      // The driver's delay changed via the load: a register relaunches CK->Q
      // now, a combinational cell is re-evaluated by the sweep.
      if (design_->is_register_cell(drv.cell)) {
        launch_register(drv.cell);
      } else {
        enqueue_cell(drv.cell);
      }
    }
    // Sinks see new wire delays even if the driver arrival is unchanged.
    feed_sinks(net_id);
  }

  // 2. Forward sweep in topological order with change pruning. Pruning on
  //    bit equality (not an epsilon) keeps the update exact: a cached output
  //    that recomputes to the identical bits proves the cached downstream
  //    cone is still consistent, so skipping it cannot diverge from analyze.
  for (std::size_t ti = scan_from; ti < queued.size(); ++ti) {
    if (queued[ti] == 0) continue;
    const int cell_id = topo_order_[ti];
    ++last_cells_;
    const int out = design_->cell(cell_id).output_pin;
    const double old_a = result_.arrival[static_cast<std::size_t>(out)];
    const double old_s = result_.slew[static_cast<std::size_t>(out)];
    propagate_cell(cell_id);
    if (result_.arrival[static_cast<std::size_t>(out)] == old_a &&
        result_.slew[static_cast<std::size_t>(out)] == old_s) {
      continue;
    }
    const int out_net = design_->pin(out).net;
    if (out_net >= 0) feed_sinks(out_net);
  }

  // 3. Endpoint metrics + electrical checks over the final state.
  fold_endpoints();
  fold_electrical_rules();
  TS_DEBUG("STA update: %zu dirty nets, %lld cells re-evaluated", dirty_nets.size(), last_cells_);
  static obs::Counter& m_cells = obs::metrics().counter("sta.incremental_cells");
  m_cells.add(static_cast<std::uint64_t>(std::max<long long>(0, last_cells_)));
  return result_;
}

}  // namespace tsteiner
