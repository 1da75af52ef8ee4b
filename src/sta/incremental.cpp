#include "sta/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace tsteiner {

IncrementalSta::IncrementalSta(const Design& design, const StaOptions& options)
    : design_(&design), options_(options) {
  sink_slot_.assign(design.pins().size(), -1);
  for (const Net& n : design.nets()) {
    for (std::size_t s = 0; s < n.sink_pins.size(); ++s) {
      sink_slot_[static_cast<std::size_t>(n.sink_pins[s])] = static_cast<int>(s);
    }
  }
  topo_order_ = design.combinational_topo_order();
  topo_index_.assign(design.cells().size(), -1);
  for (std::size_t i = 0; i < topo_order_.size(); ++i) {
    topo_index_[static_cast<std::size_t>(topo_order_[i])] = static_cast<int>(i);
  }
}

const StaResult& IncrementalSta::analyze(const SteinerForest& forest,
                                         const GlobalRouteResult* gr) {
  TS_TRACE_SPAN_CAT("sta.incremental_analyze", "sta");
  forest_ = &forest;
  gr_ = gr;
  result_ = run_sta(*design_, forest, gr, options_);
  // Cache the per-net timing for incremental updates.
  net_timing_.assign(design_->nets().size(), {});
  for (const Net& n : design_->nets()) {
    const int t = forest.net_to_tree[static_cast<std::size_t>(n.id)];
    if (t < 0) continue;
    net_timing_[static_cast<std::size_t>(n.id)] =
        extract_net_timing(*design_, forest.trees[static_cast<std::size_t>(t)], gr, t);
  }
  last_cells_ = static_cast<long long>(design_->cells().size());
  return result_;
}

void IncrementalSta::propagate_net_sinks(int net_id, std::vector<int>& touched_cells) {
  const Net& net = design_->net(net_id);
  const NetTiming& nt = net_timing_[static_cast<std::size_t>(net_id)];
  const double da = result_.arrival[static_cast<std::size_t>(net.driver_pin)];
  const double ds = result_.slew[static_cast<std::size_t>(net.driver_pin)];
  for (std::size_t s = 0; s < net.sink_pins.size(); ++s) {
    const int sp = net.sink_pins[s];
    result_.arrival[static_cast<std::size_t>(sp)] = da + nt.sink_delay_ns[s];
    const double ramp = nt.sink_ramp_ns[s];
    result_.slew[static_cast<std::size_t>(sp)] = std::sqrt(ds * ds + ramp * ramp);
    const Pin& p = design_->pin(sp);
    if (p.cell >= 0 && !design_->is_register_cell(p.cell)) touched_cells.push_back(p.cell);
  }
}

void IncrementalSta::propagate_cell(int cell_id) {
  const Cell& c = design_->cell(cell_id);
  const CellType& t = design_->cell_type(cell_id);
  const int out_net = design_->pin(c.output_pin).net;
  const double load =
      out_net >= 0 ? net_timing_[static_cast<std::size_t>(out_net)].total_cap_pf : 0.0;
  double out_arrival = 0.0;
  double out_slew = kPrimaryInputSlewNs;
  bool any = false;
  for (int ip : c.input_pins) {
    if (design_->pin(ip).net < 0) continue;
    const int slot = design_->pin(ip).input_slot;
    const TimingArc& arc = t.arcs[static_cast<std::size_t>(slot)];
    const double in_slew = result_.slew[static_cast<std::size_t>(ip)];
    const double a =
        result_.arrival[static_cast<std::size_t>(ip)] + arc.delay.lookup(in_slew, load);
    if (!any || a > out_arrival) {
      out_arrival = a;
      out_slew = arc.out_slew.lookup(in_slew, load);
      any = true;
    }
  }
  result_.arrival[static_cast<std::size_t>(c.output_pin)] = out_arrival;
  result_.slew[static_cast<std::size_t>(c.output_pin)] = out_slew;
}

void IncrementalSta::refresh_endpoints() {
  result_.endpoint_slack.clear();
  result_.wns = result_.endpoints.empty() ? 0.0 : std::numeric_limits<double>::infinity();
  result_.tns = 0.0;
  result_.num_violations = 0;
  // Rebuild max_arrival from scratch exactly as run_sta does: seed 0.0, fold
  // the endpoint arrivals in endpoint order, then take the grouping-invariant
  // max over every pin arrival (folding from the previous value instead
  // would let a stale maximum survive after arrivals shrink).
  result_.max_arrival = 0.0;
  for (int ep : result_.endpoints) {
    const double arrival = result_.arrival[static_cast<std::size_t>(ep)];
    double required = design_->clock_period();
    if (design_->pin(ep).kind == PinKind::kCellInput) {
      required -= design_->cell_type(design_->pin(ep).cell).setup_ns;
    }
    const double slack = required - arrival;
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

const StaResult& IncrementalSta::update(const SteinerForest& forest,
                                        const GlobalRouteResult* gr,
                                        const std::vector<int>& dirty_nets) {
  TS_TRACE_SPAN_CAT("sta.incremental_update", "sta");
  static obs::Counter& m_updates = obs::metrics().counter("sta.incremental_updates");
  m_updates.add();
  forest_ = &forest;
  gr_ = gr;
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

  // Callers assembling dirty lists from per-move records routinely repeat a
  // net (several Steiner points of one tree moved) or include sinkless nets.
  // Re-extracting a net twice would double-propagate its sinks through the
  // worklist seeding below, so dedup here; sinkless nets carry no timing.
  std::vector<std::uint8_t> seen(design_->nets().size(), 0);
  for (int net_id : dirty_nets) {
    if (seen[static_cast<std::size_t>(net_id)]) continue;
    seen[static_cast<std::size_t>(net_id)] = 1;
    if (design_->net(net_id).sink_pins.empty()) continue;
    const int t = forest.net_to_tree[static_cast<std::size_t>(net_id)];
    if (t < 0) continue;
    net_timing_[static_cast<std::size_t>(net_id)] =
        extract_net_timing(*design_, forest.trees[static_cast<std::size_t>(t)], gr, t);
    const Net& net = design_->net(net_id);
    const Pin& drv = design_->pin(net.driver_pin);
    if (drv.cell >= 0) {
      if (design_->is_register_cell(drv.cell)) {
        // CK->Q arrival depends on the (changed) load.
        const CellType& ct = design_->cell_type(drv.cell);
        const double load = net_timing_[static_cast<std::size_t>(net_id)].total_cap_pf;
        result_.arrival[static_cast<std::size_t>(net.driver_pin)] =
            ct.arcs[0].delay.lookup(kClockSourceSlewNs, load);
        result_.slew[static_cast<std::size_t>(net.driver_pin)] =
            ct.arcs[0].out_slew.lookup(kClockSourceSlewNs, load);
      } else {
        enqueue_cell(drv.cell);  // its cell delay changed via the load
      }
    }
    // Sinks see new wire delays even if the driver arrival is unchanged.
    seed_touched_.clear();
    propagate_net_sinks(net_id, seed_touched_);
    for (int cell : seed_touched_) enqueue_cell(cell);
  }

  // 2. Forward sweep in topological order with change pruning. Pruning on
  //    bit equality (not an epsilon) keeps the update exact: a cached output
  //    that recomputes to the identical bits proves the cached downstream
  //    cone is still consistent, so skipping it cannot diverge from run_sta.
  std::vector<int> touched;
  for (std::size_t ti = scan_from; ti < queued.size(); ++ti) {
    if (queued[ti] == 0) continue;
    const int cell_id = topo_order_[ti];
    ++last_cells_;
    const Cell& c = design_->cell(cell_id);
    const double old_a = result_.arrival[static_cast<std::size_t>(c.output_pin)];
    const double old_s = result_.slew[static_cast<std::size_t>(c.output_pin)];
    propagate_cell(cell_id);
    const double new_a = result_.arrival[static_cast<std::size_t>(c.output_pin)];
    const double new_s = result_.slew[static_cast<std::size_t>(c.output_pin)];
    if (new_a == old_a && new_s == old_s) continue;
    const int out_net = design_->pin(c.output_pin).net;
    if (out_net < 0) continue;
    touched.clear();
    propagate_net_sinks(out_net, touched);
    for (int cell : touched) enqueue_cell(cell);
  }

  // 3. Endpoint metrics + electrical checks over the final state, in the
  //    full run's net order.
  refresh_endpoints();
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
  TS_DEBUG("STA update: %zu dirty nets, %lld cells re-evaluated", dirty_nets.size(), last_cells_);
  static obs::Counter& m_cells = obs::metrics().counter("sta.incremental_cells");
  m_cells.add(static_cast<std::uint64_t>(std::max<long long>(0, last_cells_)));
  return result_;
}

}  // namespace tsteiner
