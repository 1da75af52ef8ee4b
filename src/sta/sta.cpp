#include "sta/sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace tsteiner {

double StaResult::slack_of(int pin_id) const {
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    if (endpoints[i] == pin_id) return endpoint_slack[i];
  }
  throw std::runtime_error("pin is not a timing endpoint");
}

StaResult run_sta(const Design& design, const SteinerForest& forest,
                  const GlobalRouteResult* gr, const StaOptions& options,
                  const LayerAssignment* layers) {
  TS_TRACE_SPAN_CAT("sta.full", "sta");
  static obs::Counter& m_full_runs = obs::metrics().counter("sta.full_runs");
  m_full_runs.add();
  const std::size_t num_pins = design.pins().size();
  StaResult res;
  res.arrival.assign(num_pins, 0.0);
  res.slew.assign(num_pins, options.primary_input_slew);

  // --- net timing for every net with a tree --------------------------------
  // Nets are independent: RC extraction + Elmore per net in parallel, each
  // writing only its own NetTiming slot. A net costs ~1k inner operations
  // (tree BFS, per-edge RC, Elmore, a few small allocations; measured
  // 1.1-1.5 us, see docs/parallelism.md).
  std::vector<NetTiming> net_timing(design.nets().size());
  parallel_for(0, design.nets().size(), 1024, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t ni = lo; ni < hi; ++ni) {
      const Net& n = design.nets()[ni];
      const int t = forest.net_to_tree[static_cast<std::size_t>(n.id)];
      if (t < 0) continue;
      net_timing[static_cast<std::size_t>(n.id)] =
          extract_net_timing(design, forest.trees[static_cast<std::size_t>(t)], gr, t, layers);
    }
  });
  // Where is each sink pin inside its net's sink list?
  std::vector<int> sink_slot(num_pins, -1);
  for (const Net& n : design.nets()) {
    for (std::size_t s = 0; s < n.sink_pins.size(); ++s) {
      sink_slot[static_cast<std::size_t>(n.sink_pins[s])] = static_cast<int>(s);
    }
  }

  auto net_load = [&](int out_pin) {
    const int net_id = design.pin(out_pin).net;
    if (net_id < 0) return 0.0;
    return net_timing[static_cast<std::size_t>(net_id)].total_cap_pf;
  };

  // Arrival/slew at a sink pin given its driver pin's arrival/slew.
  auto propagate_net_to_sink = [&](int sink_pin) {
    const Pin& sp = design.pin(sink_pin);
    const NetTiming& nt = net_timing[static_cast<std::size_t>(sp.net)];
    const int driver = design.net(sp.net).driver_pin;
    const int slot = sink_slot[static_cast<std::size_t>(sink_pin)];
    const double d = nt.sink_delay_ns[static_cast<std::size_t>(slot)];
    const double ramp = nt.sink_ramp_ns[static_cast<std::size_t>(slot)];
    res.arrival[static_cast<std::size_t>(sink_pin)] =
        res.arrival[static_cast<std::size_t>(driver)] + d;
    const double ds = res.slew[static_cast<std::size_t>(driver)];
    res.slew[static_cast<std::size_t>(sink_pin)] = std::sqrt(ds * ds + ramp * ramp);
  };

  // --- startpoints ----------------------------------------------------------
  for (const Pin& p : design.pins()) {
    if (p.kind == PinKind::kPrimaryInput) {
      res.arrival[static_cast<std::size_t>(p.id)] = 0.0;
      res.slew[static_cast<std::size_t>(p.id)] = options.primary_input_slew;
    }
  }
  // Register CK->Q startpoints.
  for (const Cell& c : design.cells()) {
    if (!design.is_register_cell(c.id)) continue;
    const CellType& t = design.cell_type(c.id);
    const TimingArc& ck2q = t.arcs[0];
    const double load = net_load(c.output_pin);
    res.arrival[static_cast<std::size_t>(c.output_pin)] =
        ck2q.delay.lookup(options.clock_source_slew, load);
    res.slew[static_cast<std::size_t>(c.output_pin)] =
        ck2q.out_slew.lookup(options.clock_source_slew, load);
  }

  // --- combinational propagation, in topological order -----------------------
  // A cell reads the arrivals of its drivers (earlier in the order, or
  // startpoints) and writes only its own input-sink and output pins.
  auto propagate_cell = [&](int cid) {
    const Cell& c = design.cell(cid);
    const CellType& t = design.cell_type(cid);
    const double load = net_load(c.output_pin);
    double out_arrival = 0.0;
    double out_slew = options.primary_input_slew;
    bool any = false;
    for (int in_pin : c.input_pins) {
      if (design.pin(in_pin).net < 0) continue;
      propagate_net_to_sink(in_pin);
      const int slot = design.pin(in_pin).input_slot;
      const TimingArc& arc = t.arcs[static_cast<std::size_t>(slot)];
      const double in_slew = res.slew[static_cast<std::size_t>(in_pin)];
      const double a =
          res.arrival[static_cast<std::size_t>(in_pin)] + arc.delay.lookup(in_slew, load);
      if (!any || a > out_arrival) {
        out_arrival = a;
        out_slew = arc.out_slew.lookup(in_slew, load);
        any = true;
      }
    }
    res.arrival[static_cast<std::size_t>(c.output_pin)] = out_arrival;
    res.slew[static_cast<std::size_t>(c.output_pin)] = out_slew;
  };

  // Serial: at the benchmark's largest design (4,408 nets) a cell costs
  // ~300 ns and a topological level holds 3 cells on average (155 at most),
  // so per-level chunks would not pay for a pool dispatch (measurements in
  // docs/parallelism.md).
  for (int cid : design.combinational_topo_order()) propagate_cell(cid);

  // --- endpoints -------------------------------------------------------------
  // Serial, in endpoint order: the WNS/TNS fold must keep the historical
  // element order to stay bit-identical.
  res.endpoints = design.endpoint_pins();
  res.endpoint_slack.assign(res.endpoints.size(), 0.0);
  res.wns = res.endpoints.empty() ? 0.0 : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < res.endpoints.size(); ++i) {
    const int ep = res.endpoints[i];
    if (design.pin(ep).net >= 0) propagate_net_to_sink(ep);
    double required = design.clock_period();
    if (design.pin(ep).kind == PinKind::kCellInput) {
      required -= design.cell_type(design.pin(ep).cell).setup_ns;
    }
    const double arrival = res.arrival[static_cast<std::size_t>(ep)];
    const double slack = required - arrival;
    res.endpoint_slack[i] = slack;
    res.wns = std::min(res.wns, slack);
    res.tns += std::min(0.0, slack);
    if (slack < 0.0) ++res.num_violations;
    res.max_arrival = std::max(res.max_arrival, arrival);
  }
  // max over all pins.
  double max_pin_arrival = -std::numeric_limits<double>::infinity();
  for (const double a : res.arrival) max_pin_arrival = std::max(max_pin_arrival, a);
  res.max_arrival = std::max(res.max_arrival, max_pin_arrival);

  // --- electrical rule checks -------------------------------------------------
  for (const Net& n : design.nets()) {
    const double load = net_timing[static_cast<std::size_t>(n.id)].total_cap_pf;
    res.worst_cap_pf = std::max(res.worst_cap_pf, load);
    if (load > options.max_cap_pf) ++res.num_cap_violations;
    for (int s : n.sink_pins) {
      const double slew = res.slew[static_cast<std::size_t>(s)];
      res.worst_slew_ns = std::max(res.worst_slew_ns, slew);
      if (slew > options.max_slew_ns) ++res.num_slew_violations;
    }
  }
  return res;
}

}  // namespace tsteiner
