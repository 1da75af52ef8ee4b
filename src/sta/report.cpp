#include "sta/report.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "sta/incremental.hpp"

namespace tsteiner {

namespace {

/// Load seen by a driver pin (0 when its net has no tree).
double driver_load(const Design& design, const SteinerForest& forest,
                   const GlobalRouteResult* gr, int pin_id) {
  const int net_id = design.pin(pin_id).net;
  if (net_id < 0) return 0.0;
  const int t = forest.net_to_tree[static_cast<std::size_t>(net_id)];
  if (t < 0) return 0.0;
  return extract_net_timing(design, forest.trees[static_cast<std::size_t>(t)], gr, t)
      .total_cap_pf;
}

}  // namespace

std::vector<TimingPath> extract_critical_paths(const Design& design,
                                               const SteinerForest& forest,
                                               const GlobalRouteResult* gr,
                                               const StaResult& sta, int k) {
  // Rank endpoints by slack.
  std::vector<std::size_t> order(sta.endpoints.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sta.endpoint_slack[a] < sta.endpoint_slack[b];
  });

  std::vector<TimingPath> paths;
  for (std::size_t rank = 0; rank < order.size() && static_cast<int>(paths.size()) < k;
       ++rank) {
    TimingPath path;
    path.endpoint = sta.endpoints[order[rank]];
    path.slack_ns = sta.endpoint_slack[order[rank]];

    int cur = path.endpoint;
    bool through_net = true;  // endpoints are reached via a net arc
    while (true) {
      PathStep step;
      step.pin = cur;
      step.arrival_ns = sta.arrival[static_cast<std::size_t>(cur)];
      step.through_net = through_net;
      path.steps.push_back(step);

      const Pin& p = design.pin(cur);
      if (p.kind == PinKind::kPrimaryInput) break;
      if (p.kind == PinKind::kCellOutput && design.is_register_cell(p.cell)) break;

      if (!p.is_output()) {
        // Sink pin: predecessor is the net driver.
        if (p.net < 0) break;
        cur = design.net(p.net).driver_pin;
        through_net = true;
        continue;
      }
      // Combinational output: the input whose arc set this output's arrival
      // in the engine's own cell-arc evaluation (the critical arc).
      const int best_in =
          evaluate_cell_arcs(design, p.cell, sta.arrival, sta.slew,
                             driver_load(design, forest, gr, cur))
              .critical_input;
      if (best_in < 0) break;
      cur = best_in;
      through_net = false;
    }
    std::reverse(path.steps.begin(), path.steps.end());
    // Arc increments from consecutive arrivals.
    for (std::size_t i = 1; i < path.steps.size(); ++i) {
      path.steps[i].incr_ns = path.steps[i].arrival_ns - path.steps[i - 1].arrival_ns;
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

std::string format_path(const Design& design, const TimingPath& path) {
  std::ostringstream os;
  os << "endpoint pin " << path.endpoint << "  slack " << path.slack_ns << " ns\n";
  for (const PathStep& s : path.steps) {
    const Pin& p = design.pin(s.pin);
    const char* kind = "port";
    if (p.cell >= 0) kind = design.cell(p.cell).name.c_str();
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-28s pin %-6d %s  arrival %8.4f  incr %8.4f\n", kind,
                  s.pin, s.through_net ? "(net) " : "(cell)", s.arrival_ns, s.incr_ns);
    os << buf;
  }
  return os.str();
}

}  // namespace tsteiner
