// Sign-off analysis walkthrough: runs the golden flow on one design and
// exercises the analysis/optimization toolkit around it — critical-path
// reports, electrical rule checks, metal-layer assignment, van Ginneken
// buffering, and incremental STA for fast what-if probing.
#include <cstdio>

#include "flow/flow.hpp"
#include "netlist/design_generator.hpp"
#include "opt/buffering.hpp"
#include "place/placer.hpp"
#include "route/layer_assign.hpp"
#include "sta/incremental.hpp"
#include "sta/report.hpp"
#include "steiner/rsmt.hpp"
#include "util/timer.hpp"

using namespace tsteiner;

int main() {
  const CellLibrary lib = CellLibrary::make_default();
  GeneratorParams params;
  params.name = "signoff_demo";
  params.num_comb_cells = 1500;
  params.num_registers = 180;
  params.num_primary_inputs = 16;
  params.num_primary_outputs = 16;
  params.seed = 21;
  Design design = generate_design(lib, params);
  place_design(design);
  Flow flow(&design);
  const FlowResult fr = flow.run_signoff(flow.initial_forest());
  std::printf("sign-off: WNS %.3f ns, TNS %.1f ns, %lld violations of %zu endpoints\n",
              fr.metrics.wns_ns, fr.metrics.tns_ns, fr.metrics.num_vios,
              design.endpoint_pins().size());
  std::printf("electrical: %lld slew / %lld cap violations (worst %.3f ns / %.4f pF)\n\n",
              fr.sta.num_slew_violations, fr.sta.num_cap_violations, fr.sta.worst_slew_ns,
              fr.sta.worst_cap_pf);

  // 1. Report the two worst paths.
  const auto paths =
      extract_critical_paths(design, flow.initial_forest(), &fr.gr, fr.sta, 2);
  for (const TimingPath& p : paths) {
    std::printf("%s\n", format_path(design, p).c_str());
  }

  // 2. Metal-layer assignment: how much does the layer stack buy?
  const auto crit = connection_criticality(design, flow.initial_forest(), fr.gr,
                                           fr.sta.arrival);
  const LayerAssignment wl_pol =
      assign_layers(flow.initial_forest(), fr.gr, LayerPolicy::kWirelength);
  const LayerAssignment td_pol =
      assign_layers(flow.initial_forest(), fr.gr, LayerPolicy::kTimingDriven, &crit);
  const StaResult sta_wl = run_sta(design, flow.initial_forest(), &fr.gr, {}, &wl_pol);
  const StaResult sta_td = run_sta(design, flow.initial_forest(), &fr.gr, {}, &td_pol);
  std::printf("layer assignment: single-layer WNS %.3f | WL-driven %.3f | "
              "timing-driven %.3f (ns)\n\n",
              fr.sta.wns, sta_wl.wns, sta_td.wns);

  // 3. Buffer the worst path's nets (van Ginneken).
  long long buffers = 0;
  if (!paths.empty()) {
    for (const PathStep& step : paths[0].steps) {
      if (!step.through_net) continue;
      const int net = design.pin(step.pin).net;
      if (net < 0) continue;
      const int t = flow.initial_forest().net_to_tree[static_cast<std::size_t>(net)];
      if (t < 0) continue;
      const SteinerTree& tree = flow.initial_forest().trees[static_cast<std::size_t>(t)];
      const BufferingPlan plan = plan_buffering(design, tree);
      if (plan.buffers.empty()) continue;
      buffers += static_cast<long long>(apply_buffering(design, plan, tree).size());
      break;  // buffer the first improvable net of the worst path
    }
  }
  // Buffering added cells, pins and nets, so the flow's forest no longer
  // covers the design: everything after this point uses a rebuilt one.
  SteinerForest probe = buffers > 0 ? build_forest(design) : flow.initial_forest();
  if (buffers > 0) {
    const StaResult after = run_sta(design, probe, nullptr);
    std::printf("buffered the worst path's net with %lld buffers: preroute WNS %.3f ns\n\n",
                buffers, after.wns);
  }

  // 4. Incremental STA: probe "what if this net's Steiner point moved" at a
  //    fraction of a full analysis.
  IncrementalSta inc(design);
  WallTimer full_timer;
  inc.analyze(probe, nullptr);
  const double full_s = full_timer.seconds();
  int moved_net = -1;
  for (SteinerTree& t : probe.trees) {
    for (SteinerNode& n : t.nodes) {
      if (n.is_steiner()) {
        n.pos.x += 10.0;
        moved_net = t.net;
        break;
      }
    }
    if (moved_net >= 0) break;
  }
  WallTimer inc_timer;
  inc.update(probe, nullptr, {moved_net});
  const double inc_s = inc_timer.seconds();
  std::printf("incremental STA: full analysis %.1f ms, single-net what-if %.2f ms "
              "(%lld cells re-evaluated)\n",
              full_s * 1e3, inc_s * 1e3, inc.last_update_cell_count());
  return 0;
}
