// signoff workload: a congested incremental sign-off loop.
//
// Setup places one large design at the default FlowOptions, where capacity is
// 0.92 x p90 demand so maze rip-up-and-reroute negotiates, and anchors an
// IncrementalSignoff on its initial forest. Each round puts the trees the
// previous round moved back, nudges another 1% of the movable trees by a few
// DBU from their initial positions and calls IncrementalSignoff::update;
// every anchor_every-th round also runs a full Flow::run_signoff of the same
// forest, the keep-best anchor. One unit of timed work is anchor_every rounds.
// Moving away from the initial forest each round, instead of letting moves
// accumulate, keeps the congestion, and so the cost of a round, from
// drifting with the seed over a run.
//
// Under this congestion an update re-runs the whole negotiation, so the
// serial global-route maze does most of the work and autodiff none: router
// changes show here, evaluator changes must read "no change".
//
// Correctness: every anchor must bit-equal that round's update() result.
#include <algorithm>
#include <optional>

#include "common.hpp"
#include "util/rng.hpp"

namespace tsbench {

using namespace tsteiner;

namespace {

struct Sizes {
  int cells;
  int anchor_every;
};

Sizes sizes(bool smoke) { return smoke ? Sizes{300, 2} : Sizes{4000, 4}; }

struct State {
  PlacedDesign placed;
  SteinerForest forest;
  std::vector<int> moved;  ///< trees the last round displaced
  std::unique_ptr<IncrementalSignoff> signoff;
  std::vector<int> candidates;  ///< movable trees
};

struct Phase {
  std::vector<double> unit_s, unit_cpu_s;
  IncStats inc;
  LayerStat anchor;
  SignoffMetrics last_anchor;
};

Phase run_phase(State& s, const Sizes& sz, Rng& rng, double seconds, Report& report) {
  Phase phase;
  const std::size_t k = std::max<std::size_t>(1, s.candidates.size() / 100);
  const Clock::time_point t0 = Clock::now();
  do {
    const double cpu0 = process_cpu_s();
    const Clock::time_point unit0 = Clock::now();
    for (int r = 0; r < sz.anchor_every; ++r) {
      const SteinerForest& initial = s.placed.flow->initial_forest();
      std::vector<int> dirty;
      for (const int t : s.moved) {
        const SteinerTree& tree = initial.trees[static_cast<std::size_t>(t)];
        s.forest.trees[static_cast<std::size_t>(t)] = tree;
        dirty.push_back(tree.net);
      }
      s.moved = s.candidates;
      rng.shuffle(s.moved);
      s.moved.resize(std::min(k, s.moved.size()));
      for (const int t : s.moved) {
        double dx = static_cast<double>(rng.uniform_int(-8, 8));
        const double dy = static_cast<double>(rng.uniform_int(-8, 8));
        if (dx == 0.0 && dy == 0.0) dx = 3.0;
        SteinerTree& tree = s.forest.trees[static_cast<std::size_t>(t)];
        for (SteinerNode& n : tree.nodes) {
          if (n.is_steiner()) {
            n.pos.x += dx;
            n.pos.y += dy;
          }
        }
        dirty.push_back(tree.net);
      }
      const IncrementalSignoff::Result* got = nullptr;
      time_layer("tsbench.inc.update", phase.inc.update,
                 [&] { got = &s.signoff->update(s.forest, dirty); });
      ++report.attempted;
      phase.inc.add(*got);
      if (r + 1 < sz.anchor_every) continue;
      FlowResult full;
      time_layer("tsbench.signoff.anchor", phase.anchor,
                 [&] { full = s.placed.flow->run_signoff(s.forest); });
      ++report.attempted;
      phase.last_anchor = full.metrics;
      if (!same_metrics(full.metrics, got->metrics)) {
        report.fail("incremental update differs from the full sign-off anchor");
      }
    }
    phase.unit_s.push_back(seconds_since(unit0));
    phase.unit_cpu_s.push_back(process_cpu_s() - cpu0);
  } while (seconds_since(t0) < seconds);
  return phase;
}

}  // namespace

void run_signoff(const Args& args, Report& report) {
  const Sizes sz = sizes(args.smoke);
  (void)SteinerPredictor::shared_pretrained();  // warm the pretrain cache first
  LayerStat generate, place, flow;
  std::vector<double> setup_wall_s, setup_cpu_s;
  State s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.signoff.reset();  // it points into the previous design
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    s.placed = make_design(sz.cells, 300 + rep, FlowOptions{}, generate, place, flow);
    s.forest = s.placed.flow->initial_forest();
    s.signoff = std::make_unique<IncrementalSignoff>(s.placed.design.get(),
                                                     s.placed.flow->options());
    s.signoff->full(s.forest);
    setup_wall_s.push_back(seconds_since(t0));
    setup_cpu_s.push_back(process_cpu_s() - cpu0);
  }
  report.set("setup_s", median(setup_cpu_s));
  report.set("wall.setup_s", median(setup_wall_s));
  s.candidates = movable_trees(s.forest);

  Rng rng(Rng::mix(args.seed, 0x3100));
  const Phase phase =
      run_phase(s, sz, rng, args.trace ? 0.5 * args.seconds : args.seconds, report);
  double total_s = 0.0;
  for (const double u : phase.unit_s) total_s += u;
  report.set("unit_cpu_s", median(phase.unit_cpu_s));
  report.set("op_cpu_ms", phase.inc.update.median_cpu_ms());
  report.set("wall.unit_s", median(phase.unit_s));
  report.set("wall.op_p50_ms", phase.inc.update.median_ms());
  report.set("wall.ops_per_s", static_cast<double>(phase.inc.update.ms.size()) / total_s);
  report.set("wall.full_signoff_ms", phase.anchor.median_ms());
  if (!args.trace) return;

  start_trace(args);
  const Phase traced = run_phase(s, sz, rng, 0.5 * args.seconds, report);
  report.set("trace.overhead_frac", median(traced.unit_cpu_s) / median(phase.unit_cpu_s) - 1.0);
  report.set("quality.wns_ns", traced.last_anchor.wns_ns);
  report.set("quality.tns_ns", traced.last_anchor.tns_ns);
  report_inc(traced.inc, report);
  const double reps = kSetupRepeats;
  report.set("netlist.generate_s", generate.wall_s / reps);
  report.set("place.s", place.wall_s / reps);
  report.set("flow.construct_s", flow.wall_s / reps);
  measure_signoff_layers(*s.placed.flow, s.forest, report);
  report.set("steiner.pretrain_s", measure_pretrain_s());
  stop_trace();
}

}  // namespace tsbench
