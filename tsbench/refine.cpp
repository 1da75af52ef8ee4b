// refine workload: the paper's Algorithm 1 on a held-out design, the
// TSteiner column of Table IV.
//
// Setup trains the timing evaluator on a small design (labels from
// Flow::run_signoff on the base forest plus random_disturb variants) and
// prepares a larger held-out design drawn from a separate seed substream.
// One unit of timed work is refine_steiner_points over a fixed iteration
// budget, with sign-off probes every kProbeEvery iterations served by
// IncrementalSignoff::update, followed by one full run_signoff of the refined
// forest. Tape replay dominates here; the router and the serve layer do
// little.
//
// Correctness: the first unit's last probe must bit-equal a full sign-off of
// the forest it probed, and every later unit must reproduce the first unit's
// probe and final metrics bit-for-bit.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "flow/experiment.hpp"
#include "gnn/graph_cache.hpp"
#include "gnn/trainer.hpp"
#include "tsteiner/gradient.hpp"
#include "tsteiner/random_move.hpp"
#include "tsteiner/refine.hpp"
#include "util/rng.hpp"

namespace tsbench {

using namespace tsteiner;

namespace {

struct Sizes {
  int train_cells;
  int test_cells;
  int perturbs;    ///< random_disturb training variants
  int epochs;
  int iterations;  ///< refine budget per unit
};

Sizes sizes(bool smoke) {
  return smoke ? Sizes{120, 200, 1, 1, 10} : Sizes{1000, 2000, 2, 6, 20};
}

constexpr int kProbeEvery = 5;

struct SetupStats {
  LayerStat generate, place, flow, label, train;
};

struct Prepared {
  PlacedDesign test;
  std::unique_ptr<TimingGnn> model;
};

Prepared set_up(const Args& args, int rep, const Sizes& sz, SetupStats& st) {
  // The training and held-out designs are distinct; the seed varies the
  // training variants and the model's initialisation and sample order.
  PlacedDesign train =
      make_design(sz.train_cells, 100 + rep, FlowOptions{}, st.generate, st.place, st.flow);
  PreparedDesign pd;
  pd.spec.name = train.design->name();
  pd.design = std::move(train.design);
  pd.flow = std::move(train.flow);
  pd.cache = build_graph_cache(*pd.design, pd.flow->initial_forest());
  std::vector<TrainingSample> samples;
  time_layer("tsbench.gnn.label", st.label, [&] {
    const SteinerForest& base = pd.flow->initial_forest();
    samples.push_back(make_training_sample(pd, base));
    const double dist = 2.0 * static_cast<double>(pd.flow->options().router.gcell_size);
    for (int k = 0; k < sz.perturbs; ++k) {
      const std::uint64_t s = Rng::mix(args.seed, 0x1100 + 16 * rep + k);
      const SteinerForest variant = random_disturb(base, pd.design->die(), dist, s);
      samples.push_back(make_training_sample(pd, variant));
    }
  });
  Prepared out;
  GnnConfig cfg;
  cfg.seed = Rng::mix(args.seed, 0x1200 + rep);
  out.model = std::make_unique<TimingGnn>(cfg, library().num_types());
  TrainOptions topt;
  topt.seed = Rng::mix(args.seed, 0x1300 + rep);
  topt.epochs = sz.epochs;
  topt.lr = 1e-3;
  time_layer("tsbench.gnn.train", st.train, [&] {
    Trainer trainer(out.model.get(), topt);
    trainer.fit(samples);
  });
  out.test =
      make_design(sz.test_cells, 200 + rep, FlowOptions{}, st.generate, st.place, st.flow);
  return out;
}

struct Unit {
  double wall_s = 0.0, cpu_s = 0.0;
  double final_ms = 0.0;
  std::vector<double> iter_ms;  ///< between consecutive iteration_sink calls
  std::vector<double> iter_cpu_ms;
  int iterations = 0, accepted = 0, probes = 0;
  SignoffMetrics final_metrics, probe_metrics;
  SteinerForest probe_forest, final_forest;
};

struct Phase {
  std::vector<Unit> units;
  IncStats inc;
  LayerStat refine, final_signoff;
};

Unit run_unit(const Prepared& p, const Sizes& sz, Phase& phase) {
  const Flow& flow = *p.test.flow;
  const Design& design = *p.test.design;
  Unit u;
  IncrementalSignoff signoff(&design, flow.options());
  RefineOptions ro;
  ro.gcell_size = flow.options().router.gcell_size;
  ro.max_iterations = sz.iterations;
  // The ratio stop would let the model decide how much work a unit does.
  ro.mu = 1e9;
  ro.signoff_probe_every = kProbeEvery;
  ro.signoff_probe = [&](const SteinerForest& forest, const std::vector<int>& dirty) {
    const IncrementalSignoff::Result* r = nullptr;
    time_layer("tsbench.inc.update", phase.inc.update,
               [&] { r = &signoff.update(forest, dirty); });
    phase.inc.add(*r);
    u.probe_forest = forest;
    u.probe_metrics = r->metrics;
    ++u.probes;
    return SignoffProbeResult{r->metrics.wns_ns, r->metrics.tns_ns, r->incremental};
  };
  std::optional<Clock::time_point> last;
  double last_cpu = 0.0;
  ro.iteration_sink = [&](const obs::RefineIterationRecord& rec) {
    const Clock::time_point now = Clock::now();
    const double cpu = process_cpu_s();
    if (last) {
      u.iter_ms.push_back(1e3 * std::chrono::duration<double>(now - *last).count());
      u.iter_cpu_ms.push_back(1e3 * (cpu - last_cpu));
    }
    last = now;
    last_cpu = cpu;
    if (rec.accepted) ++u.accepted;
  };
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  RefineResult refined;
  time_layer("tsbench.refine", phase.refine, [&] {
    refined = refine_steiner_points(design, flow.initial_forest(), *p.model, ro);
  });
  FlowResult final_result;
  u.final_ms = time_layer("tsbench.signoff.final", phase.final_signoff,
                          [&] { final_result = flow.run_signoff(refined.forest); });
  u.wall_s = seconds_since(t0);
  u.cpu_s = process_cpu_s() - cpu0;
  u.iterations = refined.iterations;
  u.final_metrics = final_result.metrics;
  u.final_forest = std::move(refined.forest);
  return u;
}

/// Runs units until `seconds` elapse (at least one) and checks each.
Phase run_phase(const Prepared& p, const Sizes& sz, double seconds,
                std::optional<Unit>& reference, Report& report) {
  Phase phase;
  const Clock::time_point t0 = Clock::now();
  do {
    Unit u = run_unit(p, sz, phase);
    report.attempted += u.iterations + u.probes + 1;
    if (!reference) {
      const FlowResult full = p.test.flow->run_signoff(u.probe_forest);
      if (u.probes == 0 || !same_metrics(full.metrics, u.probe_metrics)) {
        report.fail("last refine probe differs from a full sign-off of its forest");
      }
      reference = u;
    } else if (u.iterations != reference->iterations ||
               !same_metrics(u.probe_metrics, reference->probe_metrics) ||
               !same_metrics(u.final_metrics, reference->final_metrics)) {
      report.fail("refine unit did not reproduce the first unit's results");
    }
    phase.units.push_back(std::move(u));
  } while (seconds_since(t0) < seconds);
  return phase;
}

std::vector<double> unit_walls(const Phase& phase) {
  std::vector<double> out;
  for (const Unit& u : phase.units) out.push_back(u.wall_s);
  return out;
}

std::vector<double> unit_cpus(const Phase& phase) {
  std::vector<double> out;
  for (const Unit& u : phase.units) out.push_back(u.cpu_s);
  return out;
}

/// Tape metrics from outside refine: record the retained program for the
/// held-out design, then replay evaluation and gradient at shifted points,
/// the way the refine loop alternates them.
void measure_tape(const Prepared& p, Report& report) {
  const Design& design = *p.test.design;
  const SteinerForest& forest = p.test.flow->initial_forest();
  LayerStat cache_stat, record, eval, eval_w1, grad, grad_w1;
  std::shared_ptr<const GraphCache> cache;
  for (int i = 0; i < 3; ++i) {
    time_layer("tsbench.gnn.graph_cache", cache_stat,
               [&] { cache = build_graph_cache(design, forest); });
  }
  const std::vector<double> xs0 = forest.gather_x();
  const std::vector<double> ys0 = forest.gather_y();
  PenaltyWeights w;
  std::optional<GradientEvaluator> evaluator;
  time_layer("tsbench.tape.record", record,
             [&] { evaluator.emplace(*p.model, *cache, design, xs0, ys0, w); });
  std::vector<double> xs = xs0, ys = ys0;
  const auto step = [&](int k) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = xs0[i] + 0.25 * static_cast<double>(k);
      ys[i] = ys0[i] - 0.25 * static_cast<double>(k);
    }
    w.lambda_w *= 1.01;
    w.lambda_t *= 1.01;
  };
  constexpr int kReplays = 5;
  for (int k = 1; k <= 2 * kReplays; ++k) {
    step(k);
    const bool serial = k > kReplays;
    if (k == kReplays + 1) tsteiner::set_parallel_threads(1);
    time_layer("tsbench.tape.eval_replay", serial ? eval_w1 : eval,
               [&] { (void)evaluator->evaluate(xs, ys, w); });
    time_layer("tsbench.tape.grad_replay", serial ? grad_w1 : grad,
               [&] { (void)evaluator->gradients(xs, ys, w); });
  }
  tsteiner::set_parallel_threads(0);
  const Tape::Stats st = evaluator->program().stats();
  report.set("gnn.graph_cache_ms", cache_stat.median_ms());
  report.set("tape.record_ms", record.median_ms());
  report.set("tape.eval_replay_ms", eval.median_ms());
  report.set("tape.grad_replay_ms", grad.median_ms());
  report.set("tape.grad_replay_ms.w1", grad_w1.median_ms());
  report.set("tape.nodes", static_cast<double>(st.num_nodes));
  report.set("tape.value_mb", static_cast<double>(st.value_doubles) * 8.0 / (1 << 20));
  report.set("tape.grad_mb", static_cast<double>(st.grad_doubles) * 8.0 / (1 << 20));
  report.set("tape.util", grad.util());
}

}  // namespace

void run_refine(const Args& args, Report& report) {
  const Sizes sz = sizes(args.smoke);
  (void)SteinerPredictor::shared_pretrained();  // warm the pretrain cache first
  SetupStats st;
  std::vector<double> setup_wall_s, setup_cpu_s;
  std::optional<Prepared> p;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    p.emplace(set_up(args, rep, sz, st));
    setup_wall_s.push_back(seconds_since(t0));
    setup_cpu_s.push_back(process_cpu_s() - cpu0);
  }
  report.set("setup_s", median(setup_cpu_s));
  report.set("wall.setup_s", median(setup_wall_s));

  std::optional<Unit> reference;
  const Phase phase = run_phase(*p, sz, args.trace ? 0.5 * args.seconds : args.seconds,
                                reference, report);
  std::vector<double> iter_ms, iter_cpu_ms;
  double units_s = 0.0;
  long long iterations = 0;
  for (const Unit& u : phase.units) {
    iter_ms.insert(iter_ms.end(), u.iter_ms.begin(), u.iter_ms.end());
    iter_cpu_ms.insert(iter_cpu_ms.end(), u.iter_cpu_ms.begin(), u.iter_cpu_ms.end());
    units_s += u.wall_s;
    iterations += u.iterations;
  }
  report.set("unit_cpu_s", median(unit_cpus(phase)));
  report.set("op_cpu_ms", median(iter_cpu_ms));
  report.set("wall.unit_s", median(unit_walls(phase)));
  report.set("wall.op_p50_ms", median(iter_ms));
  report.set("wall.ops_per_s", static_cast<double>(iterations) / units_s);
  report.set("wall.full_signoff_ms", phase.final_signoff.median_ms());
  if (!args.trace) return;

  start_trace(args);
  const Phase traced = run_phase(*p, sz, 0.5 * args.seconds, reference, report);
  report.set("trace.overhead_frac", median(unit_cpus(traced)) / median(unit_cpus(phase)) - 1.0);
  const Unit& ref = *reference;
  report.set("quality.wns_ns", ref.final_metrics.wns_ns);
  report.set("quality.tns_ns", ref.final_metrics.tns_ns);
  report.set("refine.iterations", ref.iterations);
  report.set("refine.accepted", ref.accepted);
  report.set("refine.probe_count", ref.probes);
  report.set("refine.probe_ms", traced.inc.update.median_ms());
  report.set("refine.util", traced.refine.util());
  report_inc(traced.inc, report);
  const double reps = kSetupRepeats;
  report.set("gnn.label_s", st.label.wall_s / reps);
  report.set("gnn.train_s", st.train.wall_s / reps);
  report.set("netlist.generate_s", st.generate.wall_s / reps);
  report.set("place.s", st.place.wall_s / reps);
  report.set("flow.construct_s", st.flow.wall_s / reps);
  measure_tape(*p, report);
  measure_signoff_layers(*p->test.flow, ref.final_forest, report);
  report.set("steiner.pretrain_s", measure_pretrain_s());
  stop_trace();
}

}  // namespace tsbench
