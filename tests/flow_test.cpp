#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "flow/experiment.hpp"
#include "flow/flow.hpp"
#include "flow/iterative.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "tsteiner/random_move.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

Design make_design(std::uint64_t seed) {
  GeneratorParams p;
  p.num_comb_cells = 200;
  p.num_registers = 22;
  p.num_primary_inputs = 5;
  p.num_primary_outputs = 5;
  p.seed = seed;
  Design d = generate_design(lib(), p);
  place_design(d);
  return d;
}

TEST(Flow, PreparesWithNegativeSlackClock) {
  Design d = make_design(91);
  const Flow flow(&d);
  const FlowResult r = flow.run_signoff(flow.initial_forest());
  EXPECT_LT(r.metrics.wns_ns, 0.0) << "clock calibration should leave violations";
  EXPECT_LT(r.metrics.tns_ns, 0.0);
  EXPECT_GT(r.metrics.num_vios, 0);
  EXPECT_GT(r.metrics.wirelength_dbu, 0.0);
  EXPECT_GT(r.metrics.num_vias, 0);
}

TEST(Flow, RuntimeBreakdownPopulated) {
  Design d = make_design(92);
  const Flow flow(&d);
  const FlowResult r = flow.run_signoff(flow.initial_forest());
  EXPECT_GT(r.runtime.global_route.wall_s, 0.0);
  EXPECT_GT(r.runtime.detailed_route.wall_s, 0.0);
  EXPECT_GT(r.runtime.sta.wall_s, 0.0);
}

TEST(Flow, DeterministicSignoff) {
  Design d1 = make_design(93);
  Design d2 = make_design(93);
  const Flow f1(&d1);
  const Flow f2(&d2);
  const FlowResult r1 = f1.run_signoff(f1.initial_forest());
  const FlowResult r2 = f2.run_signoff(f2.initial_forest());
  EXPECT_DOUBLE_EQ(r1.metrics.wns_ns, r2.metrics.wns_ns);
  EXPECT_DOUBLE_EQ(r1.metrics.tns_ns, r2.metrics.tns_ns);
  EXPECT_EQ(r1.metrics.num_vias, r2.metrics.num_vias);
}

TEST(Flow, CapacitiesPinnedAcrossVariants) {
  Design d = make_design(94);
  const Flow flow(&d);
  Rng rng(3);
  const SteinerForest variant =
      random_disturb(flow.initial_forest(), d.die(), 10.0, rng);
  const FlowResult base = flow.run_signoff(flow.initial_forest());
  const FlowResult moved = flow.run_signoff(variant);
  EXPECT_DOUBLE_EQ(base.gr.grid.h_capacity(), moved.gr.grid.h_capacity());
  EXPECT_DOUBLE_EQ(base.gr.grid.v_capacity(), moved.gr.grid.v_capacity());
}

TEST(Flow, MovingSteinerPointsChangesSignoffTiming) {
  Design d = make_design(95);
  const Flow flow(&d);
  Rng rng(4);
  const SteinerForest variant =
      random_disturb(flow.initial_forest(), d.die(), 24.0, rng);
  const FlowResult base = flow.run_signoff(flow.initial_forest());
  const FlowResult moved = flow.run_signoff(variant);
  // The paper's Fig. 2 premise: disturbance shifts sign-off TNS.
  EXPECT_NE(base.metrics.tns_ns, moved.metrics.tns_ns);
}

TEST(Flow, PrerouteStaAvailable) {
  Design d = make_design(96);
  const Flow flow(&d);
  const StaResult pre = flow.run_preroute_sta(flow.initial_forest());
  EXPECT_GT(pre.max_arrival, 0.0);
}

TEST(Flow, ConcurrentConstructionIsSafeAndIdentical) {
  // Regression guard for the probe-route calibration cache: several threads
  // constructing Flows at once (as the serve session manager's tenants do)
  // must neither race on the process-wide cache nor diverge — same design,
  // same calibration, bit-identical sign-off, no matter who populated the
  // cache first. Plain std::thread on purpose: the deterministic pool
  // serializes jobs, so it cannot exercise this interleaving.
  Design baseline = make_design(97);
  const Flow ref(&baseline);
  const FlowResult want = ref.run_signoff(ref.initial_forest());

  constexpr int kThreads = 4;
  std::vector<FlowResult> got(kThreads);
  std::vector<double> clock_period(kThreads, 0.0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Design d = make_design(97);  // same seed: identical design, shared cache key
      const Flow flow(&d);
      clock_period[t] = d.clock_period();
      got[t] = flow.run_signoff(flow.initial_forest());
    });
  }
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(std::memcmp(&got[t].metrics.wns_ns, &want.metrics.wns_ns, sizeof(double)), 0)
        << "thread " << t;
    EXPECT_EQ(std::memcmp(&got[t].metrics.wirelength_dbu, &want.metrics.wirelength_dbu,
                          sizeof(double)),
              0)
        << "thread " << t;
    EXPECT_EQ(got[t].metrics.num_vios, want.metrics.num_vios) << "thread " << t;
    EXPECT_EQ(std::memcmp(&clock_period[t], &clock_period[0], sizeof(double)), 0)
        << "thread " << t;
  }
}

TEST(Experiment, PrepareDesignProducesConsistentScale) {
  const auto suite = benchmark_suite();
  const BenchmarkSpec& spm = suite[5];
  ASSERT_EQ(spm.name, "spm");
  const PreparedDesign pd = prepare_design(lib(), spm, 1.0);
  EXPECT_NEAR(static_cast<double>(pd.design->stats().num_cells),
              static_cast<double>(spm.target_cells), 0.15 * spm.target_cells);
  EXPECT_GT(pd.flow->initial_forest().num_steiner_nodes(), 0);
  EXPECT_EQ(pd.cache->num_pins, static_cast<int>(pd.design->pins().size()));
}

TEST(Experiment, MakeTrainingSampleLabelsEveryPin) {
  const auto suite = benchmark_suite();
  const PreparedDesign pd = prepare_design(lib(), suite[5], 1.0);
  const TrainingSample s = make_training_sample(pd, pd.flow->initial_forest());
  EXPECT_EQ(s.arrival_label.size(), pd.design->pins().size());
  EXPECT_EQ(s.xs.size(), pd.flow->initial_forest().num_movable());
  EXPECT_FALSE(s.endpoint_pins.empty());
}

TEST(Flow, ElectricalRuleChecksPopulated) {
  Design d = make_design(97);
  const Flow flow(&d);
  const FlowResult r = flow.run_signoff(flow.initial_forest());
  EXPECT_GT(r.sta.worst_slew_ns, 0.0);
  EXPECT_GT(r.sta.worst_cap_pf, 0.0);
  EXPECT_GE(r.sta.num_slew_violations, 0);
  EXPECT_GE(r.sta.num_cap_violations, 0);
  // Tight limits must flag more violations than loose ones.
  StaOptions tight;
  tight.max_slew_ns = 0.01;
  tight.max_cap_pf = 0.001;
  const StaResult strict = run_sta(d, flow.initial_forest(), &r.gr, tight);
  EXPECT_GE(strict.num_slew_violations, r.sta.num_slew_violations);
  EXPECT_GE(strict.num_cap_violations, r.sta.num_cap_violations);
  EXPECT_GT(strict.num_cap_violations, 0);
}

TEST(Iterative, ClosedLoopNeverWorseThanBaseline) {
  // A tiny design with a tiny model: the loop's keep-true-best guarantees
  // the returned forest is never worse than the initial one in sign-off.
  const auto suite_specs = benchmark_suite();
  PreparedDesign pd = prepare_design(lib(), suite_specs[5], 1.0);  // spm
  GnnConfig cfg;
  cfg.hidden = 6;
  TimingGnn model(cfg, lib().num_types());
  IterativeOptions iopts;
  iopts.rounds = 2;
  iopts.finetune_epochs = 4;
  iopts.refine.max_iterations = 5;
  iopts.refine.gcell_size = pd.flow->options().router.gcell_size;
  const IterativeResult r = iterative_refine(pd, &model, iopts);
  EXPECT_EQ(r.rounds_run, 2);
  EXPECT_EQ(r.wns_per_round.size(), 2u);
  EXPECT_GE(r.best.wns_ns, r.initial.wns_ns - 1e-9);
  EXPECT_GE(r.best.tns_ns, r.initial.tns_ns - 1e-9);
  // The returned forest reproduces the reported best metrics.
  const FlowResult check = pd.flow->run_signoff(r.forest);
  EXPECT_NEAR(check.metrics.wns_ns, r.best.wns_ns, 1e-9);
}

TEST(Experiment, EnvScaleDefaults) {
  // No env var set in tests: fallback applies (or a valid override).
  const double s = env_scale(0.2);
  EXPECT_GT(s, 0.0);
  EXPECT_LE(s, 1.0);
}

}  // namespace
}  // namespace tsteiner
