// Shared setup for the table/figure bench binaries.
//
// Every bench is a standalone executable that regenerates one table or
// figure of the paper. Suite-wide knobs come from the environment:
//   TSTEINER_SCALE   design-size multiplier vs Table I   (default 0.12)
//   TSTEINER_EPOCHS  evaluator training epochs           (default 40)
//   TSTEINER_LOG     0..3 verbosity
// bench_incremental_signoff and bench_steiner_batch read their own size
// knobs through env_int. Per-layer timing comes from tsbench, and the
// bit-identity gates live in the gtest suites (docs/testing.md).
// Absolute numbers differ from the paper (the substrate is a simulator, not
// Innovus + SkyWater 130nm); the *shape* of each table is the target.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "flow/experiment.hpp"
#include "tsteiner/random_move.hpp"
#include "tsteiner/refine.hpp"
#include "util/table.hpp"

namespace tsteiner::bench {

/// Integer knob `name` from the environment; `fallback` when unset or empty.
inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

inline SuiteOptions default_suite_options() {
  SuiteOptions opts;
  opts.scale = env_scale(0.12);
  opts.perturb_per_design = 3;
  opts.train.epochs = env_epochs(40);
  opts.train.lr = 1e-3;
  return opts;
}

inline RefineOptions default_refine_options(const PreparedDesign& pd) {
  RefineOptions r;
  r.gcell_size = pd.flow->options().router.gcell_size;
  r.max_iterations = 60;
  return r;
}

/// Single-design setup used by the ablation benches: prepares one benchmark
/// and trains an evaluator on sign-off labels of that design only.
struct SingleDesignSetup {
  std::unique_ptr<CellLibrary> lib;
  PreparedDesign pd;
  std::unique_ptr<TimingGnn> model;
  std::vector<TrainingSample> samples;
};

inline SingleDesignSetup prepare_single(const std::string& name, double scale, int epochs,
                                        int perturbs, const GnnConfig& gnn = {}) {
  SingleDesignSetup s;
  s.lib = std::make_unique<CellLibrary>(CellLibrary::make_default());
  BenchmarkSpec spec;
  for (const BenchmarkSpec& b : benchmark_suite()) {
    if (b.name == name) spec = b;
  }
  s.pd = prepare_design(*s.lib, spec, scale);
  Rng rng(77);
  s.samples.push_back(make_training_sample(s.pd, s.pd.flow->initial_forest()));
  const double dist = 2.0 * static_cast<double>(s.pd.flow->options().router.gcell_size);
  for (int k = 0; k < perturbs; ++k) {
    Rng child = rng.fork();
    s.samples.push_back(make_training_sample(
        s.pd, random_disturb(s.pd.flow->initial_forest(), s.pd.design->die(), dist, child)));
  }
  s.model = std::make_unique<TimingGnn>(gnn, s.lib->num_types());
  TrainOptions topt;
  topt.epochs = epochs;
  topt.lr = 1e-3;
  Trainer trainer(s.model.get(), topt);
  trainer.fit(s.samples);
  return s;
}

inline std::string fmt(double v, int prec = 3) { return Table::num(v, prec); }

/// Guarded improvement ratio `after / before` (1.0 when before ~ 0).
inline double ratio(double after, double before) {
  if (std::abs(before) < 1e-12) return 1.0;
  return after / before;
}

}  // namespace tsteiner::bench
