// Experiment harness shared by the bench binaries and examples.
//
// Builds the ten-design benchmark suite (Table I scale profile), runs the
// label-generation flow (sign-off STA per Steiner-position sample), trains
// the timing evaluator on the six training designs, and hands out prepared
// designs + the trained model for the table/figure benches.
//
// The environment variable TSTEINER_SCALE (default 0.12) shrinks every
// design proportionally so the full pipeline runs in workstation minutes;
// set it to 1.0 to reproduce the paper's design sizes. Bench binaries that
// share suite options build the suite once: the first run writes a suite
// snapshot that later runs restore (see build_and_train_suite).
#pragma once

#include <memory>
#include <vector>

#include "flow/flow.hpp"
#include "gnn/trainer.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"

namespace tsteiner {

struct PreparedDesign {
  BenchmarkSpec spec;
  std::unique_ptr<Design> design;
  std::unique_ptr<Flow> flow;
  std::shared_ptr<const GraphCache> cache;  ///< topology of the initial forest
};

/// Generate, place and flow-prepare one benchmark design.
PreparedDesign prepare_design(const CellLibrary& lib, const BenchmarkSpec& spec, double scale,
                              const FlowOptions& flow_options = {});

/// Label a forest variant by running the golden sign-off flow on it.
TrainingSample make_training_sample(const PreparedDesign& pd, const SteinerForest& forest);

/// Radius of the largest random-position training perturbation, in gcell
/// widths; the perturbed samples cycle through 1, 1/4 and 1/2 of it.
inline constexpr double kPerturbDistGcells = 2.0;

struct SuiteOptions {
  double scale = 0.12;
  int perturb_per_design = 3;  ///< extra random-position training samples
  GnnConfig gnn;
  TrainOptions train;
  FlowOptions flow;
  std::uint64_t seed = 2023;
};

struct TrainedSuite {
  std::unique_ptr<CellLibrary> lib;
  std::vector<PreparedDesign> designs;
  std::unique_ptr<TimingGnn> model;
  /// Unperturbed labeled sample per design (all ten), for Table III.
  std::vector<TrainingSample> base_samples;
  double final_train_loss = 0.0;
};

/// Default suite snapshot file, in the working directory.
inline constexpr char kSuiteCacheFile[] = "tsteiner_suite_cache.tsdb";

/// Full pipeline: prepare all ten designs, label, train. Deterministic for a
/// fixed SuiteOptions.
///
/// The suite has one cache: a TSteinerDB suite snapshot (flow/snapshot.hpp)
/// at the path the TSTEINER_DB environment variable names, or at
/// kSuiteCacheFile in the working directory when TSTEINER_DB is unset or
/// empty. TSTEINER_NO_CACHE turns the default file off; it does not affect
/// an explicit TSTEINER_DB. The suite is restored from the snapshot when it
/// exists and matches suite_options_tag(options) (skipping generation,
/// placement, labeling and training, with bit-identical results); otherwise
/// it is built cold and the snapshot is written there for the next run.
TrainedSuite build_and_train_suite(const SuiteOptions& options);

/// TSTEINER_SCALE env var (default `fallback`).
double env_scale(double fallback = 0.12);
/// TSTEINER_EPOCHS env var override (default `fallback`).
int env_epochs(int fallback);

}  // namespace tsteiner
