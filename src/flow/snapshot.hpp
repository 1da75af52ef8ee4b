// Suite snapshot-restore on the TSteinerDB container (src/db), and the
// per-design chunk codecs every design-bearing container shares.
//
// A suite snapshot captures everything build_and_train_suite() computes —
// cell library, generated + placed designs, calibrated flows (clock period,
// pinned routing capacities), initial Steiner forests, sign-off labeled base
// samples, and the trained evaluator — so a warm second run skips design
// generation, placement, label generation and training entirely and
// reproduces the cold run's sign-off metrics bit-exactly. Restores are
// rejected (nullopt) when the file is corrupted, truncated, or was produced
// under different SuiteOptions (the options fingerprint is stored and
// compared), so a stale snapshot can never silently poison an experiment.
//
// Serve snapshots (serve/session), fuzz-case snapshots (verify/case_gen),
// the db-roundtrip oracle and `tsteiner_db verify` write and read their
// designs through write_design_record / read_design_records, so every
// container applies one set of per-design rules.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "db/container.hpp"
#include "flow/experiment.hpp"

namespace tsteiner {

/// Deterministic fingerprint of every option that influences suite state:
/// scale, seeds, perturbation setup, training hyperparameters, GNN config
/// and the flow/router/STA knobs. Stored in the snapshot and validated on
/// restore.
std::string suite_options_tag(const SuiteOptions& options);

bool save_suite_snapshot(const TrainedSuite& suite, const SuiteOptions& options,
                         const std::string& path);
std::optional<TrainedSuite> load_suite_snapshot(const std::string& path,
                                                const SuiteOptions& options);

/// FCAL payload after the design-index prefix: clock period, pinned H/V
/// routing capacities.
std::vector<std::uint8_t> encode_calibration(const FlowCalibration& cal);
std::optional<FlowCalibration> decode_calibration(std::span<const std::uint8_t> payload);

/// One design of a container: its DSGN, optional FCAL and FRST chunks.
struct DesignRecord {
  BenchmarkSpec spec;
  Design design;
  std::optional<FlowCalibration> calibration;  ///< fuzz-case snapshots have none
  SteinerForest forest;
};

/// Write design `index`'s DSGN, FCAL (when `calibration` is non-null) and
/// FRST chunks.
bool write_design_record(db::DbWriter& writer, std::uint32_t index, const BenchmarkSpec& spec,
                         const Design& design, const FlowCalibration* calibration,
                         const SteinerForest& forest);

/// Decode the `count` designs of `reader` against `lib`. DSGN and FRST must
/// cover indices 0..count-1 exactly once, FCAL too unless the file has none,
/// and each forest must index every net of its design. On failure returns
/// nullopt and, when `error` is non-null, names the first bad chunk.
std::optional<std::vector<DesignRecord>> read_design_records(const db::DbReader& reader,
                                                             std::uint32_t count,
                                                             const CellLibrary& lib,
                                                             std::string* error = nullptr);

/// SMPL payload after the design-index prefix: a design's labeled base
/// sample (the graph cache is rebuilt, not stored). The decoder rejects a
/// sample whose design name, label count or coordinate count disagrees with
/// `record`.
std::vector<std::uint8_t> encode_sample(const TrainingSample& sample);
std::optional<TrainingSample> decode_sample(std::span<const std::uint8_t> payload,
                                            const DesignRecord& record);

}  // namespace tsteiner
