// Model parameter serialization: lets a trained evaluator be cached on disk
// and shared across bench binaries (training dominates suite runtime).
//
// The on-disk format is a TSteinerDB container (src/db) holding a META chunk
// (kind "model-cache") and one MODL chunk — binary, integrity-checked, and
// rejected with a clean nullopt on truncation, corruption or any file that
// is not a container. Loading validates config, tag and tensor shapes, so a
// stale cache (different architecture / training setup) is rejected rather
// than misloaded.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/bytes.hpp"
#include "gnn/model.hpp"

namespace tsteiner {

/// Parameter-tensor list shared by the MODL and SMDL payloads: u32 count,
/// then per tensor u64 rows, u64 cols and the f64 values.
void encode_tensors(db::ByteWriter& w, const std::vector<Tensor>& params);
/// Reads a list into `params`, whose count and shapes it must match.
bool decode_tensors(db::ByteReader& r, std::vector<Tensor>& params);

/// Write the model's configuration and parameters as a TSteinerDB container.
/// `tag` is an arbitrary caller string (e.g. encoding training scale/epochs)
/// validated on load.
bool save_model(const TimingGnn& model, const std::string& path, const std::string& tag);

/// Load parameters into a freshly constructed model. Returns nullopt if the
/// file is missing, not a container, malformed, corrupted, or its
/// config/tag does not match.
std::optional<TimingGnn> load_model(const std::string& path, const GnnConfig& config,
                                    int num_cell_types, const std::string& tag);

/// MODL chunk payload codec, shared with the suite snapshot (flow/snapshot).
std::vector<std::uint8_t> encode_model_payload(const TimingGnn& model, const std::string& tag);
std::optional<TimingGnn> decode_model_payload(const std::uint8_t* data, std::size_t size,
                                              const GnnConfig& config, int num_cell_types,
                                              const std::string& tag);

/// Self-describing decode: the GnnConfig stored in the payload itself is
/// adopted instead of validated against a caller expectation, and the stored
/// tag is returned through `tag_out` (when non-null) rather than checked.
/// Used by serve session snapshots, where the snapshot is the source of
/// truth for the model architecture.
std::optional<TimingGnn> decode_model_payload_any(const std::uint8_t* data, std::size_t size,
                                                  int num_cell_types, std::string* tag_out);

}  // namespace tsteiner
