// Model parameter serialization: the MODL chunk payload a trained evaluator
// travels in inside TSteinerDB containers (src/db) — the suite snapshot
// (flow/snapshot) and serve session snapshots (serve/session). The
// container supplies integrity (CRCs); the strict decode validates config,
// tag and tensor shapes, so a payload written under another architecture or
// training setup is rejected with a clean nullopt rather than misloaded.
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

/// MODL chunk payload codec. `tag` is an arbitrary caller string (the suite
/// snapshot stores its options tag) that the strict decode validates; the
/// decode returns nullopt when the payload is malformed or its config or tag
/// does not match.
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
