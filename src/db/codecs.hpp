// Typed chunk codecs for the TSteinerDB container: META, cell library,
// design (with its benchmark spec), Steiner forest, and the u32 design-index
// prefix of per-design chunks. Each encode_* produces one chunk payload; each
// decode_* validates structure as it parses and returns nullopt on any
// malformed input (the container layer has already CRC-checked the bytes, so
// a decode failure means a logic/version problem, not file corruption).
// Model parameters are encoded by gnn/serialize and flow-level
// calibration/sample payloads by flow/snapshot, keeping the library
// dependency graph acyclic (db sits below gnn and flow).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "db/container.hpp"
#include "netlist/design_generator.hpp"
#include "netlist/liberty.hpp"
#include "netlist/netlist.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner::db {

/// META: the first chunk of every container the system writes. `kind` names
/// the writer ("suite", "serve", "fuzz-case", "steiner-cache"); `design_count` bounds the per-design chunk indices.
struct Meta {
  std::string kind;
  std::string tag;
  std::uint32_t design_count = 0;
  bool has_model = false;
  double final_train_loss = 0.0;
  std::uint32_t library_fingerprint = 0;
};
std::vector<std::uint8_t> encode_meta(const Meta& meta);
std::optional<Meta> decode_meta(const std::uint8_t* data, std::size_t size);
/// The container's META chunk, decoded; nullopt when missing or malformed.
std::optional<Meta> read_meta(const DbReader& reader);

/// Per-design chunk payload (DSGN, FCAL, FRST, SMPL): u32 design index, then
/// the codec payload.
std::vector<std::uint8_t> index_prefixed(std::uint32_t index,
                                         const std::vector<std::uint8_t>& payload);
/// Payloads of every `type` chunk by design index, prefix stripped. nullopt
/// unless the family covers indices 0..count-1 exactly once (a duplicate, a
/// gap, an index past `count` or a chunk too short for its prefix).
std::optional<std::vector<std::span<const std::uint8_t>>> collect_indexed(
    const DbReader& reader, std::uint32_t type, std::uint32_t count);

std::vector<std::uint8_t> encode_library(const CellLibrary& lib);
std::optional<CellLibrary> decode_library(const std::uint8_t* data, std::size_t size);

/// Stable identity of a library: CRC32 of its encoded form. Snapshots store
/// it so artifacts referencing type ids are never resolved against a
/// different library.
std::uint32_t library_fingerprint(const CellLibrary& lib);

/// The design payload carries the BenchmarkSpec it was generated from plus
/// the complete object state (cells, pins, nets, die, clock), so ids that
/// other chunks reference (pins in forests, labels per pin) round-trip
/// bit-exactly. `library` must outlive the returned design.
std::vector<std::uint8_t> encode_design(const BenchmarkSpec& spec, const Design& design);
struct DecodedDesign {
  BenchmarkSpec spec;
  Design design;
};
std::optional<DecodedDesign> decode_design(const std::uint8_t* data, std::size_t size,
                                           const CellLibrary& library);

std::vector<std::uint8_t> encode_forest(const SteinerForest& forest);
/// Validates tree structure (connectivity, index ranges, finite coordinates,
/// one tree per net); the movable index is rebuilt.
std::optional<SteinerForest> decode_forest(const std::uint8_t* data, std::size_t size);

}  // namespace tsteiner::db
