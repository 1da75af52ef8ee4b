// TSteinerDB: single-file, versioned, chunked binary container.
//
// Layout (all integers little-endian; see docs/db_format.md):
//
//   [0..3]   magic "TSDB"
//   [4..7]   u32 format version (kFormatVersion)
//   [8..11]  u32 reserved (zero)
//   then a sequence of chunks:
//   [ u32 type (fourcc) | u64 payload length | u32 crc32(payload) | payload ]
//   terminated by a zero-length "FEND" chunk.
//
// The end chunk distinguishes a complete container from one truncated at a
// chunk boundary; truncation inside a chunk is caught by the length field,
// and payload corruption by the per-chunk CRC. DbReader::open() parses and
// CRC-validates the whole chunk table up front, so a reader never hands out
// a payload whose integrity has not been established, and every failure mode
// maps to a precise human-readable error string instead of UB.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tsteiner::db {

inline constexpr char kMagic[4] = {'T', 'S', 'D', 'B'};
inline constexpr std::uint32_t kFormatVersion = 1;

/// Chunk type tag from a 4-character name, e.g. fourcc("LIBR").
constexpr std::uint32_t fourcc(const char (&name)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(name[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(name[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(name[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(name[3])) << 24;
}

std::string fourcc_name(std::uint32_t type);

// Chunk types used by the snapshot subsystem. A reader skips unknown types,
// so new chunk kinds are a backward-compatible addition; changing the layout
// *inside* an existing chunk requires a format-version bump.
inline constexpr std::uint32_t kChunkMeta = fourcc("META");
inline constexpr std::uint32_t kChunkLibrary = fourcc("LIBR");
inline constexpr std::uint32_t kChunkDesign = fourcc("DSGN");
inline constexpr std::uint32_t kChunkForest = fourcc("FRST");
inline constexpr std::uint32_t kChunkFlowCal = fourcc("FCAL");
inline constexpr std::uint32_t kChunkModel = fourcc("MODL");
inline constexpr std::uint32_t kChunkSteinerModel = fourcc("SMDL");
inline constexpr std::uint32_t kChunkSample = fourcc("SMPL");
inline constexpr std::uint32_t kChunkEnd = fourcc("FEND");

/// Streaming writer: header on open, one chunk per add, end marker on
/// finish. Everything goes to a temp sibling of the path, which finish()
/// renames onto it, so readers see either the old file or the complete new
/// one. A write that fails or is abandoned (destroyed before finish())
/// removes the temp file and leaves the path untouched.
class DbWriter {
 public:
  ~DbWriter();
  DbWriter() = default;
  DbWriter(const DbWriter&) = delete;
  DbWriter& operator=(const DbWriter&) = delete;

  bool open(const std::string& path);
  bool add_chunk(std::uint32_t type, const std::vector<std::uint8_t>& payload);
  /// Writes the end chunk, closes and publishes the file; returns false on
  /// any I/O failure.
  bool finish();

 private:
  void* file_ = nullptr;  // FILE*, kept out of the header
  std::string path_;
  std::string temp_path_;
  bool failed_ = false;
};

struct ChunkInfo {
  std::uint32_t type = 0;
  std::uint64_t offset = 0;  ///< payload offset in the file
  std::uint64_t size = 0;    ///< payload size in bytes
  std::uint32_t crc = 0;     ///< stored CRC (validated on open)
};

/// Whole-file reader. open() maps the container into memory, walks the chunk
/// table, and CRC-checks every payload; on any structural or integrity
/// problem it fails with a precise message and exposes nothing.
class DbReader {
 public:
  /// On failure returns false and, when `error` is non-null, stores a
  /// description such as "chunk FRST at offset 96: CRC mismatch".
  bool open(const std::string& path, std::string* error = nullptr);

  std::uint32_t version() const { return version_; }
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }

  /// All payloads of the given type, in file order.
  std::vector<const ChunkInfo*> find_all(std::uint32_t type) const;
  /// First chunk of the given type, or nullptr.
  const ChunkInfo* find(std::uint32_t type) const;

  /// Payload bytes of a chunk returned by find()/find_all()/chunks().
  const std::uint8_t* payload(const ChunkInfo& chunk) const {
    return data_.data() + chunk.offset;
  }

 private:
  std::vector<std::uint8_t> data_;
  std::vector<ChunkInfo> chunks_;
  std::uint32_t version_ = 0;
};

}  // namespace tsteiner::db
