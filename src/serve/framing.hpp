// Length-prefixed frame codec for the tsteiner_serve wire protocol.
//
// Every message on a connection — request, response, progress line, error —
// travels as one frame:
//
//   [0..3]   magic "TSRV"
//   [4..7]   u32 protocol version (kProtocolVersion)
//   [8..11]  u32 frame kind (FrameKind)
//   [12..19] u64 payload length in bytes
//   [20..23] u32 crc32(payload)
//   [24..]   payload (UTF-8 JSON, schema in docs/serving.md)
//
// All integers little-endian, same convention as TSteinerDB (src/db). The
// decoder is strict: wrong magic, unsupported version, unknown kind, a
// length above the configured cap, or a CRC mismatch poisons the decoder —
// the connection cannot be resynchronized after garbage and must be closed.
// Truncation (EOF mid-frame) is detected by the blocking readers in
// server/client, which require exactly header+payload bytes per frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tsteiner::serve {

inline constexpr char kFrameMagic[4] = {'T', 'S', 'R', 'V'};
inline constexpr std::uint32_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Default payload cap. Large enough for the refined-coordinate arrays of
/// any design this repo generates; small enough that a corrupted length
/// field cannot trigger a multi-gigabyte allocation.
inline constexpr std::size_t kDefaultMaxPayloadBytes = 32ull << 20;

enum class FrameKind : std::uint32_t {
  kRequest = 1,   ///< client -> server
  kResponse = 2,  ///< server -> client, terminates one request
  kProgress = 3,  ///< server -> client, 0..N per request, before the response
  kError = 4,     ///< server -> client, terminates one request with a failure
};

struct Frame {
  FrameKind kind = FrameKind::kRequest;
  std::string payload;  ///< JSON document
};

/// Serialize one frame (header + payload).
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Write all of `bytes` to the socket `fd`, retrying on EINTR. Sends with
/// MSG_NOSIGNAL, so a peer that hung up yields false (EPIPE) instead of a
/// process-killing SIGPIPE. The one write path of server and client.
bool send_all(int fd, const std::vector<std::uint8_t>& bytes);

/// Incremental strict decoder. Feed bytes as they arrive; completed frames
/// are appended to `out`. After any error the decoder stays poisoned:
/// feed() keeps returning false and error() keeps its first message.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload_bytes = kDefaultMaxPayloadBytes)
      : max_payload_(max_payload_bytes) {}

  /// Returns false on a protocol violation (error() explains).
  bool feed(const std::uint8_t* data, std::size_t size, std::vector<Frame>* out);

  bool poisoned() const { return poisoned_; }
  const std::string& error() const { return error_; }
  /// Bytes buffered toward the next (incomplete) frame.
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  bool fail(const std::string& message);

  std::size_t max_payload_ = kDefaultMaxPayloadBytes;
  std::vector<std::uint8_t> buffer_;
  bool poisoned_ = false;
  std::string error_;
};

/// Validate a standalone header. Returns the payload length via
/// `payload_len` on success; on failure returns false and describes the
/// violation. Shared by FrameDecoder and the blocking fd readers.
bool parse_frame_header(const std::uint8_t header[kFrameHeaderBytes],
                        std::size_t max_payload_bytes, FrameKind* kind,
                        std::uint64_t* payload_len, std::uint32_t* payload_crc,
                        std::string* error);

}  // namespace tsteiner::serve
