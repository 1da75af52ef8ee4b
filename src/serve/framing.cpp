#include "serve/framing.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "db/crc32.hpp"

namespace tsteiner::serve {

namespace {

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

bool known_kind(std::uint32_t kind) {
  return kind >= static_cast<std::uint32_t>(FrameKind::kRequest) &&
         kind <= static_cast<std::uint32_t>(FrameKind::kError);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out(kFrameHeaderBytes + frame.payload.size());
  std::memcpy(out.data(), kFrameMagic, 4);
  store_u32(out.data() + 4, kProtocolVersion);
  store_u32(out.data() + 8, static_cast<std::uint32_t>(frame.kind));
  store_u64(out.data() + 12, frame.payload.size());
  store_u32(out.data() + 20,
            db::crc32(reinterpret_cast<const std::uint8_t*>(frame.payload.data()),
                      frame.payload.size()));
  std::memcpy(out.data() + kFrameHeaderBytes, frame.payload.data(), frame.payload.size());
  return out;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool parse_frame_header(const std::uint8_t header[kFrameHeaderBytes],
                        std::size_t max_payload_bytes, FrameKind* kind,
                        std::uint64_t* payload_len, std::uint32_t* payload_crc,
                        std::string* error) {
  if (std::memcmp(header, kFrameMagic, 4) != 0) {
    if (error != nullptr) *error = "bad frame magic";
    return false;
  }
  const std::uint32_t version = load_u32(header + 4);
  if (version != kProtocolVersion) {
    if (error != nullptr) {
      *error = "unsupported protocol version " + std::to_string(version) + " (expected " +
               std::to_string(kProtocolVersion) + ")";
    }
    return false;
  }
  const std::uint32_t raw_kind = load_u32(header + 8);
  if (!known_kind(raw_kind)) {
    if (error != nullptr) *error = "unknown frame kind " + std::to_string(raw_kind);
    return false;
  }
  const std::uint64_t len = load_u64(header + 12);
  if (len > max_payload_bytes) {
    if (error != nullptr) {
      *error = "frame payload of " + std::to_string(len) + " bytes exceeds the " +
               std::to_string(max_payload_bytes) + "-byte cap";
    }
    return false;
  }
  if (kind != nullptr) *kind = static_cast<FrameKind>(raw_kind);
  if (payload_len != nullptr) *payload_len = len;
  if (payload_crc != nullptr) *payload_crc = load_u32(header + 20);
  return true;
}

bool FrameDecoder::fail(const std::string& message) {
  if (!poisoned_) {
    poisoned_ = true;
    error_ = message;
  }
  return false;
}

bool FrameDecoder::feed(const std::uint8_t* data, std::size_t size, std::vector<Frame>* out) {
  if (poisoned_) return false;
  buffer_.insert(buffer_.end(), data, data + size);
  for (;;) {
    if (buffer_.size() < kFrameHeaderBytes) return true;
    FrameKind kind{};
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
    std::string why;
    if (!parse_frame_header(buffer_.data(), max_payload_, &kind, &len, &crc, &why)) {
      return fail(why);
    }
    if (buffer_.size() < kFrameHeaderBytes + len) return true;  // frame incomplete
    const std::uint8_t* payload = buffer_.data() + kFrameHeaderBytes;
    const std::uint32_t got_crc = db::crc32(payload, static_cast<std::size_t>(len));
    if (got_crc != crc) return fail("frame payload CRC mismatch");
    Frame frame;
    frame.kind = kind;
    frame.payload.assign(reinterpret_cast<const char*>(payload),
                         static_cast<std::size_t>(len));
    out->push_back(std::move(frame));
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<long>(kFrameHeaderBytes + len));
  }
}

}  // namespace tsteiner::serve
