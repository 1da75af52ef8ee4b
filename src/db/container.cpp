#include "db/container.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>

#include "db/bytes.hpp"
#include "db/crc32.hpp"

namespace tsteiner::db {

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::string fourcc_name(std::uint32_t type) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((type >> (8 * i)) & 0xFF);
    s[static_cast<std::size_t>(i)] = std::isprint(static_cast<unsigned char>(c)) ? c : '?';
  }
  return s;
}

DbWriter::~DbWriter() {
  if (file_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(file_));
    std::remove(temp_path_.c_str());
  }
}

bool DbWriter::open(const std::string& path) {
  if (file_ != nullptr) return false;
  // Unique per process and per writer, so concurrent writers of one path
  // never share a temp file; the last rename wins.
  static std::atomic<unsigned> sequence{0};
  path_ = path;
  temp_path_ = path + ".tmp." + std::to_string(getpid()) + "." + std::to_string(sequence++);
  std::FILE* f = std::fopen(temp_path_.c_str(), "wb");
  if (f == nullptr) return false;
  file_ = f;
  ByteWriter header;
  for (char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kFormatVersion);
  header.u32(0);  // reserved
  const auto& bytes = header.bytes();
  failed_ = std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size();
  return !failed_;
}

bool DbWriter::add_chunk(std::uint32_t type, const std::vector<std::uint8_t>& payload) {
  if (file_ == nullptr || failed_) return false;
  ByteWriter head;
  head.u32(type);
  head.u64(payload.size());
  head.u32(crc32(payload));
  std::FILE* f = static_cast<std::FILE*>(file_);
  failed_ = std::fwrite(head.bytes().data(), 1, head.bytes().size(), f) !=
                head.bytes().size() ||
            (!payload.empty() &&
             std::fwrite(payload.data(), 1, payload.size(), f) != payload.size());
  return !failed_;
}

bool DbWriter::finish() {
  if (file_ == nullptr) return false;
  const bool written = add_chunk(kChunkEnd, {}) &&
                       std::fflush(static_cast<std::FILE*>(file_)) == 0;
  const bool closed = std::fclose(static_cast<std::FILE*>(file_)) == 0;
  file_ = nullptr;
  if (written && closed && std::rename(temp_path_.c_str(), path_.c_str()) == 0) return true;
  std::remove(temp_path_.c_str());
  return false;
}

bool DbReader::open(const std::string& path, std::string* error) {
  data_.clear();
  chunks_.clear();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_error(error, "cannot open " + path);
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (file_size < 0) {
    std::fclose(f);
    set_error(error, "cannot determine size of " + path);
    return false;
  }
  data_.resize(static_cast<std::size_t>(file_size));
  const bool read_ok =
      data_.empty() || std::fread(data_.data(), 1, data_.size(), f) == data_.size();
  std::fclose(f);
  if (!read_ok) {
    set_error(error, "short read on " + path);
    return false;
  }

  constexpr std::size_t kHeaderSize = 12;
  if (data_.size() < kHeaderSize) {
    set_error(error, path + ": too small to hold a TSteinerDB header (" +
                         std::to_string(data_.size()) + " bytes)");
    return false;
  }
  if (!std::equal(kMagic, kMagic + 4, data_.begin())) {
    set_error(error, path + ": bad magic (not a TSteinerDB container)");
    return false;
  }
  ByteReader header(data_.data() + 4, 8);
  version_ = header.u32();
  header.u32();  // reserved
  if (version_ != kFormatVersion) {
    set_error(error, path + ": unsupported format version " + std::to_string(version_) +
                         " (this build reads version " + std::to_string(kFormatVersion) + ")");
    return false;
  }

  // Walk the chunk sequence; every structural defect names the offset.
  std::size_t pos = kHeaderSize;
  bool saw_end = false;
  while (pos < data_.size()) {
    constexpr std::size_t kChunkHeader = 4 + 8 + 4;
    if (data_.size() - pos < kChunkHeader) {
      set_error(error, path + ": truncated chunk header at offset " + std::to_string(pos));
      return false;
    }
    ByteReader ch(data_.data() + pos, kChunkHeader);
    const std::uint32_t type = ch.u32();
    const std::uint64_t size = ch.u64();
    const std::uint32_t stored_crc = ch.u32();
    pos += kChunkHeader;
    if (size > data_.size() - pos) {
      set_error(error, path + ": chunk " + fourcc_name(type) + " at offset " +
                           std::to_string(pos - kChunkHeader) + " claims " +
                           std::to_string(size) + " payload bytes but only " +
                           std::to_string(data_.size() - pos) + " remain (truncated?)");
      return false;
    }
    const std::uint32_t computed = crc32(data_.data() + pos, static_cast<std::size_t>(size));
    if (computed != stored_crc) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "stored 0x%08X, computed 0x%08X", stored_crc, computed);
      set_error(error, path + ": chunk " + fourcc_name(type) + " at offset " +
                           std::to_string(pos - kChunkHeader) + ": CRC mismatch (" + buf + ")");
      return false;
    }
    if (type == kChunkEnd) {
      saw_end = true;
      if (pos + size != data_.size()) {
        set_error(error, path + ": trailing data after end chunk at offset " +
                             std::to_string(pos + size));
        return false;
      }
      break;
    }
    chunks_.push_back({type, pos, size, stored_crc});
    pos += size;
  }
  if (!saw_end) {
    set_error(error, path + ": missing end chunk (file truncated at a chunk boundary?)");
    return false;
  }
  return true;
}

std::vector<const ChunkInfo*> DbReader::find_all(std::uint32_t type) const {
  std::vector<const ChunkInfo*> out;
  for (const ChunkInfo& c : chunks_) {
    if (c.type == type) out.push_back(&c);
  }
  return out;
}

const ChunkInfo* DbReader::find(std::uint32_t type) const {
  for (const ChunkInfo& c : chunks_) {
    if (c.type == type) return &c;
  }
  return nullptr;
}

}  // namespace tsteiner::db
