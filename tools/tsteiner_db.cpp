// tsteiner_db: inspect, verify and unpack TSteinerDB snapshot containers.
//
//   tsteiner_db info <file>                 header + chunk table + meta summary
//   tsteiner_db verify <file>               structure, CRCs, and the loaders'
//                                           decode and index rules
//   tsteiner_db extract <file> <TYPE> <out> [n]
//                                           nth chunk of TYPE (default 0):
//                                           FRST decodes design n's forest to
//                                           the text forest format, everything
//                                           else dumps the raw payload bytes
//
// verify exits nonzero on any problem, so CI can gate on snapshot health.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "db/codecs.hpp"
#include "db/container.hpp"
#include "flow/snapshot.hpp"
#include "steiner/forest_io.hpp"

namespace {

using tsteiner::db::ChunkInfo;
using tsteiner::db::DbReader;

int cmd_info(const std::string& path) {
  DbReader reader;
  std::string error;
  if (!reader.open(path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s: TSteinerDB format version %u, %zu chunks\n", path.c_str(),
              reader.version(), reader.chunks().size());
  std::printf("%-6s %12s %12s %10s\n", "type", "offset", "size", "crc32");
  for (const ChunkInfo& c : reader.chunks()) {
    std::printf("%-6s %12llu %12llu   %08X\n", tsteiner::db::fourcc_name(c.type).c_str(),
                static_cast<unsigned long long>(c.offset),
                static_cast<unsigned long long>(c.size), c.crc);
  }
  if (reader.find(tsteiner::db::kChunkMeta) != nullptr) {
    if (const auto m = tsteiner::db::read_meta(reader)) {
      std::printf("meta: kind=%s designs=%u model=%s loss=%.6f libfp=%08X\n", m->kind.c_str(),
                  m->design_count, m->has_model ? "yes" : "no", m->final_train_loss,
                  m->library_fingerprint);
      if (!m->tag.empty()) std::printf("tag:  %s\n", m->tag.c_str());
    } else {
      std::printf("meta: (unparseable)\n");
    }
  }
  return 0;
}

// Decode the container the way its loaders do: META, the library, every
// design's DSGN/FCAL/FRST through read_design_records (each indexed family
// must cover META's design count exactly once) and every SMPL against its
// design. MODL and SMDL are only CRC/structure-checked by open(): the model
// architecture they must match lives with the caller.
int cmd_verify(const std::string& path) {
  DbReader reader;
  std::string error;
  if (!reader.open(path, &error)) {
    std::fprintf(stderr, "FAIL: %s\n", error.c_str());
    return 1;
  }
  int failures = 0;
  auto fail = [&failures](const std::string& what) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  };

  const auto meta = tsteiner::db::read_meta(reader);
  if (!meta) fail("META chunk missing or malformed");
  const std::uint32_t count = meta ? meta->design_count : 0;

  // Design-free containers (the weight caches) embed no library; the empty
  // one still rejects stray per-design chunks through the index rule.
  tsteiner::CellLibrary lib;
  if (const ChunkInfo* c = reader.find(tsteiner::db::kChunkLibrary)) {
    auto decoded =
        tsteiner::db::decode_library(reader.payload(*c), static_cast<std::size_t>(c->size));
    if (decoded) {
      lib = std::move(*decoded);
    } else {
      fail("LIBR chunk does not decode");
    }
  } else if (count > 0) {
    fail("META counts designs but there is no LIBR chunk");
  }

  const auto records = tsteiner::read_design_records(reader, count, lib, &error);
  if (!records) {
    fail(error);
  } else if (reader.find(tsteiner::db::kChunkSample) != nullptr) {
    const auto samples = tsteiner::db::collect_indexed(reader, tsteiner::db::kChunkSample, count);
    if (!samples) fail("SMPL chunks do not cover each design index exactly once");
    for (std::size_t i = 0; samples && i < samples->size(); ++i) {
      if (!tsteiner::decode_sample((*samples)[i], (*records)[i])) {
        fail("design " + std::to_string(i) + ": SMPL chunk does not match its design");
      }
    }
  }

  if (failures == 0) {
    std::printf("OK: %s (%zu chunks, all CRCs and decode probes pass)\n", path.c_str(),
                reader.chunks().size());
    return 0;
  }
  return 1;
}

int cmd_extract(const std::string& path, const std::string& type_name,
                const std::string& out_path, int nth) {
  if (type_name.size() != 4) {
    std::fprintf(stderr, "error: chunk type must be 4 characters (e.g. FRST)\n");
    return 2;
  }
  char name[5] = {type_name[0], type_name[1], type_name[2], type_name[3], '\0'};
  const std::uint32_t type = tsteiner::db::fourcc(name);

  DbReader reader;
  std::string error;
  if (!reader.open(path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const std::vector<const ChunkInfo*> matches = reader.find_all(type);
  if (nth < 0 || static_cast<std::size_t>(nth) >= matches.size()) {
    std::fprintf(stderr, "error: %s has %zu %s chunk(s), index %d out of range\n",
                 path.c_str(), matches.size(), type_name.c_str(), nth);
    return 1;
  }
  const ChunkInfo& chunk = *matches[static_cast<std::size_t>(nth)];

  if (type == tsteiner::db::kChunkForest) {
    // FRST n is design n's forest, found by the loaders' index rule.
    const auto meta = tsteiner::db::read_meta(reader);
    const auto forests = tsteiner::db::collect_indexed(reader, tsteiner::db::kChunkForest,
                                                       meta ? meta->design_count : 0);
    std::optional<tsteiner::SteinerForest> forest;
    if (forests) {
      const auto payload = (*forests)[static_cast<std::size_t>(nth)];
      forest = tsteiner::db::decode_forest(payload.data(), payload.size());
    }
    if (!forest) {
      std::fprintf(stderr, "error: FRST chunk does not decode\n");
      return 1;
    }
    if (!tsteiner::write_forest_file(*forest, out_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s (text forest, %zu trees)\n", out_path.c_str(),
                forest->trees.size());
    return 0;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::size_t written =
      std::fwrite(reader.payload(chunk), 1, static_cast<std::size_t>(chunk.size), out);
  const bool ok = written == chunk.size && std::fclose(out) == 0;
  if (!ok) {
    std::fprintf(stderr, "error: short write to %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%llu raw payload bytes)\n", out_path.c_str(),
              static_cast<unsigned long long>(chunk.size));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tsteiner_db info <file>\n"
               "       tsteiner_db verify <file>\n"
               "       tsteiner_db extract <file> <TYPE> <out> [n]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  if (cmd == "info") return cmd_info(path);
  if (cmd == "verify") return cmd_verify(path);
  if (cmd == "extract") {
    if (argc < 5) return usage();
    const int nth = argc > 5 ? std::atoi(argv[5]) : 0;
    return cmd_extract(path, argv[3], argv[4], nth);
  }
  return usage();
}
