// TSteinerDB container, codec, and snapshot-restore coverage: CRC vectors,
// byte-level round-trips, corruption/truncation rejection, atomic writes, the
// exactly-once design-index rule, and field-for-field equality of restored
// META, libraries, designs, forests, models and suites.
#include <gtest/gtest.h>

#include "testutil.hpp"

#include <sys/resource.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "db/bytes.hpp"
#include "db/codecs.hpp"
#include "db/container.hpp"
#include "db/crc32.hpp"
#include "flow/experiment.hpp"
#include "flow/snapshot.hpp"
#include "gnn/serialize.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "steiner/rsmt.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

Design make_design(std::uint64_t seed) {
  GeneratorParams p;
  p.num_comb_cells = 150;
  p.num_registers = 16;
  p.num_primary_inputs = 4;
  p.num_primary_outputs = 4;
  p.seed = seed;
  Design d = generate_design(lib(), p);
  place_design(d);
  d.set_clock_period(2.71828);
  return d;
}

std::string temp_path(const char* name) { return testutil::test_tmp_dir() + "/" + name; }

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Crc32, MatchesKnownVector) {
  // The standard IEEE 802.3 check value, same as zlib's crc32().
  const char* msg = "123456789";
  EXPECT_EQ(db::crc32(reinterpret_cast<const std::uint8_t*>(msg), 9), 0xCBF43926u);
  EXPECT_EQ(db::crc32(nullptr, 0), 0u);
}

TEST(Bytes, RoundTripAllPrimitives) {
  db::ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(-0.1234567890123456789);
  w.str("hello");
  w.f64_vec({1.5, -2.5, 3.25});
  w.i32_vec({7, -8, 9});

  db::ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_DOUBLE_EQ(r.f64(), -0.1234567890123456789);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_EQ(r.i32_vec(), (std::vector<int>{7, -8, 9}));
  EXPECT_TRUE(r.done());
}

TEST(Bytes, UnderrunLatchesNotOk) {
  db::ByteWriter w;
  w.u32(7);
  db::ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // stays latched
  EXPECT_FALSE(r.done());
}

TEST(Bytes, OversizedLengthPrefixRejectedBeforeAllocation) {
  db::ByteWriter w;
  w.u64(0xFFFFFFFFFFFFull);  // vector "length" far beyond the payload
  db::ByteReader r(w.bytes());
  EXPECT_TRUE(r.f64_vec().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Container, WriteReadRoundTrip) {
  const std::string path = temp_path("container_rt.tsdb");
  db::DbWriter writer;
  ASSERT_TRUE(writer.open(path));
  ASSERT_TRUE(writer.add_chunk(db::kChunkMeta, {1, 2, 3}));
  ASSERT_TRUE(writer.add_chunk(db::kChunkForest, {}));
  ASSERT_TRUE(writer.add_chunk(db::kChunkForest, {9, 8, 7, 6}));
  ASSERT_TRUE(writer.finish());

  db::DbReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path, &error)) << error;
  EXPECT_EQ(reader.version(), db::kFormatVersion);
  ASSERT_EQ(reader.chunks().size(), 3u);
  const db::ChunkInfo* meta = reader.find(db::kChunkMeta);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->size, 3u);
  EXPECT_EQ(reader.payload(*meta)[2], 3);
  EXPECT_EQ(reader.find_all(db::kChunkForest).size(), 2u);
  EXPECT_EQ(reader.find(db::kChunkModel), nullptr);
}

TEST(Container, BitFlipTriggersCrcRejection) {
  const std::string path = temp_path("container_flip.tsdb");
  db::DbWriter writer;
  ASSERT_TRUE(writer.open(path));
  ASSERT_TRUE(writer.add_chunk(db::kChunkForest, {10, 20, 30, 40, 50}));
  ASSERT_TRUE(writer.finish());

  std::vector<std::uint8_t> bytes = read_file(path);
  // Flip one bit inside the payload (last 5 bytes before the FEND chunk
  // header are the payload).
  bytes[bytes.size() - 16 - 3] ^= 0x04;
  write_file(path, bytes);

  db::DbReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("FRST"), std::string::npos) << error;
}

TEST(Container, TruncationFailsCleanly) {
  const std::string path = temp_path("container_trunc.tsdb");
  db::DbWriter writer;
  ASSERT_TRUE(writer.open(path));
  ASSERT_TRUE(writer.add_chunk(db::kChunkForest, {1, 2, 3, 4, 5, 6, 7, 8}));
  ASSERT_TRUE(writer.finish());
  const std::vector<std::uint8_t> bytes = read_file(path);

  // Every proper prefix must be rejected without crashing.
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{11},
                           std::size_t{20}, bytes.size() - 16, bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    write_file(path, cut);
    db::DbReader reader;
    std::string error;
    EXPECT_FALSE(reader.open(path, &error)) << "prefix of " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }
  // Truncating exactly at a chunk boundary (removing FEND) is also caught.
  std::vector<std::uint8_t> no_end(bytes.begin(), bytes.end() - 16);
  write_file(path, no_end);
  db::DbReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_NE(error.find("end chunk"), std::string::npos) << error;
}

TEST(Container, RejectsBadMagicAndVersion) {
  const std::string path = temp_path("container_magic.tsdb");
  write_file(path, {'N', 'O', 'P', 'E', 1, 0, 0, 0, 0, 0, 0, 0});
  db::DbReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  write_file(path, {'T', 'S', 'D', 'B', 99, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

/// Entries of `dir` other than `keep`: a finished or failed write must not
/// leave its temp file behind.
std::vector<std::string> stray_files(const std::string& dir, const std::string& keep) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename() != keep) out.push_back(entry.path().filename().string());
  }
  return out;
}

TEST(Container, AbandonedWriteLeavesExistingFileIntact) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string path = dir + "/kept.tsdb";
  {
    db::DbWriter writer;
    ASSERT_TRUE(writer.open(path));
    ASSERT_TRUE(writer.add_chunk(db::kChunkMeta, {1, 2, 3}));
    ASSERT_TRUE(writer.finish());
  }
  const std::vector<std::uint8_t> before = read_file(path);
  {
    db::DbWriter writer;
    ASSERT_TRUE(writer.open(path));
    ASSERT_TRUE(writer.add_chunk(db::kChunkMeta, {4, 5, 6, 7}));
    // Destroyed without finish(): the old file stays the published one.
  }
  EXPECT_EQ(read_file(path), before);
  EXPECT_TRUE(stray_files(dir, "kept.tsdb").empty());
}

TEST(Container, FailedWriteLeavesExistingFileIntact) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string path = dir + "/kept.tsdb";
  {
    db::DbWriter writer;
    ASSERT_TRUE(writer.open(path));
    ASSERT_TRUE(writer.add_chunk(db::kChunkMeta, {1, 2, 3}));
    ASSERT_TRUE(writer.finish());
  }
  const std::vector<std::uint8_t> before = read_file(path);

  // A real I/O failure: cap this process's file size below the container,
  // so the flush in finish() fails with EFBIG (SIGXFSZ ignored). The payload
  // is small enough to sit in the stdio buffer until then.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = 64;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  bool finished = true;
  {
    db::DbWriter writer;
    finished = writer.open(path) &&
               writer.add_chunk(db::kChunkMeta, std::vector<std::uint8_t>(1024, 0xAB)) &&
               writer.finish();
  }
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_FALSE(finished);
  EXPECT_EQ(read_file(path), before);
  EXPECT_TRUE(stray_files(dir, "kept.tsdb").empty());
}

TEST(Codecs, LibraryRoundTripFieldForField) {
  const std::vector<std::uint8_t> bytes = db::encode_library(lib());
  const auto loaded = db::decode_library(bytes.data(), bytes.size());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_types(), lib().num_types());
  EXPECT_DOUBLE_EQ(loaded->wire_res_kohm_per_dbu(), lib().wire_res_kohm_per_dbu());
  EXPECT_DOUBLE_EQ(loaded->wire_cap_pf_per_dbu(), lib().wire_cap_pf_per_dbu());
  EXPECT_DOUBLE_EQ(loaded->via_res_kohm(), lib().via_res_kohm());
  for (int t = 0; t < lib().num_types(); ++t) {
    const CellType& a = lib().type(t);
    const CellType& b = loaded->type(t);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_inputs, b.num_inputs);
    EXPECT_EQ(a.is_register, b.is_register);
    EXPECT_DOUBLE_EQ(a.area, b.area);
    ASSERT_EQ(a.arcs.size(), b.arcs.size());
    for (std::size_t i = 0; i < a.arcs.size(); ++i) {
      EXPECT_EQ(a.arcs[i].from_input, b.arcs[i].from_input);
      EXPECT_EQ(a.arcs[i].delay.values(), b.arcs[i].delay.values());
      EXPECT_EQ(a.arcs[i].out_slew.values(), b.arcs[i].out_slew.values());
    }
  }
  EXPECT_EQ(db::library_fingerprint(*loaded), db::library_fingerprint(lib()));
  // Any bit of payload damage must be caught by the decoder or change the
  // fingerprint.
  std::vector<std::uint8_t> bad = bytes;
  bad.resize(bad.size() / 2);
  EXPECT_FALSE(db::decode_library(bad.data(), bad.size()).has_value());
}

TEST(Codecs, DesignRoundTripFieldForField) {
  const Design d = make_design(91);
  BenchmarkSpec spec;
  spec.name = "db_test_design";
  spec.target_cells = 150;
  spec.endpoints = 20;
  spec.is_training = true;
  spec.seed = 91;
  const std::vector<std::uint8_t> bytes = db::encode_design(spec, d);
  const auto loaded = db::decode_design(bytes.data(), bytes.size(), lib());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->spec.name, spec.name);
  EXPECT_EQ(loaded->spec.target_cells, spec.target_cells);
  EXPECT_EQ(loaded->spec.endpoints, spec.endpoints);
  EXPECT_EQ(loaded->spec.is_training, spec.is_training);
  EXPECT_EQ(loaded->spec.seed, spec.seed);

  const Design& e = loaded->design;
  EXPECT_EQ(e.name(), d.name());
  EXPECT_EQ(e.die(), d.die());
  EXPECT_DOUBLE_EQ(e.clock_period(), d.clock_period());
  ASSERT_EQ(e.cells().size(), d.cells().size());
  ASSERT_EQ(e.pins().size(), d.pins().size());
  ASSERT_EQ(e.nets().size(), d.nets().size());
  for (std::size_t i = 0; i < d.cells().size(); ++i) {
    EXPECT_EQ(e.cells()[i].type, d.cells()[i].type);
    EXPECT_EQ(e.cells()[i].pos, d.cells()[i].pos);
  }
  for (std::size_t i = 0; i < d.pins().size(); ++i) {
    EXPECT_EQ(e.pins()[i].kind, d.pins()[i].kind);
    EXPECT_EQ(e.pins()[i].cell, d.pins()[i].cell);
    EXPECT_EQ(e.pins()[i].net, d.pins()[i].net);
    EXPECT_EQ(e.pins()[i].input_slot, d.pins()[i].input_slot);
    EXPECT_EQ(e.pins()[i].port_pos, d.pins()[i].port_pos);
  }
  for (std::size_t i = 0; i < d.nets().size(); ++i) {
    EXPECT_EQ(e.nets()[i].driver_pin, d.nets()[i].driver_pin);
    EXPECT_EQ(e.nets()[i].sink_pins, d.nets()[i].sink_pins);
  }
  // Truncated payloads are rejected, not crashed on.
  for (std::size_t keep : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(db::decode_design(bytes.data(), keep, lib()).has_value());
  }
}

TEST(Codecs, ForestRoundTripAndRejection) {
  const Design d = make_design(92);
  SteinerForest f = build_forest(d);
  for (SteinerTree& t : f.trees) {
    for (SteinerNode& n : t.nodes) {
      if (n.is_steiner()) n.pos.y += 0.987654321012345;
    }
  }
  const std::vector<std::uint8_t> bytes = db::encode_forest(f);
  const auto loaded = db::decode_forest(bytes.data(), bytes.size());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->net_to_tree, f.net_to_tree);
  EXPECT_EQ(loaded->num_movable(), f.num_movable());
  ASSERT_EQ(loaded->trees.size(), f.trees.size());
  for (std::size_t t = 0; t < f.trees.size(); ++t) {
    const SteinerTree& a = f.trees[t];
    const SteinerTree& b = loaded->trees[t];
    EXPECT_EQ(a.net, b.net);
    EXPECT_EQ(a.driver_node, b.driver_node);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t n = 0; n < a.nodes.size(); ++n) {
      EXPECT_EQ(a.nodes[n].pin, b.nodes[n].pin);
      EXPECT_DOUBLE_EQ(a.nodes[n].pos.x, b.nodes[n].pos.x);
      EXPECT_DOUBLE_EQ(a.nodes[n].pos.y, b.nodes[n].pos.y);
    }
    for (std::size_t e = 0; e < a.edges.size(); ++e) {
      EXPECT_EQ(a.edges[e].a, b.edges[e].a);
      EXPECT_EQ(a.edges[e].b, b.edges[e].b);
    }
  }
  for (std::size_t keep : {std::size_t{0}, bytes.size() / 3, bytes.size() - 2}) {
    EXPECT_FALSE(db::decode_forest(bytes.data(), keep).has_value());
  }
}

TEST(Codecs, ForestRejectsHostileInput) {
  // One-tree FRST payloads; every field but the one under test is valid.
  struct Node {
    int pin;
    double x, y;
  };
  const auto payload = [](std::uint64_t num_nets, std::uint32_t num_trees, int net, int driver,
                          const std::vector<Node>& nodes, int copies = 1) {
    db::ByteWriter w;
    w.u64(num_nets);
    w.u32(num_trees);
    for (int t = 0; t < copies; ++t) {
      w.i32(net);
      w.i32(driver);
      w.u32(static_cast<std::uint32_t>(nodes.size()));
      w.u32(static_cast<std::uint32_t>(nodes.size() - 1));
      for (const Node& n : nodes) {
        w.i32(n.pin);
        w.f64(n.x);
        w.f64(n.y);
      }
      for (std::size_t e = 1; e < nodes.size(); ++e) {
        w.i32(0);
        w.i32(static_cast<int>(e));
      }
    }
    return w.take();
  };
  const auto decodes = [](const std::vector<std::uint8_t>& bytes) {
    return db::decode_forest(bytes.data(), bytes.size()).has_value();
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_TRUE(decodes(payload(1, 1, 0, 0, {{0, 0, 0}, {1, 5, 5}})));
  // Non-finite coordinate.
  EXPECT_FALSE(decodes(payload(1, 1, 0, 0, {{0, nan, 0}, {1, 5, 5}})));
  EXPECT_FALSE(decodes(payload(1, 1, 0, 0, {{0, inf, 0}, {1, 5, 5}})));
  // Pin id below -1.
  EXPECT_FALSE(decodes(payload(1, 1, 0, 0, {{-7, 0, 0}, {1, 5, 5}})));
  // Driver node out of range.
  EXPECT_FALSE(decodes(payload(1, 1, 0, 5, {{0, 0, 0}, {1, 5, 5}})));
  // Two trees claiming the same net.
  EXPECT_FALSE(decodes(payload(1, 2, 0, 0, {{0, 0, 0}}, /*copies=*/2)));
  // Absurd counts must fail before any large allocation.
  EXPECT_FALSE(decodes(payload(99999999999ull, 1, 0, 0, {{0, 0, 0}})));
  db::ByteWriter huge_nodes;
  huge_nodes.u64(1);
  huge_nodes.u32(1);
  huge_nodes.i32(0);
  huge_nodes.i32(0);
  huge_nodes.u32(0xFFFFFFFFu);
  huge_nodes.u32(0);
  EXPECT_FALSE(decodes(huge_nodes.take()));
}

TEST(Codecs, MetaRoundTripFieldForField) {
  db::Meta meta;
  meta.kind = "suite";
  meta.tag = "scale=0.1 seed=3";
  meta.design_count = 6;
  meta.has_model = true;
  meta.final_train_loss = 0.0123456789;
  meta.library_fingerprint = 0xCAFEF00Du;
  const std::vector<std::uint8_t> bytes = db::encode_meta(meta);
  const auto loaded = db::decode_meta(bytes.data(), bytes.size());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->kind, meta.kind);
  EXPECT_EQ(loaded->tag, meta.tag);
  EXPECT_EQ(loaded->design_count, meta.design_count);
  EXPECT_EQ(loaded->has_model, meta.has_model);
  EXPECT_EQ(loaded->final_train_loss, meta.final_train_loss);
  EXPECT_EQ(loaded->library_fingerprint, meta.library_fingerprint);
  EXPECT_FALSE(db::decode_meta(bytes.data(), bytes.size() - 1).has_value());
}

TEST(Codecs, IndexedChunksMustCoverEachIndexExactlyOnce) {
  const std::string path = temp_path("indexed.tsdb");
  // Writes one FRST chunk per entry of `indices` (payload = its index byte).
  const auto collect = [&path](const std::vector<std::uint32_t>& indices, std::uint32_t count) {
    db::DbWriter writer;
    EXPECT_TRUE(writer.open(path));
    for (std::uint32_t i : indices) {
      EXPECT_TRUE(writer.add_chunk(
          db::kChunkForest, db::index_prefixed(i, {static_cast<std::uint8_t>(i)})));
    }
    EXPECT_TRUE(writer.finish());
    db::DbReader reader;
    EXPECT_TRUE(reader.open(path));
    const auto payloads = db::collect_indexed(reader, db::kChunkForest, count);
    std::vector<int> out;
    if (!payloads) return std::optional<std::vector<int>>{};
    for (const auto& p : *payloads) out.push_back(p.size() == 1 ? p[0] : -1);
    return std::optional<std::vector<int>>{out};
  };
  EXPECT_EQ(collect({1, 0}, 2), (std::vector<int>{0, 1}));  // file order is free
  EXPECT_EQ(collect({}, 0), (std::vector<int>{}));
  EXPECT_FALSE(collect({0, 0}, 2).has_value());  // duplicate + gap
  EXPECT_FALSE(collect({0, 0}, 1).has_value());  // duplicate
  EXPECT_FALSE(collect({7}, 1).has_value());     // index past the count
  EXPECT_FALSE(collect({0}, 2).has_value());     // gap
  EXPECT_FALSE(collect({0}, 0).has_value());     // stray chunk

  db::DbWriter writer;
  ASSERT_TRUE(writer.open(path));
  ASSERT_TRUE(writer.add_chunk(db::kChunkForest, {0, 0}));  // shorter than the prefix
  ASSERT_TRUE(writer.finish());
  db::DbReader reader;
  ASSERT_TRUE(reader.open(path));
  EXPECT_FALSE(db::collect_indexed(reader, db::kChunkForest, 1).has_value());
}

/// The model in the MODL chunk of the container at `path`, read the way the
/// suite snapshot reads it; nullopt when the container or the payload is
/// rejected.
std::optional<TimingGnn> read_model_chunk(const std::string& path, const GnnConfig& cfg,
                                          const std::string& tag) {
  db::DbReader reader;
  if (!reader.open(path)) return std::nullopt;
  const db::ChunkInfo* chunk = reader.find(db::kChunkModel);
  if (chunk == nullptr) return std::nullopt;
  return decode_model_payload(reader.payload(*chunk), static_cast<std::size_t>(chunk->size),
                              cfg, lib().num_types(), tag);
}

TEST(ModelSerialize, ContainerRoundTripAndMismatchRejection) {
  GnnConfig cfg;
  cfg.hidden = 12;
  cfg.type_embed = 6;
  TimingGnn model(cfg, lib().num_types());
  const std::string path = temp_path("model_rt.tsdb");
  db::DbWriter writer;
  ASSERT_TRUE(writer.open(path));
  ASSERT_TRUE(writer.add_chunk(db::kChunkModel, encode_model_payload(model, "tag-a")));
  ASSERT_TRUE(writer.finish());

  const auto loaded = read_model_chunk(path, cfg, "tag-a");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->parameters().size(), model.parameters().size());
  for (std::size_t p = 0; p < model.parameters().size(); ++p) {
    const Tensor& a = model.parameters()[p];
    const Tensor& b = loaded->parameters()[p];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }

  // Wrong tag or wrong architecture must be rejected.
  EXPECT_FALSE(read_model_chunk(path, cfg, "tag-b").has_value());
  GnnConfig other = cfg;
  other.hidden = 16;
  EXPECT_FALSE(read_model_chunk(path, other, "tag-a").has_value());

  // Corrupt the file: the container CRC catches it.
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x10;
  write_file(path, bytes);
  EXPECT_FALSE(read_model_chunk(path, cfg, "tag-a").has_value());
}

TEST(ModelSerialize, PlainTextFileIsRejected) {
  // Starts like the retired plain-text model format, with a matching tag:
  // neither the container reader nor the payload decode accepts it.
  GnnConfig cfg;
  cfg.hidden = 10;
  const std::string path = temp_path("model_legacy.txt");
  const std::string text = "tsteiner-model-v1\ntag legacy-tag\ncfg 10\n0\n";
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  write_file(path, bytes);
  EXPECT_FALSE(read_model_chunk(path, cfg, "legacy-tag").has_value());
  EXPECT_FALSE(
      decode_model_payload(bytes.data(), bytes.size(), cfg, lib().num_types(), "legacy-tag"));
}

TEST(Snapshot, SuiteOptionsTagPinned) {
  // Snapshots written by earlier builds must keep matching: the tag encodes
  // the same settings, in the same order, whether they are option fields or
  // constants.
  EXPECT_EQ(suite_options_tag(SuiteOptions{}),
            "scale=0.1200 seed=2023 epochs=60 opts=F02A1931");
}

TEST(Snapshot, SuiteRoundTripRestoresEverything) {
  SuiteOptions options;
  options.scale = 0.05;

  TrainedSuite suite;
  suite.lib = std::make_unique<CellLibrary>(CellLibrary::make_default());
  BenchmarkSpec spec;
  spec.name = "snap_suite_0";
  spec.target_cells = 300;
  spec.endpoints = 30;
  spec.is_training = true;
  spec.seed = 11;
  suite.designs.push_back(prepare_design(*suite.lib, spec, 1.0, options.flow));
  spec.name = "snap_suite_1";
  spec.seed = 12;
  suite.designs.push_back(prepare_design(*suite.lib, spec, 1.0, options.flow));
  for (PreparedDesign& pd : suite.designs) {
    suite.base_samples.push_back(make_training_sample(pd, pd.flow->initial_forest()));
  }
  suite.model = std::make_unique<TimingGnn>(options.gnn, suite.lib->num_types());
  suite.final_train_loss = 0.042;

  const std::string path = temp_path("suite_snap.tsdb");
  ASSERT_TRUE(save_suite_snapshot(suite, options, path));

  const auto warm = load_suite_snapshot(path, options);
  ASSERT_TRUE(warm.has_value());
  EXPECT_DOUBLE_EQ(warm->final_train_loss, suite.final_train_loss);
  ASSERT_EQ(warm->designs.size(), suite.designs.size());
  ASSERT_EQ(warm->base_samples.size(), suite.base_samples.size());
  ASSERT_NE(warm->model, nullptr);

  for (std::size_t i = 0; i < suite.designs.size(); ++i) {
    const PreparedDesign& a = suite.designs[i];
    const PreparedDesign& b = warm->designs[i];
    EXPECT_EQ(b.spec.name, a.spec.name);
    // Labels are bit-identical, not re-derived.
    EXPECT_EQ(warm->base_samples[i].arrival_label, suite.base_samples[i].arrival_label);
    EXPECT_EQ(warm->base_samples[i].xs, suite.base_samples[i].xs);
    EXPECT_EQ(warm->base_samples[i].endpoint_pins, suite.base_samples[i].endpoint_pins);
    // And sign-off on the restored flow reproduces cold metrics bit-exactly.
    const FlowResult ra = a.flow->run_signoff(a.flow->initial_forest());
    const FlowResult rb = b.flow->run_signoff(b.flow->initial_forest());
    EXPECT_EQ(std::memcmp(&ra.metrics, &rb.metrics, sizeof(ra.metrics)), 0);
  }
  for (std::size_t p = 0; p < suite.model->parameters().size(); ++p) {
    const Tensor& a = suite.model->parameters()[p];
    const Tensor& b = warm->model->parameters()[p];
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }

  // A different options fingerprint must reject the snapshot.
  SuiteOptions other = options;
  other.seed += 1;
  EXPECT_FALSE(load_suite_snapshot(path, other).has_value());

  // And payload corruption must reject it via the container CRC.
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[bytes.size() / 3] ^= 0x01;
  write_file(path, bytes);
  EXPECT_FALSE(load_suite_snapshot(path, options).has_value());
}

/// Evaluator parameters of a suite, flattened for a bitwise comparison.
std::vector<double> model_bits(const TrainedSuite& suite) {
  std::vector<double> bits;
  for (const Tensor& p : suite.model->parameters()) {
    for (std::size_t i = 0; i < p.size(); ++i) bits.push_back(p[i]);
  }
  return bits;
}

/// Runs a test body in its own working directory with TSTEINER_DB and
/// TSTEINER_NO_CACHE unset; restores the working directory and unsets both
/// afterwards.
struct SuiteCacheSandbox {
  std::filesystem::path old_cwd = std::filesystem::current_path();
  explicit SuiteCacheSandbox(const std::string& dir) {
    unsetenv("TSTEINER_DB");
    unsetenv("TSTEINER_NO_CACHE");
    std::filesystem::current_path(dir);
  }
  ~SuiteCacheSandbox() {
    std::filesystem::current_path(old_cwd);
    unsetenv("TSTEINER_DB");
    unsetenv("TSTEINER_NO_CACHE");
  }
};

TEST(Snapshot, SuiteCacheNeverServesAnotherSuitesModel) {
  // Two suites that differ only in a router knob share the default cache
  // file of one working directory. The second is keyed apart and rebuilt,
  // so its evaluator bit-equals an uncached build rather than the first
  // suite's; a third build restores it from the cache, training loss too.
  // A last leg checks an explicit TSTEINER_DB path.
  SuiteCacheSandbox sandbox(testutil::test_tmp_dir());
  SuiteOptions first;
  first.scale = 0.005;
  first.perturb_per_design = 1;
  first.train.epochs = 1;
  SuiteOptions second = first;
  second.flow.router.capacity_factor *= 0.5;

  const TrainedSuite a = build_and_train_suite(first);
  ASSERT_TRUE(std::filesystem::exists(kSuiteCacheFile));
  const TrainedSuite b = build_and_train_suite(second);
  setenv("TSTEINER_NO_CACHE", "1", 1);
  const TrainedSuite fresh = build_and_train_suite(second);
  unsetenv("TSTEINER_NO_CACHE");
  ASSERT_NE(model_bits(a), model_bits(fresh)) << "the knob must change the labels";
  EXPECT_EQ(model_bits(b), model_bits(fresh));

  const TrainedSuite warm = build_and_train_suite(second);
  EXPECT_EQ(model_bits(warm), model_bits(fresh));
  EXPECT_NE(fresh.final_train_loss, 0.0);
  EXPECT_EQ(warm.final_train_loss, fresh.final_train_loss);

  // An explicit TSTEINER_DB takes the snapshot instead of the default file,
  // and a warm run from it bit-equals the cold run in sign-off metrics,
  // labels and evaluator parameters.
  const std::string db = std::filesystem::absolute("explicit.tsdb").string();
  setenv("TSTEINER_DB", db.c_str(), 1);
  SuiteOptions third;
  third.scale = 0.03;
  third.perturb_per_design = 3;
  third.train.epochs = 2;
  third.train.lr = 1e-3;
  const auto default_file_before = std::filesystem::last_write_time(kSuiteCacheFile);
  const TrainedSuite cold3 = build_and_train_suite(third);
  ASSERT_TRUE(load_suite_snapshot(db, third).has_value());
  EXPECT_TRUE(std::filesystem::last_write_time(kSuiteCacheFile) == default_file_before);
  const TrainedSuite warm3 = build_and_train_suite(third);
  ASSERT_EQ(warm3.designs.size(), cold3.designs.size());
  for (std::size_t i = 0; i < cold3.designs.size(); ++i) {
    const Flow& fa = *cold3.designs[i].flow;
    const Flow& fb = *warm3.designs[i].flow;
    const SignoffMetrics ma = fa.run_signoff(fa.initial_forest()).metrics;
    const SignoffMetrics mb = fb.run_signoff(fb.initial_forest()).metrics;
    EXPECT_EQ(std::memcmp(&ma, &mb, sizeof(SignoffMetrics)), 0) << cold3.designs[i].spec.name;
  }
  ASSERT_EQ(warm3.base_samples.size(), cold3.base_samples.size());
  for (std::size_t i = 0; i < cold3.base_samples.size(); ++i) {
    const std::vector<double>& la = cold3.base_samples[i].arrival_label;
    const std::vector<double>& lb = warm3.base_samples[i].arrival_label;
    ASSERT_EQ(la.size(), lb.size());
    EXPECT_EQ(std::memcmp(la.data(), lb.data(), la.size() * sizeof(double)), 0) << i;
  }
  const std::vector<double> pa = model_bits(cold3);
  const std::vector<double> pb = model_bits(warm3);
  ASSERT_EQ(pa.size(), pb.size());
  EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)), 0);
}

}  // namespace
}  // namespace tsteiner
