// Exit-code contract of the tsteiner_db CLI: 0 = success, 1 = unreadable /
// corrupt / missing data, 2 = usage error. The binary path is injected by
// CMake as TSTEINER_DB_TOOL.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "testutil.hpp"
#include "db/bytes.hpp"
#include "db/codecs.hpp"
#include "flow/experiment.hpp"
#include "flow/flow.hpp"
#include "flow/snapshot.hpp"
#include "serve/session.hpp"
#include "verify/case_gen.hpp"

namespace tsteiner {
namespace {

int run_tool(const std::string& args) {
  const std::string cmd =
      std::string(TSTEINER_DB_TOOL) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small, fully valid snapshot container to probe against.
std::string make_snapshot(const std::string& dir) {
  const std::string path = dir + "/probe.tsdb";
  const verify::FuzzCase c = verify::make_case(101, "tiny");
  EXPECT_TRUE(verify::save_case_snapshot(c, path));
  return path;
}

/// A serve snapshot of fuzz case 7, as `tsteiner_serve mksnap --seed 7`
/// writes it (optionally with both models).
std::string make_serve_snapshot(const std::string& dir, bool with_models) {
  const std::string path = dir + (with_models ? "/serve_models.tsdb" : "/serve.tsdb");
  const verify::FuzzCase c = verify::make_case(7, "tiny");
  Design design = c.design;
  const Flow flow(&design);
  BenchmarkSpec spec;
  spec.name = c.params.name;
  spec.target_cells = static_cast<int>(c.num_cells());
  spec.endpoints = static_cast<int>(design.endpoint_pins().size());
  spec.seed = 7;
  GnnConfig cfg;
  cfg.hidden = 6;
  cfg.type_embed = 4;
  cfg.delay_hidden = 8;
  const TimingGnn model(cfg, verify::fuzz_library().num_types());
  const SteinerPredictor steiner(SteinerPredictorConfig{});
  EXPECT_TRUE(serve::save_session_snapshot(spec, design, flow.calibration(),
                                           flow.initial_forest(), verify::fuzz_library(),
                                           with_models ? &model : nullptr,
                                           with_models ? &steiner : nullptr, path));
  return path;
}

/// A two-design suite snapshot with an untrained evaluator, as
/// build_and_train_suite writes it.
std::string make_suite_snapshot(const std::string& dir) {
  const std::string path = dir + "/suite.tsdb";
  const SuiteOptions options;
  TrainedSuite suite;
  suite.lib = std::make_unique<CellLibrary>(CellLibrary::make_default());
  BenchmarkSpec spec;
  spec.target_cells = 120;
  spec.endpoints = 12;
  for (std::uint64_t seed : {21, 22}) {
    spec.name = "tool_suite_" + std::to_string(seed);
    spec.seed = seed;
    suite.designs.push_back(prepare_design(*suite.lib, spec, 1.0, options.flow));
  }
  for (PreparedDesign& pd : suite.designs) {
    suite.base_samples.push_back(make_training_sample(pd, pd.flow->initial_forest()));
  }
  suite.model = std::make_unique<TimingGnn>(options.gnn, suite.lib->num_types());
  EXPECT_TRUE(save_suite_snapshot(suite, options, path));
  return path;
}

using Chunk = std::pair<std::uint32_t, std::vector<std::uint8_t>>;

/// Copy the container at `src` to `dst` chunk by chunk (CRCs recomputed),
/// letting `edit` replace each chunk with any number of chunks.
void rewrite(const std::string& src, const std::string& dst,
             const std::function<std::vector<Chunk>(Chunk)>& edit) {
  db::DbReader reader;
  ASSERT_TRUE(reader.open(src));
  db::DbWriter writer;
  ASSERT_TRUE(writer.open(dst));
  for (const db::ChunkInfo& c : reader.chunks()) {
    const std::uint8_t* data = reader.payload(c);
    for (const Chunk& out : edit({c.type, std::vector<std::uint8_t>(data, data + c.size)})) {
      ASSERT_TRUE(writer.add_chunk(out.first, out.second));
    }
  }
  ASSERT_TRUE(writer.finish());
}

bool is_per_design(std::uint32_t type) {
  return type == db::kChunkDesign || type == db::kChunkFlowCal || type == db::kChunkForest;
}

TEST(DbTool, VerifyPassesEveryContainerKind) {
  const std::string dir = testutil::test_tmp_dir();
  EXPECT_EQ(run_tool("verify " + make_snapshot(dir)), 0);             // fuzz-case
  EXPECT_EQ(run_tool("verify " + make_serve_snapshot(dir, false)), 0);  // serve
  EXPECT_EQ(run_tool("verify " + make_serve_snapshot(dir, true)), 0);   // serve + models
  EXPECT_EQ(run_tool("verify " + make_suite_snapshot(dir)), 0);     // suite
}

TEST(DbTool, VerifyAndServeRejectDesignIndexBeyondCount) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string bad = dir + "/index7.tsdb";
  rewrite(make_serve_snapshot(dir, false), bad, [](Chunk c) {
    if (is_per_design(c.first)) {
      db::ByteReader r(c.second.data(), 4);
      EXPECT_EQ(r.u32(), 0u);
      c.second = db::index_prefixed(7, std::vector<std::uint8_t>(c.second.begin() + 4,
                                                                 c.second.end()));
    }
    return std::vector<Chunk>{c};
  });
  EXPECT_EQ(run_tool("verify " + bad), 1);
  std::string error;
  EXPECT_EQ(serve::load_session_design(bad, FlowOptions{}, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(DbTool, VerifyAndServeRejectDuplicateDesignChunk) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string bad = dir + "/dup.tsdb";
  rewrite(make_serve_snapshot(dir, false), bad, [](Chunk c) {
    if (c.first == db::kChunkDesign) return std::vector<Chunk>{c, c};
    return std::vector<Chunk>{c};
  });
  EXPECT_EQ(run_tool("verify " + bad), 1);
  std::string error;
  EXPECT_EQ(serve::load_session_design(bad, FlowOptions{}, &error), nullptr);
  EXPECT_NE(error.find("DSGN"), std::string::npos) << error;
}

TEST(DbTool, InfoAndVerifySucceedOnValidContainer) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string path = make_snapshot(dir);
  EXPECT_EQ(run_tool("info " + path), 0);
  EXPECT_EQ(run_tool("verify " + path), 0);
}

TEST(DbTool, VerifyRejectsTruncatedContainer) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string path = make_snapshot(dir);
  std::vector<char> bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() - 10);  // cut into the FEND trailer / last chunk
  const std::string cut = dir + "/cut.tsdb";
  write_bytes(cut, bytes);
  EXPECT_EQ(run_tool("verify " + cut), 1);
  EXPECT_EQ(run_tool("info " + cut), 1);
}

TEST(DbTool, VerifyRejectsBitFlippedPayload) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string path = make_snapshot(dir);
  std::vector<char> bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 128u);
  bytes[bytes.size() / 2] ^= 0x01;  // lands inside some chunk payload; CRC must catch
  const std::string flipped = dir + "/flipped.tsdb";
  write_bytes(flipped, bytes);
  EXPECT_EQ(run_tool("verify " + flipped), 1);
}

TEST(DbTool, MissingFileFails) {
  const std::string dir = testutil::test_tmp_dir();
  EXPECT_EQ(run_tool("info " + dir + "/does_not_exist.tsdb"), 1);
  EXPECT_EQ(run_tool("verify " + dir + "/does_not_exist.tsdb"), 1);
}

TEST(DbTool, UsageErrorsExitTwo) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string path = make_snapshot(dir);
  EXPECT_EQ(run_tool(""), 2);                    // no command
  EXPECT_EQ(run_tool("info"), 2);                // missing file argument
  EXPECT_EQ(run_tool("frobnicate " + path), 2);  // unknown command
  EXPECT_EQ(run_tool("extract " + path), 2);     // missing type/out arguments
  EXPECT_EQ(run_tool("extract " + path + " TOOLONGNAME " + dir + "/o"), 2);
}

TEST(DbTool, ExtractForestAndRawChunks) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string path = make_snapshot(dir);
  const std::string forest_out = dir + "/forest.txt";
  EXPECT_EQ(run_tool("extract " + path + " FRST " + forest_out), 0);
  EXPECT_TRUE(std::filesystem::exists(forest_out));
  EXPECT_GT(std::filesystem::file_size(forest_out), 0u);

  const std::string raw_out = dir + "/meta.bin";
  EXPECT_EQ(run_tool("extract " + path + " META " + raw_out), 0);
  EXPECT_TRUE(std::filesystem::exists(raw_out));

  // Out-of-range chunk index and absent chunk type are data errors, not
  // usage errors.
  EXPECT_EQ(run_tool("extract " + path + " FRST " + dir + "/x 5"), 1);
  EXPECT_EQ(run_tool("extract " + path + " ZZZZ " + dir + "/y"), 1);
}

}  // namespace
}  // namespace tsteiner
