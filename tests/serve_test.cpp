// tsteiner_serve coverage: frame codec round-trips and strict rejection
// (truncation, oversize, bit flips), schema-v1 request parsing, the session
// LRU (byte-budget eviction, warm re-restore, fingerprint-mismatch
// rejection), an end-to-end differential test pinning server responses
// bit-for-bit to the direct Flow / IncrementalSignoff API, and the request
// scheduling (one session from two connections, pipelining, pool use).
#include <gtest/gtest.h>

#include "testutil.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/framing.hpp"
#include "serve/ops.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "tsteiner/refine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "verify/case_gen.hpp"

namespace tsteiner {
namespace {

using serve::Frame;
using serve::FrameDecoder;
using serve::FrameKind;

std::string temp_path(const char* name) { return testutil::test_tmp_dir() + "/" + name; }

bool bits_eq(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Write a serve snapshot for fuzz case `seed` and return its path.
std::string write_snapshot(std::uint64_t seed, const char* name, bool with_model = false,
                           bool with_steiner = true, const char* scale = "tiny") {
  const verify::FuzzCase c = verify::make_case(seed, scale);
  Design design = c.design;
  const Flow flow(&design);
  BenchmarkSpec spec;
  spec.name = c.params.name;
  spec.target_cells = static_cast<int>(c.num_cells());
  spec.endpoints = static_cast<int>(design.endpoint_pins().size());
  spec.seed = seed;
  GnnConfig cfg;
  cfg.hidden = 6;
  cfg.type_embed = 4;
  cfg.delay_hidden = 8;
  cfg.seed = Rng::mix(seed, 0x90de1);
  const TimingGnn model(cfg, verify::fuzz_library().num_types());
  const std::string path = temp_path(name);
  EXPECT_TRUE(serve::save_session_snapshot(
      spec, design, flow.calibration(), flow.initial_forest(), verify::fuzz_library(),
      with_model ? &model : nullptr,
      with_steiner ? SteinerPredictor::shared_pretrained().get() : nullptr, path));
  return path;
}

// --- framing ----------------------------------------------------------------

TEST(Framing, RoundTripAllKinds) {
  for (const FrameKind kind : {FrameKind::kRequest, FrameKind::kResponse,
                               FrameKind::kProgress, FrameKind::kError}) {
    const Frame in{kind, "{\"v\":1,\"id\":42}"};
    const std::vector<std::uint8_t> bytes = serve::encode_frame(in);
    ASSERT_EQ(bytes.size(), serve::kFrameHeaderBytes + in.payload.size());
    FrameDecoder dec;
    std::vector<Frame> out;
    ASSERT_TRUE(dec.feed(bytes.data(), bytes.size(), &out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, kind);
    EXPECT_EQ(out[0].payload, in.payload);
  }
}

TEST(Framing, EmptyPayloadAndByteAtATime) {
  const std::vector<std::uint8_t> a = serve::encode_frame({FrameKind::kRequest, ""});
  const std::vector<std::uint8_t> b =
      serve::encode_frame({FrameKind::kResponse, std::string(10000, 'x')});
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());
  FrameDecoder dec;
  std::vector<Frame> out;
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(dec.feed(&byte, 1, &out));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload, "");
  EXPECT_EQ(out[1].payload.size(), 10000u);
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Framing, TruncationIsPendingNotError) {
  const std::vector<std::uint8_t> bytes =
      serve::encode_frame({FrameKind::kRequest, "{\"v\":1}"});
  FrameDecoder dec;
  std::vector<Frame> out;
  ASSERT_TRUE(dec.feed(bytes.data(), bytes.size() - 3, &out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(dec.poisoned());
  EXPECT_GT(dec.pending_bytes(), 0u);
}

TEST(Framing, BadMagicPoisons) {
  std::vector<std::uint8_t> bytes = serve::encode_frame({FrameKind::kRequest, "{}"});
  bytes[0] = 'X';
  FrameDecoder dec;
  std::vector<Frame> out;
  EXPECT_FALSE(dec.feed(bytes.data(), bytes.size(), &out));
  EXPECT_TRUE(dec.poisoned());
  EXPECT_NE(dec.error().find("magic"), std::string::npos);
  // Poisoned decoders reject even well-formed frames afterward.
  const std::vector<std::uint8_t> good = serve::encode_frame({FrameKind::kRequest, "{}"});
  EXPECT_FALSE(dec.feed(good.data(), good.size(), &out));
  EXPECT_TRUE(out.empty());
}

TEST(Framing, WrongVersionUnknownKindOversizePoison) {
  {
    std::vector<std::uint8_t> bytes = serve::encode_frame({FrameKind::kRequest, "{}"});
    bytes[4] = 99;  // version
    FrameDecoder dec;
    std::vector<Frame> out;
    EXPECT_FALSE(dec.feed(bytes.data(), bytes.size(), &out));
  }
  {
    std::vector<std::uint8_t> bytes = serve::encode_frame({FrameKind::kRequest, "{}"});
    bytes[8] = 77;  // kind
    FrameDecoder dec;
    std::vector<Frame> out;
    EXPECT_FALSE(dec.feed(bytes.data(), bytes.size(), &out));
  }
  {
    // A length above the configured cap must be rejected from the header
    // alone, before any allocation.
    std::vector<std::uint8_t> bytes = serve::encode_frame({FrameKind::kRequest, "{}"});
    const std::uint64_t huge = 1ull << 40;
    std::memcpy(&bytes[12], &huge, sizeof(huge));
    FrameDecoder dec(/*max_payload_bytes=*/1024);
    std::vector<Frame> out;
    EXPECT_FALSE(dec.feed(bytes.data(), bytes.size(), &out));
    EXPECT_NE(dec.error().find("payload"), std::string::npos);
  }
}

TEST(Framing, EveryPayloadBitFlipIsCaught) {
  const Frame in{FrameKind::kResponse, "{\"v\":1,\"id\":7,\"ok\":true}"};
  const std::vector<std::uint8_t> bytes = serve::encode_frame(in);
  for (std::size_t i = serve::kFrameHeaderBytes; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> corrupt = bytes;
      corrupt[i] ^= static_cast<std::uint8_t>(1u << bit);
      FrameDecoder dec;
      std::vector<Frame> out;
      EXPECT_FALSE(dec.feed(corrupt.data(), corrupt.size(), &out))
          << "flip at byte " << i << " bit " << bit << " not caught";
      EXPECT_NE(dec.error().find("CRC"), std::string::npos);
    }
  }
}

// --- protocol ---------------------------------------------------------------

TEST(Protocol, RequestRoundTrip) {
  serve::Request in;
  in.type = serve::RequestType::kWhatIf;
  in.id = 99;
  in.session = "s3";
  in.fingerprint = "DEADBEEF";
  in.moves.push_back({5, 1.25, -0.5});
  in.moves.push_back({7, 0.1, 0.2});  // 0.1/0.2 don't round-trip via decimal
  std::string error;
  const auto out = serve::parse_request(serve::encode_request(in), &error);
  ASSERT_TRUE(out.has_value()) << error;
  EXPECT_EQ(out->type, serve::RequestType::kWhatIf);
  EXPECT_EQ(out->id, 99u);
  EXPECT_EQ(out->session, "s3");
  EXPECT_EQ(out->fingerprint, "DEADBEEF");
  ASSERT_EQ(out->moves.size(), 2u);
  EXPECT_EQ(out->moves[1].net, 7);
  // The _bits fields carry exact coordinates across the wire.
  EXPECT_TRUE(bits_eq(out->moves[1].dx, 0.1));
  EXPECT_TRUE(bits_eq(out->moves[1].dy, 0.2));
}

TEST(Protocol, StrictParseRejections) {
  std::string error;
  EXPECT_FALSE(serve::parse_request("not json", &error).has_value());
  EXPECT_FALSE(serve::parse_request("{\"id\":1,\"type\":\"ping\"}", &error).has_value())
      << "missing v must be rejected";
  EXPECT_FALSE(
      serve::parse_request("{\"v\":2,\"id\":1,\"type\":\"ping\"}", &error).has_value())
      << "future schema version must be rejected";
  EXPECT_FALSE(
      serve::parse_request("{\"v\":1,\"id\":1,\"type\":\"frobnicate\"}", &error).has_value());
  EXPECT_FALSE(serve::parse_request("{\"v\":1,\"id\":1,\"type\":\"open\"}", &error)
                   .has_value())
      << "open without a snapshot path must be rejected";
  EXPECT_FALSE(serve::parse_request("{\"v\":1,\"id\":1,\"type\":\"whatif\"}", &error)
                   .has_value())
      << "session ops without session/fingerprint must be rejected";
}

TEST(Protocol, WirelengthRoundTripAndStrictness) {
  // Round trip: pin coordinates survive the wire exactly via _bits.
  serve::Request in;
  in.type = serve::RequestType::kWirelength;
  in.id = 17;
  in.session = "s1";
  in.fingerprint = "F00D";
  in.pin_sets.push_back({{0.1, 0.2}, {3.7, 4.9}});
  in.pin_sets.push_back({{10.0, 20.0}, {1.0 / 3.0, 2.0 / 7.0}, {5.5, -0.25}});
  std::string error;
  const auto out = serve::parse_request(serve::encode_request(in), &error);
  ASSERT_TRUE(out.has_value()) << error;
  EXPECT_EQ(out->type, serve::RequestType::kWirelength);
  ASSERT_EQ(out->pin_sets.size(), 2u);
  ASSERT_EQ(out->pin_sets[0].size(), 2u);
  ASSERT_EQ(out->pin_sets[1].size(), 3u);
  EXPECT_TRUE(bits_eq(out->pin_sets[0][0].x, 0.1));
  EXPECT_TRUE(bits_eq(out->pin_sets[0][0].y, 0.2));
  EXPECT_TRUE(bits_eq(out->pin_sets[1][1].x, 1.0 / 3.0));
  EXPECT_TRUE(bits_eq(out->pin_sets[1][1].y, 2.0 / 7.0));

  // Strict schema: each malformation gets a clean rejection, not a crash.
  const char* kBad[] = {
      // no nets array
      "{\"v\":1,\"id\":1,\"type\":\"wirelength\",\"session\":\"s\",\"fingerprint\":\"F\"}",
      // empty nets array
      "{\"v\":1,\"id\":1,\"type\":\"wirelength\",\"session\":\"s\",\"fingerprint\":\"F\","
      "\"nets\":[]}",
      // net entry is not an object
      "{\"v\":1,\"id\":1,\"type\":\"wirelength\",\"session\":\"s\",\"fingerprint\":\"F\","
      "\"nets\":[42]}",
      // net without pins
      "{\"v\":1,\"id\":1,\"type\":\"wirelength\",\"session\":\"s\",\"fingerprint\":\"F\","
      "\"nets\":[{}]}",
      // fewer than 2 pins
      "{\"v\":1,\"id\":1,\"type\":\"wirelength\",\"session\":\"s\",\"fingerprint\":\"F\","
      "\"nets\":[{\"pins\":[{\"x\":0,\"y\":0}]}]}",
      // pin is not an object
      "{\"v\":1,\"id\":1,\"type\":\"wirelength\",\"session\":\"s\",\"fingerprint\":\"F\","
      "\"nets\":[{\"pins\":[7,8]}]}",
      // pin missing a coordinate
      "{\"v\":1,\"id\":1,\"type\":\"wirelength\",\"session\":\"s\",\"fingerprint\":\"F\","
      "\"nets\":[{\"pins\":[{\"x\":0},{\"x\":1,\"y\":1}]}]}",
      // session ops without session/fingerprint
      "{\"v\":1,\"id\":1,\"type\":\"wirelength\",\"nets\":[{\"pins\":"
      "[{\"x\":0,\"y\":0},{\"x\":1,\"y\":1}]}]}",
  };
  for (const char* payload : kBad) {
    EXPECT_FALSE(serve::parse_request(payload, &error).has_value()) << payload;
  }
}

TEST(Protocol, RefineTopologyFlagRoundTripAndStrictness) {
  serve::Request in;
  in.type = serve::RequestType::kRefine;
  in.id = 21;
  in.session = "s9";
  in.fingerprint = "BEEF";
  in.iterations = 3;
  in.topology = true;
  std::string error;
  const auto on = serve::parse_request(serve::encode_request(in), &error);
  ASSERT_TRUE(on.has_value()) << error;
  EXPECT_TRUE(on->topology);

  // Absent flag parses to the off default (and the encoder omits it, so the
  // off-path wire bytes are unchanged from the pre-topology schema).
  in.topology = false;
  const std::string encoded = serve::encode_request(in);
  EXPECT_EQ(encoded.find("topology"), std::string::npos);
  const auto off = serve::parse_request(encoded, &error);
  ASSERT_TRUE(off.has_value()) << error;
  EXPECT_FALSE(off->topology);

  // Strict parse: a non-boolean topology field is a clean rejection.
  EXPECT_FALSE(serve::parse_request(
                   "{\"v\":1,\"id\":1,\"type\":\"refine\",\"session\":\"s\","
                   "\"fingerprint\":\"F\",\"topology\":1}",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("topology"), std::string::npos) << error;
}

TEST(Protocol, DoubleBitsHexRoundTrip) {
  for (const double v : {0.0, -0.0, 1.0, -1.5, 0.1, 1e-300, 1e300}) {
    double back = 123.0;
    ASSERT_TRUE(serve::double_from_bits_hex(serve::double_bits_hex(v), &back));
    EXPECT_TRUE(bits_eq(v, back));
  }
  double back;
  EXPECT_FALSE(serve::double_from_bits_hex("XYZ", &back));
  EXPECT_FALSE(serve::double_from_bits_hex("3FF", &back));
}

// --- session LRU ------------------------------------------------------------

TEST(SessionManager, EvictionUnderByteBudgetAndWarmRerestore) {
  const std::string snap_a = write_snapshot(11, "a.tsdb");
  const std::string snap_b = write_snapshot(12, "b.tsdb");

  serve::SessionManager::Options opts;
  opts.budget_bytes = 1;  // everything but the MRU entry is over budget
  serve::SessionManager mgr(opts);

  std::string error;
  auto sa = mgr.open(snap_a, &error);
  ASSERT_NE(sa, nullptr) << error;
  const double wl_a = sa->forest.total_wirelength();
  EXPECT_EQ(mgr.stats().loads, 1u);
  EXPECT_EQ(mgr.stats().cached_designs, 1u);  // MRU survives any budget

  auto sb = mgr.open(snap_b, &error);
  ASSERT_NE(sb, nullptr) << error;
  EXPECT_EQ(mgr.stats().loads, 2u);
  EXPECT_GE(mgr.stats().evictions, 1u);
  EXPECT_EQ(mgr.stats().cached_designs, 1u);
  // Eviction never invalidates the live session that pins the design.
  EXPECT_EQ(sa->loaded->path, snap_a);

  // Re-open after eviction: a cold re-restore that must agree exactly with
  // the first restore.
  auto sa2 = mgr.open(snap_a, &error);
  ASSERT_NE(sa2, nullptr) << error;
  EXPECT_EQ(mgr.stats().loads, 3u);
  EXPECT_TRUE(bits_eq(sa2->forest.total_wirelength(), wl_a));
  EXPECT_EQ(sa2->loaded->fingerprint, sa->loaded->fingerprint);
}

TEST(SessionManager, CacheHitSharesTheLoadedDesign) {
  const std::string snap = write_snapshot(13, "c.tsdb");
  serve::SessionManager mgr({});
  std::string error;
  auto s1 = mgr.open(snap, &error);
  ASSERT_NE(s1, nullptr) << error;
  auto s2 = mgr.open(snap, &error);
  ASSERT_NE(s2, nullptr) << error;
  EXPECT_EQ(mgr.stats().loads, 1u);
  EXPECT_EQ(mgr.stats().cache_hits, 1u);
  EXPECT_EQ(s1->loaded.get(), s2->loaded.get());  // shared, not re-restored
  EXPECT_NE(s1->id, s2->id);
}

TEST(SessionManager, FingerprintMismatchRejection) {
  const std::string snap = write_snapshot(14, "d.tsdb");
  serve::SessionManager mgr({});
  std::string error;
  auto s = mgr.open(snap, &error);
  ASSERT_NE(s, nullptr) << error;

  EXPECT_NE(mgr.find(s->id, s->loaded->fingerprint, &error), nullptr);
  EXPECT_EQ(mgr.find(s->id, "00000000", &error), nullptr);
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
  EXPECT_EQ(mgr.find("s999", s->loaded->fingerprint, &error), nullptr);
}

TEST(SessionManager, StaleSnapshotFileIsReloaded) {
  // Rewriting the file under the same path must not serve the cached design.
  const std::string snap = write_snapshot(15, "e.tsdb");
  serve::SessionManager mgr({});
  std::string error;
  auto s1 = mgr.open(snap, &error);
  ASSERT_NE(s1, nullptr) << error;
  const std::string fp1 = s1->loaded->fingerprint;

  const verify::FuzzCase c = verify::make_case(16, "tiny");
  Design design = c.design;
  const Flow flow(&design);
  BenchmarkSpec spec;
  spec.seed = 16;
  ASSERT_TRUE(serve::save_session_snapshot(spec, design, flow.calibration(),
                                           flow.initial_forest(), verify::fuzz_library(),
                                           nullptr, nullptr, snap));
  auto s2 = mgr.open(snap, &error);
  ASSERT_NE(s2, nullptr) << error;
  EXPECT_NE(s2->loaded->fingerprint, fp1);
  EXPECT_EQ(mgr.stats().loads, 2u);
  // The first session still pins its (now stale) design and still validates
  // against the fingerprint it was opened with.
  EXPECT_NE(mgr.find(s1->id, fp1, &error), nullptr);
}

// --- end-to-end server ------------------------------------------------------

struct RawConn {
  int fd = -1;
  FrameDecoder decoder;
  std::vector<Frame> frames;

  explicit RawConn(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  void send(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Read until one more frame arrives or EOF; returns false on EOF.
  bool read_frame() {
    const std::size_t had = frames.size();
    std::uint8_t buf[4096];
    while (frames.size() == had) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) return false;
      if (!decoder.feed(buf, static_cast<std::size_t>(n), &frames)) return false;
    }
    return true;
  }
};

struct OpenedSession {
  std::string id, fingerprint;
};

OpenedSession open_session(serve::ServeClient& client, const std::string& snap) {
  const auto opened = client.open(snap);
  EXPECT_TRUE(opened.ok) << opened.error;
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  if (session == nullptr || fingerprint == nullptr) return {};
  return {session->str, fingerprint->str};
}

serve::Request session_request(serve::RequestType type, const OpenedSession& s) {
  serve::Request req;
  req.type = type;
  req.session = s.id;
  req.fingerprint = s.fingerprint;
  return req;
}

void expect_signoff_bits(const obs::JsonValue& body, const SignoffMetrics& ref,
                         const std::string& what) {
  double got = 0.0;
  ASSERT_TRUE(serve::read_double_field(body, "wns_ns", &got)) << what;
  EXPECT_TRUE(bits_eq(got, ref.wns_ns)) << what;
  ASSERT_TRUE(serve::read_double_field(body, "tns_ns", &got)) << what;
  EXPECT_TRUE(bits_eq(got, ref.tns_ns)) << what;
  ASSERT_TRUE(serve::read_double_field(body, "wirelength_dbu", &got)) << what;
  EXPECT_TRUE(bits_eq(got, ref.wirelength_dbu)) << what;
}

TEST(Server, MalformedRequestGetsErrorFrameConnectionSurvives) {
  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  RawConn conn(server.bound_tcp_port());
  ASSERT_GE(conn.fd, 0);
  // Well-formed frame, malformed request: clean kError, connection usable.
  conn.send(serve::encode_frame({FrameKind::kRequest, "{\"garbage\":true}"}));
  ASSERT_TRUE(conn.read_frame());
  EXPECT_EQ(conn.frames.back().kind, FrameKind::kError);
  // The same connection still serves a valid ping.
  serve::Request ping;
  ping.type = serve::RequestType::kPing;
  ping.id = 5;
  conn.send(serve::encode_frame({FrameKind::kRequest, serve::encode_request(ping)}));
  ASSERT_TRUE(conn.read_frame());
  EXPECT_EQ(conn.frames.back().kind, FrameKind::kResponse);
  server.stop();
}

TEST(Server, MalformedFrameClosesConnection) {
  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  RawConn conn(server.bound_tcp_port());
  ASSERT_GE(conn.fd, 0);
  std::vector<std::uint8_t> garbage(64, 0xAB);
  conn.send(garbage);
  // The server reports the violation once (kError, id 0), then hangs up —
  // framing is lost, the stream cannot be resynchronized.
  ASSERT_TRUE(conn.read_frame());
  EXPECT_EQ(conn.frames.back().kind, FrameKind::kError);
  EXPECT_NE(conn.frames.back().payload.find("malformed frame"), std::string::npos);
  EXPECT_FALSE(conn.read_frame());  // EOF
  server.stop();
}

TEST(Server, ResponsesBitIdenticalToDirectFlow) {
  const std::string snap = write_snapshot(21, "diff.tsdb");

  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::ServeClient client;
  ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const auto opened = client.open(snap);
  ASSERT_TRUE(opened.ok) << opened.error;
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  ASSERT_NE(session, nullptr);
  ASSERT_NE(fingerprint, nullptr);

  // Direct side: same snapshot, same moves, direct API.
  auto loaded = serve::load_session_design(snap, FlowOptions{}, &error);
  ASSERT_NE(loaded, nullptr) << error;
  SteinerForest cur = loaded->flow->initial_forest();
  IncrementalSignoff inc(loaded->design.get(), loaded->flow->options());

  Rng rng(2026);
  std::vector<int> nets;
  for (const SteinerTree& tree : cur.trees) {
    if (tree.num_steiner_nodes() > 0) nets.push_back(tree.net);
  }
  ASSERT_FALSE(nets.empty());
  const double dist = static_cast<double>(loaded->design->die().width()) / 20.0;

  for (int round = 0; round < 3; ++round) {
    std::vector<serve::WhatIfMove> moves;
    for (int m = 0; m < 2; ++m) {
      moves.push_back({nets[rng.index(nets.size())], rng.uniform(-dist, dist),
                       rng.uniform(-dist, dist)});
    }
    serve::Request req;
    req.type = serve::RequestType::kWhatIf;
    req.session = session->str;
    req.fingerprint = fingerprint->str;
    req.moves = moves;
    const auto reply = client.call(req);
    ASSERT_TRUE(reply.ok) << reply.error;

    std::vector<int> dirty;
    serve::apply_whatif_moves(&cur, *loaded->design, moves, &dirty);
    const IncrementalSignoff::Result& ref = inc.update(cur, dirty);

    double got = 0.0;
    ASSERT_TRUE(serve::read_double_field(reply.body, "wns_ns", &got));
    EXPECT_TRUE(bits_eq(got, ref.metrics.wns_ns)) << "round " << round;
    ASSERT_TRUE(serve::read_double_field(reply.body, "tns_ns", &got));
    EXPECT_TRUE(bits_eq(got, ref.metrics.tns_ns)) << "round " << round;
    ASSERT_TRUE(serve::read_double_field(reply.body, "wirelength_dbu", &got));
    EXPECT_TRUE(bits_eq(got, ref.metrics.wirelength_dbu)) << "round " << round;
  }

  // Full sign-off request vs the golden full pipeline.
  serve::Request signoff;
  signoff.type = serve::RequestType::kSignoff;
  signoff.session = session->str;
  signoff.fingerprint = fingerprint->str;
  const auto reply = client.call(signoff);
  ASSERT_TRUE(reply.ok) << reply.error;
  const FlowResult golden = loaded->flow->run_signoff(cur);
  double got = 0.0;
  ASSERT_TRUE(serve::read_double_field(reply.body, "wns_ns", &got));
  EXPECT_TRUE(bits_eq(got, golden.metrics.wns_ns));
  ASSERT_TRUE(serve::read_double_field(reply.body, "wirelength_dbu", &got));
  EXPECT_TRUE(bits_eq(got, golden.metrics.wirelength_dbu));

  client.close_session(session->str);
  server.stop();
}

/// Deterministic mix of small (exact-fallback) and large (predicted) nets
/// for the wirelength op, driver first in each set.
std::vector<std::vector<PointF>> wirelength_pin_sets() {
  Rng rng(77);
  std::vector<std::vector<PointF>> sets;
  for (const int k : {2, 3, 4, 6, 9, 12}) {
    std::vector<PointF> pins;
    for (int i = 0; i < k; ++i) {
      pins.push_back({rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0)});
    }
    sets.push_back(std::move(pins));
  }
  return sets;
}

TEST(Server, WirelengthBitIdenticalToDirectEstimate) {
  const std::string snap = write_snapshot(31, "wl.tsdb");

  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::ServeClient client;
  ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const auto opened = client.open(snap);
  ASSERT_TRUE(opened.ok) << opened.error;
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  ASSERT_NE(session, nullptr);
  ASSERT_NE(fingerprint, nullptr);

  const std::vector<std::vector<PointF>> pin_sets = wirelength_pin_sets();
  const auto reply = client.wirelength(session->str, fingerprint->str, pin_sets);
  ASSERT_TRUE(reply.ok) << reply.error;

  // Direct side: same snapshot, same batch options as the server handler.
  auto loaded = serve::load_session_design(snap, FlowOptions{}, &error);
  ASSERT_NE(loaded, nullptr) << error;
  ASSERT_NE(loaded->steiner_model, nullptr);
  const BatchBuildOptions batch =
      serve::wirelength_batch_options(loaded->flow->options());
  BatchBuildStats stats;
  std::vector<std::uint8_t> used_fallback;
  const std::vector<SteinerTree> trees = build_batched_trees(
      pin_sets, *loaded->steiner_model, batch, &stats, &used_fallback);
  const std::vector<double> wls =
      estimate_wirelengths(pin_sets, *loaded->steiner_model, batch);
  ASSERT_EQ(trees.size(), pin_sets.size());
  ASSERT_EQ(wls.size(), pin_sets.size());

  const obs::JsonValue* nets = reply.body.find_array("nets");
  ASSERT_NE(nets, nullptr);
  ASSERT_EQ(nets->array.size(), pin_sets.size());
  for (std::size_t i = 0; i < pin_sets.size(); ++i) {
    const obs::JsonValue& entry = nets->array[i];
    double wl = 0.0;
    ASSERT_TRUE(serve::read_double_field(entry, "wl", &wl)) << "net " << i;
    EXPECT_TRUE(bits_eq(wl, trees[i].wirelength())) << "net " << i;
    EXPECT_TRUE(bits_eq(wl, wls[i])) << "net " << i;
    const obs::JsonValue* fb = entry.find("fallback");
    ASSERT_NE(fb, nullptr);
    ASSERT_TRUE(fb->is_bool());
    EXPECT_EQ(fb->boolean, used_fallback[i] != 0) << "net " << i;
  }
  // The ≤4-pin nets must have taken the exact path.
  for (std::size_t i = 0; i < pin_sets.size(); ++i) {
    if (pin_sets[i].size() <= 4) {
      EXPECT_TRUE(nets->array[i].find("fallback")->boolean) << "net " << i;
    }
  }
  double got = 0.0;
  ASSERT_TRUE(serve::read_double_field(reply.body, "num_nets", &got));
  EXPECT_EQ(static_cast<std::size_t>(got), pin_sets.size());
  ASSERT_TRUE(serve::read_double_field(reply.body, "num_fallback", &got));
  EXPECT_EQ(static_cast<std::size_t>(got), stats.num_fallback());

  client.close_session(session->str);
  server.stop();
}

TEST(Server, WirelengthWithoutPredictorIsCleanError) {
  const std::string snap =
      write_snapshot(32, "nosteiner.tsdb", /*with_model=*/false, /*with_steiner=*/false);

  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::ServeClient client;
  ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const auto opened = client.open(snap);
  ASSERT_TRUE(opened.ok) << opened.error;
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  ASSERT_NE(session, nullptr);
  ASSERT_NE(fingerprint, nullptr);

  const auto reply =
      client.wirelength(session->str, fingerprint->str, wirelength_pin_sets());
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("embeds no steiner predictor"), std::string::npos)
      << reply.error;
  EXPECT_GE(reply.body.number_or("req", 0.0), 1.0);

  // The error is per-request: the same connection and session stay usable.
  EXPECT_TRUE(client.ping().ok);
  serve::Request signoff;
  signoff.type = serve::RequestType::kSignoff;
  signoff.session = session->str;
  signoff.fingerprint = fingerprint->str;
  EXPECT_TRUE(client.call(signoff).ok);

  client.close_session(session->str);
  server.stop();
}

TEST(Server, RefineWithoutModelIsCleanError) {
  const std::string snap = write_snapshot(33, "nomodel.tsdb");

  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::ServeClient client;
  ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const OpenedSession s = open_session(client, snap);
  ASSERT_FALSE(s.id.empty());
  serve::Request refine = session_request(serve::RequestType::kRefine, s);
  refine.iterations = 1;
  const auto reply = client.call(refine);
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("embeds no model"), std::string::npos) << reply.error;
  EXPECT_GE(reply.body.number_or("req", 0.0), 1.0);
  EXPECT_TRUE(client.ping().ok);

  client.close_session(s.id);
  server.stop();
}

TEST(Server, RefineBitIdenticalToDirectLoopIncludingCommittedCoords) {
  const std::string snap = write_snapshot(22, "refine.tsdb", /*with_model=*/true);

  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::ServeClient client;
  ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const auto opened = client.open(snap);
  ASSERT_TRUE(opened.ok) << opened.error;
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  ASSERT_NE(session, nullptr);
  ASSERT_NE(fingerprint, nullptr);
  const obs::JsonValue* has_model = opened.body.find("has_model");
  ASSERT_NE(has_model, nullptr);
  EXPECT_TRUE(has_model->is_bool() && has_model->boolean);

  serve::Request refine;
  refine.type = serve::RequestType::kRefine;
  refine.session = session->str;
  refine.fingerprint = fingerprint->str;
  refine.iterations = 4;
  refine.commit = true;
  const auto reply = client.call(refine);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.progress.size(), static_cast<std::size_t>(reply.body.number_or(
                                       "iterations", -1.0)))
      << "one progress frame per refine iteration";

  // Direct side: restore the same snapshot (model included) and run the
  // same refinement loop through the plain API.
  auto loaded = serve::load_session_design(snap, FlowOptions{}, &error);
  ASSERT_NE(loaded, nullptr) << error;
  ASSERT_NE(loaded->model, nullptr);
  RefineOptions ropts;
  ropts.gcell_size = loaded->flow->options().router.gcell_size;
  ropts.max_iterations = 4;
  const RefineResult want = refine_steiner_points(
      *loaded->design, loaded->flow->initial_forest(), *loaded->model, ropts);

  double got = 0.0;
  ASSERT_TRUE(serve::read_double_field(reply.body, "init_wns_ns", &got));
  EXPECT_TRUE(bits_eq(got, want.init_wns));
  ASSERT_TRUE(serve::read_double_field(reply.body, "best_wns_ns", &got));
  EXPECT_TRUE(bits_eq(got, want.best_wns));
  ASSERT_TRUE(serve::read_double_field(reply.body, "best_tns_ns", &got));
  EXPECT_TRUE(bits_eq(got, want.best_tns));

  // The committed working forest must carry the refined coordinates: a
  // sign-off through the session must match the golden pipeline on the
  // direct loop's refined forest bit for bit (wirelength is a function of
  // every coordinate, WNS of every arrival — a single diverging Steiner
  // point fails this).
  serve::Request signoff;
  signoff.type = serve::RequestType::kSignoff;
  signoff.session = session->str;
  signoff.fingerprint = fingerprint->str;
  const auto signoff_reply = client.call(signoff);
  ASSERT_TRUE(signoff_reply.ok) << signoff_reply.error;
  const FlowResult golden = loaded->flow->run_signoff(want.forest);
  ASSERT_TRUE(serve::read_double_field(signoff_reply.body, "wns_ns", &got));
  EXPECT_TRUE(bits_eq(got, golden.metrics.wns_ns));
  ASSERT_TRUE(serve::read_double_field(signoff_reply.body, "tns_ns", &got));
  EXPECT_TRUE(bits_eq(got, golden.metrics.tns_ns));
  ASSERT_TRUE(serve::read_double_field(signoff_reply.body, "wirelength_dbu", &got));
  EXPECT_TRUE(bits_eq(got, golden.metrics.wirelength_dbu));

  client.close_session(session->str);
  server.stop();
}

TEST(Server, TopologyRefineBitIdenticalAndEditedForestSnapshotRoundTrips) {
  const std::string snap = write_snapshot(23, "refine_topo.tsdb", /*with_model=*/true);

  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::ServeClient client;
  ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const auto opened = client.open(snap);
  ASSERT_TRUE(opened.ok) << opened.error;
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  ASSERT_NE(session, nullptr);
  ASSERT_NE(fingerprint, nullptr);

  serve::Request refine;
  refine.type = serve::RequestType::kRefine;
  refine.session = session->str;
  refine.fingerprint = fingerprint->str;
  refine.iterations = 3;
  refine.commit = true;
  refine.topology = true;
  const auto reply = client.call(refine);
  ASSERT_TRUE(reply.ok) << reply.error;
  const obs::JsonValue* topo_field = reply.body.find("topology");
  ASSERT_NE(topo_field, nullptr);
  EXPECT_TRUE(topo_field->is_bool() && topo_field->boolean);

  // Direct side replicates handle_refine's topology wiring exactly: a fresh
  // request-local IncrementalSignoff for the episodic reward and the flow's
  // full sign-off as the keep-best anchor.
  auto loaded = serve::load_session_design(snap, FlowOptions{}, &error);
  ASSERT_NE(loaded, nullptr) << error;
  ASSERT_NE(loaded->model, nullptr);
  RefineOptions ropts;
  ropts.gcell_size = loaded->flow->options().router.gcell_size;
  ropts.max_iterations = 3;
  ropts.topology.enabled = true;
  IncrementalSignoff episodic(loaded->design.get(), loaded->flow->options());
  ropts.topology.episodic_signoff = [&](const SteinerForest& forest,
                                        const std::vector<int>& dirty) -> SignoffProbeResult {
    const IncrementalSignoff::Result& r = episodic.update(forest, dirty);
    return {r.metrics.wns_ns, r.metrics.tns_ns, r.incremental};
  };
  ropts.topology.full_signoff = [&](const SteinerForest& forest) -> SignoffProbeResult {
    const FlowResult r = loaded->flow->run_signoff(forest);
    return {r.metrics.wns_ns, r.metrics.tns_ns, false};
  };
  const RefineResult want = refine_steiner_points(
      *loaded->design, loaded->flow->initial_forest(), *loaded->model, ropts);

  double got = 0.0;
  ASSERT_TRUE(serve::read_double_field(reply.body, "init_wns_ns", &got));
  EXPECT_TRUE(bits_eq(got, want.init_wns));
  ASSERT_TRUE(serve::read_double_field(reply.body, "best_wns_ns", &got));
  EXPECT_TRUE(bits_eq(got, want.best_wns));
  ASSERT_TRUE(serve::read_double_field(reply.body, "best_tns_ns", &got));
  EXPECT_TRUE(bits_eq(got, want.best_tns));

  // The committed forest (possibly re-shaped by accepted edits) must drive
  // the session's sign-off to the direct result's golden numbers.
  serve::Request signoff;
  signoff.type = serve::RequestType::kSignoff;
  signoff.session = session->str;
  signoff.fingerprint = fingerprint->str;
  const auto signoff_reply = client.call(signoff);
  ASSERT_TRUE(signoff_reply.ok) << signoff_reply.error;
  const FlowResult golden = loaded->flow->run_signoff(want.forest);
  ASSERT_TRUE(serve::read_double_field(signoff_reply.body, "wns_ns", &got));
  EXPECT_TRUE(bits_eq(got, golden.metrics.wns_ns));
  ASSERT_TRUE(serve::read_double_field(signoff_reply.body, "tns_ns", &got));
  EXPECT_TRUE(bits_eq(got, golden.metrics.tns_ns));
  ASSERT_TRUE(serve::read_double_field(signoff_reply.body, "wirelength_dbu", &got));
  EXPECT_TRUE(bits_eq(got, golden.metrics.wirelength_dbu));

  // Edited forests round-trip through the TSteinerDB snapshot codec: save a
  // snapshot of the refined (topology-edited) forest, restore it, and
  // compare every node and edge bit for bit.
  const verify::FuzzCase c = verify::make_case(23, "tiny");
  Design design = c.design;
  const Flow flow(&design);
  BenchmarkSpec spec;
  spec.name = c.params.name;
  spec.target_cells = static_cast<int>(c.num_cells());
  spec.endpoints = static_cast<int>(design.endpoint_pins().size());
  spec.seed = 23;
  const std::string edited_snap = temp_path("refine_topo_edited.tsdb");
  ASSERT_TRUE(serve::save_session_snapshot(spec, design, flow.calibration(), want.forest,
                                           verify::fuzz_library(), loaded->model.get(),
                                           nullptr, edited_snap));
  auto restored = serve::load_session_design(edited_snap, FlowOptions{}, &error);
  ASSERT_NE(restored, nullptr) << error;
  const SteinerForest& back = restored->flow->initial_forest();
  ASSERT_EQ(back.trees.size(), want.forest.trees.size());
  for (std::size_t t = 0; t < back.trees.size(); ++t) {
    const SteinerTree& a = want.forest.trees[t];
    const SteinerTree& b = back.trees[t];
    ASSERT_EQ(a.nodes.size(), b.nodes.size()) << "tree " << t;
    ASSERT_EQ(a.edges.size(), b.edges.size()) << "tree " << t;
    EXPECT_EQ(a.driver_node, b.driver_node) << "tree " << t;
    for (std::size_t n = 0; n < a.nodes.size(); ++n) {
      EXPECT_TRUE(bits_eq(a.nodes[n].pos.x, b.nodes[n].pos.x)) << "tree " << t;
      EXPECT_TRUE(bits_eq(a.nodes[n].pos.y, b.nodes[n].pos.y)) << "tree " << t;
      EXPECT_EQ(a.nodes[n].pin, b.nodes[n].pin) << "tree " << t;
    }
    for (std::size_t e = 0; e < a.edges.size(); ++e) {
      EXPECT_EQ(a.edges[e].a, b.edges[e].a) << "tree " << t;
      EXPECT_EQ(a.edges[e].b, b.edges[e].b) << "tree " << t;
    }
  }

  client.close_session(session->str);
  server.stop();
}

TEST(Server, GracefulDrainFinishesQueuedRequests) {
  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::ServeClient client;
  ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const auto reply = client.shutdown_server();  // responds, then drains
  EXPECT_TRUE(reply.ok) << reply.error;
  server.stop();
  EXPECT_TRUE(server.draining());
  // A fresh server on the same object lifecycle is out of scope; a new
  // connection attempt must fail once the listener is gone.
  serve::ServeClient late;
  EXPECT_FALSE(late.connect_tcp(server.bound_tcp_port(), &error));
}

/// Entries of a /proc/self directory: open fds ("fd") or live threads ("task").
std::size_t proc_self_entries(const char* dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(std::string("/proc/self/") + dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

/// Wait up to 5 s for the count of proc_self_entries(dir) to drop to `target`.
std::size_t settle_to(const char* dir, std::size_t target) {
  std::size_t now = proc_self_entries(dir);
  for (int waited_ms = 0; now > target && waited_ms < 5000; waited_ms += 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = proc_self_entries(dir);
  }
  return now;
}

TEST(Server, ClientsThatHangUpBeforeTheirReplyLeaveTheServerUp) {
  const std::string snap = write_snapshot(44, "hangup.tsdb");
  serve::ServeOptions opts;
  opts.unix_socket = temp_path("hangup.sock");
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::Request open;
  open.type = serve::RequestType::kOpen;
  open.id = 1;
  open.snapshot = snap;
  const std::vector<std::uint8_t> frame =
      serve::encode_frame({FrameKind::kRequest, serve::encode_request(open)});
  constexpr std::uint64_t kClients = 20;
  for (std::uint64_t i = 0; i < kClients; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.unix_socket.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::write(fd, frame.data(), frame.size()), static_cast<ssize_t>(frame.size()));
    ::close(fd);  // hang up before the reply
  }
  // Every reply goes to a closed socket. Wait until all were attempted: a
  // write that raised SIGPIPE would have ended this process by then.
  for (int waited_ms = 0; server.stats().requests < kClients && waited_ms < 10000;
       waited_ms += 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.stats().requests, kClients);

  serve::ServeClient client;
  ASSERT_TRUE(client.connect_unix(opts.unix_socket, &error)) << error;
  const auto pong = client.ping();
  EXPECT_TRUE(pong.ok) << pong.error;
  server.stop();
}

TEST(Server, FinishedConnectionsReleaseTheirFdAndThread) {
  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::size_t fds = proc_self_entries("fd");
  const std::size_t threads = proc_self_entries("task");
  for (int i = 0; i < 20; ++i) {
    serve::ServeClient client;
    ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
    const auto pong = client.ping();
    ASSERT_TRUE(pong.ok) << pong.error;
  }
  // Each hang-up ends its reader; the acceptor joins it and closes its fd
  // within a poll interval.
  EXPECT_EQ(settle_to("fd", fds), fds);
  EXPECT_EQ(settle_to("task", threads), threads);
  server.stop();
}

// --- scheduling: each connection runs its own requests ----------------------

TEST(Server, OneSessionFromTwoConnectionsRunsOneRequestAtATime) {
  const std::string snap = write_snapshot(41, "two_conn.tsdb");
  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  serve::ServeClient a, b;
  ASSERT_TRUE(a.connect_tcp(server.bound_tcp_port(), &error)) << error;
  ASSERT_TRUE(b.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const OpenedSession s = open_session(a, snap);
  ASSERT_FALSE(s.id.empty());

  auto loaded = serve::load_session_design(snap, FlowOptions{}, &error);
  ASSERT_NE(loaded, nullptr) << error;
  IncrementalSignoff inc(loaded->design.get(), loaded->flow->options());
  const SignoffMetrics ref = inc.full(loaded->flow->initial_forest()).metrics;

  // Both connections send sign-offs on the one session at once; the session
  // lock must keep its IncrementalSignoff to one request at a time (TSan
  // reports the race otherwise), and every reply keeps the direct bits.
  constexpr int kCalls = 4;
  std::atomic<int> ready{0};
  using Replies = std::vector<serve::ServeClient::Reply>;
  Replies replies[2];
  const auto drive = [&](serve::ServeClient* client, Replies* out) {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < kCalls; ++i) {
      out->push_back(client->call(session_request(serve::RequestType::kSignoff, s)));
    }
  };
  std::thread ta(drive, &a, &replies[0]);
  std::thread tb(drive, &b, &replies[1]);
  ta.join();
  tb.join();
  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(replies[c].size(), static_cast<std::size_t>(kCalls));
    for (int i = 0; i < kCalls; ++i) {
      const std::string what = "connection " + std::to_string(c) + " call " + std::to_string(i);
      ASSERT_TRUE(replies[c][i].ok) << what << ": " << replies[c][i].error;
      expect_signoff_bits(replies[c][i].body, ref, what);
    }
  }
  a.close_session(s.id);
  server.stop();
}

TEST(Server, PipelinedRequestsAnswerInOrderWithDirectBits) {
  const std::string snap = write_snapshot(42, "pipeline.tsdb");
  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  serve::ServeClient opener;
  ASSERT_TRUE(opener.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const OpenedSession s = open_session(opener, snap);
  ASSERT_FALSE(s.id.empty());

  auto loaded = serve::load_session_design(snap, FlowOptions{}, &error);
  ASSERT_NE(loaded, nullptr) << error;
  SteinerForest cur = loaded->flow->initial_forest();
  IncrementalSignoff inc(loaded->design.get(), loaded->flow->options());
  std::vector<int> nets;
  for (const SteinerTree& tree : cur.trees) {
    if (tree.num_steiner_nodes() > 0) nets.push_back(tree.net);
  }
  ASSERT_FALSE(nets.empty());
  const double dist = static_cast<double>(loaded->design->die().width()) / 20.0;

  // whatif x3 then signoff, written back to back before any reply is read.
  Rng rng(4242);
  std::vector<std::uint8_t> bytes;
  std::vector<SignoffMetrics> refs;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    serve::Request req = session_request(
        id < 4 ? serve::RequestType::kWhatIf : serve::RequestType::kSignoff, s);
    req.id = id;
    if (id < 4) {
      req.moves.push_back(
          {nets[rng.index(nets.size())], rng.uniform(-dist, dist), rng.uniform(-dist, dist)});
      std::vector<int> dirty;
      serve::apply_whatif_moves(&cur, *loaded->design, req.moves, &dirty);
      refs.push_back(inc.update(cur, dirty).metrics);
    } else {
      refs.push_back(inc.full(cur).metrics);
    }
    const std::vector<std::uint8_t> frame =
        serve::encode_frame({FrameKind::kRequest, serve::encode_request(req)});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  RawConn conn(server.bound_tcp_port());
  ASSERT_GE(conn.fd, 0);
  conn.send(bytes);
  while (conn.frames.size() < 4) ASSERT_TRUE(conn.read_frame());
  ASSERT_EQ(conn.frames.size(), 4u);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const Frame& frame = conn.frames[id - 1];
    ASSERT_EQ(frame.kind, FrameKind::kResponse) << frame.payload;
    const auto body = obs::parse_json(frame.payload, &error);
    ASSERT_TRUE(body.has_value()) << error;
    EXPECT_EQ(body->number_or("id", 0.0), static_cast<double>(id));
    expect_signoff_bits(*body, refs[id - 1], "reply " + std::to_string(id));
  }
  opener.close_session(s.id);
  server.stop();
}

TEST(Server, LoneSignoffKeepsPoolParallelism) {
  const std::string snap = write_snapshot(43, "lone.tsdb", /*with_model=*/false,
                                          /*with_steiner=*/true, "small");
  set_parallel_threads(4);
  {
    serve::ServeOptions opts;
    opts.tcp_port = 0;
    serve::Server server(opts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    serve::ServeClient client;
    ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
    const OpenedSession s = open_session(client, snap);
    ASSERT_FALSE(s.id.empty());
    auto loaded = serve::load_session_design(snap, FlowOptions{}, &error);
    ASSERT_NE(loaded, nullptr) << error;
    IncrementalSignoff direct(loaded->design.get(), loaded->flow->options());
    std::uint64_t jobs0 = parallel_jobs();
    direct.full(loaded->flow->initial_forest());
    const std::uint64_t direct_jobs = parallel_jobs() - jobs0;
    ASSERT_GT(direct_jobs, 0u);
    // The reader that runs the request is not a pool thread, so the flow's
    // nested parallel_for calls reach the pool exactly as a direct call's do.
    jobs0 = parallel_jobs();
    const auto reply = client.call(session_request(serve::RequestType::kSignoff, s));
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(parallel_jobs() - jobs0, direct_jobs) << "a lone signoff lost its pool jobs";
    client.close_session(s.id);
    server.stop();
  }
  set_parallel_threads(0);
}

// --- serve telemetry --------------------------------------------------------

TEST(Protocol, TraceTagRoundTripAndStrictness) {
  serve::Request in;
  in.type = serve::RequestType::kPing;
  in.id = 4;
  in.trace = "abc-123";
  std::string error;
  const auto tagged = serve::parse_request(serve::encode_request(in), &error);
  ASSERT_TRUE(tagged.has_value()) << error;
  EXPECT_EQ(tagged->trace, "abc-123");

  // Absent tag: the encoder omits the field entirely, so untagged requests
  // are byte-identical to the pre-telemetry wire format.
  in.trace.clear();
  const std::string encoded = serve::encode_request(in);
  EXPECT_EQ(encoded.find("trace"), std::string::npos);
  const auto untagged = serve::parse_request(encoded, &error);
  ASSERT_TRUE(untagged.has_value()) << error;
  EXPECT_TRUE(untagged->trace.empty());

  // Strict parse: wrong type, empty string, and oversize are rejected.
  EXPECT_FALSE(
      serve::parse_request("{\"v\":1,\"id\":1,\"type\":\"ping\",\"trace\":7}", &error)
          .has_value());
  EXPECT_NE(error.find("trace"), std::string::npos) << error;
  EXPECT_FALSE(
      serve::parse_request("{\"v\":1,\"id\":1,\"type\":\"ping\",\"trace\":\"\"}", &error)
          .has_value());
  const std::string oversize(200, 'x');
  EXPECT_FALSE(serve::parse_request(
                   "{\"v\":1,\"id\":1,\"type\":\"ping\",\"trace\":\"" + oversize + "\"}",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("128"), std::string::npos) << error;
}

TEST(Protocol, MetricsOpRoundTripNeedsNoSession) {
  serve::Request in;
  in.type = serve::RequestType::kMetrics;
  in.id = 6;
  std::string error;
  const auto out = serve::parse_request(serve::encode_request(in), &error);
  ASSERT_TRUE(out.has_value()) << error;
  EXPECT_EQ(out->type, serve::RequestType::kMetrics);
  EXPECT_TRUE(
      serve::parse_request("{\"v\":1,\"id\":1,\"type\":\"metrics\"}", &error).has_value())
      << error;
}

TEST(Server, EveryResponseEchoesTheServerRequestId) {
  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  serve::ServeClient client;
  ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
  // Sequential traffic on a fresh server: uids count up from 1 regardless of
  // the obs mode (the echo must not depend on instrumentation).
  const auto first = client.ping();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.body.number_or("req", 0.0), 1.0);
  const auto second = client.stats();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.body.number_or("req", 0.0), 2.0);
  // Post-parse errors echo it too (the request was assigned a uid).
  serve::Request bad;
  bad.type = serve::RequestType::kSta;
  bad.session = "nope";
  bad.fingerprint = "FFFFFFFF";
  const auto failed = client.call(bad);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.body.number_or("req", 0.0), 3.0);
  server.stop();
}

TEST(Server, MetricsOpReturnsSchemaConsistentSnapshot) {
  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  serve::ServeClient client;
  ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
  const auto reply = client.metrics();
  ASSERT_TRUE(reply.ok) << reply.error;
  const obs::JsonValue* enabled = reply.body.find("metrics_enabled");
  ASSERT_NE(enabled, nullptr);
  EXPECT_TRUE(enabled->is_bool());
  const obs::JsonValue* metrics = reply.body.find_object("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find_object("counters"), nullptr);
  ASSERT_NE(metrics->find_object("gauges"), nullptr);
  const obs::JsonValue* hists = metrics->find_object("histograms");
  ASSERT_NE(hists, nullptr);
  // Eager registration: the per-op latency histograms exist (zero-count)
  // before any traffic, so the snapshot layout is traffic-independent.
  const obs::JsonValue* ping_hist = hists->find_object("serve.latency_ms.ping");
  ASSERT_NE(ping_hist, nullptr);
  const obs::JsonValue* edges = ping_hist->find_array("edges");
  ASSERT_NE(edges, nullptr);
  const obs::JsonValue* buckets = ping_hist->find_array("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_EQ(edges->array.size(), buckets->array.size() + 1);
  ASSERT_NE(hists->find_object("serve.queue_wait_ms.metrics"), nullptr);
  server.stop();
}

/// Minimal span view for the serve-trace tests (async "b"/"e" events are
/// validated separately; only "X" spans participate in lane nesting).
struct TestSpan {
  std::string name, cat;
  double ts = 0.0, dur = 0.0;
  long long tid = 0;
  double req = 0.0;
};

void collect_serve_trace(const std::string& path, std::vector<TestSpan>* spans,
                         int* async_begins, int* async_ends) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto doc = obs::parse_json(text.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue* events = doc->find_array("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* ph = e.find_string("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") continue;
    if (ph->str == "b" || ph->str == "e") {
      ASSERT_NE(e.find_string("id"), nullptr);
      (ph->str == "b" ? *async_begins : *async_ends) += 1;
      continue;
    }
    ASSERT_EQ(ph->str, "X");
    const obs::JsonValue* cat = e.find_string("cat");
    const obs::JsonValue* args = e.find_object("args");
    const obs::JsonValue* req =
        args != nullptr ? args->find_number("req") : nullptr;
    spans->push_back({e.find_string("name")->str, cat != nullptr ? cat->str : "",
                      e.find_number("ts")->number, e.find_number("dur")->number,
                      static_cast<long long>(e.find_number("tid")->number),
                      req != nullptr ? req->number : 0.0});
  }
}

void run_serve_trace_workload(int width) {
  const std::string snap =
      write_snapshot(31 + static_cast<std::uint64_t>(width), "trace_wl.tsdb");
  const std::string path =
      temp_path(("serve_trace_w" + std::to_string(width) + ".json").c_str());
  set_parallel_threads(width);
  obs::reset_trace();
  obs::enable_trace(path);
  {
    serve::ServeOptions opts;
    opts.tcp_port = 0;
    serve::Server server(opts);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    serve::ServeClient client;
    ASSERT_TRUE(client.connect_tcp(server.bound_tcp_port(), &error)) << error;
    ASSERT_TRUE(client.ping().ok);
    const auto opened = client.open(snap);
    ASSERT_TRUE(opened.ok) << opened.error;
    serve::Request sta;
    sta.type = serve::RequestType::kSta;
    sta.session = opened.body.find_string("session")->str;
    sta.fingerprint = opened.body.find_string("fingerprint")->str;
    sta.trace = "tag-w" + std::to_string(width);
    ASSERT_TRUE(client.call(sta).ok);
    ASSERT_TRUE(client.close_session(sta.session).ok);
    server.stop();
  }
  obs::disable_trace();
  set_parallel_threads(0);

  std::vector<TestSpan> spans;
  int async_begins = 0, async_ends = 0;
  ASSERT_NO_FATAL_FAILURE(collect_serve_trace(path, &spans, &async_begins, &async_ends));
  EXPECT_EQ(async_begins, 4);  // one queue-wait pair per request
  EXPECT_EQ(async_ends, 4);

  std::size_t serve_count = 0, handle_count = 0;
  bool tagged_sta = false, joined_sta = false;
  for (const TestSpan& s : spans) {
    if (s.cat != "serve") continue;
    ++serve_count;
    EXPECT_GE(s.req, 1.0) << s.name << " lacks a request id";
    if (s.name.rfind("serve.handle.", 0) == 0) ++handle_count;
    if (s.name == "serve.handle.sta") {
      tagged_sta = true;
      // Request-id join: the sta handler's span encloses flow/sta work on
      // the same lane.
      for (const TestSpan& inner : spans) {
        if (inner.cat != "serve" && inner.tid == s.tid && inner.ts >= s.ts - 0.002 &&
            inner.ts + inner.dur <= s.ts + s.dur + 0.002) {
          joined_sta = true;
        }
      }
    }
  }
  EXPECT_GE(serve_count, 12u);  // 4 requests x (decode/handle/encode/write)
  EXPECT_EQ(handle_count, 4u);
  EXPECT_TRUE(tagged_sta);
  EXPECT_TRUE(joined_sta);

  // Scoped spans must still nest per lane with async queue waits excluded.
  std::stable_sort(spans.begin(), spans.end(), [](const TestSpan& a, const TestSpan& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<TestSpan> stack;
  long long lane = -1;
  const double slop = 0.002;
  for (const TestSpan& s : spans) {
    if (s.tid != lane) {
      lane = s.tid;
      stack.clear();
    }
    while (!stack.empty() && s.ts >= stack.back().ts + stack.back().dur - slop) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      EXPECT_LE(s.ts + s.dur, stack.back().ts + stack.back().dur + slop)
          << s.name << " does not nest inside " << stack.back().name;
    }
    stack.push_back(s);
  }
  obs::reset_trace();
}

TEST(Server, ServeSpansNestAndCarryRequestIdsAtWidthOne) {
  ASSERT_NO_FATAL_FAILURE(run_serve_trace_workload(1));
}

TEST(Server, ServeSpansNestAndCarryRequestIdsAtWidthFour) {
  ASSERT_NO_FATAL_FAILURE(run_serve_trace_workload(4));
}

}  // namespace
}  // namespace tsteiner
