// tsteiner_serve: refinement-as-a-service CLI.
//
// Subcommands:
//   mksnap   write a self-contained serve snapshot (deterministic fuzz-case
//            design + Flow calibration, optionally an embedded model)
//   serve    run the multi-tenant server until SIGTERM / a shutdown
//            request (graceful drain either way)
//   client   drive a running server from a JSONL request script
//   selftest in-process end-to-end gate: N concurrent sessions of mixed
//            requests over mixed-scale snapshots (every 4th "small"), every
//            response bit-compared against the direct Flow /
//            IncrementalSignoff API. Exit 0 iff all bits match.
//
// Typical invocations:
//   tsteiner_serve mksnap --out design.tsdb --seed 7 --model
//   tsteiner_serve serve --port 0
//   tsteiner_serve client --connect tcp:38200 --script requests.jsonl
//   tsteiner_serve selftest --sessions 8 --threads 4
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "gnn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/ops.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "verify/case_gen.hpp"

namespace {

using namespace tsteiner;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <subcommand> [options]\n"
               "  mksnap --out PATH [--seed S] [--scale tiny|small] [--model]\n"
               "  serve [--port N | --socket PATH] [--budget-mb N]\n"
               "  client (--connect tcp:PORT|unix:PATH) --script FILE\n"
               "  selftest [--sessions N] [--threads N] [--snapshots N] [--seed S]\n"
               "           [--rounds N] [--keep-dir DIR] [--obs-gate DIR]\n",
               argv0);
  return 2;
}

const char* flag_value(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", flag);
    std::exit(2);
  }
  return argv[++*i];
}

/// Deterministic untrained refine model for snapshots (mirrors the verify
/// harness's case model so serve smoke tests exercise the MODL path without
/// a training run).
TimingGnn snapshot_model(std::uint64_t seed) {
  GnnConfig cfg;
  cfg.hidden = 6;
  cfg.type_embed = 4;
  cfg.delay_hidden = 8;
  cfg.seed = Rng::mix(seed, 0x90de1);
  return TimingGnn(cfg, verify::fuzz_library().num_types());
}

/// Build the calibrated design for `seed` and write a serve snapshot.
bool write_snapshot(std::uint64_t seed, const std::string& scale, bool with_model,
                    const std::string& out) {
  const verify::FuzzCase c = verify::make_case(seed, scale);
  Design design = c.design;  // the Flow constructor recalibrates the clock
  const Flow flow(&design);
  BenchmarkSpec spec;
  spec.name = c.params.name;
  spec.target_cells = static_cast<int>(c.num_cells());
  spec.endpoints = static_cast<int>(design.endpoint_pins().size());
  spec.seed = seed;
  const TimingGnn model = snapshot_model(seed);
  return serve::save_session_snapshot(spec, design, flow.calibration(),
                                      flow.initial_forest(), verify::fuzz_library(),
                                      with_model ? &model : nullptr,
                                      SteinerPredictor::shared_pretrained().get(), out);
}

int cmd_mksnap(int argc, char** argv) {
  std::string out, scale = "tiny";
  std::uint64_t seed = 7;
  bool with_model = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      out = flag_value(argc, argv, &i, "--out");
    } else if (arg == "--seed") {
      seed = std::strtoull(flag_value(argc, argv, &i, "--seed"), nullptr, 10);
    } else if (arg == "--scale") {
      scale = flag_value(argc, argv, &i, "--scale");
    } else if (arg == "--model") {
      with_model = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (out.empty()) return usage(argv[0]);
  if (!write_snapshot(seed, scale, with_model, out)) {
    std::fprintf(stderr, "mksnap: failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (seed %llu, scale %s, fingerprint %s)\n", out.c_str(),
              static_cast<unsigned long long>(seed), scale.c_str(),
              serve::snapshot_fingerprint(out).c_str());
  return 0;
}

void on_sigterm(int) { serve::Server::notify_sigterm(); }

int cmd_serve(int argc, char** argv) {
  serve::ServeOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      opts.tcp_port = std::atoi(flag_value(argc, argv, &i, "--port"));
    } else if (arg == "--socket") {
      opts.unix_socket = flag_value(argc, argv, &i, "--socket");
    } else if (arg == "--budget-mb") {
      opts.cache_budget_bytes =
          static_cast<std::size_t>(std::atoll(flag_value(argc, argv, &i, "--budget-mb")))
          << 20;
    } else {
      return usage(argv[0]);
    }
  }
  serve::Server server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGTERM, on_sigterm);
  std::signal(SIGINT, on_sigterm);
  if (opts.unix_socket.empty()) {
    // Machine-readable for scripts that started us with --port 0.
    std::printf("listening port=%d\n", server.bound_tcp_port());
    std::fflush(stdout);
  }
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  return 0;
}

int cmd_client(int argc, char** argv) {
  std::string connect, script;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect") {
      connect = flag_value(argc, argv, &i, "--connect");
    } else if (arg == "--script") {
      script = flag_value(argc, argv, &i, "--script");
    } else {
      return usage(argv[0]);
    }
  }
  if (connect.empty() || script.empty()) return usage(argv[0]);

  serve::ServeClient client;
  std::string error;
  bool connected = false;
  if (connect.rfind("tcp:", 0) == 0) {
    connected = client.connect_tcp(std::atoi(connect.c_str() + 4), &error);
  } else if (connect.rfind("unix:", 0) == 0) {
    connected = client.connect_unix(connect.substr(5), &error);
  } else {
    std::fprintf(stderr, "client: --connect wants tcp:PORT or unix:PATH\n");
    return 2;
  }
  if (!connected) {
    std::fprintf(stderr, "client: %s\n", error.c_str());
    return 1;
  }

  std::ifstream in(script);
  if (!in) {
    std::fprintf(stderr, "client: cannot read script %s\n", script.c_str());
    return 1;
  }
  std::string line;
  int failures = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto request = serve::parse_request(line, &error);
    if (!request) {
      std::fprintf(stderr, "client: bad script line: %s\n", error.c_str());
      ++failures;
      continue;
    }
    const auto reply = client.call(*request);
    for (const auto& progress : reply.progress) {
      double iter = progress.number_or("iter", -1.0);
      std::printf("# progress id=%llu iter=%.0f\n",
                  static_cast<unsigned long long>(request->id), iter);
    }
    if (!reply.ok) {
      std::printf("{\"ok\":false,\"error\":\"%s\"}\n", reply.error.c_str());
      ++failures;
      continue;
    }
    // Echo the raw payload the server sent (it is already one JSON object).
    const obs::JsonValue* session = reply.body.find_string("session");
    const obs::JsonValue* fingerprint = reply.body.find_string("fingerprint");
    double wns = 0.0;
    const bool has_wns = serve::read_double_field(reply.body, "wns_ns", &wns);
    std::printf("ok id=%.0f%s%s%s%s%s\n", reply.body.number_or("id", -1.0),
                session != nullptr ? " session=" : "",
                session != nullptr ? session->str.c_str() : "",
                fingerprint != nullptr ? " fingerprint=" : "",
                fingerprint != nullptr ? fingerprint->str.c_str() : "",
                has_wns ? (" wns_bits=" + serve::double_bits_hex(wns)).c_str() : "");
  }
  return failures == 0 ? 0 : 1;
}

// --- selftest ---------------------------------------------------------------

struct SessionResult {
  std::vector<std::string> wns_bits;  ///< per round: whatif WNS bit patterns
  std::vector<std::string> wl_bits;   ///< per round: whatif DR wirelength bits
  std::string signoff_wns_bits;
  std::string error;
};

struct SessionPlan {
  int index = 0;
  std::string snapshot;
  std::vector<std::vector<serve::WhatIfMove>> rounds;
};

/// What-if rounds for one session, derived purely from (seed, session index)
/// so the server side and the direct reference generate identical traffic.
std::vector<std::vector<serve::WhatIfMove>> plan_rounds(const SteinerForest& forest,
                                                        std::uint64_t seed, int session,
                                                        int rounds, double dist) {
  Rng rng(Rng::mix(seed, 0x5e55 + static_cast<std::uint64_t>(session)));
  std::vector<int> nets;
  for (const SteinerTree& tree : forest.trees) {
    if (tree.num_steiner_nodes() > 0) nets.push_back(tree.net);
  }
  std::vector<std::vector<serve::WhatIfMove>> plan;
  if (nets.empty()) return plan;
  for (int r = 0; r < rounds; ++r) {
    std::vector<serve::WhatIfMove> moves;
    const std::size_t k = 1 + rng.index(std::min<std::size_t>(3, nets.size()));
    for (std::size_t m = 0; m < k; ++m) {
      serve::WhatIfMove move;
      move.net = nets[rng.index(nets.size())];
      move.dx = rng.uniform(-dist, dist);
      move.dy = rng.uniform(-dist, dist);
      moves.push_back(move);
    }
    plan.push_back(std::move(moves));
  }
  return plan;
}

SessionResult run_session_via_server(int port, const SessionPlan& plan) {
  SessionResult out;
  serve::ServeClient client;
  std::string error;
  if (!client.connect_tcp(port, &error)) {
    out.error = "connect: " + error;
    return out;
  }
  const auto opened = client.open(plan.snapshot);
  if (!opened.ok) {
    out.error = "open: " + opened.error;
    return out;
  }
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  if (session == nullptr || fingerprint == nullptr) {
    out.error = "open response lacks session/fingerprint";
    return out;
  }
  for (const auto& moves : plan.rounds) {
    serve::Request req;
    req.type = serve::RequestType::kWhatIf;
    req.session = session->str;
    req.fingerprint = fingerprint->str;
    req.moves = moves;
    const auto reply = client.call(req);
    if (!reply.ok) {
      out.error = "whatif: " + reply.error;
      return out;
    }
    double wns = 0.0, wl = 0.0;
    if (!serve::read_double_field(reply.body, "wns_ns", &wns) ||
        !serve::read_double_field(reply.body, "wirelength_dbu", &wl)) {
      out.error = "whatif response lacks metric fields";
      return out;
    }
    out.wns_bits.push_back(serve::double_bits_hex(wns));
    out.wl_bits.push_back(serve::double_bits_hex(wl));
  }
  serve::Request signoff;
  signoff.type = serve::RequestType::kSignoff;
  signoff.session = session->str;
  signoff.fingerprint = fingerprint->str;
  const auto reply = client.call(signoff);
  if (!reply.ok) {
    out.error = "signoff: " + reply.error;
    return out;
  }
  double wns = 0.0;
  if (!serve::read_double_field(reply.body, "wns_ns", &wns)) {
    out.error = "signoff response lacks wns_ns";
    return out;
  }
  out.signoff_wns_bits = serve::double_bits_hex(wns);
  client.close_session(session->str);
  return out;
}

SessionResult run_session_direct(const SessionPlan& plan, const FlowOptions& flow_options) {
  SessionResult out;
  std::string error;
  auto loaded = serve::load_session_design(plan.snapshot, flow_options, &error);
  if (loaded == nullptr) {
    out.error = "direct restore: " + error;
    return out;
  }
  SteinerForest cur = loaded->flow->initial_forest();
  IncrementalSignoff inc(loaded->design.get(), loaded->flow->options());
  for (const auto& moves : plan.rounds) {
    std::vector<int> dirty;
    serve::apply_whatif_moves(&cur, *loaded->design, moves, &dirty);
    const IncrementalSignoff::Result& r = inc.update(cur, dirty);
    out.wns_bits.push_back(serve::double_bits_hex(r.metrics.wns_ns));
    out.wl_bits.push_back(serve::double_bits_hex(r.metrics.wirelength_dbu));
  }
  const FlowResult golden = loaded->flow->run_signoff(cur);
  out.signoff_wns_bits = serve::double_bits_hex(golden.metrics.wns_ns);
  return out;
}

// --- selftest --obs-gate: telemetry must never change response bytes --------

/// One deterministic traffic run against a fresh in-process server: every op
/// once except what-if, which runs each planned round in turn; single
/// sequential client (request ids and server uids are then a pure function
/// of the script, independent of obs mode).
struct ObsTraffic {
  std::vector<std::pair<std::string, std::string>> responses;  ///< op -> payload bytes
  std::vector<std::string> progress_scrubbed;  ///< refine frames minus wall_s
  std::string metrics_raw;                     ///< metrics-op response payload
  std::string error;
};

/// Remove one `"key":value` member from a JSON object's raw bytes (the
/// refine progress wall_s field is the only wall-clock-dependent member of
/// an otherwise deterministic frame).
std::string scrub_json_field(std::string s, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = s.find(needle);
  if (at == std::string::npos) return s;
  std::size_t end = at + needle.size();
  while (end < s.size() && s[end] != ',' && s[end] != '}') ++end;
  std::size_t begin = at;
  if (begin > 0 && s[begin - 1] == ',') {
    --begin;
  } else if (end < s.size() && s[end] == ',') {
    ++end;
  }
  return s.erase(begin, end - begin);
}

ObsTraffic run_obs_traffic(int port, const std::string& snap,
                           const std::vector<std::vector<serve::WhatIfMove>>& rounds) {
  ObsTraffic out;
  serve::ServeClient client;
  std::string error;
  if (!client.connect_tcp(port, &error)) {
    out.error = "connect: " + error;
    return out;
  }
  const auto push = [&out](const char* label, const serve::ServeClient::Reply& r) {
    if (!r.ok) {
      out.error = std::string(label) + ": " + r.error;
      return false;
    }
    out.responses.emplace_back(label, r.raw);
    return true;
  };
  if (!push("ping", client.ping())) return out;
  const auto opened = client.open(snap);
  if (!push("open", opened)) return out;
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  if (session == nullptr || fingerprint == nullptr) {
    out.error = "open response lacks session/fingerprint";
    return out;
  }
  serve::Request base;
  base.session = session->str;
  base.fingerprint = fingerprint->str;

  serve::Request sta = base;
  sta.type = serve::RequestType::kSta;
  if (!push("sta", client.call(sta))) return out;

  serve::Request whatif = base;
  whatif.type = serve::RequestType::kWhatIf;
  for (const auto& moves : rounds) {
    whatif.moves = moves;
    if (!push("whatif", client.call(whatif))) return out;
  }

  serve::Request signoff = base;
  signoff.type = serve::RequestType::kSignoff;
  if (!push("signoff", client.call(signoff))) return out;

  serve::Request refine = base;
  refine.type = serve::RequestType::kRefine;
  refine.iterations = 2;
  const auto refined = client.call(refine);
  if (!push("refine", refined)) return out;
  for (const std::string& frame : refined.progress_raw) {
    out.progress_scrubbed.push_back(scrub_json_field(frame, "wall_s"));
  }

  if (!push("wirelength",
            client.wirelength(base.session, base.fingerprint,
                              {{{1000.0, 1000.0}, {8000.0, 3000.0}, {4000.0, 9000.0}}}))) {
    return out;
  }

  // stats and metrics responses legitimately vary with the obs mode (latency
  // aggregates, instrument values): ok-checked, excluded from the byte gate.
  const auto stats = client.stats();
  if (!stats.ok) {
    out.error = "stats: " + stats.error;
    return out;
  }
  const auto metrics = client.metrics();
  if (!metrics.ok) {
    out.error = "metrics: " + metrics.error;
    return out;
  }
  out.metrics_raw = metrics.raw;
  if (!push("close", client.close_session(base.session))) return out;
  return out;
}

/// Successive what-if rounds in the obs-gate script, so later rounds price a
/// forest that earlier rounds already moved.
constexpr int kObsGateRounds = 8;

/// Run the deterministic script under off / metrics-only / full obs modes
/// plus a metrics-determinism rerun; gate that every response (and every
/// progress frame, minus wall_s) is byte-identical across modes, and write
/// the trace + two metrics snapshots for `tsteiner_trace serve`.
int run_obs_gate(const std::string& dir, std::uint64_t seed) {
  std::system(("mkdir -p " + dir).c_str());
  const std::string snap = dir + "/obs_design.tsdb";
  if (!write_snapshot(seed, "tiny", /*with_model=*/true, snap)) {
    std::fprintf(stderr, "obs-gate: cannot write snapshot %s\n", snap.c_str());
    return 1;
  }
  std::string error;
  auto loaded = serve::load_session_design(snap, FlowOptions{}, &error);
  if (loaded == nullptr) {
    std::fprintf(stderr, "obs-gate: restore failed: %s\n", error.c_str());
    return 1;
  }
  const double dist = static_cast<double>(loaded->design->die().width()) / 20.0;
  const auto rounds =
      plan_rounds(loaded->flow->initial_forest(), seed, 0, kObsGateRounds, dist);
  loaded.reset();
  if (rounds.empty()) {
    std::fprintf(stderr, "obs-gate: snapshot has no movable nets\n");
    return 1;
  }

  const auto run_mode = [&](bool metrics_on, const char* trace_path) -> ObsTraffic {
    obs::reset_trace();
    if (trace_path != nullptr) obs::enable_trace(trace_path);
    obs::set_metrics_enabled(metrics_on);
    obs::metrics().reset_values();
    serve::ServeOptions so;
    so.tcp_port = 0;
    serve::Server server(so);
    std::string err;
    ObsTraffic t;
    if (!server.start(&err)) {
      t.error = "server start: " + err;
      return t;
    }
    t = run_obs_traffic(server.bound_tcp_port(), snap, rounds);
    server.stop();
    if (trace_path != nullptr) obs::disable_trace();  // flushes the file
    return t;
  };

  const std::string trace_path = dir + "/serve_trace.json";
  const ObsTraffic off = run_mode(false, nullptr);
  const ObsTraffic metrics_only = run_mode(true, nullptr);
  const ObsTraffic full = run_mode(true, trace_path.c_str());
  const ObsTraffic rerun = run_mode(true, nullptr);  // metrics determinism
  obs::set_metrics_enabled(false);
  for (const auto* t : {&off, &metrics_only, &full, &rerun}) {
    if (!t->error.empty()) {
      std::fprintf(stderr, "obs-gate: traffic failed: %s\n", t->error.c_str());
      return 1;
    }
  }

  int failures = 0;
  const auto compare = [&failures](const char* mode, const ObsTraffic& a,
                                   const ObsTraffic& b) {
    if (a.responses.size() != b.responses.size()) {
      std::fprintf(stderr, "obs-gate: %s ran %zu ops vs %zu baseline\n", mode,
                   b.responses.size(), a.responses.size());
      ++failures;
      return;
    }
    for (std::size_t i = 0; i < a.responses.size(); ++i) {
      if (a.responses[i].second != b.responses[i].second) {
        std::fprintf(stderr, "obs-gate: op \"%s\" response differs under %s\n",
                     a.responses[i].first.c_str(), mode);
        ++failures;
      }
    }
    if (a.progress_scrubbed != b.progress_scrubbed) {
      std::fprintf(stderr, "obs-gate: refine progress frames differ under %s\n", mode);
      ++failures;
    }
  };
  compare("metrics-only", off, metrics_only);
  compare("full trace+metrics", off, full);

  const auto write_text = [](const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
  };
  if (!write_text(dir + "/metrics_a.json", full.metrics_raw) ||
      !write_text(dir + "/metrics_b.json", rerun.metrics_raw)) {
    std::fprintf(stderr, "obs-gate: cannot write metrics snapshots under %s\n", dir.c_str());
    return 1;
  }
  std::printf("obs-gate: %d failure(s); artifacts: %s, %s/metrics_a.json, %s/metrics_b.json\n",
              failures, trace_path.c_str(), dir.c_str(), dir.c_str());
  return failures == 0 ? 0 : 1;
}

int cmd_selftest(int argc, char** argv) {
  int sessions = 8, threads = 4, num_snapshots = 2, rounds = 2;
  std::uint64_t seed = 7;
  std::string dir = "tsteiner_serve_selftest";
  std::string obs_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--obs-gate") {
      obs_dir = flag_value(argc, argv, &i, "--obs-gate");
    } else if (arg == "--sessions") {
      sessions = std::atoi(flag_value(argc, argv, &i, "--sessions"));
    } else if (arg == "--threads") {
      threads = std::atoi(flag_value(argc, argv, &i, "--threads"));
    } else if (arg == "--snapshots") {
      num_snapshots = std::atoi(flag_value(argc, argv, &i, "--snapshots"));
    } else if (arg == "--rounds") {
      rounds = std::atoi(flag_value(argc, argv, &i, "--rounds"));
    } else if (arg == "--seed") {
      seed = std::strtoull(flag_value(argc, argv, &i, "--seed"), nullptr, 10);
    } else if (arg == "--keep-dir") {
      dir = flag_value(argc, argv, &i, "--keep-dir");
    } else {
      return usage(argv[0]);
    }
  }
  if (sessions < 1 || threads < 1 || num_snapshots < 1 || rounds < 1) return usage(argv[0]);
  if (!obs_dir.empty()) return run_obs_gate(obs_dir, seed);

  std::system(("mkdir -p " + dir).c_str());
  std::vector<std::string> snaps;
  for (int s = 0; s < num_snapshots; ++s) {
    // Mixed tenancy: every 4th snapshot is "small" scale, the rest "tiny".
    const char* scale = s % 4 == 3 ? "small" : "tiny";
    const std::string path = dir + "/design_" + std::to_string(s) + ".tsdb";
    if (!write_snapshot(Rng::mix(seed, static_cast<std::uint64_t>(s)), scale,
                        /*with_model=*/false, path)) {
      std::fprintf(stderr, "selftest: cannot write snapshot %s\n", path.c_str());
      return 1;
    }
    snaps.push_back(path);
  }

  serve::ServeOptions serve_opts;
  serve_opts.tcp_port = 0;
  serve::Server server(serve_opts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "selftest: server start failed: %s\n", error.c_str());
    return 1;
  }
  const int port = server.bound_tcp_port();

  // Plans are derived from restored designs so both sides agree on the
  // movable-net universe.
  std::vector<SessionPlan> plans;
  for (int s = 0; s < sessions; ++s) {
    SessionPlan plan;
    plan.index = s;
    plan.snapshot = snaps[static_cast<std::size_t>(s) % snaps.size()];
    auto loaded = serve::load_session_design(plan.snapshot, FlowOptions{}, &error);
    if (loaded == nullptr) {
      std::fprintf(stderr, "selftest: restore failed: %s\n", error.c_str());
      return 1;
    }
    const double dist =
        static_cast<double>(loaded->design->die().width()) / 20.0;
    plan.rounds = plan_rounds(loaded->flow->initial_forest(), seed, s, rounds, dist);
    plans.push_back(std::move(plan));
  }

  // Server side: `threads` concurrent client threads, sessions round-robin.
  std::vector<SessionResult> via_server(plans.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t s = static_cast<std::size_t>(t); s < plans.size();
           s += static_cast<std::size_t>(threads)) {
        via_server[s] = run_session_via_server(port, plans[s]);
      }
    });
  }
  for (auto& w : workers) w.join();
  server.stop();

  // Direct reference, serial.
  int failures = 0;
  for (std::size_t s = 0; s < plans.size(); ++s) {
    if (!via_server[s].error.empty()) {
      std::fprintf(stderr, "selftest: session %zu failed: %s\n", s,
                   via_server[s].error.c_str());
      ++failures;
      continue;
    }
    const SessionResult direct = run_session_direct(plans[s], FlowOptions{});
    if (!direct.error.empty()) {
      std::fprintf(stderr, "selftest: session %zu direct side failed: %s\n", s,
                   direct.error.c_str());
      ++failures;
      continue;
    }
    if (via_server[s].wns_bits != direct.wns_bits ||
        via_server[s].wl_bits != direct.wl_bits ||
        via_server[s].signoff_wns_bits != direct.signoff_wns_bits) {
      std::fprintf(stderr, "selftest: session %zu NOT bit-identical to direct flow\n", s);
      ++failures;
    }
  }
  std::printf("selftest: %d session(s), %d thread(s), %d failure(s)\n", sessions, threads,
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "mksnap") return cmd_mksnap(argc, argv);
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "client") return cmd_client(argc, argv);
  if (cmd == "selftest") return cmd_selftest(argc, argv);
  return usage(argv[0]);
}
