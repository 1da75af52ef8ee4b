// serve workload: the what-if service under a closed loop.
//
// Setup writes serve snapshots of a few designs whose routing has headroom
// (capacity_factor 2.0), each embedding the Steiner predictor, and starts an
// in-process serve::Server on loopback with a design cache smaller than the
// snapshot set, so some opens are cold restores. Timed: kClients client
// connections run sessions back to back, each sending its next request only
// after the previous reply (a closed loop). A session is open, a run of
// `whatif` rounds moving 1-3 nets, one `wirelength`, one `signoff`, close.
//
// Many tiny incremental patches (pattern replay, DR row splice, STA cone),
// framing, dispatch, the session cache and snapshot decode do the work here;
// the maze router and autodiff do little.
//
// Correctness: sampled sessions are replayed through load_session_design +
// IncrementalSignoff / estimate_wirelengths / Flow::run_signoff and every
// returned float must match bit-for-bit. A failed request also fails the run.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "serve/client.hpp"
#include "serve/ops.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tsbench {

using namespace tsteiner;

namespace {

constexpr int kClients = 4;
constexpr const char* kOps[] = {"open", "whatif", "wirelength", "signoff", "close"};

struct Sizes {
  int snapshots;
  int cells_lo, cells_hi;
  int whatif_rounds;  ///< per session
  int wl_nets;        ///< pin sets per wirelength request
  int samples;        ///< sessions replayed through the direct API
  std::size_t cached_designs;
};

Sizes sizes(bool smoke) {
  return smoke ? Sizes{2, 150, 250, 2, 8, 2, 1} : Sizes{4, 2000, 4000, 8, 32, 4, 2};
}

struct Snapshot {
  std::string path;
  std::vector<int> movable_nets;
  std::vector<std::vector<PointF>> pin_sets;
  double move_dist = 0.0;
};

struct Plan {
  int snapshot = 0;
  std::vector<std::vector<serve::WhatIfMove>> rounds;
  std::vector<std::vector<PointF>> pin_sets;
};

Plan make_plan(std::uint64_t seed, std::uint64_t session, const std::vector<Snapshot>& snaps,
               const Sizes& sz) {
  Rng rng(Rng::mix(seed, 0x4100 + session));
  Plan plan;
  plan.snapshot = static_cast<int>(rng.index(snaps.size()));
  const Snapshot& snap = snaps[static_cast<std::size_t>(plan.snapshot)];
  for (int r = 0; r < sz.whatif_rounds; ++r) {
    std::vector<serve::WhatIfMove> moves(1 + rng.index(3));
    for (serve::WhatIfMove& m : moves) {
      m.net = snap.movable_nets[rng.index(snap.movable_nets.size())];
      m.dx = rng.uniform(-snap.move_dist, snap.move_dist);
      m.dy = rng.uniform(-snap.move_dist, snap.move_dist);
    }
    plan.rounds.push_back(std::move(moves));
  }
  for (int n = 0; n < sz.wl_nets; ++n) {
    plan.pin_sets.push_back(snap.pin_sets[rng.index(snap.pin_sets.size())]);
  }
  return plan;
}

/// What the server answered for one session, as IEEE bit patterns.
struct Answers {
  std::vector<double> whatif;  ///< wns, tns, wirelength per round
  std::vector<double> wirelength;
  std::vector<double> signoff;  ///< wns, tns, wirelength
};

struct Outcome {
  std::uint64_t session = 0;
  double wall_s = 0.0;
  std::vector<std::pair<int, double>> latency_ms;  ///< (op index, ms)
  Answers answers;
  long long attempted = 0;
  std::string error;
};

bool read_metrics(const obs::JsonValue& body, std::vector<double>* out) {
  for (const char* field : {"wns_ns", "tns_ns", "wirelength_dbu"}) {
    double v = 0.0;
    if (!serve::read_double_field(body, field, &v)) return false;
    out->push_back(v);
  }
  return true;
}

Outcome drive_session(serve::ServeClient& client, const std::vector<Snapshot>& snaps,
                      const Plan& plan) {
  Outcome out;
  const Clock::time_point t0 = Clock::now();
  const auto call = [&](int op, auto&& fn) {
    const Clock::time_point c0 = Clock::now();
    serve::ServeClient::Reply reply = fn();
    out.latency_ms.emplace_back(op, 1e3 * seconds_since(c0));
    ++out.attempted;
    if (!reply.ok && out.error.empty()) out.error = std::string(kOps[op]) + ": " + reply.error;
    return reply;
  };
  const auto opened =
      call(0, [&] { return client.open(snaps[static_cast<std::size_t>(plan.snapshot)].path); });
  if (!opened.ok) return out;
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  if (session == nullptr || fingerprint == nullptr) {
    out.error = "open reply lacks session or fingerprint";
    return out;
  }
  serve::Request req;
  req.session = session->str;
  req.fingerprint = fingerprint->str;
  req.type = serve::RequestType::kWhatIf;
  for (const auto& moves : plan.rounds) {
    req.moves = moves;
    const auto reply = call(1, [&] { return client.call(req); });
    if (!reply.ok) return out;
    if (!read_metrics(reply.body, &out.answers.whatif)) {
      out.error = "whatif reply lacks metrics";
    }
  }
  const auto wl =
      call(2, [&] { return client.wirelength(req.session, req.fingerprint, plan.pin_sets); });
  if (!wl.ok) return out;
  const obs::JsonValue* nets = wl.body.find_array("nets");
  for (std::size_t i = 0; nets != nullptr && i < nets->array.size(); ++i) {
    double v = 0.0;
    if (serve::read_double_field(nets->array[i], "wl", &v)) out.answers.wirelength.push_back(v);
  }
  req.type = serve::RequestType::kSignoff;
  req.moves.clear();
  const auto signoff = call(3, [&] { return client.call(req); });
  if (!signoff.ok) return out;
  if (!read_metrics(signoff.body, &out.answers.signoff)) {
    out.error = "signoff reply lacks metrics";
  }
  call(4, [&] { return client.close_session(req.session); });
  out.wall_s = seconds_since(t0);
  return out;
}

struct Phase {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double busy_s = 0.0;
};

Phase run_phase(const Args& args, int port, const std::vector<Snapshot>& snaps, const Sizes& sz,
                std::atomic<std::uint64_t>& next_session, double seconds) {
  Phase phase;
  std::mutex mu;
  const std::uint64_t busy0 = parallel_busy_ns();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      serve::ServeClient client;
      std::string error;
      if (!client.connect_tcp(port, &error)) {
        Outcome failed;
        failed.attempted = 1;
        failed.error = "connect: " + error;
        std::lock_guard<std::mutex> lock(mu);
        phase.outcomes.push_back(std::move(failed));
        return;
      }
      do {
        const std::uint64_t session = next_session.fetch_add(1);
        Outcome out = drive_session(client, snaps, make_plan(args.seed, session, snaps, sz));
        out.session = session;
        std::lock_guard<std::mutex> lock(mu);
        phase.outcomes.push_back(std::move(out));
      } while (seconds_since(t0) < seconds);
    });
  }
  for (std::thread& t : clients) t.join();
  phase.wall_s = seconds_since(t0);
  phase.cpu_s = process_cpu_s() - cpu0;
  phase.busy_s = phase.wall_s + static_cast<double>(parallel_busy_ns() - busy0) * 1e-9;
  std::sort(phase.outcomes.begin(), phase.outcomes.end(),
            [](const Outcome& a, const Outcome& b) { return a.session < b.session; });
  return phase;
}

bool same_answers(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

struct Replay {
  IncStats inc;
  LayerStat direct_whatif, load;
  std::shared_ptr<serve::LoadedDesign> last_design;
  SteinerForest last_forest;
  SignoffMetrics last_signoff;
};

/// Direct-API replay of one session; records a failure when any answer
/// differs from the server's.
void replay_session(const Plan& plan, const Snapshot& snap, const Answers& served,
                    Replay& replay, Report& report) {
  std::string error;
  std::shared_ptr<serve::LoadedDesign> loaded;
  time_layer("tsbench.db.load", replay.load,
             [&] { loaded = serve::load_session_design(snap.path, FlowOptions{}, &error); });
  if (loaded == nullptr) {
    report.fail("replay restore: " + error);
    return;
  }
  Answers direct;
  SteinerForest forest = loaded->flow->initial_forest();
  IncrementalSignoff inc(loaded->design.get(), loaded->flow->options());
  for (const auto& moves : plan.rounds) {
    const IncrementalSignoff::Result* r = nullptr;
    time_layer("tsbench.serve.direct_whatif", replay.direct_whatif, [&] {
      std::vector<int> dirty;
      serve::apply_whatif_moves(&forest, *loaded->design, moves, &dirty);
      time_layer("tsbench.inc.update", replay.inc.update,
                 [&] { r = &inc.update(forest, dirty); });
    });
    replay.inc.add(*r);
    direct.whatif.insert(direct.whatif.end(),
                         {r->metrics.wns_ns, r->metrics.tns_ns, r->metrics.wirelength_dbu});
  }
  const BatchBuildOptions batch = serve::wirelength_batch_options(loaded->flow->options());
  direct.wirelength = estimate_wirelengths(plan.pin_sets, *loaded->steiner_model, batch);
  const FlowResult golden = loaded->flow->run_signoff(forest);
  const SignoffMetrics& m = golden.metrics;
  direct.signoff = {m.wns_ns, m.tns_ns, m.wirelength_dbu};
  if (!same_answers(direct.whatif, served.whatif) ||
      !same_answers(direct.wirelength, served.wirelength) ||
      !same_answers(direct.signoff, served.signoff)) {
    report.fail("served session differs from the direct flow");
  }
  replay.last_design = std::move(loaded);
  replay.last_forest = std::move(forest);
  replay.last_signoff = golden.metrics;
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  const Sizes sz = sizes(args.smoke);
  const std::shared_ptr<const SteinerPredictor> predictor =
      SteinerPredictor::shared_pretrained();  // warm the pretrain cache first
  LayerStat generate, place, flow, save;
  std::vector<double> setup_wall_s, setup_cpu_s;
  std::vector<Snapshot> snaps;
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();  // stops the previous repetition's server
    snaps.clear();
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    for (int s = 0; s < sz.snapshots; ++s) {
      const int cells =
          sz.cells_lo + (sz.cells_hi - sz.cells_lo) * s / std::max(1, sz.snapshots - 1);
      FlowOptions fo;
      fo.router.capacity_factor = 2.0;
      const PlacedDesign pd = make_design(cells, 400 + 16 * rep + s, fo, generate, place, flow);
      Snapshot snap;
      snap.path = "serve_" + std::to_string(s) + ".tsdb";
      BenchmarkSpec spec;
      spec.name = pd.design->name();
      spec.target_cells = static_cast<int>(pd.design->cells().size());
      spec.endpoints = static_cast<int>(pd.design->endpoint_pins().size());
      bool saved = false;
      time_layer("tsbench.db.save", save, [&] {
        saved = serve::save_session_snapshot(spec, *pd.design, pd.flow->calibration(),
                                             pd.flow->initial_forest(), library(), nullptr,
                                             predictor.get(), snap.path);
      });
      if (!saved) throw std::runtime_error("cannot write " + snap.path);
      const SteinerForest& forest = pd.flow->initial_forest();
      for (const int t : movable_trees(forest)) {
        snap.movable_nets.push_back(forest.trees[static_cast<std::size_t>(t)].net);
      }
      snap.pin_sets = routable_pin_sets(*pd.design);
      snap.move_dist = static_cast<double>(pd.design->die().width()) / 20.0;
      snaps.push_back(std::move(snap));
    }
    serve::ServeOptions opts;
    opts.tcp_port = 0;
    opts.max_cached_designs = sz.cached_designs;
    server = std::make_unique<serve::Server>(opts);
    std::string error;
    if (!server->start(&error)) throw std::runtime_error("server start: " + error);
    setup_wall_s.push_back(seconds_since(t0));
    setup_cpu_s.push_back(process_cpu_s() - cpu0);
  }
  report.set("setup_s", median(setup_cpu_s));
  report.set("wall.setup_s", median(setup_wall_s));

  std::atomic<std::uint64_t> next_session{0};
  const int port = server->bound_tcp_port();
  std::vector<Outcome> all;
  const auto collect = [&](const Phase& phase) {
    for (const Outcome& o : phase.outcomes) {
      report.attempted += o.attempted;
      if (!o.error.empty()) {
        report.fail("session " + std::to_string(o.session) + ": " + o.error);
      }
      all.push_back(o);
    }
  };
  // Sessions overlap, so their CPU is only known in total.
  const auto cpu_per_session = [](const Phase& phase) {
    return phase.cpu_s / static_cast<double>(phase.outcomes.size());
  };
  const auto session_walls = [](const Phase& phase) {
    std::vector<double> out;
    for (const Outcome& o : phase.outcomes) {
      if (o.error.empty()) out.push_back(o.wall_s);
    }
    return out;
  };
  const Phase phase = run_phase(args, port, snaps, sz, next_session,
                                args.trace ? 0.5 * args.seconds : args.seconds);
  collect(phase);
  if (args.trace) {
    start_trace(args);
    const Phase traced = run_phase(args, port, snaps, sz, next_session, 0.5 * args.seconds);
    collect(traced);
    report.set("trace.overhead_frac", cpu_per_session(traced) / cpu_per_session(phase) - 1.0);
  }
  const serve::ServerStats server_stats = server->stats();
  const serve::SessionManagerStats cache_stats = server->sessions().stats();
  server->stop();

  std::vector<double> latency, by_op[std::size(kOps)];
  for (const Outcome& o : phase.outcomes) {
    for (const auto& [op, ms] : o.latency_ms) {
      latency.push_back(ms);
      by_op[op].push_back(ms);
    }
  }
  report.set("unit_cpu_s", cpu_per_session(phase));
  report.set("op_cpu_ms", 1e3 * phase.cpu_s / static_cast<double>(latency.size()));
  report.set("wall.unit_s", median(session_walls(phase)));
  report.set("wall.op_p50_ms", median(latency));
  report.set("wall.ops_per_s", static_cast<double>(latency.size()) / phase.wall_s);
  report.set("wall.full_signoff_ms", median(by_op[3]));

  // Replay sessions spread evenly over every completed session.
  Replay replay;
  std::vector<const Outcome*> ok;
  for (const Outcome& o : all) {
    if (o.error.empty()) ok.push_back(&o);
  }
  const std::size_t samples =
      std::min<std::size_t>(ok.size(), static_cast<std::size_t>(sz.samples));
  for (std::size_t i = 0; i < samples; ++i) {
    const Outcome& o = *ok[i * ok.size() / samples];
    const Plan plan = make_plan(args.seed, o.session, snaps, sz);
    replay_session(plan, snaps[static_cast<std::size_t>(plan.snapshot)], o.answers, replay,
                   report);
  }
  if (!args.trace) return;

  for (std::size_t op = 0; op < std::size(kOps); ++op) {
    report.set(std::string("serve.") + kOps[op] + "_p50_ms", median(by_op[op]));
  }
  report.set("serve.p99_ms", percentile(latency, 99.0));
  report.set("serve.requests", static_cast<double>(latency.size()));
  report.set("serve.direct_whatif_ms", replay.direct_whatif.median_ms());
  report.set("serve.overhead_ms", median(by_op[1]) - replay.direct_whatif.median_ms());
  report.set("serve.batches", static_cast<double>(server_stats.batches));
  report.set("serve.mean_batch", server_stats.batches > 0
                                     ? static_cast<double>(server_stats.requests) /
                                           static_cast<double>(server_stats.batches)
                                     : 0.0);
  report.set("serve.cache_loads", static_cast<double>(cache_stats.loads));
  report.set("serve.cache_hits", static_cast<double>(cache_stats.cache_hits));
  report.set("serve.cache_evictions", static_cast<double>(cache_stats.evictions));
  report.set("serve.util", phase.busy_s / phase.wall_s);
  report.set("db.save_ms", save.median_ms());
  report.set("db.load_ms", replay.load.median_ms());
  report.set("quality.wns_ns", replay.last_signoff.wns_ns);
  report.set("quality.tns_ns", replay.last_signoff.tns_ns);
  report_inc(replay.inc, report);
  const double reps = kSetupRepeats;
  report.set("netlist.generate_s", generate.wall_s / reps);
  report.set("place.s", place.wall_s / reps);
  report.set("flow.construct_s", flow.wall_s / reps);
  if (replay.last_design) {
    measure_signoff_layers(*replay.last_design->flow, replay.last_forest, report);
  }
  report.set("steiner.pretrain_s", measure_pretrain_s());
  stop_trace();
}

}  // namespace tsbench
