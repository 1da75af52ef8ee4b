#include "verify/diff_harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "db/bytes.hpp"
#include "db/codecs.hpp"
#include "db/container.hpp"
#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "gnn/graph_cache.hpp"
#include "gnn/model.hpp"
#include "gnn/steiner_predictor.hpp"
#include "steiner/batch_builder.hpp"
#include "search/topo_edits.hpp"
#include "serve/client.hpp"
#include "serve/ops.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sta/incremental.hpp"
#include "tsteiner/gradient.hpp"
#include "tsteiner/penalty.hpp"
#include "tsteiner/random_move.hpp"
#include "tsteiner/refine.hpp"
#include "util/parallel.hpp"
#include "verify/invariants.hpp"

namespace tsteiner::verify {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

bool near(double a, double b, double tol) { return std::abs(a - b) <= tol; }

std::string bits_compare(const std::vector<double>& a, const std::vector<double>& b,
                         const char* what) {
  if (a.size() != b.size()) return std::string(what) + " size mismatch";
  if (!a.empty() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
        return std::string(what) + " not bit-identical at element " + std::to_string(i) +
               ": " + std::to_string(a[i]) + " vs " + std::to_string(b[i]);
      }
    }
  }
  return {};
}

/// Bit-level comparison of IncrementalSta against the full pass: every
/// StaResult field, no epsilon. The incremental path prunes on bit equality,
/// so its contract is exactness.
std::string compare_sta(const StaResult& inc, const StaResult& full) {
  const auto bits_eq = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  std::string msg = bits_compare(inc.arrival, full.arrival, "arrival");
  if (msg.empty()) msg = bits_compare(inc.slew, full.slew, "slew");
  if (msg.empty() && inc.endpoints != full.endpoints) msg = "endpoint list diverges";
  if (msg.empty()) msg = bits_compare(inc.endpoint_slack, full.endpoint_slack, "endpoint slack");
  if (!msg.empty()) return msg;
  if (!bits_eq(inc.wns, full.wns)) return "WNS not bit-identical";
  if (!bits_eq(inc.tns, full.tns)) return "TNS not bit-identical";
  if (!bits_eq(inc.max_arrival, full.max_arrival)) return "max arrival not bit-identical";
  if (!bits_eq(inc.worst_slew_ns, full.worst_slew_ns)) return "worst slew not bit-identical";
  if (!bits_eq(inc.worst_cap_pf, full.worst_cap_pf)) return "worst cap not bit-identical";
  if (inc.num_violations != full.num_violations) return "violation count diverges";
  if (inc.num_slew_violations != full.num_slew_violations) return "slew-violation count diverges";
  if (inc.num_cap_violations != full.num_cap_violations) return "cap-violation count diverges";
  return {};
}

std::string bits_compare_grad(const GradientResult& a, const GradientResult& b) {
  if (std::memcmp(&a.penalty, &b.penalty, sizeof(double)) != 0) {
    return "penalty not bit-identical: " + std::to_string(a.penalty) + " vs " +
           std::to_string(b.penalty);
  }
  if (std::memcmp(&a.eval_wns_ns, &b.eval_wns_ns, sizeof(double)) != 0 ||
      std::memcmp(&a.eval_tns_ns, &b.eval_tns_ns, sizeof(double)) != 0) {
    return "model WNS/TNS not bit-identical";
  }
  std::string msg = bits_compare(a.grad_x, b.grad_x, "grad_x");
  if (msg.empty()) msg = bits_compare(a.grad_y, b.grad_y, "grad_y");
  return msg;
}

/// Restores the ambient pool width on every oracle exit path.
struct ThreadWidthGuard {
  std::size_t prev;
  ThreadWidthGuard() : prev(parallel_threads()) {}
  ~ThreadWidthGuard() { set_parallel_threads(prev); }
};

TimingGnn make_case_model(const FuzzCase& c) {
  GnnConfig cfg;
  cfg.hidden = 6;
  cfg.type_embed = 4;
  cfg.delay_hidden = 8;
  cfg.seed = Rng::mix(c.seed, 0x90de1);
  return TimingGnn(cfg, fuzz_library().num_types());
}

/// Indices of trees with at least one movable Steiner node.
std::vector<int> movable_trees(const SteinerForest& forest) {
  std::vector<int> out;
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    if (forest.trees[t].num_steiner_nodes() > 0) out.push_back(static_cast<int>(t));
  }
  return out;
}

/// Move every Steiner node of one tree by a random offset, clamped to the
/// die and rounded to the grid (random_disturb's per-tree equivalent).
void disturb_tree(SteinerTree& tree, const RectI& die, double dist, Rng& rng) {
  for (SteinerNode& node : tree.nodes) {
    if (!node.is_steiner()) continue;
    node.pos.x += rng.uniform(-dist, dist);
    node.pos.y += rng.uniform(-dist, dist);
    node.pos = to_f(round_to_i(clamp_into(node.pos, die)));
  }
}

// --- oracle: IncrementalSta vs full run_sta --------------------------------

std::string oracle_sta_incremental(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  Rng& rng = *ctx.rng;
  const std::vector<int> candidates = movable_trees(c.forest);
  if (candidates.empty()) return {};  // no Steiner points to move

  IncrementalSta inc(c.design);
  inc.analyze(c.forest, nullptr);
  SteinerForest cur = c.forest;
  const double die_w = static_cast<double>(c.design.die().width());

  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    const bool mutate_now = ctx.mutate && round == kRounds - 1;
    std::vector<int> picks = candidates;
    rng.shuffle(picks);
    const std::size_t k = 1 + rng.index(std::min<std::size_t>(4, picks.size()));
    picks.resize(k);

    std::vector<int> dirty;
    for (std::size_t m = 0; m < picks.size(); ++m) {
      SteinerTree& tree = cur.trees[static_cast<std::size_t>(picks[m])];
      // Mutation needs a move large enough that skipping the net always
      // changes the timing.
      const double dist = mutate_now && m + 1 == picks.size()
                              ? std::max(c.disturb_dist, die_w / 3.0)
                              : c.disturb_dist;
      disturb_tree(tree, c.design.die(), dist, rng);
      // Dirty lists assembled from per-move records repeat nets; feed the
      // duplicates straight through to exercise update()'s dedup.
      const int copies = 1 + static_cast<int>(rng.index(2));
      for (int r = 0; r < copies; ++r) dirty.push_back(tree.net);
    }
    // An unmoved net in the dirty list must be a no-op.
    if (rng.bernoulli(0.3)) {
      const int extra = candidates[rng.index(candidates.size())];
      dirty.push_back(cur.trees[static_cast<std::size_t>(extra)].net);
    }
    if (mutate_now) {
      // The injected bug: the last moved net never makes it into the dirty
      // list, exactly the class of bookkeeping slip the oracle exists for.
      const int skipped = cur.trees[static_cast<std::size_t>(picks.back())].net;
      std::erase(dirty, skipped);
    }
    rng.shuffle(dirty);

    const StaResult& fast = inc.update(cur, nullptr, dirty);
    const StaResult full = run_sta(c.design, cur, nullptr);
    const std::string msg = compare_sta(fast, full);
    if (!msg.empty()) {
      return "round " + std::to_string(round) + " (" + std::to_string(dirty.size()) +
             " dirty entries): " + msg;
    }
  }
  return {};
}

// --- oracle: IncrementalSignoff vs full Flow::run_signoff ------------------

/// Bit-level comparison of an incremental sign-off against the golden
/// pipeline: metrics, every routed path, and every STA field. No epsilon — the
/// incremental path's contract is exactness.
std::string compare_signoff(const IncrementalSignoff::Result& inc, const FlowResult& full) {
  const auto bits_eq = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  if (!bits_eq(inc.metrics.wns_ns, full.metrics.wns_ns)) {
    return "WNS not bit-identical: " + std::to_string(inc.metrics.wns_ns) + " vs " +
           std::to_string(full.metrics.wns_ns);
  }
  if (!bits_eq(inc.metrics.tns_ns, full.metrics.tns_ns)) return "TNS not bit-identical";
  if (inc.metrics.num_vios != full.metrics.num_vios) return "violation count diverges";
  if (!bits_eq(inc.metrics.wirelength_dbu, full.metrics.wirelength_dbu)) {
    return "DR wirelength not bit-identical: " + std::to_string(inc.metrics.wirelength_dbu) +
           " vs " + std::to_string(full.metrics.wirelength_dbu);
  }
  if (inc.metrics.num_vias != full.metrics.num_vias) return "via count diverges";
  if (inc.metrics.num_drvs != full.metrics.num_drvs) return "DRV count diverges";
  if (!bits_eq(inc.gr->wirelength_dbu, full.gr.wirelength_dbu)) {
    return "GR wirelength not bit-identical";
  }
  if (!bits_eq(inc.gr->total_overflow, full.gr.total_overflow)) {
    return "GR overflow not bit-identical";
  }
  if (inc.gr->overflowed_edges != full.gr.overflowed_edges) {
    return "overflowed-edge count diverges";
  }
  if (inc.gr->connections.size() != full.gr.connections.size()) {
    return "connection count diverges";
  }
  for (std::size_t i = 0; i < inc.gr->connections.size(); ++i) {
    const auto& pa = inc.gr->connections[i].path;
    const auto& pb = full.gr.connections[i].path;
    if (pa.size() != pb.size() ||
        (!pa.empty() && std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(GCell)) != 0)) {
      return "routed path diverges at connection " + std::to_string(i);
    }
  }
  return compare_sta(*inc.sta, full.sta);
}

/// Move every Steiner node of one tree toward the die's far side by `dist` —
/// a displacement guaranteed to change gcell endpoints, so an *undeclared*
/// move of this size is always visible in the routed result.
void shove_tree(SteinerTree& tree, const RectI& die, double dist) {
  const double mid = (static_cast<double>(die.lo.x) + static_cast<double>(die.hi.x)) / 2.0;
  for (SteinerNode& node : tree.nodes) {
    if (!node.is_steiner()) continue;
    node.pos.x += node.pos.x < mid ? dist : -dist;
    node.pos = to_f(round_to_i(clamp_into(node.pos, die)));
  }
}

std::string oracle_signoff_incremental(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  Rng& rng = *ctx.rng;
  Design design = c.design;  // the Flow constructor recalibrates the clock
  const Flow flow(&design);
  const std::vector<int> candidates = movable_trees(flow.initial_forest());
  if (candidates.empty()) return {};

  IncrementalSignoff inc(&design, flow.options());
  inc.full(flow.initial_forest());
  {
    const FlowResult ref = flow.run_signoff(flow.initial_forest());
    const std::string msg = compare_signoff(inc.result(), ref);
    if (!msg.empty()) return "anchor full sign-off: " + msg;
  }

  SteinerForest cur = flow.initial_forest();
  const double die_w = static_cast<double>(design.die().width());

  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    const bool mutate_now = ctx.mutate && round == kRounds - 1;
    std::vector<int> picks = candidates;
    rng.shuffle(picks);
    const std::size_t k = 1 + rng.index(std::min<std::size_t>(4, picks.size()));
    picks.resize(k);

    std::vector<int> dirty;
    for (int pick : picks) {
      SteinerTree& tree = cur.trees[static_cast<std::size_t>(pick)];
      disturb_tree(tree, design.die(), c.disturb_dist, rng);
      // Refine emits one dirty entry per moved point: duplicates are normal.
      const int copies = 1 + static_cast<int>(rng.index(2));
      for (int r = 0; r < copies; ++r) dirty.push_back(tree.net);
    }
    // An unmoved net in the dirty list must be harmless (exactness is about
    // *missing* entries, never extra ones).
    if (rng.bernoulli(0.3)) {
      const int extra = candidates[rng.index(candidates.size())];
      dirty.push_back(cur.trees[static_cast<std::size_t>(extra)].net);
    }
    if (mutate_now) {
      // The injected bug: one more tree moves — far enough to change its
      // gcell endpoints — and its net never enters the dirty list. The
      // dirty-net contract says this must NOT be healed, so the oracle has
      // to flag the divergence.
      std::vector<int> unpicked;
      for (int t : candidates) {
        if (std::find(picks.begin(), picks.end(), t) == picks.end()) unpicked.push_back(t);
      }
      const int victim = unpicked.empty() ? picks.back()
                                          : unpicked[rng.index(unpicked.size())];
      shove_tree(cur.trees[static_cast<std::size_t>(victim)], design.die(),
                 std::max(c.disturb_dist, die_w / 3.0));
      const int skipped = cur.trees[static_cast<std::size_t>(victim)].net;
      std::erase(dirty, skipped);
    }
    rng.shuffle(dirty);

    const IncrementalSignoff::Result& fast = inc.update(cur, dirty);
    const FlowResult ref = flow.run_signoff(cur);
    const std::string msg = compare_signoff(fast, ref);
    if (!msg.empty()) {
      return "round " + std::to_string(round) + " (" + std::to_string(dirty.size()) +
             " dirty entries, " + std::to_string(fast.num_rerouted) + " rerouted): " + msg;
    }
  }
  return {};
}

// --- oracle: retained replay vs fresh tape vs finite differences -----------

std::string oracle_replayed_gradients(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  Rng& rng = *ctx.rng;
  if (c.forest.num_movable() == 0) return {};
  const TimingGnn model = make_case_model(c);
  const auto cache = build_graph_cache(c.design, c.forest);
  PenaltyWeights w;
  std::vector<double> xs = c.forest.gather_x();
  std::vector<double> ys = c.forest.gather_y();

  GradientEvaluator evaluator(model, *cache, c.design, xs, ys, w);
  constexpr int kSteps = 3;
  for (int step = 0; step < kSteps; ++step) {
    if (step > 0) {
      for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] += static_cast<double>(rng.uniform_int(-3, 3));
        ys[i] += static_cast<double>(rng.uniform_int(-3, 3));
      }
      w.lambda_w *= 1.01;  // the growth schedule's mutable-lambda replay path
      w.lambda_t *= 1.01;
    }
    const GradientResult fresh = compute_timing_gradients(model, *cache, c.design, xs, ys, w);
    std::vector<double> xs_replay = xs;
    if (ctx.mutate && step == kSteps - 1) {
      // The injected bug: one coordinate leaf is stale on the replay side.
      // Pick a coordinate the penalty actually depends on (nonzero
      // gradient) — Steiner points in timing-dead cones have no influence
      // and would make the perturbation invisible.
      std::vector<std::size_t> live;
      for (std::size_t i = 0; i < fresh.grad_x.size(); ++i) {
        if (fresh.grad_x[i] != 0.0) live.push_back(i);
      }
      const std::size_t idx = live.empty() ? rng.index(xs_replay.size())
                                           : live[rng.index(live.size())];
      xs_replay[idx] += 2.0;
    }
    const GradientResult replayed = evaluator.gradients(xs_replay, ys, w);
    const std::string msg = bits_compare_grad(fresh, replayed);
    if (!msg.empty()) return "step " + std::to_string(step) + ": replay vs fresh tape: " + msg;
  }

  // Central finite differences over a few coordinates ground the analytic
  // gradient in the function the replay actually evaluates.
  const GradientResult g = evaluator.gradients(xs, ys, w);
  const double eps = 1e-4;
  const std::size_t stride = std::max<std::size_t>(1, xs.size() / 2);
  for (std::size_t i = 0; i < xs.size(); i += stride) {
    std::vector<double> xp = xs, xm = xs;
    xp[i] += eps;
    xm[i] -= eps;
    const double fp = evaluator.evaluate(xp, ys, w).penalty;
    const double fm = evaluator.evaluate(xm, ys, w).penalty;
    const double numeric = (fp - fm) / (2.0 * eps);
    if (!near(g.grad_x[i], numeric, 1e-4 + 0.05 * std::abs(numeric))) {
      return "analytic dP/dX[" + std::to_string(i) + "] = " + std::to_string(g.grad_x[i]) +
             " vs central difference " + std::to_string(numeric);
    }
  }
  return {};
}

// --- oracle: thread width 1 vs N bit-identity ------------------------------

std::string oracle_thread_width(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  ThreadWidthGuard guard;

  set_parallel_threads(1);
  const StaResult serial = run_sta(c.design, c.forest, nullptr);

  set_parallel_threads(4);
  SteinerForest wide_forest = c.forest;
  StaResult wide;
  if (ctx.mutate) {
    // The injected bug: the wide run sees divergent state. Nudge a Steiner
    // point when one exists; otherwise flip one arrival bit directly.
    const std::vector<int> cand = movable_trees(wide_forest);
    if (!cand.empty()) {
      for (SteinerNode& n : wide_forest.trees[static_cast<std::size_t>(cand[0])].nodes) {
        if (n.is_steiner()) {
          n.pos = to_f(round_to_i(clamp_into({n.pos.x + 4.0, n.pos.y}, c.design.die())));
          break;
        }
      }
      wide = run_sta(c.design, wide_forest, nullptr);
    } else {
      wide = run_sta(c.design, wide_forest, nullptr);
      if (!wide.arrival.empty()) {
        std::uint64_t bits;
        std::memcpy(&bits, &wide.arrival[wide.arrival.size() / 2], sizeof(bits));
        bits ^= 1ull;
        std::memcpy(&wide.arrival[wide.arrival.size() / 2], &bits, sizeof(bits));
      }
    }
  } else {
    wide = run_sta(c.design, wide_forest, nullptr);
  }

  std::string msg = compare_sta(serial, wide);
  if (!msg.empty()) return "STA width 1 vs 4: " + msg;

  // The gradient path (GNN forward + penalty backward) under both widths.
  if (c.forest.num_movable() == 0) return {};
  const TimingGnn model = make_case_model(c);
  const auto cache = build_graph_cache(c.design, c.forest);
  const PenaltyWeights w;
  const std::vector<double> xs = c.forest.gather_x();
  const std::vector<double> ys = c.forest.gather_y();
  set_parallel_threads(1);
  const GradientResult g1 = compute_timing_gradients(model, *cache, c.design, xs, ys, w);
  set_parallel_threads(4);
  const GradientResult g4 = compute_timing_gradients(model, *cache, c.design, xs, ys, w);
  msg = bits_compare_grad(g1, g4);
  if (!msg.empty()) return "gradient width 1 vs 4: " + msg;
  return {};
}

// --- oracle: DB save -> load -> save byte round-trip -----------------------

void write_case_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> read_case_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

std::string oracle_db_roundtrip(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  const std::string base =
      ctx.work_dir + "/roundtrip_" + std::to_string(c.seed);
  const std::string path1 = base + ".tsdb";
  const std::string path2 = base + ".again.tsdb";

  if (!save_case_snapshot(c, path1)) return "cannot write snapshot " + path1;
  if (ctx.mutate) {
    // The injected bug: one payload byte flips on disk. Every container
    // layer downstream must refuse the file rather than decode garbage.
    std::vector<std::uint8_t> bytes = read_case_file(path1);
    if (bytes.empty()) return "snapshot unreadable before mutation";
    bytes[bytes.size() / 2] ^= 0x01;
    write_case_file(path1, bytes);
  }

  db::DbReader reader;
  std::string error;
  if (!reader.open(path1, &error)) return "reader rejected snapshot: " + error;

  const db::ChunkInfo* lib_chunk = reader.find(db::kChunkLibrary);
  const db::ChunkInfo* design_chunk = reader.find(db::kChunkDesign);
  const db::ChunkInfo* forest_chunk = reader.find(db::kChunkForest);
  if (lib_chunk == nullptr || design_chunk == nullptr || forest_chunk == nullptr) {
    return "snapshot missing LIBR/DSGN/FRST chunks";
  }

  const auto lib = db::decode_library(reader.payload(*lib_chunk),
                                      static_cast<std::size_t>(lib_chunk->size));
  if (!lib) return "LIBR chunk does not decode";
  const auto design = db::decode_design(reader.payload(*design_chunk) + 4,
                                        static_cast<std::size_t>(design_chunk->size) - 4, *lib);
  if (!design) return "DSGN chunk does not decode";
  const auto forest = db::decode_forest(reader.payload(*forest_chunk) + 4,
                                        static_cast<std::size_t>(forest_chunk->size) - 4);
  if (!forest) return "FRST chunk does not decode";

  // Re-encode the decoded objects: every chunk payload must reproduce the
  // stored bytes exactly (save -> load -> save is the identity).
  const std::vector<std::uint8_t> lib_again = db::encode_library(*lib);
  if (lib_again.size() != lib_chunk->size ||
      std::memcmp(lib_again.data(), reader.payload(*lib_chunk), lib_again.size()) != 0) {
    return "library payload not byte-stable across decode/encode";
  }
  db::ByteWriter design_again;
  design_again.u32(0);
  design_again.raw(db::encode_design(design->spec, design->design));
  if (design_again.bytes().size() != design_chunk->size ||
      std::memcmp(design_again.bytes().data(), reader.payload(*design_chunk),
                  design_again.bytes().size()) != 0) {
    return "design payload not byte-stable across decode/encode";
  }
  db::ByteWriter forest_again;
  forest_again.u32(0);
  forest_again.raw(db::encode_forest(*forest));
  if (forest_again.bytes().size() != forest_chunk->size ||
      std::memcmp(forest_again.bytes().data(), reader.payload(*forest_chunk),
                  forest_again.bytes().size()) != 0) {
    return "forest payload not byte-stable across decode/encode";
  }

  // Whole-file check: a second save built from the decoded state must be
  // byte-identical to the first container.
  FuzzCase reloaded = c;
  reloaded.design = design->design;
  reloaded.forest = *forest;
  if (!save_case_snapshot(reloaded, path2)) return "cannot write second snapshot";
  const std::vector<std::uint8_t> bytes1 = read_case_file(path1);
  const std::vector<std::uint8_t> bytes2 = read_case_file(path2);
  if (bytes1 != bytes2) return "save -> load -> save produced a different file";

  std::filesystem::remove(path1);
  std::filesystem::remove(path2);
  return {};
}

// --- oracle: forest structural invariants ----------------------------------

std::string oracle_forest_invariants(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  std::string msg = check_forest_invariants(c.design, c.forest, /*require_min_degree=*/true);
  if (!msg.empty()) return "initial forest: " + msg;

  // Position-only disturbance (seeded overload: part of the case's replay
  // closure) must preserve every structural invariant.
  SteinerForest disturbed = random_disturb(c.forest, c.design.die(), c.disturb_dist,
                                           Rng::mix(c.seed, 0xd157));
  if (ctx.mutate && !disturbed.trees.empty()) {
    // The injected bug: one tree loses an edge (the classic off-by-one in a
    // topology edit), disconnecting it.
    for (SteinerTree& tree : disturbed.trees) {
      if (!tree.edges.empty()) {
        tree.edges.pop_back();
        break;
      }
    }
  }
  msg = check_forest_invariants(c.design, disturbed, /*require_min_degree=*/true);
  if (!msg.empty()) return "disturbed forest: " + msg;
  return {};
}

// --- oracle: exact RSMT optimality for small nets --------------------------

std::string oracle_rsmt_small(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  if (ctx.mutate) {
    // The injected bug: a detoured 2-pin connection (driver -> far Steiner
    // point -> sink) that any optimality check worth its name must flag.
    for (const SteinerTree& tree : c.forest.trees) {
      if (tree.nodes.size() != 2 || tree.edges.size() != 1) continue;
      SteinerTree detour = tree;
      const PointF far = clamp_into(
          {detour.nodes[0].pos.x + static_cast<double>(c.design.die().width()) / 2.0 + 8.0,
           detour.nodes[0].pos.y},
          c.design.die());
      if (manhattan(far, detour.nodes[0].pos) + manhattan(far, detour.nodes[1].pos) <=
          manhattan(detour.nodes[0].pos, detour.nodes[1].pos)) {
        continue;  // clamped onto the direct path; try another net
      }
      detour.nodes.push_back({far, -1});
      detour.edges.clear();
      detour.edges.push_back({0, 2});
      detour.edges.push_back({2, 1});
      return check_small_net_optimality(detour);
    }
    return {};  // no 2-pin net to detour in this case
  }
  int checked = 0;
  for (const SteinerTree& tree : c.forest.trees) {
    if (checked >= 60) break;
    int pins = 0;
    for (const SteinerNode& n : tree.nodes) pins += n.is_steiner() ? 0 : 1;
    if (pins < 2 || pins > 4) continue;
    ++checked;
    const std::string msg = check_small_net_optimality(tree);
    if (!msg.empty()) return msg;
  }
  return {};
}

// --- oracle: LSE penalty mathematics ---------------------------------------

std::string oracle_lse_penalty(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  const StaResult sta = run_sta(c.design, c.forest, nullptr);
  if (sta.endpoint_slack.empty()) return "case has no endpoints";
  const double clock = c.design.clock_period();
  std::vector<double> slack(sta.endpoint_slack);
  for (double& s : slack) s /= clock;  // the normalized units the penalty graph uses
  const double gamma = penalty_gamma(PenaltyWeights{}, clock);

  const std::string msg = check_lse_penalty_properties(slack, gamma);
  if (!msg.empty()) return msg;

  // Cross-implementation bound: the smoothed WNS over the slack vector the
  // penalty graph would see must under-approximate the sign-off hard WNS.
  // The bound holds for every positive temperature, so the cross-check uses
  // a tight one — at the production gamma (10 ns / clock) the smoothing
  // slack would mask a missing endpoint entirely.
  constexpr double kCrossGamma = 1e-3;
  std::vector<double> graph_slack = slack;
  if (ctx.mutate) {
    // The injected bug: the critical endpoint cluster never entered the
    // penalty graph (a gather_rows indexing slip).
    const double min_s = *std::min_element(slack.begin(), slack.end());
    graph_slack.clear();
    for (double s : slack) {
      if (s > min_s + 0.05) graph_slack.push_back(s);
    }
    if (graph_slack.empty()) return {};  // flat slack profile; nothing to drop
  }
  Tape tape;
  const Value s_leaf = tape.leaf(Tensor::column(graph_slack));
  const double smooth_wns =
      tape.value(tape.neg(tape.log_sum_exp(tape.neg(s_leaf), kCrossGamma)))[0];
  const double hard_wns = sta.wns / clock;
  if (smooth_wns > hard_wns + 1e-9 * std::max(1.0, std::abs(hard_wns))) {
    return "smoothed WNS " + std::to_string(smooth_wns) +
           " above sign-off hard WNS " + std::to_string(hard_wns) +
           " (an endpoint is missing from the penalty graph)";
  }
  return {};
}

// --- oracle: keep-best refinement loop -------------------------------------

std::string oracle_keep_best(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  if (c.forest.num_movable() == 0) return {};
  const TimingGnn model = make_case_model(c);
  RefineOptions opts;
  opts.max_iterations = 5;
  const RefineResult r = refine_steiner_points(c.design, c.forest, model, opts);
  std::string msg = check_keep_best_monotone(r);
  if (!msg.empty()) return msg;
  // The refined forest is a position-only edit of the input: structure,
  // degree bounds, die containment and grid rounding must all survive.
  msg = check_forest_invariants(c.design, r.forest, /*require_min_degree=*/true);
  if (!msg.empty()) return "refined forest: " + msg;
  return {};
}

// --- oracle: batched Steiner construction vs lone-net reference -------------

/// Bit-compare two trees built over the same pin set.
std::string compare_trees_bitwise(const SteinerTree& a, const SteinerTree& b) {
  if (a.nodes.size() != b.nodes.size()) {
    return "node count " + std::to_string(a.nodes.size()) + " vs " +
           std::to_string(b.nodes.size());
  }
  if (a.edges.size() != b.edges.size()) {
    return "edge count " + std::to_string(a.edges.size()) + " vs " +
           std::to_string(b.edges.size());
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (std::memcmp(&a.nodes[i].pos.x, &b.nodes[i].pos.x, sizeof(double)) != 0 ||
        std::memcmp(&a.nodes[i].pos.y, &b.nodes[i].pos.y, sizeof(double)) != 0 ||
        a.nodes[i].pin != b.nodes[i].pin) {
      return "node " + std::to_string(i) + " differs";
    }
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].a != b.edges[i].a || a.edges[i].b != b.edges[i].b) {
      return "edge " + std::to_string(i) + " differs";
    }
  }
  return {};
}

std::string oracle_steiner_batch(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  const auto predictor = SteinerPredictor::shared_pretrained();
  std::vector<int> net_ids;
  const std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(c.design, &net_ids);
  if (pin_sets.empty()) return {};

  BatchBuildOptions batch;
  batch.mutate_drop_first_candidate = ctx.mutate;
  BatchBuildStats stats;
  std::vector<std::uint8_t> used_fallback;
  const std::vector<SteinerTree> batched =
      build_batched_trees(pin_sets, *predictor, batch, &stats, &used_fallback);
  if (batched.size() != pin_sets.size() || used_fallback.size() != pin_sets.size()) {
    return "batched construction returned wrong tree count";
  }

  // Batch-composition invariance: each net alone, in a batch of one and
  // without the mutation hook, must reproduce the full-batch tree bit
  // for bit, including the fallback decision. The mutation self-check rides
  // on exactly this comparison — dropping a predicted candidate in the full
  // batch diverges from the clean lone-net stitch.
  BatchBuildOptions lone_opts = batch;
  lone_opts.mutate_drop_first_candidate = false;
  for (std::size_t i = 0; i < pin_sets.size(); ++i) {
    std::vector<std::uint8_t> lone_fb;
    const std::vector<SteinerTree> lone =
        build_batched_trees({pin_sets[i]}, *predictor, lone_opts, nullptr, &lone_fb);
    if ((lone_fb[0] != 0) != (used_fallback[i] != 0)) {
      return "net " + std::to_string(net_ids[i]) +
             ": fallback decision depends on batch composition";
    }
    const std::string msg = compare_trees_bitwise(batched[i], lone[0]);
    if (!msg.empty()) {
      return "net " + std::to_string(net_ids[i]) + " vs lone-net reference: " + msg;
    }
  }

  // Small nets must have taken the exact path, bit for bit, and stay
  // provably optimal (Hanan enumeration).
  for (std::size_t i = 0; i < pin_sets.size(); ++i) {
    if (static_cast<int>(pin_sets[i].size()) > kSmallNetPinLimit) continue;
    if (used_fallback[i] == 0) {
      return "net " + std::to_string(net_ids[i]) + ": small net skipped the exact path";
    }
    const SteinerTree exact = build_rsmt_points(pin_sets[i], batch.fallback);
    std::string msg = compare_trees_bitwise(batched[i], exact);
    if (!msg.empty()) {
      return "net " + std::to_string(net_ids[i]) + " vs exact small-net path: " + msg;
    }
    if (pin_sets[i].size() <= 4) {
      msg = check_small_net_optimality(batched[i]);
      if (!msg.empty()) return "net " + std::to_string(net_ids[i]) + ": " + msg;
    }
  }

  // Design-level drop-in: the batched forest must satisfy every structural
  // invariant build_forest's output does.
  const SteinerForest forest = build_forest_batched(c.design, *predictor, batch);
  const std::string msg =
      check_forest_invariants(c.design, forest, /*require_min_degree=*/true);
  if (!msg.empty()) return "batched forest: " + msg;
  return {};
}

// --- oracle: serve responses vs direct Flow / IncrementalSignoff -----------

/// Bit-compare a dual-encoded response double against the direct result.
std::string compare_response_double(const obs::JsonValue& body, const std::string& name,
                                    double expected) {
  double got = 0.0;
  if (!serve::read_double_field(body, name, &got)) {
    return "response is missing field '" + name + "'";
  }
  if (std::memcmp(&got, &expected, sizeof(double)) != 0) {
    return "'" + name + "' not bit-identical: server " + serve::double_bits_hex(got) +
           " vs direct " + serve::double_bits_hex(expected);
  }
  return {};
}

// --- oracle: topology edit ops vs rebuilt-from-scratch forests --------------

/// Bit-level tree equality (positions, pins, edges, driver, net).
std::string compare_tree_bits(const SteinerTree& a, const SteinerTree& b) {
  if (a.net != b.net) return "net id differs";
  if (a.driver_node != b.driver_node) return "driver node differs";
  if (a.nodes.size() != b.nodes.size()) return "node count differs";
  if (a.edges.size() != b.edges.size()) return "edge count differs";
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (std::memcmp(&a.nodes[i].pos.x, &b.nodes[i].pos.x, sizeof(double)) != 0 ||
        std::memcmp(&a.nodes[i].pos.y, &b.nodes[i].pos.y, sizeof(double)) != 0 ||
        a.nodes[i].pin != b.nodes[i].pin) {
      return "node " + std::to_string(i) + " differs";
    }
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].a != b.edges[i].a || a.edges[i].b != b.edges[i].b) {
      return "edge " + std::to_string(i) + " differs";
    }
  }
  return {};
}

/// The incrementally-maintained forest (replace_tree patching the movable
/// index in place) against one rebuilt from scratch.
std::string compare_forest_vs_rebuilt(const SteinerForest& incremental) {
  SteinerForest scratch;
  scratch.trees = incremental.trees;
  scratch.net_to_tree = incremental.net_to_tree;
  scratch.build_movable_index();
  if (incremental.num_movable() != scratch.num_movable()) {
    return "movable index size diverges from a from-scratch rebuild";
  }
  for (std::size_t i = 0; i < scratch.movable().size(); ++i) {
    if (incremental.movable()[i].tree != scratch.movable()[i].tree ||
        incremental.movable()[i].node != scratch.movable()[i].node) {
      return "movable ref " + std::to_string(i) + " diverges from a from-scratch rebuild";
    }
  }
  std::string msg = bits_compare(incremental.gather_x(), scratch.gather_x(), "gather_x");
  if (msg.empty()) msg = bits_compare(incremental.gather_y(), scratch.gather_y(), "gather_y");
  return msg;
}

std::string oracle_topology_search(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  Rng& rng = *ctx.rng;
  Design design = c.design;  // the Flow constructor recalibrates the clock
  const Flow flow(&design);
  SteinerForest cur = flow.initial_forest();
  cur.build_movable_index();
  const std::vector<int> candidates = movable_trees(cur);
  if (candidates.empty()) return {};
  const RectI die = design.die();

  IncrementalSignoff inc(&design, flow.options());
  inc.full(cur);
  {
    const FlowResult ref = flow.run_signoff(cur);
    const std::string msg = compare_signoff(inc.result(), ref);
    if (!msg.empty()) return "anchor full sign-off: " + msg;
  }

  // Randomized edit sequence through the search layer's ops, with the
  // forest maintained incrementally; replayed from scratch at the end.
  std::vector<std::pair<int, search::TopologyEdit>> applied;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    const int t = candidates[rng.index(candidates.size())];
    const SteinerTree& tree = cur.trees[static_cast<std::size_t>(t)];
    search::EditOptions eopts;
    eopts.max_candidates = 6;

    if (ctx.mutate && round == kRounds - 1) {
      // The injected bug: a swap that re-attaches the cut edge's far side
      // to itself, applied with the invariant gate skipped. The per-round
      // invariant check below must flag the broken tree — if it passes, the
      // gate is vacuous.
      if (tree.edges.empty()) continue;
      search::TopologyEdit bad;
      bad.kind = search::EditKind::kSwap;
      bad.a = tree.edges[0].a;
      bad.b = tree.edges[0].b;
      bad.c = bad.b;  // self-attachment: disconnects the b side
      search::EditOptions skip = eopts;
      skip.skip_validation = true;
      auto broken = search::apply_edit(tree, die, bad, skip);
      if (!broken.has_value()) return "mutation: skip-validation apply refused the edit";
      cur.replace_tree(t, std::move(*broken));
    } else {
      std::vector<search::TopologyEdit> proposals =
          search::enumerate_edits(tree, die, rng, eopts);
      bool edited = false;
      for (const search::TopologyEdit& edit : proposals) {
        std::string why;
        auto next = search::apply_edit(tree, die, edit, eopts, &why);
        if (!next.has_value()) continue;  // gate rejections are expected
        applied.emplace_back(t, edit);
        cur.replace_tree(t, std::move(*next));
        edited = true;
        break;
      }
      if (!edited) continue;
    }

    // Invariants first: a broken tree must be flagged before sign-off
    // machinery consumes it.
    std::string msg = check_forest_invariants(design, cur, /*require_min_degree=*/true);
    if (!msg.empty()) return "round " + std::to_string(round) + " invariants: " + msg;
    msg = compare_forest_vs_rebuilt(cur);
    if (!msg.empty()) return "round " + std::to_string(round) + ": " + msg;

    // Post-edit sign-off: incremental with the edited net's dirty set vs a
    // full rebuild, bit for bit.
    const int net = cur.trees[static_cast<std::size_t>(t)].net;
    const IncrementalSignoff::Result& fast = inc.update(cur, {net});
    const FlowResult ref = flow.run_signoff(cur);
    msg = compare_signoff(fast, ref);
    if (!msg.empty()) return "round " + std::to_string(round) + " sign-off: " + msg;
  }

  // Replay the accepted sequence on a fresh copy: edit application is a pure
  // function of (tree, edit), so the replayed forest must match bit for bit.
  SteinerForest replay = flow.initial_forest();
  replay.build_movable_index();
  for (const auto& [t, edit] : applied) {
    search::EditOptions eopts;
    auto next = search::apply_edit(replay.trees[static_cast<std::size_t>(t)], die, edit, eopts);
    if (!next.has_value()) return "replay: previously-accepted edit now rejected";
    replay.replace_tree(t, std::move(*next));
  }
  for (std::size_t t = 0; t < cur.trees.size(); ++t) {
    const std::string msg = compare_tree_bits(cur.trees[t], replay.trees[t]);
    if (!msg.empty()) {
      return "replayed tree " + std::to_string(t) + ": " + msg;
    }
  }
  return {};
}

std::string oracle_serve(OracleContext& ctx) {
  const FuzzCase& c = *ctx.fuzz_case;
  Rng& rng = *ctx.rng;

  // Direct reference side: a cold-calibrated Flow plus its own incremental
  // sign-off. The serve side restores a snapshot of this calibration, so
  // bit-identical responses prove snapshot + session + dispatch add nothing.
  Design design = c.design;  // the Flow constructor recalibrates the clock
  const Flow flow(&design);
  const std::vector<int> candidates = movable_trees(flow.initial_forest());
  if (candidates.empty()) return {};

  BenchmarkSpec spec;
  spec.name = c.params.name;
  spec.target_cells = static_cast<int>(c.num_cells());
  spec.endpoints = static_cast<int>(design.endpoint_pins().size());
  spec.seed = c.seed;
  const std::string snap = ctx.work_dir + "/serve_" + std::to_string(c.seed) + ".tsdb";
  const TimingGnn model = make_case_model(c);
  if (!serve::save_session_snapshot(spec, design, flow.calibration(), flow.initial_forest(),
                                    fuzz_library(), &model,
                                    SteinerPredictor::shared_pretrained().get(), snap)) {
    return "cannot write serve snapshot " + snap;
  }

  serve::ServeOptions serve_opts;
  serve_opts.tcp_port = 0;  // ephemeral loopback; unix paths can exceed sun_path
  serve::Server server(serve_opts);
  std::string error;
  if (!server.start(&error)) return "server start failed: " + error;

  serve::ServeClient client;
  if (!client.connect_tcp(server.bound_tcp_port(), &error)) {
    return "client connect failed: " + error;
  }
  const auto opened = client.open(snap);
  if (!opened.ok) return "open failed: " + opened.error;
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  if (session == nullptr || fingerprint == nullptr) return "open response lacks session id";

  // Wirelength round-trip: the serve op must reproduce the in-process
  // batched estimate bit for bit — which also pins the predictor weights
  // through the SMDL snapshot codec, since the server runs the decoded copy.
  {
    std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(design);
    if (pin_sets.size() > 24) pin_sets.resize(24);
    if (!pin_sets.empty()) {
      const auto wl_reply =
          client.wirelength(session->str, fingerprint->str, pin_sets);
      if (!wl_reply.ok) return "wirelength failed: " + wl_reply.error;
      const BatchBuildOptions batch = serve::wirelength_batch_options(flow.options());
      const std::vector<double> direct_wl =
          estimate_wirelengths(pin_sets, *SteinerPredictor::shared_pretrained(), batch);
      const obs::JsonValue* nets = wl_reply.body.find_array("nets");
      if (nets == nullptr || nets->array.size() != pin_sets.size()) {
        return "wirelength response has wrong net count";
      }
      for (std::size_t i = 0; i < pin_sets.size(); ++i) {
        const std::string msg =
            compare_response_double(nets->array[i], "wl", direct_wl[i]);
        if (!msg.empty()) return "wirelength net " + std::to_string(i) + ": " + msg;
      }
    }
  }

  IncrementalSignoff ref(&design, flow.options());
  SteinerForest cur = flow.initial_forest();
  const double die_w = static_cast<double>(design.die().width());

  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    // Build a what-if batch over a few random nets.
    std::vector<int> picks = candidates;
    rng.shuffle(picks);
    picks.resize(1 + rng.index(std::min<std::size_t>(3, picks.size())));
    serve::Request whatif;
    whatif.type = serve::RequestType::kWhatIf;
    whatif.session = session->str;
    whatif.fingerprint = fingerprint->str;
    for (int pick : picks) {
      serve::WhatIfMove move;
      move.net = cur.trees[static_cast<std::size_t>(pick)].net;
      move.dx = rng.uniform(-c.disturb_dist, c.disturb_dist);
      move.dy = rng.uniform(-c.disturb_dist, c.disturb_dist);
      whatif.moves.push_back(move);
    }

    const auto reply = client.call(whatif);
    if (!reply.ok) return "whatif failed: " + reply.error;

    // Direct side applies the *same shared op* to its own forest copy.
    std::vector<int> dirty;
    serve::apply_whatif_moves(&cur, design, whatif.moves, &dirty);
    if (ctx.mutate && round == kRounds - 1) {
      // The injected bug: the direct reference moves one extra tree (far
      // enough to change gcell endpoints) that the server never saw. The
      // comparison below must flag the divergence — if it passes anyway the
      // oracle is vacuous.
      serve::WhatIfMove extra;
      extra.net = cur.trees[static_cast<std::size_t>(picks[0])].net;
      extra.dx = std::max(c.disturb_dist, die_w / 3.0);
      extra.dy = 0.0;
      serve::apply_whatif_moves(&cur, design, {extra}, &dirty);
    }
    const IncrementalSignoff::Result& direct = ref.update(cur, dirty);

    std::string msg = compare_response_double(reply.body, "wns_ns", direct.metrics.wns_ns);
    if (msg.empty()) {
      msg = compare_response_double(reply.body, "tns_ns", direct.metrics.tns_ns);
    }
    if (msg.empty()) {
      msg = compare_response_double(reply.body, "wirelength_dbu",
                                    direct.metrics.wirelength_dbu);
    }
    if (msg.empty() &&
        reply.body.number_or("num_vios", -1.0) != static_cast<double>(direct.metrics.num_vios)) {
      msg = "violation count diverges";
    }
    if (!msg.empty()) return "whatif round " + std::to_string(round) + ": " + msg;

    // Pre-routing STA must agree on the same working forest too.
    serve::Request sta;
    sta.type = serve::RequestType::kSta;
    sta.session = session->str;
    sta.fingerprint = fingerprint->str;
    const auto sta_reply = client.call(sta);
    if (!sta_reply.ok) return "sta failed: " + sta_reply.error;
    const StaResult direct_sta = flow.run_preroute_sta(cur);
    msg = compare_response_double(sta_reply.body, "wns_ns", direct_sta.wns);
    if (msg.empty()) msg = compare_response_double(sta_reply.body, "tns_ns", direct_sta.tns);
    if (!msg.empty()) return "sta round " + std::to_string(round) + ": " + msg;
  }

  // Refine through the session (uncommitted, classic then topology-enabled)
  // must reproduce the direct refine loop bit for bit: the server decodes
  // the snapshot's model copy and replays handle_refine's exact option
  // wiring, so any divergence is a codec or dispatch bug.
  for (const bool topology : {false, true}) {
    serve::Request refine;
    refine.type = serve::RequestType::kRefine;
    refine.session = session->str;
    refine.fingerprint = fingerprint->str;
    refine.iterations = 3;
    refine.commit = false;
    refine.topology = topology;
    const auto reply = client.call(refine);
    const char* tag = topology ? "refine (topology)" : "refine";
    if (!reply.ok) return std::string(tag) + " failed: " + reply.error;

    RefineOptions opts;
    opts.gcell_size = flow.options().router.gcell_size;
    opts.max_iterations = refine.iterations;
    IncrementalSignoff episodic(&design, flow.options());
    if (topology) {
      opts.topology.enabled = true;
      opts.topology.episodic_signoff =
          [&](const SteinerForest& forest, const std::vector<int>& dirty) -> SignoffProbeResult {
        const IncrementalSignoff::Result& r = episodic.update(forest, dirty);
        return {r.metrics.wns_ns, r.metrics.tns_ns, r.incremental};
      };
      opts.topology.full_signoff = [&](const SteinerForest& forest) -> SignoffProbeResult {
        const FlowResult r = flow.run_signoff(forest);
        return {r.metrics.wns_ns, r.metrics.tns_ns, false};
      };
    }
    const RefineResult direct = refine_steiner_points(design, cur, model, opts);
    std::string msg = compare_response_double(reply.body, "init_wns_ns", direct.init_wns);
    if (msg.empty()) msg = compare_response_double(reply.body, "init_tns_ns", direct.init_tns);
    if (msg.empty()) msg = compare_response_double(reply.body, "best_wns_ns", direct.best_wns);
    if (msg.empty()) msg = compare_response_double(reply.body, "best_tns_ns", direct.best_tns);
    if (msg.empty() && reply.body.number_or("iterations", -1.0) !=
                           static_cast<double>(direct.iterations)) {
      msg = "iteration count diverges";
    }
    if (!msg.empty()) return std::string(tag) + ": " + msg;
  }

  // Full sign-off through the session must match the golden pipeline.
  serve::Request signoff;
  signoff.type = serve::RequestType::kSignoff;
  signoff.session = session->str;
  signoff.fingerprint = fingerprint->str;
  const auto signoff_reply = client.call(signoff);
  if (!signoff_reply.ok) return "signoff failed: " + signoff_reply.error;
  const FlowResult golden = flow.run_signoff(cur);
  std::string msg =
      compare_response_double(signoff_reply.body, "wns_ns", golden.metrics.wns_ns);
  if (msg.empty()) {
    msg = compare_response_double(signoff_reply.body, "tns_ns", golden.metrics.tns_ns);
  }
  if (msg.empty()) {
    msg = compare_response_double(signoff_reply.body, "wirelength_dbu",
                                  golden.metrics.wirelength_dbu);
  }
  if (!msg.empty()) return "signoff: " + msg;

  client.close();
  server.stop();
  std::filesystem::remove(snap);
  return {};
}

}  // namespace

void DiffHarness::add_oracle(Oracle oracle) { oracles_.push_back(std::move(oracle)); }

DiffHarness DiffHarness::standard() {
  DiffHarness h;
  h.add_oracle({"sta-incremental", oracle_sta_incremental, /*stride=*/1, true});
  h.add_oracle({"signoff-incremental", oracle_signoff_incremental, /*stride=*/1, true});
  h.add_oracle({"grad-replay", oracle_replayed_gradients, /*stride=*/1, true});
  h.add_oracle({"thread-width", oracle_thread_width, /*stride=*/1, true});
  h.add_oracle({"db-roundtrip", oracle_db_roundtrip, /*stride=*/1, true});
  h.add_oracle({"forest-invariants", oracle_forest_invariants, /*stride=*/1, true});
  h.add_oracle({"rsmt-small", oracle_rsmt_small, /*stride=*/1, true});
  h.add_oracle({"lse-penalty", oracle_lse_penalty, /*stride=*/1, true});
  h.add_oracle({"keep-best", oracle_keep_best, /*stride=*/4, false});
  h.add_oracle({"steiner-batch", oracle_steiner_batch, /*stride=*/2, true});
  h.add_oracle({"topology-search", oracle_topology_search, /*stride=*/1, true});
  h.add_oracle({"serve", oracle_serve, /*stride=*/4, true});
  return h;
}

std::vector<OracleFailure> DiffHarness::run(const HarnessOptions& options) const {
  std::vector<OracleFailure> failures;
  if (!options.work_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.work_dir, ec);
  }

  const int total = options.replay ? 1 : options.cases;
  for (int i = 0; i < total; ++i) {
    const std::uint64_t case_seed =
        options.replay ? options.replay_seed : Rng::mix(options.seed, static_cast<std::uint64_t>(i));
    const FuzzCase c = make_case(case_seed, options.scale);
    if (options.verbose) {
      std::fprintf(stderr, "case %d/%d seed=%llu cells=%lld movable=%zu\n", i + 1, total,
                   static_cast<unsigned long long>(case_seed), c.num_cells(),
                   c.forest.num_movable());
    }

    for (const Oracle& oracle : oracles_) {
      if (!options.only.empty() &&
          std::find(options.only.begin(), options.only.end(), oracle.name) ==
              options.only.end()) {
        continue;
      }
      const bool mutate = oracle.name == options.mutate_oracle;
      if (mutate && !oracle.supports_mutation) continue;
      if (!mutate && !options.replay && oracle.stride > 1 && i % oracle.stride != 0) continue;

      auto run_oracle = [&](const FuzzCase& target) {
        Rng rng(Rng::mix(target.seed, fnv1a(oracle.name)));
        OracleContext ctx{&target, &rng, mutate, options.work_dir};
        return oracle.fn(ctx);
      };
      const std::string msg = run_oracle(c);
      if (msg.empty()) continue;

      OracleFailure f;
      f.oracle = oracle.name;
      f.seed = case_seed;
      f.scale = options.scale;
      f.message = msg;
      f.repro = "tsteiner_fuzz --oracle " + oracle.name + " --scale " + options.scale +
                " --replay " + std::to_string(case_seed) +
                (mutate ? " --mutate " + oracle.name : "");
      std::fprintf(stderr, "FAIL oracle=%s seed=%llu scale=%s: %s\n", oracle.name.c_str(),
                   static_cast<unsigned long long>(case_seed), options.scale.c_str(),
                   msg.c_str());
      std::fprintf(stderr, "REPRO: %s\n", f.repro.c_str());

      FuzzCase smallest = c;
      if (options.shrink) {
        smallest = shrink_case(
            c, [&](const FuzzCase& cand) { return !run_oracle(cand).empty(); });
      }
      f.shrunk_cells = smallest.num_cells();
      f.shrunk_params = smallest.params;
      if (!options.work_dir.empty()) {
        const std::string snap = options.work_dir + "/fail_" + oracle.name + "_" +
                                 std::to_string(case_seed) + ".tsdb";
        if (save_case_snapshot(smallest, snap)) f.snapshot_path = snap;
      }
      std::fprintf(stderr,
                   "SHRUNK: cells=%lld comb=%d regs=%d pis=%d pos=%d snapshot=%s\n",
                   f.shrunk_cells, smallest.params.num_comb_cells,
                   smallest.params.num_registers, smallest.params.num_primary_inputs,
                   smallest.params.num_primary_outputs,
                   f.snapshot_path.empty() ? "(none)" : f.snapshot_path.c_str());

      failures.push_back(std::move(f));
      if (static_cast<int>(failures.size()) >= options.max_failures) return failures;
    }
  }
  return failures;
}

}  // namespace tsteiner::verify
