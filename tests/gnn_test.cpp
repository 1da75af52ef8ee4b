#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "testutil.hpp"

#include "flow/experiment.hpp"
#include "gnn/adam.hpp"
#include "gnn/graph_cache.hpp"
#include "gnn/model.hpp"
#include "gnn/serialize.hpp"
#include "gnn/steiner_predictor.hpp"
#include "gnn/trainer.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/gradient.hpp"
#include "tsteiner/random_move.hpp"
#include "util/parallel.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

struct Tiny {
  Design design;
  SteinerForest forest;
  std::shared_ptr<const GraphCache> cache;
};

Tiny make_tiny(std::uint64_t seed = 71, int comb = 120) {
  GeneratorParams p;
  p.num_comb_cells = comb;
  p.num_registers = 14;
  p.num_primary_inputs = 4;
  p.num_primary_outputs = 4;
  p.seed = seed;
  Tiny t{generate_design(lib(), p), {}, nullptr};
  place_design(t.design);
  t.forest = build_forest(t.design);
  t.design.set_clock_period(1.0);
  t.cache = build_graph_cache(t.design, t.forest);
  return t;
}

TEST(GraphCache, SnodeCountsMatchForest) {
  const Tiny t = make_tiny();
  long long nodes = 0;
  for (const SteinerTree& tr : t.forest.trees) nodes += static_cast<long long>(tr.nodes.size());
  EXPECT_EQ(t.cache->num_snodes, nodes);
  EXPECT_EQ(static_cast<long long>(t.cache->movable_to_snode.size()),
            t.forest.num_steiner_nodes());
}

TEST(GraphCache, EveryConnectedPinHasSnode) {
  const Tiny t = make_tiny();
  for (const Pin& p : t.design.pins()) {
    if (p.net < 0) continue;
    EXPECT_GE(t.cache->pin_snode[static_cast<std::size_t>(p.id)], 0) << "pin " << p.id;
  }
}

TEST(GraphCache, TreeEdgesSortedByDepth) {
  const Tiny t = make_tiny();
  // each level slice references children whose parents were reached earlier
  std::vector<char> reached(static_cast<std::size_t>(t.cache->num_snodes), 0);
  for (double f : t.cache->feat_is_driver) {
    (void)f;
  }
  // drivers start reached
  for (std::size_t s = 0; s < reached.size(); ++s) {
    if (t.cache->feat_is_driver[s] > 0.5) reached[s] = 1;
  }
  for (std::size_t l = 0; l + 1 < t.cache->level_off.size(); ++l) {
    for (int e = t.cache->level_off[l]; e < t.cache->level_off[l + 1]; ++e) {
      EXPECT_TRUE(reached[static_cast<std::size_t>(t.cache->edge_pa[static_cast<std::size_t>(e)])])
          << "edge parent not yet reached at level " << l;
      reached[static_cast<std::size_t>(t.cache->edge_ch[static_cast<std::size_t>(e)])] = 1;
    }
  }
  for (char r : reached) EXPECT_TRUE(r);
}

TEST(GraphCache, NetArcCountMatchesSinks) {
  const Tiny t = make_tiny();
  long long sinks = 0;
  for (const Net& n : t.design.nets()) sinks += static_cast<long long>(n.sink_pins.size());
  EXPECT_EQ(static_cast<long long>(t.cache->net_arcs.size()), sinks);
  EXPECT_EQ(t.cache->net_arcs.size(), t.cache->net_arc_sink_snode.size());
}

TEST(GraphCache, CellArcSegmentsGroupByOutputPin) {
  const Tiny t = make_tiny();
  for (std::size_t l = 0; l + 1 < t.cache->cell_arc_off.size(); ++l) {
    const int lo = t.cache->cell_arc_off[l];
    const int hi = t.cache->cell_arc_off[l + 1];
    const int out_lo = t.cache->cell_out_off[l];
    for (int i = lo; i < hi; ++i) {
      const int seg = t.cache->cell_arc_seg[static_cast<std::size_t>(i)];
      EXPECT_EQ(t.cache->cell_out_pins[static_cast<std::size_t>(out_lo + seg)],
                t.cache->cell_arcs[static_cast<std::size_t>(i)].out_pin);
    }
  }
}

TEST(Model, ForwardShapeAndFiniteness) {
  const Tiny t = make_tiny();
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  Tape tape;
  const auto bound = model.bind(tape);
  const Value xs = tape.leaf(Tensor::column(t.forest.gather_x()));
  const Value ys = tape.leaf(Tensor::column(t.forest.gather_y()));
  const Value out = model.forward(tape, *t.cache, bound, xs, ys);
  const Tensor& a = tape.value(out);
  EXPECT_EQ(a.rows(), t.design.pins().size());
  EXPECT_EQ(a.cols(), 1u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(std::isfinite(a[i])) << "pin " << i;
    EXPECT_GE(a[i], 0.0) << "arrival must be non-negative";
  }
}

TEST(Model, GradFlowsToSteinerCoordinates) {
  const Tiny t = make_tiny();
  ASSERT_GT(t.forest.num_movable(), 0u);
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  Tape tape;
  const auto bound = model.bind(tape);
  const Value xs = tape.leaf(Tensor::column(t.forest.gather_x()), true);
  const Value ys = tape.leaf(Tensor::column(t.forest.gather_y()), true);
  const Value out = model.forward(tape, *t.cache, bound, xs, ys);
  const Value loss = tape.sum_all(out);
  tape.backward(loss);
  const Tensor& gx = tape.grad(xs);
  ASSERT_EQ(gx.size(), t.forest.num_movable());
  double norm = 0.0;
  for (std::size_t i = 0; i < gx.size(); ++i) norm += gx[i] * gx[i];
  EXPECT_GT(norm, 0.0) << "no gradient reached the Steiner coordinates";
}

TEST(Model, MovingSteinerPointsChangesPrediction) {
  const Tiny t = make_tiny();
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  auto run = [&](double offset) {
    Tape tape;
    const auto bound = model.bind(tape);
    auto xv = t.forest.gather_x();
    for (double& x : xv) x += offset;
    const Value xs = tape.leaf(Tensor::column(xv));
    const Value ys = tape.leaf(Tensor::column(t.forest.gather_y()));
    const Value out = model.forward(tape, *t.cache, bound, xs, ys);
    double s = 0.0;
    for (std::size_t i = 0; i < tape.value(out).size(); ++i) s += tape.value(out)[i];
    return s;
  };
  EXPECT_NE(run(0.0), run(25.0));
}

TEST(Model, StretchingTreesRaisesPredictedArrival) {
  // The physics anchor (Elmore + R*C load) must dominate an untrained
  // model: pushing every Steiner point outward (longer edges, more wire
  // cap) has to raise the total predicted arrival.
  const Tiny t = make_tiny(74, 200);
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  auto total_arrival = [&](double stretch) {
    Tape tape;
    const auto bound = model.bind(tape);
    auto xv = t.forest.gather_x();
    auto yv = t.forest.gather_y();
    const double cx = static_cast<double>(t.design.die().hi.x) / 2.0;
    const double cy = static_cast<double>(t.design.die().hi.y) / 2.0;
    for (std::size_t i = 0; i < xv.size(); ++i) {
      xv[i] = cx + (xv[i] - cx) * stretch;
      yv[i] = cy + (yv[i] - cy) * stretch;
    }
    const Value xs = tape.leaf(Tensor::column(xv));
    const Value ys = tape.leaf(Tensor::column(yv));
    const Value out = model.forward(tape, *t.cache, bound, xs, ys);
    double s = 0.0;
    for (std::size_t i = 0; i < tape.value(out).size(); ++i) s += tape.value(out)[i];
    return s;
  };
  EXPECT_GT(total_arrival(2.0), total_arrival(1.0));
  EXPECT_GT(total_arrival(4.0), total_arrival(2.0));
}

TEST(Trainer, EndpointWeightedLossIsFiniteAndTrains) {
  const Tiny t = make_tiny(75, 70);
  const StaResult sta = run_sta(t.design, t.forest, nullptr);
  TrainingSample s;
  s.cache = t.cache;
  s.xs = t.forest.gather_x();
  s.ys = t.forest.gather_y();
  s.arrival_label = sta.arrival;
  s.endpoint_pins = sta.endpoints;
  GnnConfig cfg;
  cfg.hidden = 6;
  TimingGnn model(cfg, lib().num_types());
  TrainOptions topt;
  topt.endpoint_loss_weight = 5.0;
  topt.lr = 3e-3;
  Trainer trainer(&model, topt);
  std::vector<TrainingSample> samples{s};
  const double first = trainer.train_epoch(samples);
  EXPECT_TRUE(std::isfinite(first));
  double last = first;
  for (int e = 0; e < 30; ++e) last = trainer.train_epoch(samples);
  EXPECT_LT(last, first);
}

TEST(Model, DeterministicForward) {
  const Tiny t = make_tiny();
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  auto run = [&] {
    Tape tape;
    const auto bound = model.bind(tape);
    const Value xs = tape.leaf(Tensor::column(t.forest.gather_x()));
    const Value ys = tape.leaf(Tensor::column(t.forest.gather_y()));
    return tape.value(model.forward(tape, *t.cache, bound, xs, ys));
  };
  const Tensor a = run();
  const Tensor b = run();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// The evaluator's tape must grow linearly with the design: each propagation
// level records only its frontier, so deeper netlists (they deepen as they
// grow) must not multiply the per-level cost by the pin count.
TEST(Model, TapeGrowsLinearlyWithDesignSize) {
  auto record = [](int comb) {
    GeneratorParams p;
    p.num_comb_cells = comb;
    p.num_registers = comb / 8;
    p.num_primary_inputs = 8;
    p.num_primary_outputs = 8;
    p.seed = 91;
    Design design = generate_design(lib(), p);
    place_design(design);
    const SteinerForest forest = build_forest(design);
    design.set_clock_period(1.0);
    const auto cache = build_graph_cache(design, forest);
    const TimingGnn model(GnnConfig{}, lib().num_types());
    const GradientEvaluator ev(model, *cache, design, forest.gather_x(), forest.gather_y(),
                               PenaltyWeights{});

    // Only the final assembly of the arrival tensor spans every pin.
    Tape tape;
    const auto bound = model.bind(tape);
    const Value xs = tape.leaf(Tensor::column(forest.gather_x()));
    const Value ys = tape.leaf(Tensor::column(forest.gather_y()));
    const Value arrival = model.forward(tape, *cache, bound, xs, ys);
    for (std::size_t i = 0; i < tape.num_nodes(); ++i) {
      if (static_cast<int>(i) == arrival.id) continue;
      EXPECT_NE(tape.value(Value{static_cast<int>(i)}).rows(), design.pins().size())
          << "node " << i << " of " << tape.num_nodes() << " at " << comb << " cells";
    }
    return ev.program().stats().value_doubles;
  };
  const std::size_t small = record(500);
  const std::size_t large = record(2000);
  EXPECT_LE(static_cast<double>(large), 5.0 * static_cast<double>(small))
      << small << " -> " << large << " value doubles for 4x the cells";
}

TEST(GraphCache, NetArcsGroupedByDriverLevel) {
  const Tiny t = make_tiny(77, 140);
  const auto levels = t.design.pin_levels();
  for (std::size_t l = 0; l + 1 < t.cache->net_arc_off.size(); ++l) {
    for (int i = t.cache->net_arc_off[l]; i < t.cache->net_arc_off[l + 1]; ++i) {
      const auto& arc = t.cache->net_arcs[static_cast<std::size_t>(i)];
      EXPECT_EQ(levels[static_cast<std::size_t>(arc.driver_pin)], static_cast<int>(l))
          << "net arc " << i;
    }
  }
}

TEST(GraphCache, CellArcsGroupedByOutputLevel) {
  const Tiny t = make_tiny(78, 140);
  const auto levels = t.design.pin_levels();
  for (std::size_t l = 0; l + 1 < t.cache->cell_arc_off.size(); ++l) {
    for (int i = t.cache->cell_arc_off[l]; i < t.cache->cell_arc_off[l + 1]; ++i) {
      const auto& arc = t.cache->cell_arcs[static_cast<std::size_t>(i)];
      EXPECT_EQ(levels[static_cast<std::size_t>(arc.out_pin)], static_cast<int>(l))
          << "cell arc " << i;
    }
  }
}

TEST(GraphCache, PhysicalConstantsPopulated) {
  const Tiny t = make_tiny(79, 100);
  EXPECT_GT(t.cache->wire_res, 0.0);
  EXPECT_GT(t.cache->wire_cap, 0.0);
  ASSERT_EQ(t.cache->cell_arc_intrinsic.size(), t.cache->cell_arcs.size());
  for (double v : t.cache->cell_arc_intrinsic) EXPECT_GT(v, 0.0);
  ASSERT_EQ(t.cache->regq_intrinsic.size(), t.cache->regq_pins.size());
  for (double v : t.cache->regq_intrinsic) EXPECT_GT(v, 0.0);
  for (int s : t.cache->tree_driver_snode) EXPECT_GE(s, 0);
}

TEST(Serialize, SaveLoadRoundTrip) {
  GnnConfig cfg;
  cfg.hidden = 6;
  TimingGnn model(cfg, lib().num_types());
  // Nudge a weight so the payload is not all-initializer values.
  model.parameters()[0].at(0, 0) = 0.123456789;
  const std::vector<std::uint8_t> payload = encode_model_payload(model, "unit-test");
  const auto loaded =
      decode_model_payload(payload.data(), payload.size(), cfg, lib().num_types(), "unit-test");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->parameters().size(), model.parameters().size());
  for (std::size_t p = 0; p < model.parameters().size(); ++p) {
    const Tensor& a = model.parameters()[p];
    const Tensor& b = loaded->parameters()[p];
    ASSERT_TRUE(a.same_shape(b));
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]) << p << ":" << i;
  }
}

TEST(Serialize, RejectsMismatchedTagOrConfig) {
  GnnConfig cfg;
  cfg.hidden = 6;
  TimingGnn model(cfg, lib().num_types());
  const std::vector<std::uint8_t> payload = encode_model_payload(model, "tag-a");
  const int types = lib().num_types();
  EXPECT_FALSE(decode_model_payload(payload.data(), payload.size(), cfg, types, "tag-b"));
  GnnConfig other = cfg;
  other.hidden = 8;
  EXPECT_FALSE(decode_model_payload(payload.data(), payload.size(), other, types, "tag-a"));
  // A short or overlong payload is rejected too.
  EXPECT_FALSE(decode_model_payload(payload.data(), payload.size() - 1, cfg, types, "tag-a"));
  std::vector<std::uint8_t> longer = payload;
  longer.push_back(0);
  EXPECT_FALSE(decode_model_payload(longer.data(), longer.size(), cfg, types, "tag-a"));
}

TEST(Serialize, LoadedModelPredictsIdentically) {
  const Tiny t = make_tiny(76, 60);
  GnnConfig cfg;
  cfg.hidden = 6;
  TimingGnn model(cfg, lib().num_types());
  const std::vector<std::uint8_t> payload = encode_model_payload(model, "pred");
  const auto loaded =
      decode_model_payload(payload.data(), payload.size(), cfg, lib().num_types(), "pred");
  ASSERT_TRUE(loaded.has_value());
  auto run = [&](const TimingGnn& m) {
    Tape tape;
    const auto bound = m.bind(tape);
    const Value xs = tape.leaf(Tensor::column(t.forest.gather_x()));
    const Value ys = tape.leaf(Tensor::column(t.forest.gather_y()));
    return tape.value(m.forward(tape, *t.cache, bound, xs, ys));
  };
  const Tensor a = run(model);
  const Tensor b = run(*loaded);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (x - 3)^2 elementwise
  std::vector<Tensor> params{Tensor(4, 1, 0.0)};
  Adam adam(&params, 0.1);
  for (int i = 0; i < 500; ++i) {
    Tensor g(4, 1);
    for (std::size_t k = 0; k < 4; ++k) g[k] = 2.0 * (params[0][k] - 3.0);
    adam.step({g});
  }
  for (std::size_t k = 0; k < 4; ++k) EXPECT_NEAR(params[0][k], 3.0, 1e-2);
}

TEST(Adam, RejectsBadGradients) {
  std::vector<Tensor> params{Tensor(2, 2, 0.0)};
  Adam adam(&params, 0.1);
  EXPECT_THROW(adam.step({}), std::runtime_error);
  EXPECT_THROW(adam.step({Tensor(3, 3, 0.0)}), std::runtime_error);
}

TEST(Trainer, LossDecreasesOnTinyDesign) {
  const Tiny t = make_tiny(72, 80);
  // Label with the pre-routing STA (cheap, deterministic).
  const StaResult sta = run_sta(t.design, t.forest, nullptr);
  TrainingSample s;
  s.design_name = "tiny";
  s.cache = t.cache;
  s.xs = t.forest.gather_x();
  s.ys = t.forest.gather_y();
  s.arrival_label = sta.arrival;
  s.endpoint_pins = sta.endpoints;

  GnnConfig cfg;
  cfg.hidden = 8;
  TimingGnn model(cfg, lib().num_types());
  TrainOptions topt;
  topt.epochs = 1;
  topt.lr = 3e-3;
  Trainer trainer(&model, topt);
  std::vector<TrainingSample> samples{s};
  const double first = trainer.train_epoch(samples);
  double last = first;
  for (int e = 0; e < 40; ++e) last = trainer.train_epoch(samples);
  EXPECT_LT(last, first * 0.5) << "single-sample overfit should cut loss in half";
}

TEST(Trainer, EvaluateReportsR2) {
  const Tiny t = make_tiny(73, 60);
  const StaResult sta = run_sta(t.design, t.forest, nullptr);
  TrainingSample s;
  s.cache = t.cache;
  s.xs = t.forest.gather_x();
  s.ys = t.forest.gather_y();
  s.arrival_label = sta.arrival;
  s.endpoint_pins = sta.endpoints;
  GnnConfig cfg;
  cfg.hidden = 8;
  TimingGnn model(cfg, lib().num_types());
  TrainOptions topt;
  topt.epochs = 60;
  topt.lr = 3e-3;
  Trainer trainer(&model, topt);
  std::vector<TrainingSample> samples{s};
  trainer.fit(samples);
  const EvalMetrics m = trainer.evaluate(s);
  EXPECT_GT(m.r2_all, 0.5) << "overfit on a single tiny sample should track STA";
  EXPECT_LE(m.r2_all, 1.0 + 1e-9);
}

// --- pinned result bits -----------------------------------------------------
//
// FNV-1a over the bit patterns of trained parameters, penalties and
// gradients. The constants were recorded once and must never be edited: any
// change to a kernel's summation order, sign-of-zero handling or op fusion
// that rounds differently moves them, which replay-vs-record comparisons
// (both sides run the same code) cannot see. Each is checked at pool widths
// 1 and 4.

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::vector<double>& vs) {
    add(static_cast<std::uint64_t>(vs.size()));
    for (double v : vs) add(v);
  }
  void add(const std::vector<Tensor>& ts) {
    for (const Tensor& t : ts) add(t.data());
  }
  void add(const GradientResult& r) {
    add(r.penalty);
    add(r.eval_wns_ns);
    add(r.eval_tns_ns);
    add(r.grad_x);
    add(r.grad_y);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Runs `fn` at pool widths 1 and 4 and expects `expected` from both.
template <class Fn>
void expect_pinned_at_widths(std::uint64_t expected, Fn&& fn) {
  for (std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(width);
    const std::uint64_t got = fn();
    EXPECT_EQ(got, expected) << "width " << width << ": got 0x" << std::hex << got;
  }
  set_parallel_threads(0);
}

/// Deterministic nonzero offsets on every parameter, biases included, so
/// the bias-add position inside a layer shows in the result bits.
void jitter_parameters(TimingGnn& model, std::uint64_t seed) {
  Rng rng(seed);
  for (Tensor& p : model.parameters()) {
    for (double& v : p.data()) v += rng.normal(0.0, 0.05);
  }
}

TEST(Trainer, ParameterFingerprintPinned) {
  // A short fit over one design and one random_disturb variant of it, each
  // labeled by the pre-routing STA at its own coordinates.
  const Tiny t = make_tiny(83, 150);
  const SteinerForest moved = random_disturb(t.forest, t.design.die(), 30.0, std::uint64_t{5});
  const auto sample = [&](const SteinerForest& f, std::shared_ptr<const GraphCache> cache) {
    const StaResult sta = run_sta(t.design, f, nullptr);
    TrainingSample s;
    s.cache = std::move(cache);
    s.xs = f.gather_x();
    s.ys = f.gather_y();
    s.arrival_label = sta.arrival;
    s.endpoint_pins = sta.endpoints;
    return s;
  };
  std::vector<TrainingSample> samples{sample(t.forest, t.cache),
                                      sample(moved, build_graph_cache(t.design, moved))};
  expect_pinned_at_widths(0xa93cd1a7d7a515f7ULL, [&] {
    TimingGnn model(GnnConfig{}, lib().num_types());
    TrainOptions topt;
    topt.epochs = 4;
    topt.lr = 3e-3;
    Trainer trainer(&model, topt);
    Fnv h;
    h.add(trainer.fit(samples));
    h.add(model.parameters());
    return h.value();
  });
}

TEST(Model, GradientFingerprintPinned) {
  // Penalty, model-evaluated WNS/TNS and coordinate gradients from the
  // one-shot tape and from a retained evaluator's evaluate -> gradients
  // sequence, for the physics-anchored and the free-form softplus heads.
  Tiny t = make_tiny(84, 150);
  const StaResult sta = run_sta(t.design, t.forest, nullptr);
  t.design.set_clock_period(0.6 * sta.max_arrival);
  t.cache = build_graph_cache(t.design, t.forest);
  const std::vector<double> xs = t.forest.gather_x();
  const std::vector<double> ys = t.forest.gather_y();
  std::vector<double> xt = xs, yt = ys;
  for (std::size_t i = 0; i < xt.size(); ++i) {
    xt[i] += static_cast<double>(i % 7) - 3.0;
    yt[i] += static_cast<double>((3 * i) % 5) - 2.0;
  }
  const PenaltyWeights w;
  expect_pinned_at_widths(0x5a8c9db60efe014aULL, [&] {
    Fnv h;
    for (bool anchor : {true, false}) {
      GnnConfig cfg;
      cfg.physics_anchor = anchor;
      TimingGnn model(cfg, lib().num_types());
      jitter_parameters(model, anchor ? 11 : 12);
      h.add(compute_timing_gradients(model, *t.cache, t.design, xs, ys, w));
      GradientEvaluator ev(model, *t.cache, t.design, xs, ys, w);
      h.add(ev.evaluate(xt, yt, w));
      h.add(ev.gradients(xs, ys, w));
      h.add(ev.gradients(xt, yt, w));
    }
    return h.value();
  });
}

TEST(SteinerPredictor, PretrainFingerprintPinned) {
  // pretrain() directly: the process cache and the disk cache are bypassed.
  SteinerPredictorConfig cfg;
  cfg.hidden = 12;
  cfg.seed = 7;
  cfg.train_nets = 40;
  cfg.train_steps = 8;
  expect_pinned_at_widths(0x2a17adae1de15c96ULL, [&] {
    SteinerPredictor predictor(cfg);
    predictor.pretrain();
    Fnv h;
    h.add(predictor.parameters());
    return h.value();
  });
}

}  // namespace
}  // namespace tsteiner
