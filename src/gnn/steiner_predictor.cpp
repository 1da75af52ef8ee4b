#include "gnn/steiner_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "db/codecs.hpp"
#include "gnn/adam.hpp"
#include "gnn/serialize.hpp"
#include "netlist/netlist.hpp"
#include "steiner/rsmt.hpp"

namespace tsteiner {

namespace {

/// Stable ordering key for the process-wide pretrained cache.
std::tuple<int, std::uint64_t, int, int, double> config_key(const SteinerPredictorConfig& c) {
  return {c.hidden, c.seed, c.train_nets, c.train_steps, c.learning_rate};
}

/// Tag stored alongside cached weights; a mismatch (stale file from an older
/// config) falls through to retraining.
std::string cache_tag(const SteinerPredictorConfig& c) {
  char tag[128];
  std::snprintf(tag, sizeof(tag), "h=%d seed=%llu nets=%d steps=%d lr=%g", c.hidden,
                static_cast<unsigned long long>(c.seed), c.train_nets, c.train_steps,
                c.learning_rate);
  return tag;
}

constexpr const char* kWeightCachePath = "tsteiner_steiner_cache.bin";

std::optional<SteinerPredictor> load_cached_weights(const SteinerPredictorConfig& config) {
  db::DbReader reader;
  if (!reader.open(kWeightCachePath)) return std::nullopt;
  const db::ChunkInfo* chunk = reader.find(db::kChunkSteinerModel);
  if (chunk == nullptr) return std::nullopt;
  std::string tag;
  auto decoded = decode_steiner_predictor_payload_any(
      reader.payload(*chunk), static_cast<std::size_t>(chunk->size), &tag);
  if (!decoded || tag != cache_tag(config) || !(decoded->config() == config)) {
    return std::nullopt;
  }
  return decoded;
}

void save_cached_weights(const SteinerPredictor& predictor) {
  // DbWriter publishes the file by rename, so concurrent test binaries never
  // see a half-written cache; one that fails to write is retrained next time.
  db::Meta meta;
  meta.kind = "steiner-cache";
  meta.tag = cache_tag(predictor.config());
  db::DbWriter writer;
  if (writer.open(kWeightCachePath) && writer.add_chunk(db::kChunkMeta, db::encode_meta(meta)) &&
      writer.add_chunk(db::kChunkSteinerModel,
                       encode_steiner_predictor_payload(predictor, meta.tag))) {
    writer.finish();
  }
}

}  // namespace

SteinerPredictor::SteinerPredictor(const SteinerPredictorConfig& config) : cfg_(config) {
  if (cfg_.hidden < 1 || cfg_.hidden > 4096) {
    throw std::runtime_error("SteinerPredictor: hidden width out of range");
  }
  Rng rng(Rng::mix(cfg_.seed, 0x5744u));
  const auto h = static_cast<std::size_t>(cfg_.hidden);
  const auto f = static_cast<std::size_t>(kHananFeatures);
  params_.assign(kNumParams, Tensor{});
  params_[kW1] = Tensor::randn(rng, f, h, 1.0 / std::sqrt(static_cast<double>(f)));
  params_[kB1] = Tensor::zeros(1, h);
  params_[kW2] = Tensor::randn(rng, 2 * h, h, 1.0 / std::sqrt(static_cast<double>(2 * h)));
  params_[kB2] = Tensor::zeros(1, h);
  params_[kW3] = Tensor::randn(rng, h, 1, 1.0 / std::sqrt(static_cast<double>(h)));
  params_[kB3] = Tensor::zeros(1, 1);
}

SteinerPredictor::Bound SteinerPredictor::bind(Tape& tape, bool requires_grad) const {
  Bound b;
  b.handles.reserve(params_.size());
  for (const Tensor& p : params_) b.handles.push_back(tape.leaf(p, requires_grad));
  return b;
}

Value SteinerPredictor::forward_logits(Tape& tape, const HananBatch& batch,
                                       const Bound& bound) const {
  const std::size_t rows = batch.rows();
  const auto h = static_cast<std::size_t>(cfg_.hidden);

  Tensor x(rows, static_cast<std::size_t>(kHananFeatures));
  x.data() = batch.features;
  const Value xv = tape.leaf(std::move(x));

  // Validity mask as an h-wide row per batch row, materialized by gathering
  // from a constant 2 x h {zeros; ones} table — padding rows multiply h1 to
  // exact +0.0 before any per-slot reduction.
  Tensor mask_table(2, h, 0.0);
  for (std::size_t c = 0; c < h; ++c) mask_table.at(1, c) = 1.0;
  std::vector<int> mask_idx(rows);
  for (std::size_t r = 0; r < rows; ++r) mask_idx[r] = batch.valid[r] ? 1 : 0;
  const Value mask = tape.gather_rows(tape.leaf(std::move(mask_table)), std::move(mask_idx));

  using Act = Tape::Act;
  const Value h1 = tape.dense({{{xv}, bound.handles[kW1]}}, bound.handles[kB1], Act::kRelu);
  const Value h1m = tape.mul(h1, mask);

  // Net context: masked mean over each slot's real rows. The inverse-count
  // table is a leaf, so the division is an elementwise mul (1/count is a
  // pure function of the packing, identical in any batch composition).
  const Value pooled = tape.segment_sum(h1m, batch.segments, batch.num_slots());
  Tensor inv(batch.num_slots(), h, 0.0);
  for (std::size_t s = 0; s < batch.num_slots(); ++s) {
    const int count = batch.counts[static_cast<std::size_t>(batch.slots[s])];
    const double ic = 1.0 / static_cast<double>(std::max(count, 1));
    for (std::size_t c = 0; c < h; ++c) inv.at(s, c) = ic;
  }
  const Value mean = tape.mul(pooled, tape.leaf(std::move(inv)));
  const Value context = tape.gather_rows(mean, batch.segments);

  const Value h2 =
      tape.dense({{{h1m, context}, bound.handles[kW2]}}, bound.handles[kB2], Act::kRelu);
  return tape.dense({{{h2}, bound.handles[kW3]}}, bound.handles[kB3], Act::kNone);
}

std::vector<double> SteinerPredictor::predict(const HananBatch& batch) const {
  if (batch.rows() == 0) return {};
  Tape tape;
  const Bound bound = bind(tape, /*requires_grad=*/false);
  const Value probs = tape.sigmoid(forward_logits(tape, batch, bound));
  return tape.value(probs).data();
}

void SteinerPredictor::pretrain() {
  // Synthetic corpus: seeded random nets in the 5..10-pin range (smaller
  // nets never reach the predictor), labeled by the exact iterated-1-Steiner
  // construction. Every Steiner point the exact construction picks lies on
  // the pin Hanan grid (candidates are (x_i, y_j) cross products, closed
  // under iteration), so labels match packed candidates by exact position.
  std::vector<std::vector<PointF>> pin_sets;
  pin_sets.reserve(static_cast<std::size_t>(std::max(cfg_.train_nets, 0)));
  for (int n = 0; n < cfg_.train_nets; ++n) {
    Rng rng(Rng::mix(cfg_.seed, 0x6e657400ull + static_cast<std::uint64_t>(n)));
    const auto pins = static_cast<std::size_t>(rng.uniform_int(5, 10));
    std::vector<PointF> net;
    net.reserve(pins);
    for (std::size_t p = 0; p < pins; ++p) {
      net.push_back({static_cast<double>(rng.uniform_int(0, 480)),
                     static_cast<double>(rng.uniform_int(0, 480))});
    }
    pin_sets.push_back(std::move(net));
  }
  const HananBatch batch = pack_hanan_batch(pin_sets);
  if (batch.rows() == 0) return;

  Tensor target(batch.rows(), 1, 0.0);
  Tensor weight(batch.rows(), 1, 0.0);
  // Positive rows (the exact construction picked this candidate) are ~6% of
  // the corpus; without reweighting, sigmoid + per-row loss collapses to the
  // all-zero prediction. Upweight positives so both classes pull equally
  // hard, and keep padding rows at weight 0.
  constexpr double kPosWeight = 4.0;
  const RsmtOptions exact;
  for (std::size_t s = 0; s < batch.num_slots(); ++s) {
    const auto net = static_cast<std::size_t>(batch.slots[s]);
    const SteinerTree tree = build_rsmt_points(pin_sets[net], exact);
    const std::size_t base = s * static_cast<std::size_t>(batch.h_max);
    const auto count = static_cast<std::size_t>(batch.counts[net]);
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t r = base + j;
      weight.at(r, 0) = 1.0;
      for (const SteinerNode& node : tree.nodes) {
        if (node.is_steiner() && node.pos.x == batch.points[r].x &&
            node.pos.y == batch.points[r].y) {
          target.at(r, 0) = 1.0;
          weight.at(r, 0) = kPosWeight;
          break;
        }
      }
    }
  }

  Adam adam(&params_, cfg_.learning_rate);
  for (int step = 0; step < cfg_.train_steps; ++step) {
    Tape tape;
    const Bound bound = bind(tape, /*requires_grad=*/true);
    const Value logits = forward_logits(tape, batch, bound);
    // Class-weighted binary cross-entropy, built from the logits:
    //   bce(l, y) = softplus(l) - l*y,  d/dl = sigmoid(l) - y,
    // so the gradient never vanishes through a saturated sigmoid (the MSE
    // form dies via the p(1-p) factor on an imbalanced corpus). Padding
    // rows carry weight 0 and contribute exactly nothing.
    const Value per_row = tape.sub(tape.softplus(logits), tape.mul(logits, tape.leaf(target)));
    const Value loss = tape.mean_all(tape.mul(per_row, tape.leaf(weight)));
    tape.backward(loss);
    std::vector<Tensor> grads;
    grads.reserve(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) grads.push_back(tape.grad(bound.handles[i]));
    adam.step(grads);
  }
}

std::shared_ptr<const SteinerPredictor> SteinerPredictor::shared_pretrained(
    const SteinerPredictorConfig& config) {
  static std::mutex mu;
  static std::map<std::tuple<int, std::uint64_t, int, int, double>,
                  std::shared_ptr<const SteinerPredictor>>
      cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(config_key(config));
  if (it != cache.end()) return it->second;
  const bool use_disk = std::getenv("TSTEINER_NO_CACHE") == nullptr;
  if (use_disk) {
    if (auto cached = load_cached_weights(config)) {
      auto shared = std::make_shared<const SteinerPredictor>(std::move(*cached));
      cache.emplace(config_key(config), shared);
      return shared;
    }
  }
  auto fresh = std::make_shared<SteinerPredictor>(config);
  fresh->pretrain();
  if (use_disk) save_cached_weights(*fresh);
  std::shared_ptr<const SteinerPredictor> shared = fresh;
  cache.emplace(config_key(config), shared);
  return shared;
}

std::vector<std::uint8_t> encode_steiner_predictor_payload(const SteinerPredictor& predictor,
                                                           const std::string& tag) {
  db::ByteWriter w;
  w.str(tag);
  const SteinerPredictorConfig& c = predictor.config();
  w.i32(c.hidden);
  w.u64(c.seed);
  w.i32(c.train_nets);
  w.i32(c.train_steps);
  w.f64(c.learning_rate);
  encode_tensors(w, predictor.parameters());
  return w.take();
}

std::optional<SteinerPredictor> decode_steiner_predictor_payload_any(const std::uint8_t* data,
                                                                     std::size_t size,
                                                                     std::string* tag_out) {
  db::ByteReader r(data, size);
  const std::string tag = r.str();
  SteinerPredictorConfig c;
  c.hidden = r.i32();
  c.seed = r.u64();
  c.train_nets = r.i32();
  c.train_steps = r.i32();
  c.learning_rate = r.f64();
  if (!r.ok()) return std::nullopt;
  if (c.hidden < 1 || c.hidden > 4096) return std::nullopt;
  if (c.train_nets < 0 || c.train_nets > (1 << 20)) return std::nullopt;
  if (c.train_steps < 0 || c.train_steps > (1 << 20)) return std::nullopt;

  SteinerPredictor predictor(c);
  if (!decode_tensors(r, predictor.parameters()) || !r.done()) return std::nullopt;
  if (tag_out != nullptr) *tag_out = tag;
  return predictor;
}

std::vector<SteinerTree> build_batched_trees(const std::vector<std::vector<PointF>>& pin_sets,
                                             const SteinerPredictor& predictor,
                                             const BatchBuildOptions& options,
                                             BatchBuildStats* stats,
                                             std::vector<std::uint8_t>* used_fallback) {
  const HananBatch batch = pack_hanan_batch(pin_sets);
  const std::vector<double> probs = predictor.predict(batch);
  return stitch_batch(pin_sets, batch, probs, options, stats, used_fallback);
}

SteinerForest build_forest_batched(const Design& design, const SteinerPredictor& predictor,
                                   const BatchBuildOptions& options, BatchBuildStats* stats,
                                   std::vector<std::uint8_t>* used_fallback) {
  std::vector<int> net_ids;
  const std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(design, &net_ids);

  SteinerForest forest;
  forest.net_to_tree.assign(design.nets().size(), -1);
  for (std::size_t i = 0; i < net_ids.size(); ++i) {
    forest.net_to_tree[static_cast<std::size_t>(net_ids[i])] = static_cast<int>(i);
  }
  forest.trees = build_batched_trees(pin_sets, predictor, options, stats, used_fallback);

  // The point-set layer stamps pin-node `pin` fields with pin-set indices;
  // translate to design pin ids (same convention as build_rsmt).
  for (std::size_t i = 0; i < forest.trees.size(); ++i) {
    SteinerTree& tree = forest.trees[i];
    tree.net = net_ids[i];
    const Net& net = design.net(net_ids[i]);
    for (SteinerNode& n : tree.nodes) {
      if (n.is_steiner()) continue;
      n.pin = n.pin == 0 ? net.driver_pin : net.sink_pins[static_cast<std::size_t>(n.pin) - 1];
    }
  }
  forest.build_movable_index();
  return forest;
}

std::vector<double> estimate_wirelengths(const std::vector<std::vector<PointF>>& pin_sets,
                                         const SteinerPredictor& predictor,
                                         const BatchBuildOptions& options) {
  const std::vector<SteinerTree> trees = build_batched_trees(pin_sets, predictor, options);
  std::vector<double> wl(trees.size(), 0.0);
  for (std::size_t i = 0; i < trees.size(); ++i) wl[i] = trees[i].wirelength();
  return wl;
}

SteinerForest build_initial_forest(const Design& design, const SteinerBuildOptions& options,
                                   const RsmtOptions& rsmt, BatchBuildStats* stats) {
  if (options.mode == SteinerBuildMode::kPerNet) {
    return build_forest(design, rsmt);
  }
  BatchBuildOptions batch = options.batch;
  batch.fallback = rsmt;
  const std::shared_ptr<const SteinerPredictor> predictor =
      SteinerPredictor::shared_pretrained(options.predictor);
  return build_forest_batched(design, *predictor, batch, stats);
}

}  // namespace tsteiner
