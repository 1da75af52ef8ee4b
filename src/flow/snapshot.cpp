#include "flow/snapshot.hpp"

#include <cstdio>

#include "db/bytes.hpp"
#include "db/codecs.hpp"
#include "db/container.hpp"
#include "db/crc32.hpp"
#include "gnn/serialize.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace tsteiner {

namespace {

constexpr char kSuiteKind[] = "suite";
constexpr char kDesignKind[] = "design";

void encode_flow_options(db::ByteWriter& w, const FlowOptions& f) {
  w.i64(f.router.gcell_size);
  w.f64(f.router.capacity_factor);
  w.f64(f.router.min_capacity);
  w.i32(f.router.rrr_iterations);
  w.f64(f.router.history_increment);
  w.i32(f.router.maze_margin);
  w.f64(kPrimaryInputSlewNs);
  w.f64(kClockSourceSlewNs);
  w.f64(f.sta.max_slew_ns);
  w.f64(f.sta.max_cap_pf);
  w.f64(kWlDetourBase);
  w.f64(kWlDetourPerOverflow);
  w.i32(f.droute.repair_rounds_max);
  w.f64(kPinDensityLimitPerSite);
  w.i32(f.rsmt.exact_pin_limit);
  w.i32(f.rsmt.max_steiner_per_net);
  w.u8(f.edge_shifting ? 1 : 0);
  w.f64(kClockTightness);
}

std::vector<std::uint8_t> index_prefixed(std::uint32_t index,
                                         const std::vector<std::uint8_t>& payload) {
  db::ByteWriter w;
  w.u32(index);
  w.raw(payload);
  return w.take();
}

std::vector<std::uint8_t> encode_calibration(std::uint32_t index, const FlowCalibration& cal) {
  db::ByteWriter w;
  w.u32(index);
  w.f64(cal.clock_period_ns);
  w.f64(cal.fixed_h_cap);
  w.f64(cal.fixed_v_cap);
  return w.take();
}

std::optional<FlowCalibration> decode_calibration(db::ByteReader& r) {
  FlowCalibration cal;
  cal.clock_period_ns = r.f64();
  cal.fixed_h_cap = r.f64();
  cal.fixed_v_cap = r.f64();
  if (!r.done()) return std::nullopt;
  return cal;
}

std::vector<std::uint8_t> encode_sample(std::uint32_t index, const TrainingSample& s) {
  db::ByteWriter w;
  w.u32(index);
  w.str(s.design_name);
  w.f64_vec(s.xs);
  w.f64_vec(s.ys);
  w.f64_vec(s.arrival_label);
  w.i32_vec(s.endpoint_pins);
  return w.take();
}

std::optional<TrainingSample> decode_sample(db::ByteReader& r) {
  TrainingSample s;
  s.design_name = r.str();
  s.xs = r.f64_vec();
  s.ys = r.f64_vec();
  s.arrival_label = r.f64_vec();
  s.endpoint_pins = r.i32_vec();
  if (!r.done() || s.xs.size() != s.ys.size()) return std::nullopt;
  return s;
}

struct Meta {
  std::string kind;
  std::string tag;
  std::uint32_t design_count = 0;
  bool has_model = false;
  double final_train_loss = 0.0;
  std::uint32_t library_fingerprint = 0;
};

std::vector<std::uint8_t> encode_meta(const Meta& m) {
  db::ByteWriter w;
  w.str(m.kind);
  w.str(m.tag);
  w.u32(m.design_count);
  w.u8(m.has_model ? 1 : 0);
  w.f64(m.final_train_loss);
  w.u32(m.library_fingerprint);
  return w.take();
}

std::optional<Meta> decode_meta(const std::uint8_t* data, std::size_t size) {
  db::ByteReader r(data, size);
  Meta m;
  m.kind = r.str();
  m.tag = r.str();
  m.design_count = r.u32();
  m.has_model = r.u8() != 0;
  m.final_train_loss = r.f64();
  m.library_fingerprint = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

/// Per-design chunks keyed by their leading u32 index; returns false when a
/// chunk family does not cover 0..count-1 exactly once.
bool collect_indexed(const db::DbReader& reader, std::uint32_t type, std::uint32_t count,
                     std::vector<std::pair<const std::uint8_t*, std::size_t>>* out) {
  out->assign(count, {nullptr, 0});
  for (const db::ChunkInfo* chunk : reader.find_all(type)) {
    if (chunk->size < 4) return false;
    db::ByteReader r(reader.payload(*chunk), 4);
    const std::uint32_t index = r.u32();
    if (index >= count || (*out)[index].first != nullptr) return false;
    (*out)[index] = {reader.payload(*chunk) + 4, static_cast<std::size_t>(chunk->size) - 4};
  }
  for (const auto& [data, size] : *out) {
    if (data == nullptr) return false;
  }
  return true;
}

}  // namespace

std::string suite_options_tag(const SuiteOptions& options) {
  // CRC over the binary encoding of every influencing option; the scale and
  // seed ride along in clear text for human inspection of `tsteiner_db info`.
  db::ByteWriter w;
  w.f64(options.scale);
  w.i32(options.perturb_per_design);
  w.f64(kPerturbDistGcells);
  w.u64(options.seed);
  w.i32(options.gnn.hidden);
  w.i32(options.gnn.type_embed);
  w.i32(options.gnn.delay_hidden);
  w.i32(options.gnn.steiner_iters);
  w.f64(options.gnn.soft_abs_delta);
  w.u8(options.gnn.physics_anchor ? 1 : 0);
  w.u64(options.gnn.seed);
  w.i32(options.train.epochs);
  w.f64(options.train.lr);
  w.f64(kGradClip);
  w.f64(options.train.endpoint_loss_weight);
  w.u64(options.train.seed);
  encode_flow_options(w, options.flow);
  char tag[96];
  std::snprintf(tag, sizeof(tag), "scale=%.4f seed=%llu epochs=%d opts=%08X", options.scale,
                static_cast<unsigned long long>(options.seed), options.train.epochs,
                db::crc32(w.bytes()));
  return tag;
}

bool save_suite_snapshot(const TrainedSuite& suite, const SuiteOptions& options,
                         const std::string& path) {
  TS_TRACE_SPAN_CAT("db.save_suite_snapshot", "db");
  if (suite.lib == nullptr) return false;
  db::DbWriter writer;
  if (!writer.open(path)) return false;

  Meta meta;
  meta.kind = kSuiteKind;
  meta.tag = suite_options_tag(options);
  meta.design_count = static_cast<std::uint32_t>(suite.designs.size());
  meta.has_model = suite.model != nullptr;
  meta.final_train_loss = suite.final_train_loss;
  meta.library_fingerprint = db::library_fingerprint(*suite.lib);
  bool ok = writer.add_chunk(db::kChunkMeta, encode_meta(meta));
  ok = ok && writer.add_chunk(db::kChunkLibrary, db::encode_library(*suite.lib));

  for (std::size_t i = 0; ok && i < suite.designs.size(); ++i) {
    const PreparedDesign& pd = suite.designs[i];
    const std::uint32_t index = static_cast<std::uint32_t>(i);
    ok = writer.add_chunk(db::kChunkDesign,
                          index_prefixed(index, db::encode_design(pd.spec, *pd.design))) &&
         writer.add_chunk(db::kChunkFlowCal,
                          encode_calibration(index, pd.flow->calibration())) &&
         writer.add_chunk(db::kChunkForest,
                          index_prefixed(index, db::encode_forest(pd.flow->initial_forest())));
    if (ok && i < suite.base_samples.size()) {
      ok = writer.add_chunk(db::kChunkSample, encode_sample(index, suite.base_samples[i]));
    }
  }
  if (ok && suite.model != nullptr) {
    ok = writer.add_chunk(db::kChunkModel, encode_model_payload(*suite.model, meta.tag));
  }
  return writer.finish() && ok;
}

std::optional<TrainedSuite> load_suite_snapshot(const std::string& path,
                                                const SuiteOptions& options) {
  TS_TRACE_SPAN_CAT("db.load_suite_snapshot", "db");
  db::DbReader reader;
  std::string error;
  if (!reader.open(path, &error)) {
    TS_VERBOSE("suite snapshot rejected: %s", error.c_str());
    return std::nullopt;
  }
  const db::ChunkInfo* meta_chunk = reader.find(db::kChunkMeta);
  if (meta_chunk == nullptr) return std::nullopt;
  const auto meta =
      decode_meta(reader.payload(*meta_chunk), static_cast<std::size_t>(meta_chunk->size));
  if (!meta || meta->kind != kSuiteKind) return std::nullopt;
  if (meta->tag != suite_options_tag(options)) {
    TS_VERBOSE("suite snapshot rejected: options tag mismatch (stored \"%s\")",
               meta->tag.c_str());
    return std::nullopt;
  }

  const db::ChunkInfo* lib_chunk = reader.find(db::kChunkLibrary);
  if (lib_chunk == nullptr) return std::nullopt;
  auto lib = db::decode_library(reader.payload(*lib_chunk),
                                static_cast<std::size_t>(lib_chunk->size));
  if (!lib) return std::nullopt;

  TrainedSuite suite;
  suite.lib = std::make_unique<CellLibrary>(std::move(*lib));
  suite.final_train_loss = meta->final_train_loss;

  std::vector<std::pair<const std::uint8_t*, std::size_t>> designs, cals, forests, samples;
  if (!collect_indexed(reader, db::kChunkDesign, meta->design_count, &designs) ||
      !collect_indexed(reader, db::kChunkFlowCal, meta->design_count, &cals) ||
      !collect_indexed(reader, db::kChunkForest, meta->design_count, &forests) ||
      !collect_indexed(reader, db::kChunkSample, meta->design_count, &samples)) {
    return std::nullopt;
  }

  for (std::uint32_t i = 0; i < meta->design_count; ++i) {
    auto decoded = db::decode_design(designs[i].first, designs[i].second, *suite.lib);
    if (!decoded) return std::nullopt;
    db::ByteReader cal_reader(cals[i].first, cals[i].second);
    const auto cal = decode_calibration(cal_reader);
    auto forest = db::decode_forest(forests[i].first, forests[i].second);
    if (!cal || !forest) return std::nullopt;
    if (forest->net_to_tree.size() != decoded->design.nets().size()) return std::nullopt;

    PreparedDesign pd;
    pd.spec = std::move(decoded->spec);
    pd.design = std::make_unique<Design>(std::move(decoded->design));
    pd.flow = std::make_unique<Flow>(
        Flow::from_snapshot(pd.design.get(), options.flow, *cal, std::move(*forest)));
    pd.cache = build_graph_cache(*pd.design, pd.flow->initial_forest());
    suite.designs.push_back(std::move(pd));
  }

  for (std::uint32_t i = 0; i < meta->design_count; ++i) {
    db::ByteReader sample_reader(samples[i].first, samples[i].second);
    auto sample = decode_sample(sample_reader);
    if (!sample) return std::nullopt;
    const PreparedDesign& pd = suite.designs[i];
    if (sample->design_name != pd.spec.name ||
        sample->arrival_label.size() != pd.design->pins().size() ||
        sample->xs.size() != pd.flow->initial_forest().num_movable()) {
      return std::nullopt;
    }
    sample->cache = pd.cache;
    suite.base_samples.push_back(std::move(*sample));
  }

  if (meta->has_model) {
    const db::ChunkInfo* model_chunk = reader.find(db::kChunkModel);
    if (model_chunk == nullptr) return std::nullopt;
    auto model = decode_model_payload(reader.payload(*model_chunk),
                                      static_cast<std::size_t>(model_chunk->size), options.gnn,
                                      suite.lib->num_types(), meta->tag);
    if (!model) return std::nullopt;
    suite.model = std::make_unique<TimingGnn>(std::move(*model));
  }
  return suite;
}

bool save_design_snapshot(const PreparedDesign& pd, const CellLibrary& lib,
                          const std::string& path) {
  TS_TRACE_SPAN_CAT("db.save_design_snapshot", "db");
  db::DbWriter writer;
  if (!writer.open(path)) return false;
  Meta meta;
  meta.kind = kDesignKind;
  meta.design_count = 1;
  meta.library_fingerprint = db::library_fingerprint(lib);
  const bool ok =
      writer.add_chunk(db::kChunkMeta, encode_meta(meta)) &&
      writer.add_chunk(db::kChunkDesign,
                       index_prefixed(0, db::encode_design(pd.spec, *pd.design))) &&
      writer.add_chunk(db::kChunkFlowCal, encode_calibration(0, pd.flow->calibration())) &&
      writer.add_chunk(db::kChunkForest,
                       index_prefixed(0, db::encode_forest(pd.flow->initial_forest())));
  return writer.finish() && ok;
}

std::optional<PreparedDesign> load_design_snapshot(const std::string& path,
                                                   const CellLibrary& lib,
                                                   const FlowOptions& options) {
  TS_TRACE_SPAN_CAT("db.load_design_snapshot", "db");
  db::DbReader reader;
  std::string error;
  if (!reader.open(path, &error)) {
    TS_VERBOSE("design snapshot rejected: %s", error.c_str());
    return std::nullopt;
  }
  const db::ChunkInfo* meta_chunk = reader.find(db::kChunkMeta);
  if (meta_chunk == nullptr) return std::nullopt;
  const auto meta =
      decode_meta(reader.payload(*meta_chunk), static_cast<std::size_t>(meta_chunk->size));
  if (!meta || meta->kind != kDesignKind || meta->design_count != 1) return std::nullopt;
  if (meta->library_fingerprint != db::library_fingerprint(lib)) {
    TS_VERBOSE("design snapshot rejected: library fingerprint mismatch");
    return std::nullopt;
  }

  std::vector<std::pair<const std::uint8_t*, std::size_t>> designs, cals, forests;
  if (!collect_indexed(reader, db::kChunkDesign, 1, &designs) ||
      !collect_indexed(reader, db::kChunkFlowCal, 1, &cals) ||
      !collect_indexed(reader, db::kChunkForest, 1, &forests)) {
    return std::nullopt;
  }
  auto decoded = db::decode_design(designs[0].first, designs[0].second, lib);
  if (!decoded) return std::nullopt;
  db::ByteReader cal_reader(cals[0].first, cals[0].second);
  const auto cal = decode_calibration(cal_reader);
  auto forest = db::decode_forest(forests[0].first, forests[0].second);
  if (!cal || !forest) return std::nullopt;
  if (forest->net_to_tree.size() != decoded->design.nets().size()) return std::nullopt;

  PreparedDesign pd;
  pd.spec = std::move(decoded->spec);
  pd.design = std::make_unique<Design>(std::move(decoded->design));
  pd.flow = std::make_unique<Flow>(
      Flow::from_snapshot(pd.design.get(), options, *cal, std::move(*forest)));
  pd.cache = build_graph_cache(*pd.design, pd.flow->initial_forest());
  return pd;
}

}  // namespace tsteiner
