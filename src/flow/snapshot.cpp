#include "flow/snapshot.hpp"

#include <cstdio>

#include "db/bytes.hpp"
#include "db/codecs.hpp"
#include "db/crc32.hpp"
#include "gnn/serialize.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace tsteiner {

namespace {

constexpr char kSuiteKind[] = "suite";

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

std::vector<std::uint8_t> encode_calibration(const FlowCalibration& cal) {
  db::ByteWriter w;
  w.f64(cal.clock_period_ns);
  w.f64(cal.fixed_h_cap);
  w.f64(cal.fixed_v_cap);
  return w.take();
}

std::optional<FlowCalibration> decode_calibration(std::span<const std::uint8_t> payload) {
  db::ByteReader r(payload.data(), payload.size());
  FlowCalibration cal;
  cal.clock_period_ns = r.f64();
  cal.fixed_h_cap = r.f64();
  cal.fixed_v_cap = r.f64();
  if (!r.done()) return std::nullopt;
  return cal;
}

bool write_design_record(db::DbWriter& writer, std::uint32_t index, const BenchmarkSpec& spec,
                         const Design& design, const FlowCalibration* calibration,
                         const SteinerForest& forest) {
  return writer.add_chunk(db::kChunkDesign,
                          db::index_prefixed(index, db::encode_design(spec, design))) &&
         (calibration == nullptr ||
          writer.add_chunk(db::kChunkFlowCal,
                           db::index_prefixed(index, encode_calibration(*calibration)))) &&
         writer.add_chunk(db::kChunkForest, db::index_prefixed(index, db::encode_forest(forest)));
}

std::optional<std::vector<DesignRecord>> read_design_records(const db::DbReader& reader,
                                                             std::uint32_t count,
                                                             const CellLibrary& lib,
                                                             std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  const auto designs = db::collect_indexed(reader, db::kChunkDesign, count);
  const auto forests = db::collect_indexed(reader, db::kChunkForest, count);
  const bool has_cals = reader.find(db::kChunkFlowCal) != nullptr;
  const auto cals = db::collect_indexed(reader, db::kChunkFlowCal, has_cals ? count : 0);
  const std::string cover = " chunks do not cover each design index exactly once";
  if (!designs) return fail("DSGN" + cover);
  if (!forests) return fail("FRST" + cover);
  if (!cals) return fail("FCAL" + cover);

  std::vector<DesignRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string which = "design " + std::to_string(i) + ": ";
    auto decoded = db::decode_design((*designs)[i].data(), (*designs)[i].size(), lib);
    if (!decoded) return fail(which + "DSGN chunk does not decode");
    auto forest = db::decode_forest((*forests)[i].data(), (*forests)[i].size());
    if (!forest) return fail(which + "FRST chunk does not decode");
    if (forest->net_to_tree.size() != decoded->design.nets().size()) {
      return fail(which + "FRST chunk does not match the design's net count");
    }
    std::optional<FlowCalibration> cal;
    if (has_cals) {
      cal = decode_calibration((*cals)[i]);
      if (!cal) return fail(which + "FCAL chunk is malformed");
    }
    records.push_back({std::move(decoded->spec), std::move(decoded->design), cal,
                       std::move(*forest)});
  }
  return records;
}

std::vector<std::uint8_t> encode_sample(const TrainingSample& sample) {
  db::ByteWriter w;
  w.str(sample.design_name);
  w.f64_vec(sample.xs);
  w.f64_vec(sample.ys);
  w.f64_vec(sample.arrival_label);
  w.i32_vec(sample.endpoint_pins);
  return w.take();
}

std::optional<TrainingSample> decode_sample(std::span<const std::uint8_t> payload,
                                            const DesignRecord& record) {
  db::ByteReader r(payload.data(), payload.size());
  TrainingSample s;
  s.design_name = r.str();
  s.xs = r.f64_vec();
  s.ys = r.f64_vec();
  s.arrival_label = r.f64_vec();
  s.endpoint_pins = r.i32_vec();
  if (!r.done() || s.xs.size() != s.ys.size() || s.design_name != record.spec.name ||
      s.arrival_label.size() != record.design.pins().size() ||
      s.xs.size() != record.forest.num_movable()) {
    return std::nullopt;
  }
  return s;
}

bool save_suite_snapshot(const TrainedSuite& suite, const SuiteOptions& options,
                         const std::string& path) {
  TS_TRACE_SPAN_CAT("db.save_suite_snapshot", "db");
  if (suite.lib == nullptr) return false;
  db::DbWriter writer;
  if (!writer.open(path)) return false;

  db::Meta meta;
  meta.kind = kSuiteKind;
  meta.tag = suite_options_tag(options);
  meta.design_count = static_cast<std::uint32_t>(suite.designs.size());
  meta.has_model = suite.model != nullptr;
  meta.final_train_loss = suite.final_train_loss;
  meta.library_fingerprint = db::library_fingerprint(*suite.lib);
  bool ok = writer.add_chunk(db::kChunkMeta, db::encode_meta(meta)) &&
            writer.add_chunk(db::kChunkLibrary, db::encode_library(*suite.lib));

  for (std::size_t i = 0; ok && i < suite.designs.size(); ++i) {
    const PreparedDesign& pd = suite.designs[i];
    const std::uint32_t index = static_cast<std::uint32_t>(i);
    const FlowCalibration cal = pd.flow->calibration();
    ok = write_design_record(writer, index, pd.spec, *pd.design, &cal,
                             pd.flow->initial_forest());
    if (ok && i < suite.base_samples.size()) {
      ok = writer.add_chunk(db::kChunkSample,
                            db::index_prefixed(index, encode_sample(suite.base_samples[i])));
    }
  }
  if (ok && suite.model != nullptr) {
    ok = writer.add_chunk(db::kChunkModel, encode_model_payload(*suite.model, meta.tag));
  }
  return ok && writer.finish();
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
  const auto meta = db::read_meta(reader);
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

  auto records = read_design_records(reader, meta->design_count, *suite.lib, &error);
  if (!records) {
    TS_VERBOSE("suite snapshot rejected: %s", error.c_str());
    return std::nullopt;
  }
  const auto samples = db::collect_indexed(reader, db::kChunkSample, meta->design_count);
  if (!samples) return std::nullopt;
  for (std::uint32_t i = 0; i < meta->design_count; ++i) {
    DesignRecord& record = (*records)[i];
    auto sample = decode_sample((*samples)[i], record);
    if (!record.calibration || !sample) return std::nullopt;

    PreparedDesign pd;
    pd.spec = std::move(record.spec);
    pd.design = std::make_unique<Design>(std::move(record.design));
    pd.flow = std::make_unique<Flow>(Flow::from_snapshot(
        pd.design.get(), options.flow, *record.calibration, std::move(record.forest)));
    pd.cache = build_graph_cache(*pd.design, pd.flow->initial_forest());
    sample->cache = pd.cache;
    suite.designs.push_back(std::move(pd));
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

}  // namespace tsteiner
