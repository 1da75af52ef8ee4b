#include "serve/session.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "db/codecs.hpp"
#include "db/crc32.hpp"
#include "flow/snapshot.hpp"
#include "gnn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace tsteiner::serve {

namespace {

constexpr char kServeKind[] = "serve";

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Rough resident-size estimate for cache accounting. It only has to rank
/// designs consistently and scale with design size; exactness is not needed.
std::size_t estimate_bytes(const LoadedDesign& d) {
  std::size_t bytes = 1 << 16;  // fixed overhead
  bytes += d.design->cells().size() * 64;
  bytes += d.design->pins().size() * 96;
  bytes += d.design->nets().size() * 80;
  for (const SteinerTree& t : d.flow->initial_forest().trees) {
    bytes += t.nodes.size() * 24 + t.edges.size() * 8 + 64;
  }
  bytes *= 2;  // the session working forest mirrors the initial one
  if (d.model != nullptr) {
    for (const Tensor& p : d.model->parameters()) bytes += p.size() * 8;
  }
  if (d.steiner_model != nullptr) {
    for (const Tensor& p : d.steiner_model->parameters()) bytes += p.size() * 8;
  }
  return bytes;
}

}  // namespace

bool save_session_snapshot(const BenchmarkSpec& spec, const Design& design,
                           const FlowCalibration& cal, const SteinerForest& forest,
                           const CellLibrary& lib, const TimingGnn* model,
                           const SteinerPredictor* steiner_model, const std::string& path) {
  TS_TRACE_SPAN_CAT("serve.save_session_snapshot", "db");
  db::DbWriter writer;
  if (!writer.open(path)) return false;
  db::Meta meta;
  meta.kind = kServeKind;  // tag unused: serve snapshots are self-describing
  meta.design_count = 1;
  meta.has_model = model != nullptr;
  meta.library_fingerprint = db::library_fingerprint(lib);
  bool ok = writer.add_chunk(db::kChunkMeta, db::encode_meta(meta)) &&
            writer.add_chunk(db::kChunkLibrary, db::encode_library(lib)) &&
            write_design_record(writer, 0, spec, design, &cal, forest);
  if (ok && model != nullptr) {
    ok = writer.add_chunk(db::kChunkModel, encode_model_payload(*model, kServeKind));
  }
  if (ok && steiner_model != nullptr) {
    ok = writer.add_chunk(db::kChunkSteinerModel,
                          encode_steiner_predictor_payload(*steiner_model, kServeKind));
  }
  return ok && writer.finish();
}

std::string snapshot_fingerprint(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(error, "cannot read snapshot '" + path + "'");
    return {};
  }
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    fail(error, "I/O error reading snapshot '" + path + "'");
    return {};
  }
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08X",
                db::crc32(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  return buf;
}

std::shared_ptr<LoadedDesign> load_session_design(const std::string& path,
                                                  const FlowOptions& flow_options,
                                                  std::string* error) {
  TS_TRACE_SPAN_CAT("serve.load_session_design", "db");
  auto loaded = std::make_shared<LoadedDesign>();
  loaded->path = path;
  loaded->fingerprint = snapshot_fingerprint(path, error);
  if (loaded->fingerprint.empty()) return nullptr;

  db::DbReader reader;
  std::string open_error;
  if (!reader.open(path, &open_error)) {
    fail(error, "snapshot '" + path + "' rejected: " + open_error);
    return nullptr;
  }

  const auto meta = db::read_meta(reader);
  if (!meta || meta->kind != kServeKind || meta->design_count != 1) {
    fail(error, "snapshot '" + path + "' is not a serve-kind container");
    return nullptr;
  }

  const db::ChunkInfo* lib_chunk = reader.find(db::kChunkLibrary);
  auto lib = lib_chunk == nullptr
                 ? std::nullopt
                 : db::decode_library(reader.payload(*lib_chunk),
                                      static_cast<std::size_t>(lib_chunk->size));
  if (!lib) {
    fail(error, "snapshot '" + path + "' has no valid embedded library");
    return nullptr;
  }
  loaded->lib = std::make_unique<CellLibrary>(std::move(*lib));
  if (db::library_fingerprint(*loaded->lib) != meta->library_fingerprint) {
    fail(error, "snapshot '" + path + "' library fingerprint mismatch");
    return nullptr;
  }

  std::string record_error;
  auto records = read_design_records(reader, 1, *loaded->lib, &record_error);
  if (!records) {
    fail(error, "snapshot '" + path + "' rejected: " + record_error);
    return nullptr;
  }
  DesignRecord& record = records->front();
  if (!record.calibration) {
    fail(error, "snapshot '" + path + "' has no calibration chunk");
    return nullptr;
  }
  loaded->spec = std::move(record.spec);
  loaded->design = std::make_unique<Design>(std::move(record.design));
  loaded->flow = std::make_unique<Flow>(Flow::from_snapshot(
      loaded->design.get(), flow_options, *record.calibration, std::move(record.forest)));

  if (meta->has_model) {
    const db::ChunkInfo* model_chunk = reader.find(db::kChunkModel);
    auto model = model_chunk == nullptr
                     ? std::nullopt
                     : decode_model_payload_any(reader.payload(*model_chunk),
                                                static_cast<std::size_t>(model_chunk->size),
                                                loaded->lib->num_types(), nullptr);
    if (!model) {
      fail(error, "snapshot '" + path + "' model chunk is malformed");
      return nullptr;
    }
    loaded->model = std::make_unique<TimingGnn>(std::move(*model));
  }

  // SMDL is self-describing and optional (older serve snapshots simply lack
  // it; the wirelength op then reports a clean error). Present but
  // undecodable is a corruption, rejected like any other chunk.
  if (const db::ChunkInfo* smdl = reader.find(db::kChunkSteinerModel)) {
    auto steiner = decode_steiner_predictor_payload_any(
        reader.payload(*smdl), static_cast<std::size_t>(smdl->size), nullptr);
    if (!steiner) {
      fail(error, "snapshot '" + path + "' steiner-model chunk is malformed");
      return nullptr;
    }
    loaded->steiner_model = std::make_unique<SteinerPredictor>(std::move(*steiner));
  }

  loaded->approx_bytes = estimate_bytes(*loaded);
  return loaded;
}

std::shared_ptr<LoadedDesign> SessionManager::acquire_design(const std::string& path,
                                                             std::string* error) {
  // Fingerprint first: a cache hit requires the *current* file bytes to match
  // the cached entry, so a rewritten snapshot is never served stale.
  const std::string fingerprint = snapshot_fingerprint(path, error);
  if (fingerprint.empty()) return nullptr;

  for (std::size_t i = 0; i < cache_.size(); ++i) {
    if (cache_[i]->path != path) continue;
    if (cache_[i]->fingerprint == fingerprint) {
      auto hit = cache_[i];
      cache_.erase(cache_.begin() + static_cast<long>(i));
      cache_.insert(cache_.begin(), hit);  // move to MRU
      ++stats_.cache_hits;
      static obs::Counter& hits = obs::metrics().counter("serve.cache_hit");
      hits.add();
      return hit;
    }
    // Same path, different bytes: drop the stale entry and reload.
    cache_.erase(cache_.begin() + static_cast<long>(i));
    break;
  }

  // Cold load. Holding mu_ serializes concurrent cold opens; restore cost is
  // bounded and correctness is simpler than per-path load latches.
  auto loaded = load_session_design(path, options_.flow, error);
  if (loaded == nullptr) return nullptr;
  ++stats_.loads;
  static obs::Counter& misses = obs::metrics().counter("serve.cache_miss");
  misses.add();
  cache_.insert(cache_.begin(), loaded);
  evict_over_budget();
  return loaded;
}

void SessionManager::evict_over_budget() {
  std::size_t total = 0;
  for (const auto& d : cache_) total += d->approx_bytes;
  // Never evict the MRU entry (the one the current open needs).
  while (cache_.size() > 1 &&
         (total > options_.budget_bytes || cache_.size() > options_.max_designs)) {
    total -= cache_.back()->approx_bytes;
    TS_VERBOSE("serve: evicting cached design '%s' (%zu bytes)", cache_.back()->path.c_str(),
               cache_.back()->approx_bytes);
    cache_.pop_back();
    ++stats_.evictions;
    static obs::Counter& evictions = obs::metrics().counter("serve.cache_eviction");
    evictions.add();
  }
}

std::shared_ptr<Session> SessionManager::open(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  auto loaded = acquire_design(path, error);
  if (loaded == nullptr) return nullptr;
  auto session = std::make_shared<Session>();
  session->id = "s" + std::to_string(next_session_++);
  session->loaded = std::move(loaded);
  session->forest = session->loaded->flow->initial_forest();
  ++stats_.opens;
  sessions_.push_back(session);
  return session;
}

std::shared_ptr<Session> SessionManager::find(const std::string& id,
                                              const std::string& fingerprint,
                                              std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& session : sessions_) {
    if (session->id != id) continue;
    if (session->loaded->fingerprint != fingerprint) {
      fail(error, "fingerprint mismatch for session '" + id + "': session has " +
                      session->loaded->fingerprint + ", request says " + fingerprint);
      return nullptr;
    }
    return session;
  }
  fail(error, "no such session '" + id + "'");
  return nullptr;
}

std::shared_ptr<Session> SessionManager::peek(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& session : sessions_) {
    if (session->id == id) return session;
  }
  return nullptr;
}

std::vector<SessionManager::SessionTelemetry> SessionManager::session_telemetry() const {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions = sessions_;
  }
  std::vector<SessionTelemetry> out;
  out.reserve(sessions.size());
  for (const auto& session : sessions) {
    SessionTelemetry t;
    t.id = session->id;
    std::lock_guard<std::mutex> lk(session->telem.mu);
    t.requests = session->telem.requests;
    t.timed = session->telem.timed;
    t.latency_ms_sum = session->telem.latency_ms_sum;
    t.latency_ms_max = session->telem.latency_ms_max;
    out.push_back(std::move(t));
  }
  return out;
}

bool SessionManager::close(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i]->id == id) {
      sessions_.erase(sessions_.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionManagerStats s = stats_;
  s.cached_designs = cache_.size();
  s.cached_bytes = 0;
  for (const auto& d : cache_) s.cached_bytes += d->approx_bytes;
  s.open_sessions = sessions_.size();
  return s;
}

}  // namespace tsteiner::serve
