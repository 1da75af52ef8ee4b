// Multi-tenant session state for tsteiner_serve.
//
// Two layers:
//
//  * LoadedDesign — one restored "serve" snapshot (self-contained TSteinerDB
//    file: META + LIBR + DSGN + FCAL + FRST [+ MODL]), immutable after load
//    and shared by every session opened on the same file. SessionManager
//    keeps these in an LRU cache evicted under a byte budget; an entry is
//    keyed by path and fingerprint-checked (CRC32 of the file bytes) so a
//    rewritten snapshot is reloaded rather than served stale.
//
//  * Session — one tenant's mutable view: a private working forest plus the
//    IncrementalSignoff state that makes repeated what-if probes cheap.
//    Sessions pin their LoadedDesign via shared_ptr, so evicting a design
//    from the cache never invalidates a live session — it only means the
//    next open() pays a cold restore.
//
// Exactness: restoring a LoadedDesign uses Flow::from_snapshot, so every
// sign-off served from a session is bit-identical to a direct Flow built
// from the same snapshot (the serve differential oracle checks the bits).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "gnn/model.hpp"
#include "gnn/steiner_predictor.hpp"
#include "netlist/design_generator.hpp"
#include "netlist/liberty.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner::serve {

/// An immutable restored serve snapshot, shared across sessions.
struct LoadedDesign {
  std::string path;
  std::string fingerprint;  ///< 8 uppercase hex digits, CRC32 of file bytes
  std::unique_ptr<CellLibrary> lib;
  BenchmarkSpec spec;
  std::unique_ptr<Design> design;
  std::unique_ptr<Flow> flow;
  std::unique_ptr<TimingGnn> model;  ///< null when the snapshot has no MODL
  /// null when the snapshot has no SMDL; needed by the `wirelength` op.
  std::unique_ptr<SteinerPredictor> steiner_model;
  std::size_t approx_bytes = 0;      ///< cache accounting (heuristic)
};

/// Write a self-contained serve snapshot: library embedded, design + flow
/// calibration + initial forest, optionally the refinement model, and
/// optionally the batched-construction Steiner predictor (SMDL chunk — what
/// the `wirelength` op serves from).
bool save_session_snapshot(const BenchmarkSpec& spec, const Design& design,
                           const FlowCalibration& cal, const SteinerForest& forest,
                           const CellLibrary& lib, const TimingGnn* model,
                           const SteinerPredictor* steiner_model, const std::string& path);

/// CRC32 of the raw file bytes as 8 uppercase hex digits; empty on I/O error.
std::string snapshot_fingerprint(const std::string& path, std::string* error = nullptr);

/// Restore a serve snapshot. Returns null (with `error`) when the file is
/// missing, corrupted, not a "serve"-kind container, or internally
/// inconsistent.
std::shared_ptr<LoadedDesign> load_session_design(const std::string& path,
                                                  const FlowOptions& flow_options,
                                                  std::string* error);

/// One tenant's mutable state.
struct Session {
  /// Held by the server for the whole run of each request on this session,
  /// so requests from several connections never touch the state below at once.
  std::mutex mu;
  std::string id;
  std::shared_ptr<LoadedDesign> loaded;
  SteinerForest forest;  ///< private working copy (starts at the snapshot forest)
  /// Lazily constructed on the first sta/signoff/whatif; reset after a refine
  /// commit so the next probe re-establishes full-sign-off state.
  std::unique_ptr<IncrementalSignoff> signoff;

  /// Per-session serve telemetry, surfaced by the `stats` op. Request counts
  /// update always (no clock cost); latency aggregates accumulate only while
  /// the server is capturing request timing (metrics/trace/slow-log armed),
  /// so a fully disabled server never reads the clock for them.
  struct Telemetry {
    std::mutex mu;
    std::uint64_t requests = 0;
    std::uint64_t timed = 0;  ///< requests with a latency sample
    double latency_ms_sum = 0.0;
    double latency_ms_max = 0.0;
  };
  Telemetry telem;
};

struct SessionManagerStats {
  std::uint64_t loads = 0;       ///< cold snapshot restores
  std::uint64_t cache_hits = 0;  ///< open() served from the design cache
  std::uint64_t evictions = 0;   ///< designs dropped for the byte budget
  std::uint64_t opens = 0;       ///< total sessions ever opened
  std::size_t cached_designs = 0;
  std::size_t cached_bytes = 0;
  std::size_t open_sessions = 0;
};

/// Thread-safe owner of the design cache and the open-session table.
class SessionManager {
 public:
  struct Options {
    std::size_t budget_bytes = 256ull << 20;  ///< design-cache byte budget
    std::size_t max_designs = 64;             ///< hard entry-count cap
    FlowOptions flow;
  };

  explicit SessionManager(const Options& options) : options_(options) {}

  /// Open a session on the snapshot at `path`. Cache hit when the file's
  /// current fingerprint matches a cached entry; otherwise a cold load (and
  /// the stale entry, if any, is dropped). Null + `error` on failure.
  std::shared_ptr<Session> open(const std::string& path, std::string* error);

  /// Look up a session; the caller-supplied fingerprint must match the
  /// snapshot the session was opened on (stale-client rejection).
  std::shared_ptr<Session> find(const std::string& id, const std::string& fingerprint,
                                std::string* error);

  /// Fingerprint-free lookup (null when the session does not exist / was
  /// closed). The server uses it only to take the session's request lock and
  /// to book telemetry; handlers must go through find().
  std::shared_ptr<Session> peek(const std::string& id) const;

  /// Per-session telemetry snapshot for the `stats` op, in open order.
  struct SessionTelemetry {
    std::string id;
    std::uint64_t requests = 0;
    std::uint64_t timed = 0;
    double latency_ms_sum = 0.0;
    double latency_ms_max = 0.0;
  };
  std::vector<SessionTelemetry> session_telemetry() const;

  bool close(const std::string& id);
  SessionManagerStats stats() const;

 private:
  std::shared_ptr<LoadedDesign> acquire_design(const std::string& path, std::string* error);
  void evict_over_budget();

  mutable std::mutex mu_;
  Options options_;
  std::vector<std::shared_ptr<LoadedDesign>> cache_;  ///< MRU first
  std::vector<std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_ = 1;
  SessionManagerStats stats_;
};

}  // namespace tsteiner::serve
