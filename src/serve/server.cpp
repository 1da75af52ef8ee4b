#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/ops.hpp"
#include "tsteiner/refine.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace tsteiner::serve {

namespace {

/// Set by SIGTERM handlers through notify_sigterm(); polled (never waited
/// on) by the acceptor and dispatcher, because nothing heavier than an
/// atomic store is async-signal-safe.
std::atomic<bool> g_sigterm{false};

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, data + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void encode_signoff_fields(JsonBuilder& b, const SignoffMetrics& m) {
  b.field_double("wns_ns", m.wns_ns);
  b.field_double("tns_ns", m.tns_ns);
  b.field_i64("num_vios", m.num_vios);
  b.field_double("wirelength_dbu", m.wirelength_dbu);
  b.field_i64("num_vias", m.num_vias);
  b.field_i64("num_drvs", m.num_drvs);
}

/// Every response carries the server-side request id ("req") — emitted
/// unconditionally (independent of obs mode) so responses stay bit-identical
/// across obs off / metrics-only / full. The client trace tag is echoed only
/// when supplied, keeping pre-telemetry response bytes unchanged.
JsonBuilder response_builder(std::uint64_t id, RequestType type, std::uint64_t req,
                             const std::string& trace) {
  JsonBuilder b;
  b.field_u64("v", static_cast<std::uint64_t>(kSchemaVersion));
  b.field_u64("id", id);
  b.field_bool("ok", true);
  b.field_str("type", request_type_name(type));
  b.field_u64("req", req);
  if (!trace.empty()) b.field_str("trace", trace);
  return b;
}

const char* handle_span_name(RequestType type) {
  switch (type) {
    case RequestType::kPing: return "serve.handle.ping";
    case RequestType::kOpen: return "serve.handle.open";
    case RequestType::kClose: return "serve.handle.close";
    case RequestType::kStats: return "serve.handle.stats";
    case RequestType::kShutdown: return "serve.handle.shutdown";
    case RequestType::kSta: return "serve.handle.sta";
    case RequestType::kSignoff: return "serve.handle.signoff";
    case RequestType::kWhatIf: return "serve.handle.whatif";
    case RequestType::kRefine: return "serve.handle.refine";
    case RequestType::kWirelength: return "serve.handle.wirelength";
    case RequestType::kMetrics: return "serve.handle.metrics";
  }
  return "serve.handle.?";
}

/// Serve instruments, registered eagerly (Server construction) so the
/// registry's instrument set — and hence the `metrics` op's name-sorted
/// snapshot layout — is independent of traffic order. All updates go through
/// the registry's gated fast paths: zero-cost while metrics are disabled.
struct ServeMetrics {
  std::array<obs::HistogramMetric*, kNumRequestTypes> latency_ms{};
  std::array<obs::HistogramMetric*, kNumRequestTypes> queue_wait_ms{};
  obs::Gauge* batch_size = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* in_flight = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  obs::Counter* requests = nullptr;
  obs::Counter* errors = nullptr;
  obs::Counter* progress_frames = nullptr;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics* m = [] {
    auto* sm = new ServeMetrics();  // leaked: instrument refs are process-global
    obs::MetricsRegistry& reg = obs::metrics();
    for (std::size_t i = 0; i < kNumRequestTypes; ++i) {
      const char* op = request_type_name(static_cast<RequestType>(i));
      sm->latency_ms[i] =
          &reg.histogram(std::string("serve.latency_ms.") + op, 0.0, 1000.0, 50);
      sm->queue_wait_ms[i] =
          &reg.histogram(std::string("serve.queue_wait_ms.") + op, 0.0, 1000.0, 50);
    }
    sm->batch_size = &reg.gauge("serve.batch_size");
    sm->queue_depth = &reg.gauge("serve.queue_depth");
    sm->in_flight = &reg.gauge("serve.in_flight");
    sm->bytes_in = &reg.counter("serve.bytes_in");
    sm->bytes_out = &reg.counter("serve.bytes_out");
    sm->requests = &reg.counter("serve.requests");
    sm->errors = &reg.counter("serve.errors");
    sm->progress_frames = &reg.counter("serve.progress_frames");
    return sm;
  }();
  return *m;
}

/// Slow-request JSONL log: armed by TSTEINER_SERVE_SLOW_LOG=<path>, with the
/// threshold from TSTEINER_SERVE_SLOW_MS (default 100). One appended line per
/// slow request; opened per line so the file is always complete.
struct SlowLog {
  bool armed = false;
  double threshold_ms = 100.0;
  std::string path;
  std::mutex mu;

  void write(std::uint64_t req, std::uint64_t id, RequestType type,
             const std::string& session, std::uint64_t conn, double e2e_ms, double queue_ms) {
    JsonBuilder b;
    b.field_u64("req", req);
    b.field_u64("id", id);
    b.field_str("type", request_type_name(type));
    if (!session.empty()) b.field_str("session", session);
    b.field_u64("conn", conn);
    b.field_double_approx("e2e_ms", e2e_ms);
    b.field_double_approx("queue_ms", queue_ms);
    const std::string line = b.take();
    std::lock_guard<std::mutex> lock(mu);
    if (std::FILE* f = std::fopen(path.c_str(), "a")) {
      std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
  }
};

SlowLog& slow_log() {
  static SlowLog* s = [] {
    auto* sl = new SlowLog();
    if (const char* env = std::getenv("TSTEINER_SERVE_SLOW_LOG")) {
      if (*env != '\0') {
        sl->path = env;
        sl->armed = true;
      }
    }
    if (const char* env = std::getenv("TSTEINER_SERVE_SLOW_MS")) {
      const double ms = std::atof(env);
      if (ms >= 0.0) sl->threshold_ms = ms;
    }
    return sl;
  }();
  return *s;
}

/// Whether per-request timestamps are captured. The fully disabled server —
/// no tracing, no metrics, no slow log — never reads the clock per request.
bool timing_armed() {
  return obs::trace_enabled() || obs::metrics_enabled() || slow_log().armed;
}

}  // namespace

void Server::notify_sigterm() { g_sigterm.store(true); }

Server::Server(const ServeOptions& options)
    : options_(options),
      sessions_(SessionManager::Options{options.cache_budget_bytes, options.max_cached_designs,
                                        options.flow}) {
  (void)serve_metrics();  // register instruments before any traffic
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  if (started_.load()) return fail(error, "server already started");
  if (!options_.unix_socket.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail(error, "socket(AF_UNIX) failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket.size() >= sizeof(addr.sun_path)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return fail(error, "unix socket path too long");
    }
    std::strncpy(addr.sun_path, options_.unix_socket.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_socket.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return fail(error, "bind('" + options_.unix_socket + "') failed: " + std::strerror(errno));
    }
    unix_path_ = options_.unix_socket;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail(error, "socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return fail(error, "bind(127.0.0.1:" + std::to_string(options_.tcp_port) +
                             ") failed: " + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_tcp_port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return fail(error, std::string("listen() failed: ") + std::strerror(errno));
  }
  started_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
  dispatcher_ = std::thread([this] { dispatch_loop(); });
  if (!options_.unix_socket.empty()) {
    TS_INFO("serve: listening on unix socket %s", options_.unix_socket.c_str());
  } else {
    TS_INFO("serve: listening on 127.0.0.1:%d", bound_tcp_port_);
  }
  return true;
}

void Server::request_shutdown() {
  if (draining_.exchange(true)) return;
  TS_INFO("serve: draining (no new connections; queued requests finish)");
  cv_.notify_all();
}

void Server::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  request_shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  if (dispatcher_.joinable()) dispatcher_.join();
  close_all_connections();
  // Join readers after their fds are closed so blocked read()s return.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = connections_;
    connections_.clear();
  }
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  TS_INFO("serve: stopped");
}

void Server::close_all_connections() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& conn : connections_) {
    if (!conn->closed.exchange(true)) ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void Server::accept_loop() {
  for (;;) {
    if (g_sigterm.load()) request_shutdown();
    if (draining_.load()) return;
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn->id = next_connection_++;
      ++stats_.connections;
      connections_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  ScopedLogTag tag("c" + std::to_string(conn->id));
  FrameDecoder decoder(options_.max_frame_bytes);
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    serve_metrics().bytes_in->add(static_cast<std::uint64_t>(n));
    std::vector<Frame> frames;
    if (!decoder.feed(buf, static_cast<std::size_t>(n), &frames)) {
      // Malformed frame: the stream is unrecoverable (framing is lost), so
      // report once and poison the connection.
      TS_VERBOSE("serve: closing connection %llu: %s",
                 static_cast<unsigned long long>(conn->id), decoder.error().c_str());
      send_error(conn, 0, "malformed frame: " + decoder.error());
      break;
    }
    bool drop = false;
    for (const Frame& frame : frames) {
      if (frame.kind != FrameKind::kRequest) {
        send_error(conn, 0, "only request frames are accepted from clients");
        drop = true;
        break;
      }
      const bool timed = timing_armed();
      const std::uint64_t t0 = timed ? obs::trace_clock_ns() : 0;
      std::string parse_error;
      auto request = parse_request(frame.payload, &parse_error);
      if (!request) {
        // Malformed *request*: clean error, connection stays usable.
        send_error(conn, 0, parse_error);
        continue;
      }
      const std::string trace_tag = request->trace;
      std::uint64_t uid = 0;
      std::uint64_t t1 = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        Pending pend{conn, std::move(*request)};
        uid = pend.uid = next_request_++;
        pend.recv_ns = t0;
        t1 = timed ? obs::trace_clock_ns() : 0;
        pend.enqueue_ns = t1;
        queue_.push_back(std::move(pend));
        serve_metrics().queue_depth->set(static_cast<double>(queue_.size()));
        cv_.notify_all();
      }
      if (obs::trace_enabled()) {
        obs::emit_span("serve.decode", "serve", t0, t1, uid,
                       trace_tag.empty() ? nullptr : &trace_tag);
      }
    }
    if (drop) break;
  }
  if (!conn->closed.exchange(true)) ::shutdown(conn->fd, SHUT_RDWR);
}

std::vector<Server::Pending> Server::take_batch() {
  // Head-of-line selection: walk the queue in arrival order and take at most
  // one request per session. A session's second queued request stays behind
  // until its first completes (batches are barriers), so per-session order is
  // FIFO while distinct sessions interleave within one pool batch.
  std::vector<Pending> batch;
  std::set<std::string> sessions_in_batch;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const std::string& key = it->request.session;
    if (!key.empty() && !sessions_in_batch.insert(key).second) {
      ++it;
      continue;
    }
    batch.push_back(std::move(*it));
    it = queue_.erase(it);
  }
  return batch;
}

void Server::dispatch_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(100),
                   [this] { return !queue_.empty() || draining_.load(); });
      if (g_sigterm.load() && !draining_.load()) {
        lock.unlock();
        request_shutdown();
        lock.lock();
      }
      if (queue_.empty()) {
        if (draining_.load() && in_flight_ == 0) return;
        continue;
      }
      batch = take_batch();
      in_flight_ += batch.size();
      ++stats_.batches;
      serve_metrics().batch_size->set(static_cast<double>(batch.size()));
      serve_metrics().in_flight->set(static_cast<double>(in_flight_));
      serve_metrics().queue_depth->set(static_cast<double>(queue_.size()));
    }
    // One pool job per batch, one chunk per request (each request is a full
    // chunk of work): nested parallelism inside flow code runs serially, and
    // the pool's determinism contract keeps every response bit-identical to
    // a direct call at any thread width.
    {
      TS_TRACE_SPAN_CAT("serve.dispatch_batch", "serve");
      parallel_for(0, batch.size(), kChunkWork, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) execute(batch[i]);
      });
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ -= batch.size();
      serve_metrics().in_flight->set(static_cast<double>(in_flight_));
      cv_.notify_all();
    }
  }
}

void Server::execute(const Pending& p) {
  ScopedLogTag tag(p.request.session.empty() ? "c" + std::to_string(p.conn->id)
                                             : p.request.session);
  const bool timed = p.recv_ns != 0;
  const std::size_t op = static_cast<std::size_t>(p.request.type);
  double queue_ms = 0.0;
  if (timed) {
    const std::uint64_t now = obs::trace_clock_ns();
    queue_ms = static_cast<double>(now - p.enqueue_ns) * 1e-6;
    serve_metrics().queue_wait_ms[op]->observe(queue_ms);
    obs::emit_async_span("serve.queue_wait", "serve", p.enqueue_ns, now, p.uid);
  }
  try {
    obs::TraceSpan span(handle_span_name(p.request.type), "serve", p.uid);
    if (!p.request.trace.empty()) span.set_tag(p.request.trace);
    switch (p.request.type) {
      case RequestType::kPing: handle_ping(p); break;
      case RequestType::kOpen: handle_open(p); break;
      case RequestType::kClose: handle_close(p); break;
      case RequestType::kStats: handle_stats(p); break;
      case RequestType::kShutdown: handle_shutdown(p); break;
      case RequestType::kSta: handle_sta(p); break;
      case RequestType::kSignoff: handle_signoff(p); break;
      case RequestType::kWhatIf: handle_whatif(p); break;
      case RequestType::kRefine: handle_refine(p); break;
      case RequestType::kWirelength: handle_wirelength(p); break;
      case RequestType::kMetrics: handle_metrics(p); break;
    }
    serve_metrics().requests->add();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  } catch (const std::exception& e) {
    // The pool rethrows escaped exceptions at the batch barrier, which would
    // take down every request in the batch; contain the failure here.
    send_error(p.conn, p.request.id, std::string("internal error: ") + e.what(), p.uid);
  }
  double e2e_ms = 0.0;
  if (timed) {
    e2e_ms = static_cast<double>(obs::trace_clock_ns() - p.recv_ns) * 1e-6;
    serve_metrics().latency_ms[op]->observe(e2e_ms);
    SlowLog& sl = slow_log();
    if (sl.armed && e2e_ms >= sl.threshold_ms) {
      sl.write(p.uid, p.request.id, p.request.type, p.request.session, p.conn->id, e2e_ms,
               queue_ms);
    }
  }
  if (!p.request.session.empty()) {
    // Closed sessions drop out of the table before this lookup; their final
    // (close) request is simply not aggregated.
    if (auto session = sessions_.peek(p.request.session)) {
      std::lock_guard<std::mutex> lk(session->telem.mu);
      ++session->telem.requests;
      if (timed) {
        ++session->telem.timed;
        session->telem.latency_ms_sum += e2e_ms;
        if (e2e_ms > session->telem.latency_ms_max) session->telem.latency_ms_max = e2e_ms;
      }
    }
  }
}

void Server::send_frame(const std::shared_ptr<Connection>& conn, FrameKind kind,
                        const std::string& payload, std::uint64_t req) {
  // `req == 0` frames (pre-parse errors) are not attributable to a request
  // and get no serve spans — every emitted serve.encode/serve.write span
  // carries its request id.
  std::vector<std::uint8_t> bytes;
  if (req != 0) {
    TS_TRACE_SPAN_REQ("serve.encode", "serve", req);
    bytes = encode_frame(Frame{kind, payload});
  } else {
    bytes = encode_frame(Frame{kind, payload});
  }
  serve_metrics().bytes_out->add(bytes.size());
  const auto write_locked = [&] {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->closed.load()) return;
    if (!write_all(conn->fd, bytes.data(), bytes.size())) {
      conn->closed.store(true);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  };
  if (req != 0) {
    TS_TRACE_SPAN_REQ("serve.write", "serve", req);
    write_locked();
  } else {
    write_locked();
  }
}

void Server::send_error(const std::shared_ptr<Connection>& conn, std::uint64_t id,
                        const std::string& message, std::uint64_t req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.errors;
  }
  serve_metrics().errors->add();
  send_frame(conn, FrameKind::kError, encode_error(id, message, req), req);
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Request handlers.

void Server::handle_ping(const Pending& p) {
  JsonBuilder b = response_builder(p.request.id, RequestType::kPing, p.uid, p.request.trace);
  b.field_bool("draining", draining_.load());
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

void Server::handle_open(const Pending& p) {
  std::string error;
  auto session = sessions_.open(p.request.snapshot, &error);
  if (session == nullptr) {
    send_error(p.conn, p.request.id, error, p.uid);
    return;
  }
  TS_VERBOSE("serve: opened %s on '%s' (%s)", session->id.c_str(),
             p.request.snapshot.c_str(), session->loaded->fingerprint.c_str());
  JsonBuilder b = response_builder(p.request.id, RequestType::kOpen, p.uid, p.request.trace);
  b.field_str("session", session->id);
  b.field_str("fingerprint", session->loaded->fingerprint);
  b.field_str("design", session->loaded->design->name());
  b.field_u64("num_cells", session->loaded->design->cells().size());
  b.field_u64("num_nets", session->loaded->design->nets().size());
  b.field_u64("num_pins", session->loaded->design->pins().size());
  b.field_u64("num_movable", session->forest.num_movable());
  b.field_bool("has_model", session->loaded->model != nullptr);
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

void Server::handle_close(const Pending& p) {
  const bool closed = sessions_.close(p.request.session);
  JsonBuilder b = response_builder(p.request.id, RequestType::kClose, p.uid, p.request.trace);
  b.field_str("session", p.request.session);
  b.field_bool("closed", closed);
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

void Server::handle_stats(const Pending& p) {
  const SessionManagerStats s = sessions_.stats();
  const ServerStats sv = stats();
  JsonBuilder b = response_builder(p.request.id, RequestType::kStats, p.uid, p.request.trace);
  b.field_u64("open_sessions", s.open_sessions);
  b.field_u64("cached_designs", s.cached_designs);
  b.field_u64("cached_bytes", s.cached_bytes);
  b.field_u64("loads", s.loads);
  b.field_u64("cache_hits", s.cache_hits);
  b.field_u64("evictions", s.evictions);
  b.field_u64("opens", s.opens);
  b.field_u64("connections", sv.connections);
  b.field_u64("requests", sv.requests);
  b.field_u64("errors", sv.errors);
  b.field_u64("batches", sv.batches);
  b.field_bool("draining", draining_.load());
  // Per-session request/latency aggregates (open order). Latency fields are
  // zero unless request timing is armed (metrics/trace/slow log).
  std::string sessions_json = "[";
  bool first_session = true;
  for (const SessionManager::SessionTelemetry& t : sessions_.session_telemetry()) {
    JsonBuilder sb;
    sb.field_str("session", t.id);
    sb.field_u64("requests", t.requests);
    sb.field_u64("timed", t.timed);
    sb.field_double_approx("latency_ms_sum", t.latency_ms_sum);
    sb.field_double_approx("latency_ms_max", t.latency_ms_max);
    if (!first_session) sessions_json += ',';
    first_session = false;
    sessions_json += sb.take();
  }
  sessions_json += ']';
  b.field_raw("sessions", sessions_json);
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

void Server::handle_shutdown(const Pending& p) {
  JsonBuilder b = response_builder(p.request.id, RequestType::kShutdown, p.uid, p.request.trace);
  b.field_bool("draining", true);
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
  request_shutdown();
}

void Server::handle_sta(const Pending& p) {
  std::string error;
  auto session = sessions_.find(p.request.session, p.request.fingerprint, &error);
  if (session == nullptr) {
    send_error(p.conn, p.request.id, error, p.uid);
    return;
  }
  const StaResult r = session->loaded->flow->run_preroute_sta(session->forest);
  JsonBuilder b = response_builder(p.request.id, RequestType::kSta, p.uid, p.request.trace);
  b.field_double("wns_ns", r.wns);
  b.field_double("tns_ns", r.tns);
  b.field_i64("num_violations", r.num_violations);
  b.field_double("max_arrival_ns", r.max_arrival);
  b.field_u64("num_endpoints", r.endpoints.size());
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

void Server::handle_signoff(const Pending& p) {
  std::string error;
  auto session = sessions_.find(p.request.session, p.request.fingerprint, &error);
  if (session == nullptr) {
    send_error(p.conn, p.request.id, error, p.uid);
    return;
  }
  if (session->signoff == nullptr) {
    session->signoff = std::make_unique<IncrementalSignoff>(
        session->loaded->design.get(), session->loaded->flow->options());
  }
  const IncrementalSignoff::Result& r = session->signoff->full(session->forest);
  JsonBuilder b = response_builder(p.request.id, RequestType::kSignoff, p.uid, p.request.trace);
  encode_signoff_fields(b, r.metrics);
  b.field_bool("incremental", r.incremental);
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

void Server::handle_whatif(const Pending& p) {
  std::string error;
  auto session = sessions_.find(p.request.session, p.request.fingerprint, &error);
  if (session == nullptr) {
    send_error(p.conn, p.request.id, error, p.uid);
    return;
  }
  if (!validate_whatif_moves(session->forest, *session->loaded->design, p.request.moves,
                             &error)) {
    send_error(p.conn, p.request.id, error, p.uid);
    return;
  }
  std::vector<int> dirty;
  apply_whatif_moves(&session->forest, *session->loaded->design, p.request.moves, &dirty);
  if (session->signoff == nullptr) {
    session->signoff = std::make_unique<IncrementalSignoff>(
        session->loaded->design.get(), session->loaded->flow->options());
  }
  const IncrementalSignoff::Result& r = session->signoff->update(session->forest, dirty);
  JsonBuilder b = response_builder(p.request.id, RequestType::kWhatIf, p.uid, p.request.trace);
  encode_signoff_fields(b, r.metrics);
  b.field_bool("incremental", r.incremental);
  b.field_u64("num_dirty_nets", r.num_dirty_nets);
  b.field_u64("num_rerouted", r.num_rerouted);
  b.field_i64("reused_mazes", r.reused_mazes);
  b.field_i64("total_mazes", r.total_mazes);
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

void Server::handle_refine(const Pending& p) {
  std::string error;
  auto session = sessions_.find(p.request.session, p.request.fingerprint, &error);
  if (session == nullptr) {
    send_error(p.conn, p.request.id, error, p.uid);
    return;
  }
  if (session->loaded->model == nullptr) {
    send_error(p.conn, p.request.id,
               "snapshot '" + session->loaded->path + "' embeds no model; refine unavailable");
    return;
  }
  RefineOptions opts;
  opts.gcell_size = session->loaded->flow->options().router.gcell_size;
  if (p.request.iterations > 0) opts.max_iterations = p.request.iterations;

  // Progress stream: one kProgress frame per refine iteration. Frames echo
  // the server request id (and client trace tag) like responses do.
  const std::uint64_t id = p.request.id;
  opts.iteration_sink = [&](const obs::RefineIterationRecord& rec) {
    JsonBuilder b;
    b.field_u64("v", static_cast<std::uint64_t>(kSchemaVersion));
    b.field_u64("id", id);
    b.field_u64("req", p.uid);
    if (!p.request.trace.empty()) b.field_str("trace", p.request.trace);
    b.field_str("progress", "refine_iteration");
    b.field_i64("iter", rec.iter);
    b.field_double("wns_ns", rec.wns);
    b.field_double("tns_ns", rec.tns);
    b.field_double("best_wns_ns", rec.best_wns);
    b.field_double("best_tns_ns", rec.best_tns);
    b.field_bool("accepted", rec.accepted);
    b.field_double_approx("theta", rec.theta);
    b.field_double_approx("wall_s", rec.wall_s);
    if (rec.has_signoff) {
      b.field_double("signoff_wns_ns", rec.signoff_wns);
      b.field_double("signoff_tns_ns", rec.signoff_tns);
      b.field_bool("signoff_incremental", rec.signoff_incremental);
    }
    send_frame(p.conn, FrameKind::kProgress, b.take(), p.uid);
    serve_metrics().progress_frames->add();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.progress_frames;
  };

  // Periodic sign-off probes use request-local incremental state (the
  // session's own IncrementalSignoff must keep diffing against the working
  // forest, which refine does not mutate until commit).
  IncrementalSignoff probe(session->loaded->design.get(), session->loaded->flow->options());
  if (p.request.probe_every > 0) {
    opts.signoff_probe_every = p.request.probe_every;
    opts.signoff_probe = [&](const SteinerForest& forest,
                             const std::vector<int>& dirty) -> SignoffProbeResult {
      const IncrementalSignoff::Result& r = probe.update(forest, dirty);
      return {r.metrics.wns_ns, r.metrics.tns_ns, r.incremental};
    };
  }

  // Topology search wires its own request-local incremental state for the
  // episodic reward (its dirty-net stream is independent of the periodic
  // probe's) and the session flow's full sign-off as the keep-best anchor.
  IncrementalSignoff episodic(session->loaded->design.get(), session->loaded->flow->options());
  if (p.request.topology) {
    opts.topology.enabled = true;
    opts.topology.episodic_signoff =
        [&](const SteinerForest& forest, const std::vector<int>& dirty) -> SignoffProbeResult {
      const IncrementalSignoff::Result& r = episodic.update(forest, dirty);
      return {r.metrics.wns_ns, r.metrics.tns_ns, r.incremental};
    };
    opts.topology.full_signoff = [&](const SteinerForest& forest) -> SignoffProbeResult {
      const FlowResult r = session->loaded->flow->run_signoff(forest);
      return {r.metrics.wns_ns, r.metrics.tns_ns, false};
    };
  }

  RefineResult result = refine_steiner_points(*session->loaded->design, session->forest,
                                              *session->loaded->model, opts);
  JsonBuilder b = response_builder(p.request.id, RequestType::kRefine, p.uid, p.request.trace);
  if (p.request.topology) b.field_bool("topology", true);
  b.field_i64("iterations", result.iterations);
  b.field_bool("converged_by_ratio", result.converged_by_ratio);
  b.field_double("init_wns_ns", result.init_wns);
  b.field_double("init_tns_ns", result.init_tns);
  b.field_double("best_wns_ns", result.best_wns);
  b.field_double("best_tns_ns", result.best_tns);
  b.field_bool("committed", p.request.commit);
  if (p.request.commit) {
    session->forest = std::move(result.forest);
    // The working forest may have changed arbitrarily (topology-preserving
    // but every net possibly moved); drop the incremental state so the next
    // sign-off re-establishes it from a full run.
    session->signoff.reset();
  }
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

void Server::handle_wirelength(const Pending& p) {
  std::string error;
  auto session = sessions_.find(p.request.session, p.request.fingerprint, &error);
  if (session == nullptr) {
    send_error(p.conn, p.request.id, error, p.uid);
    return;
  }
  if (session->loaded->steiner_model == nullptr) {
    send_error(p.conn, p.request.id,
               "snapshot '" + session->loaded->path +
                   "' embeds no steiner predictor; wirelength unavailable");
    return;
  }
  const BatchBuildOptions batch = wirelength_batch_options(session->loaded->flow->options());
  BatchBuildStats stats;
  std::vector<std::uint8_t> used_fallback;
  const std::vector<SteinerTree> trees = build_batched_trees(
      p.request.pin_sets, *session->loaded->steiner_model, batch, &stats, &used_fallback);
  std::string nets = "[";
  for (std::size_t i = 0; i < trees.size(); ++i) {
    JsonBuilder nb;
    nb.field_double("wl", trees[i].wirelength());
    nb.field_bool("fallback", used_fallback[i] != 0);
    if (i != 0) nets += ',';
    nets += nb.take();
  }
  nets += ']';
  JsonBuilder b = response_builder(p.request.id, RequestType::kWirelength, p.uid, p.request.trace);
  b.field_u64("num_nets", stats.num_nets);
  b.field_u64("num_fallback", stats.num_fallback());
  b.field_u64("num_inserted_points", stats.num_inserted_points);
  b.field_raw("nets", nets);
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

void Server::handle_metrics(const Pending& p) {
  // A name-sorted registry snapshot (obs::MetricsRegistry::to_json):
  // instrument names, counter values, and histogram total counts are
  // deterministic for deterministic traffic; latency distributions, sums,
  // percentiles, and gauges carry wall-clock values.
  JsonBuilder b = response_builder(p.request.id, RequestType::kMetrics, p.uid, p.request.trace);
  b.field_bool("metrics_enabled", obs::metrics_enabled());
  b.field_raw("metrics", obs::metrics().to_json());
  send_frame(p.conn, FrameKind::kResponse, b.take(), p.uid);
}

}  // namespace tsteiner::serve
