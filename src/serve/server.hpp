// tsteiner_serve core: a long-running multi-tenant server.
//
// Transport: a unix-domain or loopback-TCP listener; each connection speaks
// the length-prefixed frame protocol (serve/framing.hpp) carrying schema-v1
// JSON requests (serve/protocol.hpp). Malformed frames poison and close the
// connection; malformed requests get a clean kError frame and the connection
// stays usable.
//
// Threading model: one reader thread per connection parses the requests it
// reads and runs them itself, in order. A request that names an open session
// holds that session's mutex for its whole run, so one session's requests
// never overlap even when several connections drive it, while distinct
// sessions run concurrently. Readers are not pool threads: a request's
// nested parallel_for gets the whole pool, and concurrent requests' pool jobs
// queue at the pool like those of any other outside callers. Because the
// pool's chunking is width-invariant, every response is bit-identical to the
// same call made directly on Flow / IncrementalSignoff, at any thread width.
//
// Shutdown: request_shutdown() (or a SIGTERM handler calling the
// async-signal-safe notify_sigterm()) stops the acceptor; stop() then waits
// until every request a reader has read is answered, closes connections and
// joins all threads. The destructor calls stop().
//
// A connection whose peer hangs up ends its reader; the acceptor joins that
// reader and closes the fd within one poll interval. A reply to a peer that
// is gone fails with EPIPE (never SIGPIPE) and only ends that connection.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/framing.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace tsteiner::serve {

struct ServeOptions {
  /// When non-empty, listen on this unix-domain socket path; otherwise on
  /// loopback TCP (tcp_port 0 picks an ephemeral port, see bound_tcp_port).
  std::string unix_socket;
  int tcp_port = 0;
  std::size_t cache_budget_bytes = 256ull << 20;
  std::size_t max_cached_designs = 64;
  std::size_t max_frame_bytes = kDefaultMaxPayloadBytes;
  FlowOptions flow;
};

struct ServerStats {
  std::uint64_t connections = 0;  ///< total accepted
  std::uint64_t requests = 0;     ///< well-formed requests executed
  std::uint64_t errors = 0;       ///< kError frames sent (parse + execution)
  std::uint64_t progress_frames = 0;
  std::uint64_t batches = 0;  ///< one per executed request (tsbench serve.batches)
};

class Server {
 public:
  explicit Server(const ServeOptions& options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the acceptor thread.
  bool start(std::string* error);
  /// Graceful: stop accepting, answer every request already read, close
  /// connections, join every thread. Idempotent.
  void stop();
  /// Begin the drain without blocking (the shutdown request handler and the
  /// SIGTERM path use this); stop() still joins.
  void request_shutdown();
  bool draining() const { return draining_.load(); }

  int bound_tcp_port() const { return bound_tcp_port_; }
  SessionManager& sessions() { return sessions_; }
  ServerStats stats() const;

  /// Async-signal-safe (a plain atomic store): SIGTERM handlers call this;
  /// the acceptor polls it and begins a graceful drain.
  static void notify_sigterm();

 private:
  /// One accepted socket. The fd is closed only by the destructor, once no
  /// reference remains, so a shutdown() through a live reference can never
  /// hit a reused fd number.
  struct Connection {
    ~Connection();
    int fd = -1;
    std::uint64_t id = 0;
    std::thread reader;
    std::mutex write_mu;
    std::atomic<bool> closed{false};
  };
  struct Pending {
    std::shared_ptr<Connection> conn;
    Request request;
    /// Server-side request id: assigned in arrival order to every well-formed
    /// request, echoed as "req" in responses/progress frames and attached to
    /// the request's serve spans. Deterministic under sequential traffic.
    std::uint64_t uid = 0;
    /// Tracer-clock timestamps, captured only while request timing is armed
    /// (tracing, metrics, or the slow-request log); 0 otherwise so the fully
    /// disabled path never reads the clock.
    std::uint64_t recv_ns = 0;     ///< before the request payload was parsed
    std::uint64_t decoded_ns = 0;  ///< after it was parsed
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  /// Join the readers that finished and drop their connections.
  void reap_finished();
  void execute(const Pending& pending);
  void send_frame(const std::shared_ptr<Connection>& conn, FrameKind kind,
                  const std::string& payload, std::uint64_t req = 0);
  void send_error(const std::shared_ptr<Connection>& conn, std::uint64_t id,
                  const std::string& message, std::uint64_t req = 0);

  void handle_ping(const Pending& p);
  void handle_open(const Pending& p);
  void handle_close(const Pending& p);
  void handle_stats(const Pending& p);
  void handle_shutdown(const Pending& p);
  void handle_sta(const Pending& p);
  void handle_signoff(const Pending& p);
  void handle_whatif(const Pending& p);
  void handle_refine(const Pending& p);
  void handle_wirelength(const Pending& p);
  void handle_metrics(const Pending& p);

  ServeOptions options_;
  SessionManager sessions_;
  int listen_fd_ = -1;
  int bound_tcp_port_ = 0;
  std::string unix_path_;  ///< unlinked on stop when non-empty

  std::thread acceptor_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  mutable std::mutex mu_;  ///< in-flight count + connections + stats
  std::condition_variable cv_;  ///< signalled when in_flight_ drops
  /// Request frames read whose answers are not all sent; stop() waits for 0.
  std::size_t in_flight_ = 0;
  /// Set by stop() once nothing is in flight: readers then run no more.
  bool closing_ = false;
  std::vector<std::shared_ptr<Connection>> connections_;  ///< readers running
  /// Readers that returned, waiting for the acceptor (or stop()) to join them.
  std::vector<std::shared_ptr<Connection>> finished_;
  std::uint64_t next_connection_ = 1;
  std::atomic<std::uint64_t> next_request_{1};  ///< request uid allocator
  ServerStats stats_;
};

}  // namespace tsteiner::serve
