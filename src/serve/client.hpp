// Blocking client for tsteiner_serve: one connection, synchronous calls.
// call() sends a request frame and reads frames until the matching
// kResponse/kError arrives, collecting interleaved kProgress frames (the
// refine iteration stream) along the way. Used by the `client`/`selftest`
// subcommands, the serve tests, the differential oracle and tsbench.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "serve/framing.hpp"
#include "serve/protocol.hpp"

namespace tsteiner::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient() { close(); }
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  bool connect_unix(const std::string& path, std::string* error = nullptr);
  bool connect_tcp(int port, std::string* error = nullptr);
  bool connected() const { return fd_ >= 0; }
  void close();

  struct Reply {
    bool ok = false;     ///< transport succeeded AND the server said ok
    std::string error;   ///< transport or server error message
    obs::JsonValue body; ///< parsed kResponse/kError payload (null if transport failed)
    std::vector<obs::JsonValue> progress;  ///< kProgress payloads, in order
    std::string raw;     ///< response payload bytes (obs-mode bit-identity gate)
    std::vector<std::string> progress_raw;  ///< kProgress payload bytes, in order
  };

  /// Send one request and block for its response. A request id of 0 is
  /// replaced by an auto-incrementing one.
  Reply call(Request request);

  /// Convenience wrappers.
  Reply ping();
  Reply open(const std::string& snapshot_path);
  Reply close_session(const std::string& session);
  Reply stats();
  Reply metrics();
  Reply shutdown_server();
  Reply wirelength(const std::string& session, const std::string& fingerprint,
                   std::vector<std::vector<PointF>> pin_sets);

 private:
  bool read_more(std::string* error);  ///< one read() into the decoder

  int fd_ = -1;
  FrameDecoder decoder_;
  std::vector<Frame> frames_;  ///< decoded, not yet consumed
  std::uint64_t next_id_ = 1;
};

}  // namespace tsteiner::serve
