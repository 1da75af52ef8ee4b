#include "serve/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tsteiner::serve {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool ServeClient::connect_unix(const std::string& path, std::string* error) {
  close();
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return fail(error, "socket(AF_UNIX) failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    close();
    return fail(error, "unix socket path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return fail(error, "connect('" + path + "') failed: " + std::strerror(errno));
  }
  return true;
}

bool ServeClient::connect_tcp(int port, std::string* error) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return fail(error, "socket(AF_INET) failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return fail(error, "connect(127.0.0.1:" + std::to_string(port) +
                           ") failed: " + std::strerror(errno));
  }
  return true;
}

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder();
  frames_.clear();
}

bool ServeClient::read_more(std::string* error) {
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return fail(error, std::string("read failed: ") + std::strerror(errno));
    if (n == 0) return fail(error, "server closed the connection");
    if (!decoder_.feed(buf, static_cast<std::size_t>(n), &frames_)) {
      return fail(error, "malformed frame from server: " + decoder_.error());
    }
    return true;
  }
}

ServeClient::Reply ServeClient::call(Request request) {
  Reply reply;
  if (fd_ < 0) {
    reply.error = "not connected";
    return reply;
  }
  if (request.id == 0) request.id = next_id_++;
  const std::vector<std::uint8_t> bytes =
      encode_frame(Frame{FrameKind::kRequest, encode_request(request)});
  if (!send_all(fd_, bytes)) {
    reply.error = "write failed";
    return reply;
  }
  for (;;) {
    while (frames_.empty()) {
      if (!read_more(&reply.error)) return reply;
    }
    Frame frame = std::move(frames_.front());
    frames_.erase(frames_.begin());
    std::string parse_error;
    auto body = obs::parse_json(frame.payload, &parse_error);
    if (!body) {
      reply.error = "unparsable payload from server: " + parse_error;
      return reply;
    }
    const double id = body->number_or("id", -1.0);
    if (frame.kind == FrameKind::kProgress) {
      if (id == static_cast<double>(request.id)) {
        reply.progress.push_back(std::move(*body));
        reply.progress_raw.emplace_back(frame.payload.begin(), frame.payload.end());
      }
      continue;
    }
    reply.raw.assign(frame.payload.begin(), frame.payload.end());
    if (id != static_cast<double>(request.id) && id != 0.0) {
      // A response for someone else on a shared connection is a protocol
      // violation in this blocking client (one call in flight at a time).
      reply.error = "response id mismatch";
      return reply;
    }
    reply.body = std::move(*body);
    if (frame.kind == FrameKind::kError) {
      const obs::JsonValue* message = reply.body.find_string("error");
      reply.error = message != nullptr ? message->str : "unknown server error";
      return reply;
    }
    reply.ok = true;
    return reply;
  }
}

ServeClient::Reply ServeClient::ping() {
  Request r;
  r.type = RequestType::kPing;
  return call(r);
}

ServeClient::Reply ServeClient::open(const std::string& snapshot_path) {
  Request r;
  r.type = RequestType::kOpen;
  r.snapshot = snapshot_path;
  return call(r);
}

ServeClient::Reply ServeClient::close_session(const std::string& session) {
  Request r;
  r.type = RequestType::kClose;
  r.session = session;
  return call(r);
}

ServeClient::Reply ServeClient::stats() {
  Request r;
  r.type = RequestType::kStats;
  return call(r);
}

ServeClient::Reply ServeClient::metrics() {
  Request r;
  r.type = RequestType::kMetrics;
  return call(r);
}

ServeClient::Reply ServeClient::shutdown_server() {
  Request r;
  r.type = RequestType::kShutdown;
  return call(r);
}

ServeClient::Reply ServeClient::wirelength(const std::string& session,
                                           const std::string& fingerprint,
                                           std::vector<std::vector<PointF>> pin_sets) {
  Request r;
  r.type = RequestType::kWirelength;
  r.session = session;
  r.fingerprint = fingerprint;
  r.pin_sets = std::move(pin_sets);
  return call(r);
}

}  // namespace tsteiner::serve
