#include "util/log.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "util/parallel.hpp"

namespace tsteiner {

namespace {

std::atomic<int> g_level = [] {
  if (const char* env = std::getenv("TSTEINER_LOG")) {
    const int v = std::atoi(env);
    if (v >= 0 && v <= 3) return v;
  }
  return static_cast<int>(LogLevel::kInfo);
}();

std::mutex& log_mutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

// Monotonic seconds since the first log call, for the verbose/debug prefix.
double log_uptime_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Per-thread attribution tag (see ScopedLogTag), NUL-terminated. The
/// storage is trivially destructible, so a tag stays readable by any
/// destructor that logs while its thread or the process exits, and a thread
/// that exits leaves nothing allocated behind (serve runs one reader thread
/// per connection).
thread_local char t_tag[kMaxLogTagLen + 1] = {};

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_tag(const std::string& tag) {
  const std::size_t n = std::min(tag.size(), kMaxLogTagLen);
  std::memcpy(t_tag, tag.data(), n);
  t_tag[n] = '\0';
}

std::string log_tag() { return t_tag; }

void logf(LogLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) > g_level.load(std::memory_order_relaxed)) return;

  // Format the whole line (prefix + message + newline) into one buffer and
  // emit it with a single fwrite under a mutex, so concurrent pool workers
  // cannot interleave fragments of each other's lines.
  char stack_buf[1024];
  std::vector<char> heap_buf;
  char* buf = stack_buf;
  std::size_t cap = sizeof(stack_buf);

  std::size_t prefix_len = 0;
  if (t_tag[0] != '\0') {
    const int n = std::snprintf(buf, cap, "[%9.3f t%d %s] ", log_uptime_s(),
                                parallel_worker_index(), t_tag);
    prefix_len = n > 0 ? std::min(static_cast<std::size_t>(n), cap - 1) : 0;
  } else if (static_cast<int>(level) >= static_cast<int>(LogLevel::kVerbose)) {
    const int n = std::snprintf(buf, cap, "[%9.3f t%d] ", log_uptime_s(),
                                parallel_worker_index());
    prefix_len = n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  std::va_list args;
  va_start(args, fmt);
  int body_len = std::vsnprintf(buf + prefix_len, cap - prefix_len, fmt, args);
  va_end(args);
  if (body_len < 0) return;

  if (prefix_len + static_cast<std::size_t>(body_len) + 2 > cap) {
    cap = prefix_len + static_cast<std::size_t>(body_len) + 2;
    heap_buf.resize(cap);
    std::memcpy(heap_buf.data(), buf, prefix_len);
    buf = heap_buf.data();
    std::va_list args2;
    va_start(args2, fmt);
    body_len = std::vsnprintf(buf + prefix_len, cap - prefix_len, fmt, args2);
    va_end(args2);
    if (body_len < 0) return;
  }

  std::size_t len = prefix_len + static_cast<std::size_t>(body_len);
  buf[len++] = '\n';

  std::lock_guard<std::mutex> lk(log_mutex());
  std::fwrite(buf, 1, len, stderr);
}

}  // namespace tsteiner
