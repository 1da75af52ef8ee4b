// Minimal leveled logger used by the flow and bench harnesses.
//
// Verbosity is controlled globally (set_log_level) and via the environment
// variable TSTEINER_LOG (0 = silent .. 3 = debug). Tests default to silent so
// ctest output stays readable.
//
// Emission is thread-safe: each call formats its complete line once and
// writes it with a single fwrite under a mutex, so lines from concurrent
// pool workers never interleave. Verbose/debug lines carry a
// "[<uptime-seconds> t<thread-index>]" prefix (monotonic clock since the
// first log call; thread index 0 = main, 1.. = pool workers as reported by
// parallel_worker_index()).
//
// Multi-tenant attribution: a thread can install a short component/session
// tag (set_log_tag / ScopedLogTag) that is appended to the prefix of every
// line it emits — "[  1.234 t2 sess=s7] ..." — so interleaved per-session
// server logs stay attributable. The tag is thread-local; tagged lines are
// prefixed at every level (a tag upgrades kInfo lines to carry the prefix
// too, since attribution is the point of tagging).
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>

namespace tsteiner {

enum class LogLevel : int { kSilent = 0, kInfo = 1, kVerbose = 2, kDebug = 3 };

void set_log_level(LogLevel level);
LogLevel log_level();

/// Longest log tag kept; set_log_tag truncates longer tags.
inline constexpr std::size_t kMaxLogTagLen = 63;

/// Install a component/session tag for the calling thread ("" clears it).
/// The string is copied, truncated to kMaxLogTagLen bytes.
void set_log_tag(const std::string& tag);
/// The calling thread's current tag ("" when none).
std::string log_tag();

/// RAII tag scope: installs `tag` for the calling thread, restores the
/// previous tag on destruction. Used by the serve readers so every line a
/// request logs — including from code deep inside the flow — carries its
/// session id.
class ScopedLogTag {
 public:
  explicit ScopedLogTag(const std::string& tag) : prev_(log_tag()) { set_log_tag(tag); }
  ~ScopedLogTag() { set_log_tag(prev_); }
  ScopedLogTag(const ScopedLogTag&) = delete;
  ScopedLogTag& operator=(const ScopedLogTag&) = delete;

 private:
  std::string prev_;
};

/// printf-style logging; message is emitted iff `level` <= current level.
void logf(LogLevel level, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

#define TS_INFO(...) ::tsteiner::logf(::tsteiner::LogLevel::kInfo, __VA_ARGS__)
#define TS_VERBOSE(...) ::tsteiner::logf(::tsteiner::LogLevel::kVerbose, __VA_ARGS__)
#define TS_DEBUG(...) ::tsteiner::logf(::tsteiner::LogLevel::kDebug, __VA_ARGS__)

}  // namespace tsteiner
