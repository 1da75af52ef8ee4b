// tsteiner_trace: inspect, verify and diff the observability artifacts the
// flow writes (docs/observability.md):
//
//   tsteiner_trace summarize <file>   human-readable digest
//   tsteiner_trace verify <file>      structural + schema validation
//   tsteiner_trace diff <a> <b>       compare two run reports' metrics/phases
//   tsteiner_trace serve <trace> [<metrics> [<metrics-b>]]
//                                     validate a serve-layer trace: request-id
//                                     presence, span nesting, serve<->flow
//                                     joins, per-op latency percentiles and
//                                     queue-wait attribution; optionally
//                                     schema-check a metrics-op snapshot and
//                                     compare two snapshots' deterministic
//                                     subset (counter values, histogram counts)
//
// The file kind is auto-detected: a Chrome trace-event file (TSTEINER_TRACE),
// a run report (TSTEINER_RUN_REPORT), or a refine-iteration JSONL stream
// (TSTEINER_REFINE_LOG). verify exits nonzero on any problem — truncated
// JSON, malformed events, non-nesting spans within a lane, schema-violating
// report/JSONL lines, or a best-WNS trajectory that regresses within a run —
// so CI can gate on artifact health the way tsteiner_db verify gates on
// snapshots.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/stats.hpp"

namespace {

using tsteiner::obs::JsonValue;
using tsteiner::obs::parse_json;

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string out;
  char buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return out;
}

enum class FileKind { kTrace, kReport, kJsonl, kUnknown };

/// Detect what artifact this is. A whole-file parse that yields an object is
/// a trace (has "traceEvents") or a run report (has "tsteiner_run_report");
/// otherwise, content starting with '{' that parses line-by-line is JSONL.
FileKind detect_kind(const std::string& text, std::optional<JsonValue>& doc) {
  doc = parse_json(text);
  if (doc && doc->is_object()) {
    if (doc->find("traceEvents") != nullptr) return FileKind::kTrace;
    if (doc->find("tsteiner_run_report") != nullptr) return FileKind::kReport;
    return FileKind::kUnknown;
  }
  doc.reset();
  // Multi-line JSONL never parses as one document; probe the first line.
  const std::size_t eol = text.find('\n');
  const std::string first = text.substr(0, eol);
  if (!first.empty() && first[0] == '{' && parse_json(first)) return FileKind::kJsonl;
  return FileKind::kUnknown;
}

int fail(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "FAIL: ");
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
  return 1;
}

// --- trace-event files -------------------------------------------------------

struct SpanView {
  std::string name;
  std::string cat;
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds
  long long tid = 0;
  unsigned long long req = 0;  // args.req request correlation id, 0 = absent
};

/// One side of an async nestable pair ("b"/"e"), used by the serve-layer
/// queue-wait spans: overlapping by design, exempt from lane nesting.
struct AsyncView {
  std::string name;
  std::string id;  // pairing key, e.g. "r7"
  double ts = 0.0;
  long long tid = 0;
  unsigned long long req = 0;
  bool begin = false;
};

/// Extract and structurally check the trace events: scoped "X" spans are
/// returned; async "b"/"e" pairs (the serve queue-wait spans) are collected
/// into `async` when provided and merely validated otherwise. Returns nullopt
/// (after printing the reason) on malformed events.
std::optional<std::vector<SpanView>> collect_spans(const JsonValue& doc,
                                                   std::vector<AsyncView>* async = nullptr) {
  const JsonValue* events = doc.find_array("traceEvents");
  if (events == nullptr) {
    fail("no traceEvents array");
    return std::nullopt;
  }
  std::vector<SpanView> spans;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    if (!e.is_object()) {
      fail("traceEvents[%zu] is not an object", i);
      return std::nullopt;
    }
    const JsonValue* ph = e.find_string("ph");
    if (ph == nullptr) {
      fail("traceEvents[%zu] lacks a \"ph\" string", i);
      return std::nullopt;
    }
    if (ph->str == "M") continue;  // thread-name metadata
    const auto arg_req = [&e]() -> unsigned long long {
      const JsonValue* args = e.find_object("args");
      const JsonValue* req = args != nullptr ? args->find_number("req") : nullptr;
      return req != nullptr && req->number > 0.0
                 ? static_cast<unsigned long long>(req->number)
                 : 0ull;
    };
    if (ph->str == "b" || ph->str == "e") {
      const JsonValue* name = e.find_string("name");
      const JsonValue* id = e.find_string("id");
      const JsonValue* ts = e.find_number("ts");
      const JsonValue* tid = e.find_number("tid");
      if (name == nullptr || id == nullptr || ts == nullptr || tid == nullptr ||
          e.find_number("pid") == nullptr) {
        fail("traceEvents[%zu] lacks name/id/ts/pid/tid", i);
        return std::nullopt;
      }
      if (ts->number < 0.0) {
        fail("traceEvents[%zu] has a negative ts", i);
        return std::nullopt;
      }
      if (async != nullptr) {
        async->push_back({name->str, id->str, ts->number,
                          static_cast<long long>(tid->number), arg_req(),
                          ph->str == "b"});
      }
      continue;
    }
    if (ph->str != "X") {
      fail("traceEvents[%zu] has unsupported phase \"%s\"", i, ph->str.c_str());
      return std::nullopt;
    }
    const JsonValue* name = e.find_string("name");
    const JsonValue* ts = e.find_number("ts");
    const JsonValue* dur = e.find_number("dur");
    const JsonValue* tid = e.find_number("tid");
    if (name == nullptr || ts == nullptr || dur == nullptr || tid == nullptr ||
        e.find_number("pid") == nullptr) {
      fail("traceEvents[%zu] lacks name/ts/dur/pid/tid", i);
      return std::nullopt;
    }
    if (ts->number < 0.0 || dur->number < 0.0) {
      fail("traceEvents[%zu] has a negative ts or dur", i);
      return std::nullopt;
    }
    const JsonValue* cat = e.find_string("cat");
    spans.push_back({name->str, cat != nullptr ? cat->str : std::string(), ts->number,
                     dur->number, static_cast<long long>(tid->number), arg_req()});
  }
  return spans;
}

/// Spans on one lane come from scoped objects on one thread, so they must
/// nest by time containment: sorted by (ts, -dur), each span either fits
/// inside the enclosing open span or starts after it ends.
bool check_nesting(std::vector<SpanView> spans) {
  std::stable_sort(spans.begin(), spans.end(), [](const SpanView& a, const SpanView& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<const SpanView*> stack;
  long long lane = std::numeric_limits<long long>::min();
  const double slop = 0.002;  // µs; end timestamps round to 3 decimals
  for (const SpanView& s : spans) {
    if (s.tid != lane) {
      lane = s.tid;
      stack.clear();
    }
    while (!stack.empty() && s.ts >= stack.back()->ts + stack.back()->dur - slop) {
      stack.pop_back();
    }
    if (!stack.empty() &&
        s.ts + s.dur > stack.back()->ts + stack.back()->dur + slop) {
      fail("lane %lld: span \"%s\" [%.3f, %.3f] overlaps \"%s\" [%.3f, %.3f] without nesting",
           lane, s.name.c_str(), s.ts, s.ts + s.dur, stack.back()->name.c_str(),
           stack.back()->ts, stack.back()->ts + stack.back()->dur);
      return false;
    }
    stack.push_back(&s);
  }
  return true;
}

int verify_trace(const JsonValue& doc) {
  const auto spans = collect_spans(doc);
  if (!spans) return 1;
  if (!check_nesting(*spans)) return 1;
  std::printf("OK: trace file, %zu spans, nesting consistent\n", spans->size());
  return 0;
}

int summarize_trace(const JsonValue& doc) {
  const auto spans = collect_spans(doc);
  if (!spans) return 1;
  struct Agg {
    double total_us = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Agg> by_name;
  std::map<long long, std::size_t> by_lane;
  for (const SpanView& s : *spans) {
    Agg& a = by_name[s.name];
    a.total_us += s.dur;
    ++a.count;
    ++by_lane[s.tid];
  }
  std::printf("%zu spans across %zu lanes\n\n", spans->size(), by_lane.size());
  std::printf("%-32s %10s %14s\n", "span", "count", "total ms");
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  for (const auto& [name, a] : rows) {
    std::printf("%-32s %10zu %14.3f\n", name.c_str(), a.count, a.total_us / 1000.0);
  }
  return 0;
}

// --- serve traces ------------------------------------------------------------

/// Ops whose handlers run a sign-off (full or incremental); their handle
/// spans must contain at least one non-"serve" span — the request-id join
/// proving serve spans and flow/sta/tsteiner spans share one timeline.
bool is_signoff_bearing(const std::string& op) {
  return op == "sta" || op == "signoff" || op == "whatif" || op == "refine";
}

struct ReqView {
  std::size_t decode = 0, handle = 0, encode = 0, write = 0;
  std::string op;             // suffix of the serve.handle.<op> span
  double handle_us = 0.0;     // handler duration
  double queue_us = -1.0;     // matched queue-wait async pair, <0 = none
};

int serve_trace_report(const JsonValue& doc) {
  std::vector<AsyncView> async;
  const auto spans = collect_spans(doc, &async);
  if (!spans) return 1;
  if (!check_nesting(*spans)) return 1;

  std::map<unsigned long long, ReqView> reqs;
  std::size_t serve_spans = 0;
  for (const SpanView& s : *spans) {
    if (s.cat != "serve") continue;
    ++serve_spans;
    // Every serve span is attributable to one request, except the
    // batch-level dispatch span that covers many.
    if (s.name == "serve.dispatch_batch") continue;
    if (s.req == 0) {
      return fail("serve span \"%s\" at ts %.3f lacks a request id (args.req)",
                  s.name.c_str(), s.ts);
    }
    ReqView& r = reqs[s.req];
    if (s.name == "serve.decode") {
      ++r.decode;
    } else if (s.name.rfind("serve.handle.", 0) == 0) {
      ++r.handle;
      r.op = s.name.substr(std::strlen("serve.handle."));
      r.handle_us = s.dur;
    } else if (s.name == "serve.encode") {
      ++r.encode;
    } else if (s.name == "serve.write") {
      ++r.write;
    } else {
      return fail("unknown serve span \"%s\" (req %llu)", s.name.c_str(), s.req);
    }
  }
  if (serve_spans == 0) return fail("trace contains no serve-category spans");

  // Pair the async queue-wait events by id; each request has exactly one.
  std::map<std::string, const AsyncView*> open_async;
  for (const AsyncView& a : async) {
    if (a.name != "serve.queue_wait") {
      return fail("unknown async span \"%s\"", a.name.c_str());
    }
    if (a.begin) {
      if (!open_async.emplace(a.id, &a).second) {
        return fail("async id %s begins twice", a.id.c_str());
      }
      continue;
    }
    const auto it = open_async.find(a.id);
    if (it == open_async.end()) return fail("async id %s ends without a begin", a.id.c_str());
    const AsyncView& b = *it->second;
    open_async.erase(it);
    if (b.req == 0) return fail("queue-wait %s lacks a request id", a.id.c_str());
    ReqView& r = reqs[b.req];
    if (r.queue_us >= 0.0) return fail("request %llu has two queue-wait pairs", b.req);
    r.queue_us = a.ts - b.ts;
    if (r.queue_us < 0.0) return fail("queue-wait %s ends before it begins", a.id.c_str());
  }
  if (!open_async.empty()) {
    return fail("async id %s never ends", open_async.begin()->first.c_str());
  }

  // Per-request shape: one decode, one handler, at least one encoded +
  // written frame (refine also streams progress frames), one queue wait.
  for (const auto& [req, r] : reqs) {
    if (r.decode != 1) {
      return fail("request %llu has %zu serve.decode spans (want 1)", req, r.decode);
    }
    if (r.handle != 1) {
      return fail("request %llu has %zu serve.handle.* spans (want 1)", req, r.handle);
    }
    if (r.encode == 0 || r.write == 0) {
      return fail("request %llu lacks encode/write spans (%zu/%zu)", req, r.encode, r.write);
    }
    if (r.queue_us < 0.0) return fail("request %llu lacks a queue-wait pair", req);
  }

  // Request-id join: a sign-off-bearing handler must enclose flow work, i.e.
  // at least one non-serve span inside the handle span on the same lane.
  const double slop = 0.002;  // µs, matches check_nesting
  for (const SpanView& s : *spans) {
    if (s.cat != "serve" || s.name.rfind("serve.handle.", 0) != 0) continue;
    const std::string op = s.name.substr(std::strlen("serve.handle."));
    if (!is_signoff_bearing(op)) continue;
    bool joined = false;
    for (const SpanView& inner : *spans) {
      if (inner.cat == "serve" || inner.tid != s.tid) continue;
      if (inner.ts >= s.ts - slop && inner.ts + inner.dur <= s.ts + s.dur + slop) {
        joined = true;
        break;
      }
    }
    if (!joined) {
      return fail("request %llu: %s encloses no flow span (serve<->flow join broken)",
                  s.req, s.name.c_str());
    }
  }

  // Per-op latency and queue-wait percentiles from the per-request samples.
  std::map<std::string, std::vector<double>> lat_by_op, queue_by_op;
  double total_handle_us = 0.0, total_queue_us = 0.0;
  for (const auto& [req, r] : reqs) {
    lat_by_op[r.op].push_back(r.handle_us / 1000.0);
    queue_by_op[r.op].push_back(r.queue_us / 1000.0);
    total_handle_us += r.handle_us;
    total_queue_us += r.queue_us;
  }
  std::printf("OK: serve trace, %zu requests, %zu serve spans, joins + nesting consistent\n\n",
              reqs.size(), serve_spans);
  std::printf("%-12s %7s %28s %28s\n", "", "", "handler latency ms", "queue wait ms");
  std::printf("%-12s %7s %9s %9s %9s %9s %9s %9s\n", "op", "count", "p50", "p90", "p99",
              "p50", "p90", "p99");
  for (const auto& [op, lat] : lat_by_op) {
    const std::vector<double>& queue = queue_by_op[op];
    std::printf("%-12s %7zu %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n", op.c_str(), lat.size(),
                tsteiner::percentile(lat, 50.0), tsteiner::percentile(lat, 90.0),
                tsteiner::percentile(lat, 99.0), tsteiner::percentile(queue, 50.0),
                tsteiner::percentile(queue, 90.0), tsteiner::percentile(queue, 99.0));
  }
  const double busy = total_handle_us + total_queue_us;
  std::printf("\nqueue-wait attribution: %.3f ms waiting vs %.3f ms handling (%.1f%% of %.3f ms)\n",
              total_queue_us / 1000.0, total_handle_us / 1000.0,
              busy > 0.0 ? 100.0 * total_queue_us / busy : 0.0, busy / 1000.0);
  return 0;
}

/// Schema-check one metrics-op snapshot (the "metrics" object of the
/// response, i.e. MetricsRegistry::to_json): three sections, numeric
/// counters/gauges, and internally consistent histograms (edges bracket
/// [lo, hi], buckets sum to count, percentiles present).
int validate_metrics_snapshot(const JsonValue& m, const char* path) {
  const JsonValue* counters = m.find_object("counters");
  const JsonValue* gauges = m.find_object("gauges");
  const JsonValue* histograms = m.find_object("histograms");
  if (counters == nullptr || gauges == nullptr || histograms == nullptr) {
    return fail("%s lacks counters/gauges/histograms objects", path);
  }
  for (const auto& [name, v] : counters->object) {
    if (!v.is_number() || v.number < 0.0) {
      return fail("%s: counter \"%s\" is not a non-negative number", path, name.c_str());
    }
  }
  for (const auto& [name, v] : gauges->object) {
    if (!v.is_number() && !v.is_null()) {
      return fail("%s: gauge \"%s\" is not a number", path, name.c_str());
    }
  }
  for (const auto& [name, h] : histograms->object) {
    const JsonValue* lo = h.find_number("lo");
    const JsonValue* hi = h.find_number("hi");
    const JsonValue* count = h.find_number("count");
    const JsonValue* buckets = h.find_array("buckets");
    const JsonValue* edges = h.find_array("edges");
    if (lo == nullptr || hi == nullptr || count == nullptr || h.find_number("sum") == nullptr ||
        h.find_number("p50") == nullptr || h.find_number("p90") == nullptr ||
        h.find_number("p99") == nullptr || buckets == nullptr || edges == nullptr) {
      return fail("%s: histogram \"%s\" lacks lo/hi/count/sum/p50/p90/p99/buckets/edges",
                  path, name.c_str());
    }
    if (edges->array.size() != buckets->array.size() + 1) {
      return fail("%s: histogram \"%s\" has %zu edges for %zu buckets", path, name.c_str(),
                  edges->array.size(), buckets->array.size());
    }
    double bucket_sum = 0.0;
    for (const JsonValue& b : buckets->array) bucket_sum += b.number;
    if (bucket_sum != count->number) {
      return fail("%s: histogram \"%s\" buckets sum to %.0f, count says %.0f", path,
                  name.c_str(), bucket_sum, count->number);
    }
    const double width = hi->number - lo->number;
    const double tol = 1e-9 * std::max(1.0, std::fabs(width));
    if (std::fabs(edges->array.front().number - lo->number) > tol ||
        std::fabs(edges->array.back().number - hi->number) > tol) {
      return fail("%s: histogram \"%s\" edges do not bracket [lo, hi]", path, name.c_str());
    }
    for (std::size_t i = 1; i < edges->array.size(); ++i) {
      if (edges->array[i].number < edges->array[i - 1].number) {
        return fail("%s: histogram \"%s\" edges are not monotone", path, name.c_str());
      }
    }
  }
  return 0;
}

/// Compare two snapshots' deterministic subset: instrument names, counter
/// values, and histogram observation counts must match exactly. Gauges,
/// sums and percentiles are wall-clock-dependent and deliberately excluded.
int compare_metrics_snapshots(const JsonValue& a, const JsonValue& b, const char* path_a,
                              const char* path_b) {
  const auto names = [](const JsonValue& m, const char* section) {
    std::vector<std::string> out;
    if (const JsonValue* s = m.find_object(section)) {
      for (const auto& [k, v] : s->object) out.push_back(k);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const char* section : {"counters", "gauges", "histograms"}) {
    if (names(a, section) != names(b, section)) {
      return fail("%s and %s disagree on %s names", path_a, path_b, section);
    }
  }
  const JsonValue* ca = a.find_object("counters");
  for (const auto& [name, v] : ca->object) {
    // Response bytes embed wall-clock digits (stats latency aggregates), so
    // the outbound byte count is legitimately run-dependent.
    if (name == "serve.bytes_out") continue;
    const JsonValue* w = b.find_object("counters")->find_number(name);
    if (w == nullptr || w->number != v.number) {
      return fail("counter \"%s\": %.0f in %s vs %.0f in %s", name.c_str(), v.number,
                  path_a, w != nullptr ? w->number : -1.0, path_b);
    }
  }
  const JsonValue* ha = a.find_object("histograms");
  for (const auto& [name, v] : ha->object) {
    const JsonValue* w = b.find_object("histograms")->find_object(name);
    const double count_a = v.number_or("count", -1.0);
    const double count_b = w != nullptr ? w->number_or("count", -2.0) : -2.0;
    if (count_a != count_b) {
      return fail("histogram \"%s\": count %.0f in %s vs %.0f in %s", name.c_str(), count_a,
                  path_a, count_b, path_b);
    }
  }
  return 0;
}

/// Load a metrics snapshot file: either a raw MetricsRegistry::to_json
/// object, or a full metrics-op response ({"metrics": {...}} wrapper).
std::optional<JsonValue> load_metrics_snapshot(const char* path) {
  const auto text = read_file(path);
  if (!text) {
    fail("cannot read %s", path);
    return std::nullopt;
  }
  std::string err;
  auto doc = parse_json(*text, &err);
  if (!doc || !doc->is_object()) {
    fail("%s does not parse as a JSON object (%s)", path, err.c_str());
    return std::nullopt;
  }
  if (const JsonValue* inner = doc->find_object("metrics")) return *inner;
  return doc;
}

// --- run reports -------------------------------------------------------------

int verify_report(const JsonValue& doc) {
  const JsonValue* version = doc.find_number("schema_version");
  if (version == nullptr) return fail("run report lacks schema_version");
  const JsonValue* phases = doc.find_array("phases");
  if (phases == nullptr) return fail("run report lacks a phases array");
  for (std::size_t i = 0; i < phases->array.size(); ++i) {
    const JsonValue& p = phases->array[i];
    if (p.find_string("name") == nullptr || p.find_number("wall_s") == nullptr ||
        p.find_number("busy_s") == nullptr || p.find_number("count") == nullptr) {
      return fail("phases[%zu] lacks name/wall_s/busy_s/count", i);
    }
    if (p.number_or("wall_s", -1.0) < 0.0 || p.number_or("count", 0.0) < 1.0) {
      return fail("phases[%zu] has a negative wall_s or zero count", i);
    }
  }
  const JsonValue* refines = doc.find_array("refine");
  if (refines == nullptr) return fail("run report lacks a refine array");
  for (std::size_t i = 0; i < refines->array.size(); ++i) {
    const JsonValue& r = refines->array[i];
    if (r.find_string("design") == nullptr || r.find_number("iterations") == nullptr ||
        r.find_array("iters") == nullptr) {
      return fail("refine[%zu] lacks design/iterations/iters", i);
    }
    const JsonValue* iters = r.find_array("iters");
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < iters->array.size(); ++k) {
      const JsonValue& it = iters->array[k];
      if (it.find_number("iter") == nullptr || it.find_number("wns") == nullptr ||
          it.find_number("best_wns") == nullptr) {
        return fail("refine[%zu].iters[%zu] lacks iter/wns/best_wns", i, k);
      }
      const double b = it.number_or("best_wns", 0.0);
      if (b + 1e-12 < best) {
        return fail("refine[%zu].iters[%zu]: best_wns regressed (%.6f -> %.6f)", i, k,
                    best, b);
      }
      best = b;
    }
  }
  if (doc.find_object("metrics") == nullptr) {
    return fail("run report lacks a metrics object");
  }
  std::printf("OK: run report, %zu phases, %zu refine runs\n", phases->array.size(),
              refines->array.size());
  return 0;
}

int summarize_report(const JsonValue& doc) {
  if (const JsonValue* options = doc.find_object("options")) {
    for (const auto& [k, v] : options->object) {
      std::printf("option %s = %s\n", k.c_str(), v.str.c_str());
    }
  }
  if (const JsonValue* phases = doc.find_array("phases")) {
    std::printf("\n%-28s %10s %10s %8s %7s\n", "phase", "wall s", "busy s", "util",
                "count");
    for (const JsonValue& p : phases->array) {
      const JsonValue* name = p.find_string("name");
      std::printf("%-28s %10.3f %10.3f %8.2f %7.0f\n",
                  name != nullptr ? name->str.c_str() : "?", p.number_or("wall_s", 0.0),
                  p.number_or("busy_s", 0.0), p.number_or("utilization", 0.0),
                  p.number_or("count", 0.0));
    }
  }
  if (const JsonValue* refines = doc.find_array("refine")) {
    for (const JsonValue& r : refines->array) {
      const JsonValue* design = r.find_string("design");
      std::printf("\nrefine %s: %.0f iters%s, WNS %.3f -> %.3f, TNS %.1f -> %.1f\n",
                  design != nullptr ? design->str.c_str() : "?",
                  r.number_or("iterations", 0.0),
                  r.find("converged_by_ratio") != nullptr &&
                          r.find("converged_by_ratio")->boolean
                      ? " (converged)"
                      : "",
                  r.number_or("init_wns", 0.0), r.number_or("best_wns", 0.0),
                  r.number_or("init_tns", 0.0), r.number_or("best_tns", 0.0));
    }
  }
  if (const JsonValue* metrics = doc.find_object("metrics")) {
    if (const JsonValue* counters = metrics->find_object("counters")) {
      std::printf("\n%-32s %14s\n", "counter", "value");
      for (const auto& [name, v] : counters->object) {
        std::printf("%-32s %14.0f\n", name.c_str(), v.number);
      }
    }
  }
  return 0;
}

// --- refine JSONL ------------------------------------------------------------

struct JsonlStats {
  std::size_t lines = 0;
  std::map<std::string, std::pair<double, double>> design_range;  // init/best wns
};

/// Validate every line against the iteration schema and the keep-best
/// invariant (per-design best_wns/best_tns never regress within a run).
/// A line whose iter does not exceed the previous line's iter for the same
/// design starts a new run of that design and resets its keep-best baseline,
/// so a stream holding several runs verifies run by run. Populates `stats`
/// for summarize.
int verify_jsonl(const std::string& text, JsonlStats* stats) {
  static const char* const kNumberKeys[] = {"iter",      "wns",      "tns",
                                            "best_wns",  "best_tns", "theta",
                                            "grad_norm", "max_move", "lambda_w",
                                            "lambda_t",  "wall_s"};
  struct RunState {
    double iter = 0.0;
    double best_wns = 0.0;
    double best_tns = 0.0;
  };
  std::map<std::string, RunState> runs;  // design -> its current run
  std::size_t line_no = 0, pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    std::string err;
    const auto doc = parse_json(line, &err);
    if (!doc || !doc->is_object()) {
      return fail("line %zu does not parse as a JSON object (%s)", line_no, err.c_str());
    }
    const JsonValue* design = doc->find_string("design");
    if (design == nullptr) return fail("line %zu lacks a design string", line_no);
    for (const char* key : kNumberKeys) {
      if (doc->find_number(key) == nullptr) {
        return fail("line %zu lacks numeric \"%s\"", line_no, key);
      }
    }
    const JsonValue* accept = doc->find("accept");
    if (accept == nullptr || !accept->is_bool()) {
      return fail("line %zu lacks boolean \"accept\"", line_no);
    }
    // Optional sign-off probe fields: all-or-nothing per line, dirty
    // fraction a valid fraction, incremental flag a boolean.
    const JsonValue* so_wns = doc->find("signoff_wns");
    const JsonValue* so_tns = doc->find("signoff_tns");
    const JsonValue* so_frac = doc->find("signoff_dirty_frac");
    const JsonValue* so_inc = doc->find("signoff_incremental");
    const bool any_signoff = so_wns || so_tns || so_frac || so_inc;
    if (any_signoff) {
      if (so_wns == nullptr || !so_wns->is_number() || so_tns == nullptr ||
          !so_tns->is_number() || so_frac == nullptr || !so_frac->is_number()) {
        return fail("line %zu has a partial sign-off probe record", line_no);
      }
      if (so_inc == nullptr || !so_inc->is_bool()) {
        return fail("line %zu lacks boolean \"signoff_incremental\"", line_no);
      }
      const double frac = so_frac->number;
      if (!(frac >= 0.0 && frac <= 1.0)) {
        return fail("line %zu: signoff_dirty_frac %g outside [0,1]", line_no, frac);
      }
    }
    const double iter = doc->number_or("iter", 0.0);
    const double bw = doc->number_or("best_wns", 0.0);
    const double bt = doc->number_or("best_tns", 0.0);
    auto [it, fresh] = runs.emplace(design->str, RunState{iter, bw, bt});
    if (!fresh && iter > it->second.iter) {
      if (bw + 1e-12 < it->second.best_wns) {
        return fail("line %zu: best_wns for %s regressed (%.6f -> %.6f)", line_no,
                    design->str.c_str(), it->second.best_wns, bw);
      }
      if (bt + 1e-12 < it->second.best_tns) {
        return fail("line %zu: best_tns for %s regressed (%.6f -> %.6f)", line_no,
                    design->str.c_str(), it->second.best_tns, bt);
      }
    }
    it->second = RunState{iter, bw, bt};
    if (stats != nullptr) {
      ++stats->lines;
      auto [sit, first] = stats->design_range.emplace(
          design->str, std::make_pair(doc->number_or("wns", 0.0), bw));
      if (!first) sit->second.second = bw;
    }
  }
  return 0;
}

int summarize_jsonl(const std::string& text) {
  JsonlStats stats;
  if (verify_jsonl(text, &stats) != 0) return 1;
  std::printf("%zu iteration records, %zu designs\n", stats.lines,
              stats.design_range.size());
  for (const auto& [design, range] : stats.design_range) {
    std::printf("  %-20s first WNS %10.4f   final best WNS %10.4f\n", design.c_str(),
                range.first, range.second);
  }
  return 0;
}

// --- diff --------------------------------------------------------------------

int diff_reports(const JsonValue& a, const JsonValue& b) {
  int differences = 0;
  const auto diff_section = [&](const char* section) {
    const JsonValue* ma = a.find_object("metrics");
    const JsonValue* mb = b.find_object("metrics");
    const JsonValue* sa = ma != nullptr ? ma->find_object(section) : nullptr;
    const JsonValue* sb = mb != nullptr ? mb->find_object(section) : nullptr;
    std::map<std::string, double> va, vb;
    if (sa != nullptr) {
      for (const auto& [k, v] : sa->object) {
        if (v.is_number()) va[k] = v.number;
      }
    }
    if (sb != nullptr) {
      for (const auto& [k, v] : sb->object) {
        if (v.is_number()) vb[k] = v.number;
      }
    }
    for (const auto& [k, x] : va) {
      const auto it = vb.find(k);
      if (it == vb.end()) {
        std::printf("- %s.%s = %g (only in first)\n", section, k.c_str(), x);
        ++differences;
      } else if (it->second != x) {
        std::printf("~ %s.%s: %g -> %g\n", section, k.c_str(), x, it->second);
        ++differences;
      }
    }
    for (const auto& [k, x] : vb) {
      if (va.find(k) == va.end()) {
        std::printf("+ %s.%s = %g (only in second)\n", section, k.c_str(), x);
        ++differences;
      }
    }
  };
  diff_section("counters");
  diff_section("gauges");

  // Phase wall times, side by side (informational, never a "difference").
  const JsonValue* pa = a.find_array("phases");
  const JsonValue* pb = b.find_array("phases");
  if (pa != nullptr && pb != nullptr) {
    std::map<std::string, double> walls;
    for (const JsonValue& p : pb->array) {
      if (const JsonValue* n = p.find_string("name")) {
        walls[n->str] = p.number_or("wall_s", 0.0);
      }
    }
    for (const JsonValue& p : pa->array) {
      const JsonValue* n = p.find_string("name");
      if (n == nullptr) continue;
      const auto it = walls.find(n->str);
      if (it != walls.end()) {
        std::printf("  phase %-28s %10.3fs vs %10.3fs\n", n->str.c_str(),
                    p.number_or("wall_s", 0.0), it->second);
      }
    }
  }
  std::printf("%d metric difference(s)\n", differences);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tsteiner_trace summarize <file>\n"
               "       tsteiner_trace verify <file>\n"
               "       tsteiner_trace diff <report-a> <report-b>\n"
               "       tsteiner_trace serve <trace> [<metrics> [<metrics-b>]]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];

  if (cmd == "diff") {
    if (argc < 4) return usage();
    const auto ta = read_file(argv[2]);
    const auto tb = read_file(argv[3]);
    if (!ta) return fail("cannot read %s", argv[2]);
    if (!tb) return fail("cannot read %s", argv[3]);
    std::optional<JsonValue> da, db;
    if (detect_kind(*ta, da) != FileKind::kReport) {
      return fail("%s is not a run report", argv[2]);
    }
    if (detect_kind(*tb, db) != FileKind::kReport) {
      return fail("%s is not a run report", argv[3]);
    }
    return diff_reports(*da, *db);
  }

  if (cmd == "serve") {
    if (argc > 5) return usage();
    const auto text = read_file(argv[2]);
    if (!text) return fail("cannot read %s", argv[2]);
    std::optional<JsonValue> doc;
    if (detect_kind(*text, doc) != FileKind::kTrace) {
      return fail("%s is not a trace-event file", argv[2]);
    }
    const int rc = serve_trace_report(*doc);
    if (rc != 0) return rc;
    if (argc < 4) return 0;
    const auto ma = load_metrics_snapshot(argv[3]);
    if (!ma) return 1;
    if (const int mrc = validate_metrics_snapshot(*ma, argv[3]); mrc != 0) return mrc;
    std::printf("OK: metrics snapshot %s is schema-consistent\n", argv[3]);
    if (argc < 5) return 0;
    const auto mb = load_metrics_snapshot(argv[4]);
    if (!mb) return 1;
    if (const int mrc = validate_metrics_snapshot(*mb, argv[4]); mrc != 0) return mrc;
    if (const int crc = compare_metrics_snapshots(*ma, *mb, argv[3], argv[4]); crc != 0) {
      return crc;
    }
    std::printf("OK: deterministic subset matches between %s and %s\n", argv[3], argv[4]);
    return 0;
  }

  if (cmd != "summarize" && cmd != "verify") return usage();
  const std::string path = argv[2];
  const auto text = read_file(path);
  if (!text) return fail("cannot read %s", path.c_str());
  std::optional<JsonValue> doc;
  const FileKind kind = detect_kind(*text, doc);
  switch (kind) {
    case FileKind::kTrace:
      return cmd == "verify" ? verify_trace(*doc) : summarize_trace(*doc);
    case FileKind::kReport:
      return cmd == "verify" ? verify_report(*doc) : summarize_report(*doc);
    case FileKind::kJsonl: {
      if (cmd == "summarize") return summarize_jsonl(*text);
      JsonlStats stats;
      const int rc = verify_jsonl(*text, &stats);
      if (rc == 0) {
        std::printf("OK: refine JSONL, %zu records, keep-best monotone\n", stats.lines);
      }
      return rc;
    }
    case FileKind::kUnknown:
      return fail("%s is not a recognized observability artifact", path.c_str());
  }
  return 1;
}
