// Observability subsystem: trace JSON validity and nesting at pool widths 1
// and 4, metrics-registry determinism, refine JSONL schema, run-report
// structure, and the zero-allocation guarantee of disabled instrumentation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "netlist/design_generator.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "place/placer.hpp"
#include "sta/sta.hpp"
#include "steiner/rsmt.hpp"
#include "testutil.hpp"
#include "tsteiner/refine.hpp"
#include "util/parallel.hpp"

// Global allocation counter: proves the disabled fast path performs no heap
// allocation. Counting is exact for this binary (every operator new lands
// here); tests only ever compare deltas across their own code.
static std::atomic<std::uint64_t> g_news{0};

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tsteiner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct SpanView {
  std::string name;
  double ts = 0.0, dur = 0.0;
  long long tid = 0;
};

/// Parse a trace file, checking event structure, and collect the X spans.
void parse_trace(const std::string& path, std::vector<SpanView>* out) {
  out->clear();
  std::string error;
  const auto doc = obs::parse_json(slurp(path), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue* events = doc->find_array("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_thread_name = false;
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* ph = e.find_string("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") {
      saw_thread_name = true;
      continue;
    }
    EXPECT_EQ(ph->str, "X");
    ASSERT_NE(e.find_string("name"), nullptr);
    ASSERT_NE(e.find_number("ts"), nullptr);
    ASSERT_NE(e.find_number("dur"), nullptr);
    ASSERT_NE(e.find_number("tid"), nullptr);
    ASSERT_NE(e.find_number("pid"), nullptr);
    out->push_back({e.find_string("name")->str, e.find_number("ts")->number,
                    e.find_number("dur")->number,
                    static_cast<long long>(e.find_number("tid")->number)});
  }
  EXPECT_TRUE(saw_thread_name) << "no thread_name metadata events";
}

/// Scoped spans on one lane must nest by time containment.
void expect_nesting(std::vector<SpanView> spans) {
  std::stable_sort(spans.begin(), spans.end(), [](const SpanView& a, const SpanView& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<SpanView> stack;
  long long lane = -1;
  const double slop = 0.002;  // µs rounding of the writer
  for (const SpanView& s : spans) {
    if (s.tid != lane) {
      lane = s.tid;
      stack.clear();
    }
    while (!stack.empty() && s.ts >= stack.back().ts + stack.back().dur - slop) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      EXPECT_LE(s.ts + s.dur, stack.back().ts + stack.back().dur + slop)
          << s.name << " does not nest inside " << stack.back().name;
    }
    stack.push_back(s);
  }
}

void run_traced_workload(const std::string& path) {
  obs::reset_trace();
  obs::enable_trace(path);
  {
    TS_TRACE_SPAN("outer");
    {
      TS_TRACE_SPAN("inner");
      parallel_for(0, 64, kChunkWork / 4, [&](std::size_t lo, std::size_t hi) {
        TS_TRACE_SPAN("chunk");
        volatile double x = 0.0;
        for (std::size_t i = lo; i < hi; ++i) x = x + static_cast<double>(i);
      });
    }
    TS_TRACE_SPAN_CAT("tail", "test");
  }
  obs::disable_trace();
}

TEST(Trace, ValidNestedJsonAtWidthOne) {
  const std::string path = testutil::test_tmp_dir() + "/trace1.json";
  set_parallel_threads(1);
  run_traced_workload(path);
  set_parallel_threads(0);
  std::vector<SpanView> spans;
  ASSERT_NO_FATAL_FAILURE(parse_trace(path, &spans));
  ASSERT_GE(spans.size(), 3u);  // outer, inner, tail + chunks
  expect_nesting(spans);
}

TEST(Trace, ValidNestedJsonAtWidthFour) {
  const std::string path = testutil::test_tmp_dir() + "/trace4.json";
  set_parallel_threads(4);
  run_traced_workload(path);
  set_parallel_threads(0);
  std::vector<SpanView> spans;
  ASSERT_NO_FATAL_FAILURE(parse_trace(path, &spans));
  ASSERT_GE(spans.size(), 3u);
  expect_nesting(spans);
  // The chunk spans from pool workers land on lanes other than the main
  // thread's; with width 4 at least the main lane exists.
  bool chunk_seen = false;
  for (const SpanView& s : spans) chunk_seen = chunk_seen || s.name == "chunk";
  EXPECT_TRUE(chunk_seen);
}

TEST(Trace, FlushMidRunKeepsFileValid) {
  const std::string path = testutil::test_tmp_dir() + "/trace_mid.json";
  obs::reset_trace();
  obs::enable_trace(path);
  { TS_TRACE_SPAN("first"); }
  ASSERT_TRUE(obs::flush_trace());
  std::vector<SpanView> spans;
  ASSERT_NO_FATAL_FAILURE(parse_trace(path, &spans));  // complete JSON mid-run
  EXPECT_EQ(spans.size(), 1u);
  { TS_TRACE_SPAN("second"); }
  obs::disable_trace();
  ASSERT_NO_FATAL_FAILURE(parse_trace(path, &spans));
  EXPECT_EQ(spans.size(), 2u);  // events accumulate across flushes
  obs::reset_trace();
}

TEST(Trace, DisabledSpansAllocateNothingAndRecordNothing) {
  obs::reset_trace();  // no path, tracing off
  { TS_TRACE_SPAN("warmup"); }  // fold in the one-time env check
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 1000; ++i) {
    TS_TRACE_SPAN("disabled");
  }
  EXPECT_EQ(g_news.load(), before) << "disabled TraceSpan allocated";
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(Trace, EmitSpanCarriesReqAndTagArgsAndAsyncPairs) {
  const std::string path = testutil::test_tmp_dir() + "/trace_req.json";
  obs::reset_trace();
  obs::enable_trace(path);
  const std::uint64_t t0 = obs::trace_clock_ns();
  const std::uint64_t t1 = t0 + 1500;
  const std::string tag = "client-tag";
  obs::emit_span("serve.decode", "serve", t0, t1, /*req=*/7, &tag);
  obs::emit_async_span("serve.queue_wait", "serve", t0, t1, /*req=*/7);
  {
    TS_TRACE_SPAN_REQ("serve.handle.ping", "serve", 7);
  }
  {
    obs::TraceSpan span("serve.handle.sta", "serve");
    span.set_req(9);
    span.set_tag(tag);
  }
  obs::disable_trace();

  const auto doc = obs::parse_json(slurp(path));
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->find_array("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t with_req = 0, with_tag = 0, begins = 0, ends = 0;
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* ph = e.find_string("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "b" || ph->str == "e") {
      const obs::JsonValue* id = e.find_string("id");
      ASSERT_NE(id, nullptr);
      EXPECT_EQ(id->str, "r7");
      (ph->str == "b" ? begins : ends) += 1;
      continue;
    }
    if (ph->str != "X") continue;
    const obs::JsonValue* args = e.find_object("args");
    if (args == nullptr) continue;
    if (args->find_number("req") != nullptr) ++with_req;
    const obs::JsonValue* t = args->find_string("tag");
    if (t != nullptr) {
      EXPECT_EQ(t->str, "client-tag");
      ++with_tag;
    }
  }
  EXPECT_EQ(with_req, 3u);  // emit_span + TS_TRACE_SPAN_REQ + set_req
  EXPECT_EQ(with_tag, 2u);  // emit_span tag + set_tag
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
  obs::reset_trace();
}

TEST(Trace, DisabledRequestSpansAllocateNothing) {
  obs::reset_trace();  // no path, tracing off
  { TS_TRACE_SPAN("warmup"); }
  const std::string tag = "tag";  // built before counting: the span must not copy it
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 1000; ++i) {
    TS_TRACE_SPAN_REQ("disabled", "serve", 42);
  }
  for (int i = 0; i < 1000; ++i) {
    obs::TraceSpan span("disabled", "serve");
    span.set_req(42);
    span.set_tag(tag);
  }
  obs::emit_span("disabled", "serve", 0, 1, 42, &tag);
  obs::emit_async_span("disabled", "serve", 0, 1, 42);
  EXPECT_EQ(g_news.load(), before) << "disabled request-span path allocated";
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(Metrics, HistogramPercentilesAndSnapshotEdges) {
  obs::set_metrics_enabled(true);
  obs::HistogramMetric& h = obs::metrics().histogram("pct.h", 0.0, 10.0, 5);
  h.reset();
  for (double x : {1.0, 3.0, 5.0, 7.0}) h.observe(x);
  // Rank interpolation: pos = q/100*(n-1), target = pos + 0.5, linear within
  // the bucket — the four samples sit at their buckets' midpoints.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 4.0);
  EXPECT_DOUBLE_EQ(h.p99(), h.percentile(99.0));

  const auto doc = obs::parse_json(obs::metrics().to_json());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* hist = doc->find_object("histograms")->find_object("pct.h");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->number_or("count", 0.0), 4.0);
  EXPECT_EQ(hist->number_or("p50", 0.0), 4.0);
  ASSERT_NE(hist->find_number("p90"), nullptr);
  ASSERT_NE(hist->find_number("p99"), nullptr);
  const obs::JsonValue* edges = hist->find_array("edges");
  ASSERT_NE(edges, nullptr);
  ASSERT_EQ(edges->array.size(), 6u);  // bins + 1
  EXPECT_DOUBLE_EQ(edges->array.front().number, 0.0);
  EXPECT_DOUBLE_EQ(edges->array.back().number, 10.0);
  for (std::size_t i = 1; i < edges->array.size(); ++i) {
    EXPECT_GT(edges->array[i].number, edges->array[i - 1].number);
  }
  h.reset();
  obs::set_metrics_enabled(false);
}

TEST(Metrics, DisabledCounterAllocatesNothing) {
  obs::set_metrics_enabled(false);
  obs::Counter& c = obs::metrics().counter("test.disabled_counter");
  c.reset();
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 1000; ++i) c.add();
  EXPECT_EQ(g_news.load(), before);
  EXPECT_EQ(c.value(), 0u);  // gated off: nothing recorded
}

TEST(Metrics, RegistryIsDeterministic) {
  obs::set_metrics_enabled(true);
  const auto run_workload = [] {
    obs::metrics().counter("det.a").add(3);
    obs::metrics().counter("det.b").add();
    obs::metrics().gauge("det.g").set(2.5);
    obs::HistogramMetric& h = obs::metrics().histogram("det.h", 0.0, 10.0, 5);
    h.observe(1.0);
    h.observe(7.5);
    h.observe(42.0);  // clamps into the top bucket
  };
  run_workload();
  const std::string first = obs::metrics().to_json();
  obs::metrics().reset_values();
  run_workload();
  const std::string second = obs::metrics().to_json();
  EXPECT_EQ(first, second);

  const auto doc = obs::parse_json(first);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* counters = doc->find_object("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->number_or("det.a", 0.0), 3.0);
  EXPECT_EQ(counters->number_or("det.b", 0.0), 1.0);
  const obs::JsonValue* gauges = doc->find_object("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->number_or("det.g", 0.0), 2.5);
  const obs::JsonValue* hists = doc->find_object("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::JsonValue* h = hists->find_object("det.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->number_or("count", 0.0), 3.0);
  obs::metrics().reset_values();
  obs::set_metrics_enabled(false);
}

TEST(Metrics, KindMismatchThrows) {
  obs::metrics().counter("kind.test");
  EXPECT_THROW(obs::metrics().gauge("kind.test"), std::runtime_error);
  EXPECT_THROW(obs::metrics().histogram("kind.test", 0, 1, 2), std::runtime_error);
}

TEST(ScopedPhase, AccumulatesIntoPhaseStatAndReport) {
  obs::run_report().reset();
  obs::set_run_report_path(testutil::test_tmp_dir() + "/phase_report.json");
  PhaseStat stat;
  for (int i = 0; i < 2; ++i) {
    obs::ScopedPhase phase("test.phase", &stat);
    volatile double x = 0.0;
    for (int k = 0; k < 10000; ++k) x = x + 1.0;
  }
  EXPECT_GT(stat.wall_s, 0.0);
  EXPECT_GE(stat.busy_s, stat.wall_s);
  const auto doc = obs::parse_json(obs::run_report().to_json());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* phases = doc->find_array("phases");
  ASSERT_NE(phases, nullptr);
  bool found = false;
  for (const obs::JsonValue& p : phases->array) {
    const obs::JsonValue* name = p.find_string("name");
    if (name != nullptr && name->str == "test.phase") {
      found = true;
      EXPECT_EQ(p.number_or("count", 0.0), 2.0);
      EXPECT_GT(p.number_or("wall_s", 0.0), 0.0);
    }
  }
  EXPECT_TRUE(found);
  obs::set_run_report_path("");
  obs::run_report().reset();
}

/// The design holds a pointer to its library: keep one for the process.
const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

/// Tiny refine-ready design, bench_refine_replay style.
struct Prepared {
  Design design;
  SteinerForest forest;

  explicit Prepared(int comb) : design(make(comb)), forest(build_forest(design)) {
    const StaResult sta = run_sta(design, forest, nullptr);
    design.set_clock_period(0.6 * sta.max_arrival);
  }

 private:
  static Design make(int comb) {
    GeneratorParams p;
    p.num_comb_cells = comb;
    p.num_registers = comb / 10;
    p.num_primary_inputs = 8;
    p.num_primary_outputs = 8;
    p.seed = 12;
    Design d = generate_design(lib(), p);
    place_design(d);
    return d;
  }
};

TEST(RefineTelemetry, JsonlSchemaAndIterationLog) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string jsonl = dir + "/iters.jsonl";
  const std::string report_path = dir + "/run.json";
  obs::run_report().reset();
  obs::set_iteration_log_path(jsonl);
  obs::set_run_report_path(report_path);

  Prepared p(150);
  const TimingGnn model(GnnConfig{}, lib().num_types());
  RefineOptions ropts;
  ropts.max_iterations = 4;
  const RefineResult r = refine_steiner_points(p.design, p.forest, model, ropts);

  obs::set_iteration_log_path("");
  ASSERT_TRUE(obs::flush_run_report());
  obs::set_run_report_path("");

  // In-memory log: one record per iteration, iter fields consecutive,
  // keep-best monotone.
  ASSERT_EQ(static_cast<int>(r.iteration_log.size()), r.iterations);
  double best = -1e30;
  for (std::size_t i = 0; i < r.iteration_log.size(); ++i) {
    const obs::RefineIterationRecord& rec = r.iteration_log[i];
    EXPECT_EQ(rec.iter, static_cast<int>(i));
    EXPECT_GE(rec.best_wns, best);
    best = rec.best_wns;
    EXPECT_GT(rec.theta, 0.0);
    EXPECT_GE(rec.wall_s, 0.0);
  }

  // JSONL stream: line-per-iteration, full schema.
  std::ifstream in(jsonl);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string error;
    const auto doc = obs::parse_json(line, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_NE(doc->find_string("design"), nullptr);
    for (const char* key : {"iter", "wns", "tns", "best_wns", "best_tns", "theta",
                            "grad_norm", "max_move", "lambda_w", "lambda_t", "wall_s"}) {
      EXPECT_NE(doc->find_number(key), nullptr) << key;
    }
    const obs::JsonValue* accept = doc->find("accept");
    ASSERT_NE(accept, nullptr);
    EXPECT_TRUE(accept->is_bool());
    ++lines;
  }
  EXPECT_EQ(lines, r.iterations);

  // Run report embeds the same refine run.
  const auto report = obs::parse_json(slurp(report_path));
  ASSERT_TRUE(report.has_value());
  const obs::JsonValue* refines = report->find_array("refine");
  ASSERT_NE(refines, nullptr);
  ASSERT_EQ(refines->array.size(), 1u);
  EXPECT_EQ(refines->array[0].number_or("iterations", -1.0),
            static_cast<double>(r.iterations));
  const obs::JsonValue* iters = refines->array[0].find_array("iters");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->array.size(), r.iteration_log.size());
  EXPECT_NE(report->find_object("metrics"), nullptr);
  obs::run_report().reset();
}

TEST(RunReport, OptionsAndPhasesSerializeDeterministically) {
  obs::RunReport report;
  report.set_option("b_key", "two");
  report.set_option("a_key", "one");
  report.set_option("b_key", "three");  // overwrite, no duplicate
  PhaseStat stat;
  stat.wall_s = 1.0;
  stat.busy_s = 2.0;
  report.add_phase("p", stat);
  report.add_phase("p", stat);
  const auto doc = obs::parse_json(report.to_json());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* options = doc->find_object("options");
  ASSERT_NE(options, nullptr);
  ASSERT_EQ(options->object.size(), 2u);
  EXPECT_EQ(options->object[0].first, "b_key");  // insertion order
  EXPECT_EQ(options->object[0].second.str, "three");
  const obs::JsonValue* phases = doc->find_array("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array.size(), 1u);
  EXPECT_EQ(phases->array[0].number_or("wall_s", 0.0), 2.0);
  EXPECT_EQ(phases->array[0].number_or("busy_s", 0.0), 4.0);
  EXPECT_EQ(phases->array[0].number_or("count", 0.0), 2.0);
  EXPECT_EQ(phases->array[0].number_or("utilization", 0.0), 2.0);
}

TEST(Json, ParserHandlesEscapesAndRejectsGarbage) {
  const auto doc = obs::parse_json(R"({"aA":"x\ny","n":-1.5e2,"b":[true,null]})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("aA")->str, "x\ny");
  EXPECT_EQ(doc->number_or("n", 0.0), -150.0);
  EXPECT_FALSE(obs::parse_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(obs::parse_json("{\"a\":").has_value());
  EXPECT_FALSE(obs::parse_json("").has_value());
}

}  // namespace
}  // namespace tsteiner
