// tsbench: the sign-off flow benchmark.
//
//   tsbench --workload refine|signoff|serve --seed N --seconds S --trace 0|1
//           [--smoke] [--commit ID]
//
// Runs one workload through the library's public API in the current working
// directory, checks its outputs bit-for-bit against the direct flow, and
// prints one JSON object as the last line of stdout:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones (see README.md). Exit status is 0 only when every check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/parallel.hpp"

namespace {

using namespace tsbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "tsbench: %s\nusage: tsbench --workload refine|signoff|serve --seed N "
               "--seconds S --trace 0|1 [--smoke] [--commit ID]\n",
               why);
  return 2;
}

std::string metrics_json(Report& report, const std::vector<MetricSpec>& specs) {
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = report.metrics.find(specs[i].name);
    double v = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      report.fail(std::string("metric ") + specs[i].name + " is not finite");
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
      have_seconds = true;
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (a == "--commit" && has_value) {
      commit = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage("missing argument");
  if (args.seconds <= 0.0) return usage("--seconds must be positive");
  const std::map<std::string, void (*)(const Args&, Report&)> workloads = {
      {"refine", run_refine}, {"signoff", run_signoff}, {"serve", run_serve}};
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }

  const int clients = args.workload == "serve" ? 4 : 0;
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"smoke\": %s, \"nproc\": %u, \"pool_width\": %zu, \"clients\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.smoke ? "true" : "false", std::thread::hardware_concurrency(),
      tsteiner::parallel_threads(), clients, TSBENCH_BUILD_TYPE, TSBENCH_COMPILER,
      commit.c_str());
  std::fflush(stdout);

  Report report;
  try {
    workload->second(args, report);
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  report.set("peak_rss_mb", peak_rss_mb());
  if (report.attempted < 1) report.fail("no operation was attempted");

  const std::string metrics =
      metrics_json(report, args.trace ? per_layer_specs() : end_to_end_specs());
  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", std::max(1LL, report.attempted), report.failed,
              metrics.c_str());
  return correct ? 0 : 1;
}
