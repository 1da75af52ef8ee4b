// TSteinerDB warm-restore bench: runs build_and_train_suite() cold (generate,
// place, label, train, snapshot), then a second time warm from the snapshot,
// and checks that every restored design reproduces its sign-off metrics
// bit-exactly and every label vector matches. Results land in BENCH_db.json;
// the process exits nonzero on any mismatch so CI can gate on it.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.hpp"
#include "util/timer.hpp"

using namespace tsteiner;

namespace {

struct SuiteObservation {
  std::vector<SignoffMetrics> metrics;
  std::vector<std::vector<double>> labels;
  std::vector<double> model_params;
};

SuiteObservation observe(const TrainedSuite& suite) {
  SuiteObservation obs;
  for (const PreparedDesign& pd : suite.designs) {
    obs.metrics.push_back(pd.flow->run_signoff(pd.flow->initial_forest()).metrics);
  }
  for (const TrainingSample& s : suite.base_samples) obs.labels.push_back(s.arrival_label);
  if (suite.model != nullptr) {
    for (const Tensor& p : suite.model->parameters()) {
      for (std::size_t i = 0; i < p.size(); ++i) obs.model_params.push_back(p[i]);
    }
  }
  return obs;
}

bool bit_identical(const SuiteObservation& a, const SuiteObservation& b) {
  if (a.metrics.size() != b.metrics.size() || a.labels.size() != b.labels.size() ||
      a.model_params.size() != b.model_params.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    if (std::memcmp(&a.metrics[i], &b.metrics[i], sizeof(SignoffMetrics)) != 0) return false;
  }
  for (std::size_t i = 0; i < a.labels.size(); ++i) {
    if (a.labels[i].size() != b.labels[i].size()) return false;
    if (std::memcmp(a.labels[i].data(), b.labels[i].data(),
                    a.labels[i].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return std::memcmp(a.model_params.data(), b.model_params.data(),
                     a.model_params.size() * sizeof(double)) == 0;
}

}  // namespace

int main() {
  SuiteOptions opts = bench::default_suite_options();
  opts.train.epochs = env_epochs(6);  // restore skips training entirely anyway

  const char* db_path = "bench_db_snapshot.tsdb";
  std::remove(db_path);
  setenv("TSTEINER_DB", db_path, 1);

  std::printf("cold run (scale %.3f, %d epochs) ...\n", opts.scale, opts.train.epochs);
  WallTimer cold_timer;
  const TrainedSuite cold = build_and_train_suite(opts);
  const double cold_s = cold_timer.seconds();
  const SuiteObservation cold_obs = observe(cold);

  std::printf("warm run (restoring %s) ...\n", db_path);
  WallTimer warm_timer;
  const TrainedSuite warm = build_and_train_suite(opts);
  const double warm_s = warm_timer.seconds();
  const SuiteObservation warm_obs = observe(warm);

  const bool identical = bit_identical(cold_obs, warm_obs);
  const double speedup = warm_s > 1e-9 ? cold_s / warm_s : 0.0;
  std::printf("cold %.2fs, warm %.2fs, speedup %.1fx, bit_identical %s\n", cold_s, warm_s,
              speedup, identical ? "yes" : "NO");

  FILE* f = std::fopen("BENCH_db.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"scale\": %.4f,\n  \"epochs\": %d,\n", opts.scale,
                 opts.train.epochs);
    std::fprintf(f, "  \"designs\": %zu,\n", cold.designs.size());
    std::fprintf(f, "  \"cold_s\": %.3f,\n  \"warm_s\": %.3f,\n  \"speedup\": %.2f,\n",
                 cold_s, warm_s, speedup);
    std::fprintf(f, "  \"bit_identical\": %s\n}\n", identical ? "true" : "false");
    std::fclose(f);
    std::printf("Wrote BENCH_db.json\n");
  }
  return identical ? 0 : 1;
}
