// Micro-benchmarks (google-benchmark) of the computational kernels under
// TSteiner: RSMT construction, tape forward/backward (fresh recording vs
// retained-program replay), golden STA, and global routing throughput.
#include <benchmark/benchmark.h>

#include "flow/flow.hpp"
#include "gnn/model.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "sta/sta.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/gradient.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

Design make_star(int pins, Rng& rng) {
  Design d("bench", &lib());
  d.set_die({{0, 0}, {400, 400}});
  const int drv = d.add_cell(lib().find("BUF_X1"));
  d.cell(drv).pos = {200, 200};
  const int net = d.add_net(d.cell(drv).output_pin);
  for (int i = 0; i < pins; ++i) {
    const int c = d.add_cell(lib().find("INV_X1"));
    d.cell(c).pos = {rng.uniform_int(0, 400), rng.uniform_int(0, 400)};
    d.connect_sink(net, d.cell(c).input_pins[0]);
  }
  return d;
}

void BM_RsmtConstruction(benchmark::State& state) {
  Rng rng(1);
  Design d = make_star(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_rsmt(d, 0));
  }
}
BENCHMARK(BM_RsmtConstruction)->Arg(3)->Arg(6)->Arg(10)->Arg(20)->Arg(40);

struct Prepared {
  Design design;
  SteinerForest forest;
  std::shared_ptr<const GraphCache> cache;
};

Prepared prepare(int comb) {
  GeneratorParams p;
  p.num_comb_cells = comb;
  p.num_registers = comb / 10;
  p.num_primary_inputs = 8;
  p.num_primary_outputs = 8;
  p.seed = 12;
  Prepared out{generate_design(lib(), p), {}, nullptr};
  place_design(out.design);
  out.forest = build_forest(out.design);
  out.design.set_clock_period(1.0);
  out.cache = build_graph_cache(out.design, out.forest);
  return out;
}

void BM_GoldenSta(benchmark::State& state) {
  Prepared p = prepare(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sta(p.design, p.forest, nullptr));
  }
}
BENCHMARK(BM_GoldenSta)->Arg(200)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_GlobalRoute(benchmark::State& state) {
  Prepared p = prepare(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(global_route(p.design, p.forest));
  }
}
BENCHMARK(BM_GlobalRoute)->Arg(200)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_EvaluatorForward(benchmark::State& state) {
  Prepared p = prepare(static_cast<int>(state.range(0)));
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  const auto xs = p.forest.gather_x();
  const auto ys = p.forest.gather_y();
  PenaltyWeights w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_timing(model, *p.cache, p.design, xs, ys, w));
  }
}
BENCHMARK(BM_EvaluatorForward)->Arg(200)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_EvaluatorBackward(benchmark::State& state) {
  Prepared p = prepare(static_cast<int>(state.range(0)));
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  const auto xs = p.forest.gather_x();
  const auto ys = p.forest.gather_y();
  PenaltyWeights w;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_timing_gradients(model, *p.cache, p.design, xs, ys, w));
  }
}
BENCHMARK(BM_EvaluatorBackward)->Arg(200)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_EvaluatorRecord(benchmark::State& state) {
  Prepared p = prepare(static_cast<int>(state.range(0)));
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  const auto xs = p.forest.gather_x();
  const auto ys = p.forest.gather_y();
  PenaltyWeights w;
  for (auto _ : state) {
    GradientEvaluator evaluator(model, *p.cache, p.design, xs, ys, w);
    benchmark::DoNotOptimize(evaluator.program().stats());
  }
}
BENCHMARK(BM_EvaluatorRecord)->Arg(200)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

// NOTE: the replay bench queries the evaluator at *unchanged* coordinates,
// so dirty tracking skips the whole forward pass after the first
// iteration: it measures the pruned backward replay alone (the refinement
// loop's gradient cost back at the kept iterate after a rejected step,
// whose trial evaluation leaves the program in place). Use
// bench_refine_replay for the full moving-coordinates loop.
void BM_EvaluatorReplayGrad(benchmark::State& state) {
  Prepared p = prepare(static_cast<int>(state.range(0)));
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());
  const auto xs = p.forest.gather_x();
  const auto ys = p.forest.gather_y();
  PenaltyWeights w;
  GradientEvaluator evaluator(model, *p.cache, p.design, xs, ys, w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.gradients(xs, ys, w));
  }
}
BENCHMARK(BM_EvaluatorReplayGrad)
    ->Arg(200)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_TapeMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Tensor a = Tensor::randn(rng, n, 16, 1.0);
  const Tensor b = Tensor::randn(rng, 16, 16, 1.0);
  for (auto _ : state) {
    Tape tape;
    const Value va = tape.leaf(a, true);
    const Value vb = tape.leaf(b, true);
    const Value out = tape.sum_all(tape.matmul(va, vb));
    tape.backward(out);
    benchmark::DoNotOptimize(tape.grad(va));
  }
}
BENCHMARK(BM_TapeMatmul)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tsteiner

BENCHMARK_MAIN();
