// Micro-benchmarks (google-benchmark) of the computational kernels under
// TSteiner: RSMT construction, the tape's dense-layer kernel (forward and
// backward), golden STA, global routing throughput, and a timing-evaluator
// fit at a given pool width. Evaluator record and replay timings live in
// tsbench's `tape.*` layer metrics.
#include <benchmark/benchmark.h>

#include "autodiff/tape.hpp"
#include "flow/flow.hpp"
#include "gnn/trainer.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "sta/sta.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/random_move.hpp"
#include "util/parallel.hpp"

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
};

Prepared prepare(int comb) {
  GeneratorParams p;
  p.num_comb_cells = comb;
  p.num_registers = comb / 10;
  p.num_primary_inputs = 8;
  p.num_primary_outputs = 8;
  p.seed = 12;
  Prepared out{generate_design(lib(), p), {}};
  place_design(out.design);
  out.forest = build_forest(out.design);
  out.design.set_clock_period(1.0);
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

/// One GNN-shaped layer, act([x1 | x2 | x3] W + b) with 12 + 12 + 1 input
/// columns (the broadcast message's shape), recorded and back-propagated;
/// range(1) picks the activation (1 = relu, 2 = tanh) and range(2) the
/// output width (1: a head's last layer, 12: the hidden width, 16: the
/// delay heads' width).
void BM_TapeDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto act = static_cast<Tape::Act>(state.range(1));
  const auto cols = static_cast<std::size_t>(state.range(2));
  Rng rng(3);
  const Tensor x1 = Tensor::randn(rng, n, 12, 1.0);
  const Tensor x2 = Tensor::randn(rng, n, 12, 1.0);
  const Tensor x3 = Tensor::randn(rng, n, 1, 1.0);
  const Tensor w = Tensor::randn(rng, 25, cols, 0.3);
  const Tensor b = Tensor::randn(rng, 1, cols, 0.1);
  for (auto _ : state) {
    Tape tape;
    const Value v1 = tape.leaf(x1, true);
    const Value vw = tape.leaf(w, true);
    const Value layer = tape.dense(
        {{{v1, tape.leaf(x2, true), tape.leaf(x3, true)}, vw}}, tape.leaf(b, true), act);
    tape.backward(tape.sum_all(layer));
    benchmark::DoNotOptimize(tape.grad(v1));
    benchmark::DoNotOptimize(tape.grad(vw));
  }
}
BENCHMARK(BM_TapeDense)
    ->ArgNames({"rows", "act", "cols"})
    ->ArgsProduct({{1000, 10000, 50000},
                   {static_cast<int>(Tape::Act::kRelu), static_cast<int>(Tape::Act::kTanh)},
                   {1, 12, 16}})
    ->Unit(benchmark::kMicrosecond);

/// Trainer::fit, 6 epochs, on a 1k-cell design and two random_disturb
/// variants of it, each labeled by pre-routing STA; range(0) is the pool
/// width. Reports process CPU next to wall time (training at width 4 should
/// cost no more CPU than at width 1) and the pool jobs one fit dispatches.
void BM_TrainerFit(benchmark::State& state) {
  set_parallel_threads(static_cast<std::size_t>(state.range(0)));
  Prepared p = prepare(1000);
  const auto cache = build_graph_cache(p.design, p.forest);
  std::vector<TrainingSample> samples;
  for (std::uint64_t seed : {0, 1, 2}) {
    const SteinerForest f =
        seed == 0 ? p.forest : random_disturb(p.forest, p.design.die(), 20.0, seed);
    const StaResult sta = run_sta(p.design, f, nullptr);
    TrainingSample s;
    s.cache = cache;
    s.xs = f.gather_x();
    s.ys = f.gather_y();
    s.arrival_label = sta.arrival;
    s.endpoint_pins = sta.endpoints;
    samples.push_back(std::move(s));
  }
  TrainOptions topt;
  topt.epochs = 6;
  const std::uint64_t jobs0 = parallel_jobs();
  for (auto _ : state) {
    TimingGnn model(GnnConfig{}, lib().num_types());
    Trainer trainer(&model, topt);
    benchmark::DoNotOptimize(trainer.fit(samples));
  }
  state.counters["pool_jobs"] = benchmark::Counter(static_cast<double>(parallel_jobs() - jobs0),
                                                   benchmark::Counter::kAvgIterations);
  set_parallel_threads(0);
}
BENCHMARK(BM_TrainerFit)
    ->ArgName("width")
    ->Arg(1)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tsteiner

BENCHMARK_MAIN();
