// Unit + integration tests for the shared deterministic thread pool
// (util/parallel.hpp) and the determinism contract of the parallel hot
// paths: refine + full STA must be bit-identical at any pool width.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "gnn/model.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "sta/sta.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/refine.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

/// Restores the pool default width when a test that overrides it exits.
struct PoolWidthGuard {
  ~PoolWidthGuard() { set_parallel_threads(0); }
};

/// Work per index that makes parallel_for hand out chunks of `len` indices.
constexpr std::size_t work_for_chunk(std::size_t len) { return kChunkWork / len; }

TEST(ParallelFor, ChunkLengthFollowsWorkPerIndex) {
  EXPECT_EQ(chunk_length(0), kChunkWork);
  EXPECT_EQ(chunk_length(1), kChunkWork);
  EXPECT_EQ(chunk_length(work_for_chunk(7)), 7u);
  EXPECT_EQ(chunk_length(kChunkWork), 1u);
  EXPECT_EQ(chunk_length(10 * kChunkWork), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  PoolWidthGuard guard;
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(width);
    std::vector<int> hits(1013, 0);
    parallel_for(0, hits.size(), work_for_chunk(7), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at width " << width;
    }
  }
}

TEST(ParallelFor, EmptyAndSingleChunkRanges) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  parallel_for(0, 3, 100, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 3u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, MaxThreadsOneIsSerial) {
  PoolWidthGuard guard;
  set_parallel_threads(4);
  // With max_threads=1 the whole range arrives as one chunk on the caller.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(
      0, 100, work_for_chunk(10),
      [&](std::size_t lo, std::size_t hi) { chunks.push_back({lo, hi}); }, 1);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 100}));
}

TEST(ParallelFor, SmallWorkRunsInline) {
  PoolWidthGuard guard;
  set_parallel_threads(4);
  const std::thread::id caller = std::this_thread::get_id();
  const std::uint64_t jobs0 = parallel_jobs();
  // 100 indices of 8 ops each fit in one chunk: one call on the caller.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(0, 100, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    chunks.push_back({lo, hi});
  });
  // Exactly one chunk of work, the largest range that stays inline.
  parallel_for(0, 4, kChunkWork / 4, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    chunks.push_back({lo, hi});
  });
  // A reduction over many fold chunks whose total work is still one chunk.
  const std::size_t n = kChunkWork / 2;
  const std::size_t sum = parallel_reduce(
      0, n, 64, std::size_t{0},
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return hi - lo;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  EXPECT_EQ(sum, n);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 100}));
  EXPECT_EQ(chunks[1], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(parallel_jobs(), jobs0) << "below-threshold work woke the pool";
}

TEST(ParallelFor, LargeWorkUsesPool) {
  PoolWidthGuard guard;
  set_parallel_threads(4);
  const std::uint64_t jobs0 = parallel_jobs();
  // Four chunks of work: four fixed subranges of kChunkWork indices.
  const std::size_t n = 4 * kChunkWork;
  std::vector<std::size_t> chunk_hi(4, 0);
  parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    ASSERT_EQ(lo % kChunkWork, 0u);
    chunk_hi[lo / kChunkWork] = hi;
  });
  for (std::size_t c = 0; c < chunk_hi.size(); ++c) {
    EXPECT_EQ(chunk_hi[c], (c + 1) * kChunkWork);
  }
  EXPECT_EQ(parallel_jobs(), jobs0 + 1);
  // The same call at width 1 stays on the caller and off the pool.
  set_parallel_threads(1);
  parallel_for(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, n);
  });
  EXPECT_EQ(parallel_jobs(), jobs0 + 1);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  PoolWidthGuard guard;
  set_parallel_threads(4);
  std::vector<int> hits(64, 0);
  parallel_for(0, 4, kChunkWork, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t outer = lo; outer < hi; ++outer) {
      parallel_for(0, 16, work_for_chunk(2), [&](std::size_t ilo, std::size_t ihi) {
        for (std::size_t i = ilo; i < ihi; ++i) ++hits[outer * 16 + i];
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  PoolWidthGuard guard;
  set_parallel_threads(4);
  EXPECT_THROW(
      parallel_for(0, 100, kChunkWork,
                   [&](std::size_t lo, std::size_t) {
                     if (lo == 57) throw std::runtime_error("chunk 57 failed");
                   }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> sum{0};
  parallel_for(0, 10, kChunkWork, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelReduce, BitIdenticalAcrossWidths) {
  PoolWidthGuard guard;
  // 10007 elements fold inline at every width; 4 * kChunkWork elements at
  // grain 64 make enough fold chunks to reach the pool.
  for (const std::size_t n : {std::size_t{10007}, 4 * kChunkWork}) {
    SCOPED_TRACE(n);
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = std::sin(static_cast<double>(i) * 0.31) * 1e3;
    }
    auto reduce_sum = [&] {
      return parallel_reduce(
          0, xs.size(), 64, 0.0,
          [&](std::size_t lo, std::size_t hi) {
            double s = 0.0;
            for (std::size_t i = lo; i < hi; ++i) s += xs[i];
            return s;
          },
          [](double a, double b) { return a + b; });
    };
    const bool pooled = n == 4 * kChunkWork;
    set_parallel_threads(1);
    const std::uint64_t jobs0 = parallel_jobs();
    const double serial = reduce_sum();
    EXPECT_EQ(parallel_jobs(), jobs0) << "width 1 dispatched to the pool";
    for (const std::size_t width : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
      set_parallel_threads(width);
      const std::uint64_t jobs1 = parallel_jobs();
      const double parallel = reduce_sum();
      EXPECT_EQ(parallel_jobs(), jobs1 + (pooled ? 1 : 0)) << "width " << width;
      EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
          << "width " << width << ": " << serial << " vs " << parallel;
    }
  }
}

TEST(ParallelReduce, OrderedCombine) {
  // Non-commutative combine: concatenation must come out in chunk order.
  const std::string s = parallel_reduce(
      0, 10, 3, std::string(),
      [&](std::size_t lo, std::size_t hi) {
        std::string part;
        for (std::size_t i = lo; i < hi; ++i) part += static_cast<char>('a' + i);
        return part;
      },
      [](std::string a, std::string b) { return a + b; });
  EXPECT_EQ(s, "abcdefghij");
}

TEST(ThreadRequest, NegativeClampsToPoolDefault) {
  EXPECT_EQ(clamp_thread_request(-1), 0);
  EXPECT_EQ(clamp_thread_request(-100), 0);
  EXPECT_EQ(clamp_thread_request(0), 0);
  EXPECT_EQ(clamp_thread_request(1), 1);
  EXPECT_EQ(clamp_thread_request(8), 8);
}

TEST(ThreadRequest, RsmtNegativeThreadsBuildSameForest) {
  GeneratorParams p;
  p.num_comb_cells = 80;
  p.num_registers = 8;
  p.num_primary_inputs = 3;
  p.num_primary_outputs = 3;
  p.seed = 5;
  Design d = generate_design(lib(), p);
  place_design(d);
  RsmtOptions serial;
  serial.threads = 1;
  RsmtOptions negative;
  negative.threads = -7;  // clamps to 0 = pool default
  const SteinerForest a = build_forest(d, serial);
  const SteinerForest b = build_forest(d, negative);
  ASSERT_EQ(a.trees.size(), b.trees.size());
  EXPECT_EQ(a.net_to_tree, b.net_to_tree);
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    ASSERT_EQ(a.trees[t].nodes.size(), b.trees[t].nodes.size());
    for (std::size_t n = 0; n < a.trees[t].nodes.size(); ++n) {
      EXPECT_EQ(a.trees[t].nodes[n].pos, b.trees[t].nodes[n].pos);
    }
  }
}

TEST(PhaseStat, ScopedTimerAccumulatesWallAndBusy) {
  PhaseStat stat;
  {
    ScopedTimer timer(stat);
    // Four chunks of work, so pool workers (if any) take part.
    parallel_for(0, 4 * kChunkWork, 1, [&](std::size_t lo, std::size_t hi) {
      volatile double x = 0.0;
      for (std::size_t i = lo; i < hi; ++i) x = x + static_cast<double>(i);
    });
  }
  EXPECT_GT(stat.wall_s, 0.0);
  EXPECT_GE(stat.busy_s, stat.wall_s);  // busy includes the caller's wall time
  EXPECT_GE(stat.utilization(), 1.0);
}

/// Bit-exact equality of double vectors (memcmp, not EXPECT_DOUBLE_EQ).
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << what;
  }
}

struct SignoffSnapshot {
  double wns = 0.0;
  double tns = 0.0;
  std::vector<double> arrival;
  std::vector<double> xs;
  std::vector<double> ys;
  std::uint64_t refine_jobs = 0;  ///< pool dispatches made by the refine call
};

/// Refine + full sign-off STA on a seeded design at the current pool width.
SignoffSnapshot run_refine_and_sta(int comb_cells) {
  GeneratorParams p;
  p.num_comb_cells = comb_cells;
  p.num_registers = comb_cells / 10;
  p.num_primary_inputs = 4;
  p.num_primary_outputs = 4;
  p.seed = 91;
  Design d = generate_design(lib(), p);
  place_design(d);
  SteinerForest forest = build_forest(d);
  const StaResult pre = run_sta(d, forest, nullptr);
  d.set_clock_period(0.6 * pre.max_arrival);

  GnnConfig cfg;
  cfg.hidden = 8;
  const TimingGnn model(cfg, lib().num_types());
  RefineOptions ropts;
  ropts.max_iterations = 4;
  const std::uint64_t jobs0 = parallel_jobs();
  const RefineResult refined = refine_steiner_points(d, forest, model, ropts);
  const std::uint64_t refine_jobs = parallel_jobs() - jobs0;

  const StaResult sta = run_sta(d, refined.forest, nullptr);
  SignoffSnapshot snap;
  snap.refine_jobs = refine_jobs;
  snap.wns = sta.wns;
  snap.tns = sta.tns;
  snap.arrival = sta.arrival;
  snap.xs = refined.forest.gather_x();
  snap.ys = refined.forest.gather_y();
  return snap;
}

TEST(Determinism, RefineAndStaBitIdenticalAtOneAndFourThreads) {
  PoolWidthGuard guard;
  // 160 cells keeps most tape kernels inline; 1200 cells puts the refine
  // loop's larger kernels on the pool.
  for (const int comb_cells : {160, 1200}) {
    SCOPED_TRACE(comb_cells);
    set_parallel_threads(1);
    const std::uint64_t jobs0 = parallel_jobs();
    const SignoffSnapshot serial = run_refine_and_sta(comb_cells);
    EXPECT_EQ(parallel_jobs(), jobs0) << "width 1 dispatched to the pool";
    set_parallel_threads(4);
    const std::uint64_t jobs1 = parallel_jobs();
    const SignoffSnapshot parallel = run_refine_and_sta(comb_cells);
    EXPECT_GT(parallel_jobs(), jobs1) << "width 4 never reached the pool";
    if (comb_cells >= 1200) {
      EXPECT_GT(parallel.refine_jobs, 0u);
    }

    EXPECT_EQ(std::memcmp(&serial.wns, &parallel.wns, sizeof(double)), 0)
        << "WNS " << serial.wns << " vs " << parallel.wns;
    EXPECT_EQ(std::memcmp(&serial.tns, &parallel.tns, sizeof(double)), 0)
        << "TNS " << serial.tns << " vs " << parallel.tns;
    expect_bits_equal(serial.arrival, parallel.arrival, "arrival vector");
    expect_bits_equal(serial.xs, parallel.xs, "refined x coordinates");
    expect_bits_equal(serial.ys, parallel.ys, "refined y coordinates");
  }
}

}  // namespace
}  // namespace tsteiner
