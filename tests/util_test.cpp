#include <gtest/gtest.h>

#include <thread>

#include "util/geometry.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace tsteiner {
namespace {

TEST(Geometry, ManhattanDistanceInt) {
  EXPECT_EQ(manhattan(PointI{0, 0}, PointI{3, 4}), 7);
  EXPECT_EQ(manhattan(PointI{-2, 5}, PointI{2, -5}), 14);
  EXPECT_EQ(manhattan(PointI{1, 1}, PointI{1, 1}), 0);
}

TEST(Geometry, ManhattanDistanceFloat) {
  EXPECT_DOUBLE_EQ(manhattan(PointF{0.5, 0.5}, PointF{1.5, 2.0}), 2.5);
}

TEST(Geometry, RoundToInteger) {
  EXPECT_EQ(round_to_i(PointF{1.4, 2.6}), (PointI{1, 3}));
  EXPECT_EQ(round_to_i(PointF{-1.5, 1.5}), (PointI{-2, 2}));
  EXPECT_EQ(round_to_i(PointF{0.0, 0.0}), (PointI{0, 0}));
}

TEST(Geometry, RectContainsAndExpand) {
  RectI r{{0, 0}, {10, 5}};
  EXPECT_TRUE(r.contains(PointI{0, 0}));
  EXPECT_TRUE(r.contains(PointI{10, 5}));
  EXPECT_FALSE(r.contains(PointI{11, 0}));
  EXPECT_TRUE(r.contains(PointF{9.999, 4.999}));
  r.expand({-3, 8});
  EXPECT_EQ(r.lo, (PointI{-3, 0}));
  EXPECT_EQ(r.hi, (PointI{10, 8}));
  EXPECT_EQ(r.half_perimeter(), 13 + 8);
}

TEST(Geometry, ClampIntoBox) {
  const RectI box{{0, 0}, {10, 10}};
  EXPECT_EQ(clamp_into({-5.0, 5.0}, box).x, 0.0);
  EXPECT_EQ(clamp_into({15.0, 5.0}, box).x, 10.0);
  EXPECT_EQ(clamp_into({5.0, 5.0}, box), (PointF{5.0, 5.0}));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, FanoutAtLeastOne) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const auto f = rng.fanout(2.5);
    EXPECT_GE(f, 1);
    sum += static_cast<double>(f);
  }
  // mean should be near the requested 2.5 (generous tolerance)
  EXPECT_NEAR(sum / 2000.0, 2.5, 0.5);
}

TEST(Rng, ForkIndependent) {
  Rng a(42);
  Rng child = a.fork();
  // fork advances the parent; child stream differs from parent's next draws
  EXPECT_NE(a.uniform_int(0, 1u << 30), child.uniform_int(0, 1u << 30));
}

TEST(Log, ScopedTagInstallsAndRestores) {
  EXPECT_EQ(log_tag(), "");
  {
    ScopedLogTag outer("sess=s1");
    EXPECT_EQ(log_tag(), "sess=s1");
    {
      ScopedLogTag inner("c4");
      EXPECT_EQ(log_tag(), "c4");
    }
    EXPECT_EQ(log_tag(), "sess=s1");
    {
      const std::string long_tag(kMaxLogTagLen + 10, 'x');
      ScopedLogTag inner(long_tag);
      EXPECT_EQ(log_tag(), long_tag.substr(0, kMaxLogTagLen));
    }
    EXPECT_EQ(log_tag(), "sess=s1");
  }
  EXPECT_EQ(log_tag(), "");
}

TEST(Log, TagIsThreadLocal) {
  ScopedLogTag main_tag("main-tag");
  std::string seen_in_thread = "unset";
  std::thread t([&] {
    seen_in_thread = log_tag();  // fresh thread: no tag inherited
    set_log_tag("worker");
    EXPECT_EQ(log_tag(), "worker");
  });
  t.join();
  EXPECT_EQ(seen_in_thread, "");
  EXPECT_EQ(log_tag(), "main-tag");  // the worker's tag never leaked here
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, R2PerfectFit) {
  const std::vector<double> g{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r2_score(g, g), 1.0);
}

TEST(Stats, R2MeanPredictorIsZero) {
  const std::vector<double> g{1.0, 2.0, 3.0};
  const std::vector<double> p{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(r2_score(g, p), 0.0);
}

TEST(Stats, R2WorseThanMeanIsNegative) {
  const std::vector<double> g{1.0, 2.0, 3.0};
  const std::vector<double> p{3.0, 2.0, 1.0};
  EXPECT_LT(r2_score(g, p), 0.0);
}

TEST(Stats, PearsonSigns) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> up{2.0, 4.0, 6.0};
  const std::vector<double> down{6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, down), -1.0, 1e-12);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Stats, HistogramBuckets) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);   // bucket 0
  h.add(0.30);  // bucket 1
  h.add(0.99);  // bucket 3
  h.add(-5.0);  // clamped to bucket 0
  h.add(5.0);   // clamped to bucket 3
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 0u);
  EXPECT_EQ(h.counts[3], 2u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_center(0), 0.125);
}

TEST(Stats, HistogramBucketEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bucket_edge(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_edge(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bucket_edge(5), 10.0);  // upper edge of the last bucket
}

TEST(Stats, HistogramPercentile) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);  // empty histogram
  h.add(5.0);  // lone sample: every percentile is its bucket's midpoint
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 5.0);
  for (double x : {1.0, 3.0, 7.0}) h.add(x);
  // Four samples at bucket midpoints 1/3/5/7: rank interpolation lands the
  // median on the shared edge of the two middle buckets.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 4.0);
  EXPECT_DOUBLE_EQ(h.p50(), h.percentile(50.0));
  EXPECT_LE(h.percentile(99.0), 8.0);  // within the top occupied bucket
  EXPECT_GE(h.percentile(99.0), 6.0);
  // Monotone in q.
  double prev = -1.0;
  for (double q = 0.0; q <= 100.0; q += 5.0) {
    EXPECT_GE(h.percentile(q), prev);
    prev = h.percentile(q);
  }
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"a", Table::num(1.5, 2)});
  t.add_row({"bb", Table::num(10ll)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("10"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Timer, MeasuresElapsed) {
  WallTimer timer;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(timer.seconds(), 0.0);
}

TEST(Timer, RuntimeBreakdownTotal) {
  // Every stage starts at zero and reads as serial until timed.
  const RuntimeBreakdown rb;
  for (const PhaseStat* p : {&rb.global_route, &rb.detailed_route, &rb.sta}) {
    EXPECT_EQ(p->wall_s, 0.0);
    EXPECT_EQ(p->busy_s, 0.0);
    EXPECT_EQ(p->utilization(), 1.0);
  }
  PhaseStat stat;
  stat.wall_s = 2.0;
  stat.busy_s = 6.0;
  EXPECT_DOUBLE_EQ(stat.utilization(), 3.0);
}

}  // namespace
}  // namespace tsteiner
