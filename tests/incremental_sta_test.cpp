#include <gtest/gtest.h>

#include <cstring>

#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "sta/incremental.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/random_move.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

struct Fixture {
  Design design;
  SteinerForest forest;
};

Fixture make(std::uint64_t seed, int comb = 300) {
  GeneratorParams p;
  p.num_comb_cells = comb;
  p.num_registers = comb / 10;
  p.num_primary_inputs = 6;
  p.num_primary_outputs = 6;
  p.seed = seed;
  Fixture f{generate_design(lib(), p), {}};
  place_design(f.design);
  f.forest = build_forest(f.design);
  f.design.set_clock_period(1.0);
  return f;
}

/// Move all Steiner points of one tree and return the net id.
int move_one_net(SteinerForest& forest, std::size_t tree_idx, double dx) {
  SteinerTree& t = forest.trees[tree_idx % forest.trees.size()];
  for (SteinerNode& n : t.nodes) {
    if (n.is_steiner()) n.pos.x += dx;
  }
  return t.net;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a[i], b[i])) << what << " " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Every StaResult field, by bits: incremental STA is exact, not close.
void expect_results_equal(const StaResult& a, const StaResult& b) {
  expect_bits_equal(a.arrival, b.arrival, "arrival at pin");
  expect_bits_equal(a.slew, b.slew, "slew at pin");
  EXPECT_EQ(a.endpoints, b.endpoints);
  expect_bits_equal(a.endpoint_slack, b.endpoint_slack, "slack at endpoint");
  EXPECT_TRUE(same_bits(a.wns, b.wns)) << a.wns << " vs " << b.wns;
  EXPECT_TRUE(same_bits(a.tns, b.tns)) << a.tns << " vs " << b.tns;
  EXPECT_TRUE(same_bits(a.max_arrival, b.max_arrival)) << a.max_arrival << " vs " << b.max_arrival;
  EXPECT_TRUE(same_bits(a.worst_slew_ns, b.worst_slew_ns));
  EXPECT_TRUE(same_bits(a.worst_cap_pf, b.worst_cap_pf));
  EXPECT_EQ(a.num_violations, b.num_violations);
  EXPECT_EQ(a.num_slew_violations, b.num_slew_violations);
  EXPECT_EQ(a.num_cap_violations, b.num_cap_violations);
}

TEST(IncrementalSta, AnalyzeMatchesFullSta) {
  const Fixture f = make(111);
  IncrementalSta inc(f.design);
  const StaResult& r = inc.analyze(f.forest, nullptr);
  const StaResult full = run_sta(f.design, f.forest, nullptr);
  expect_results_equal(r, full);
}

TEST(IncrementalSta, SingleNetUpdateMatchesFull) {
  const Fixture f = make(112);
  IncrementalSta inc(f.design);
  inc.analyze(f.forest, nullptr);

  SteinerForest moved = f.forest;
  // Find a tree with Steiner points.
  int dirty_net = -1;
  for (std::size_t t = 0; t < moved.trees.size(); ++t) {
    if (moved.trees[t].num_steiner_nodes() > 0) {
      dirty_net = move_one_net(moved, t, 15.0);
      break;
    }
  }
  ASSERT_GE(dirty_net, 0);
  const StaResult& r = inc.update(moved, nullptr, {dirty_net});
  const StaResult full = run_sta(f.design, moved, nullptr);
  expect_results_equal(r, full);
}

TEST(IncrementalSta, MultiNetUpdateMatchesFull) {
  const Fixture f = make(113);
  IncrementalSta inc(f.design);
  inc.analyze(f.forest, nullptr);

  SteinerForest moved = f.forest;
  std::vector<int> dirty;
  int count = 0;
  for (std::size_t t = 0; t < moved.trees.size() && count < 8; ++t) {
    if (moved.trees[t].num_steiner_nodes() > 0) {
      dirty.push_back(move_one_net(moved, t, 8.0 + static_cast<double>(t % 5)));
      ++count;
    }
  }
  ASSERT_GT(dirty.size(), 2u);
  const StaResult& r = inc.update(moved, nullptr, dirty);
  const StaResult full = run_sta(f.design, moved, nullptr);
  expect_results_equal(r, full);
}

TEST(IncrementalSta, UpdateTouchesFarFewerCellsThanFull) {
  const Fixture f = make(114, 600);
  IncrementalSta inc(f.design);
  inc.analyze(f.forest, nullptr);
  SteinerForest moved = f.forest;
  int dirty_net = -1;
  for (std::size_t t = 0; t < moved.trees.size(); ++t) {
    if (moved.trees[t].num_steiner_nodes() > 0) {
      dirty_net = move_one_net(moved, t, 4.0);
      break;
    }
  }
  ASSERT_GE(dirty_net, 0);
  inc.update(moved, nullptr, {dirty_net});
  EXPECT_LT(inc.last_update_cell_count(),
            static_cast<long long>(f.design.cells().size()) / 2)
      << "one net's cone should be a small fraction of the design";
}

TEST(IncrementalSta, RepeatedUpdatesStayExact) {
  const Fixture f = make(115);
  IncrementalSta inc(f.design);
  inc.analyze(f.forest, nullptr);
  SteinerForest moved = f.forest;
  Rng rng(9);
  for (int round = 0; round < 5; ++round) {
    std::vector<int> dirty;
    for (int k = 0; k < 3; ++k) {
      const std::size_t t = rng.index(moved.trees.size());
      if (moved.trees[t].num_steiner_nodes() == 0) continue;
      dirty.push_back(move_one_net(moved, t, rng.uniform(-6.0, 6.0)));
    }
    if (dirty.empty()) continue;
    inc.update(moved, nullptr, dirty);
  }
  const StaResult full = run_sta(f.design, moved, nullptr);
  expect_results_equal(inc.result(), full);
}

TEST(IncrementalSta, RegisterDrivenNetUpdates) {
  // Moving a register's output net changes its CK->Q delay via the load.
  const Fixture f = make(116);
  IncrementalSta inc(f.design);
  inc.analyze(f.forest, nullptr);
  SteinerForest moved = f.forest;
  int dirty_net = -1;
  for (const Cell& c : f.design.cells()) {
    if (!f.design.is_register_cell(c.id)) continue;
    const int net = f.design.pin(c.output_pin).net;
    if (net < 0) continue;
    const int t = moved.net_to_tree[static_cast<std::size_t>(net)];
    if (t < 0 || moved.trees[static_cast<std::size_t>(t)].num_steiner_nodes() == 0) continue;
    dirty_net = move_one_net(moved, static_cast<std::size_t>(t), 20.0);
    break;
  }
  if (dirty_net < 0) GTEST_SKIP() << "no register net with Steiner points in this seed";
  const StaResult& r = inc.update(moved, nullptr, {dirty_net});
  const StaResult full = run_sta(f.design, moved, nullptr);
  expect_results_equal(r, full);
}

TEST(IncrementalSta, DuplicateDirtyNetsAreDeduplicated) {
  const Fixture f = make(117);
  IncrementalSta inc(f.design);
  inc.analyze(f.forest, nullptr);

  SteinerForest moved = f.forest;
  int dirty_net = -1;
  for (std::size_t t = 0; t < moved.trees.size(); ++t) {
    if (moved.trees[t].num_steiner_nodes() > 0) {
      dirty_net = move_one_net(moved, t, 12.0);
      break;
    }
  }
  ASSERT_GE(dirty_net, 0);

  // A unique list establishes the baseline cost and result.
  IncrementalSta once(f.design);
  once.analyze(f.forest, nullptr);
  const StaResult unique_result = once.update(moved, nullptr, {dirty_net});
  const long long unique_cells = once.last_update_cell_count();

  // The same net listed five times must cost the same and match exactly —
  // re-extracting a net twice would double-propagate its cone.
  const StaResult& dup_result =
      inc.update(moved, nullptr, {dirty_net, dirty_net, dirty_net, dirty_net, dirty_net});
  expect_results_equal(dup_result, unique_result);
  EXPECT_EQ(inc.last_update_cell_count(), unique_cells)
      << "duplicate dirty entries must not be re-processed";
  expect_results_equal(dup_result, run_sta(f.design, moved, nullptr));
}

TEST(IncrementalSta, EmptyDirtyListIsAFreeExactNoOp) {
  const Fixture f = make(119);
  IncrementalSta inc(f.design);
  const StaResult baseline = inc.analyze(f.forest, nullptr);
  // Nothing moved, nothing declared dirty: the update must return the cached
  // result bit-for-bit without re-propagating a single cell.
  const StaResult& r = inc.update(f.forest, nullptr, {});
  EXPECT_EQ(inc.last_update_cell_count(), 0);
  ASSERT_EQ(r.arrival.size(), baseline.arrival.size());
  for (std::size_t i = 0; i < r.arrival.size(); ++i) {
    EXPECT_EQ(r.arrival[i], baseline.arrival[i]) << "pin " << i;
    EXPECT_EQ(r.slew[i], baseline.slew[i]) << "pin " << i;
  }
  EXPECT_EQ(r.wns, baseline.wns);
  EXPECT_EQ(r.tns, baseline.tns);
  EXPECT_EQ(r.max_arrival, baseline.max_arrival);
  EXPECT_EQ(r.num_violations, baseline.num_violations);
  // And a later real update still works from the untouched cached state.
  SteinerForest moved = f.forest;
  int dirty_net = -1;
  for (std::size_t t = 0; t < moved.trees.size(); ++t) {
    if (moved.trees[t].num_steiner_nodes() > 0) {
      dirty_net = move_one_net(moved, t, 9.0);
      break;
    }
  }
  ASSERT_GE(dirty_net, 0);
  expect_results_equal(inc.update(moved, nullptr, {dirty_net}),
                       run_sta(f.design, moved, nullptr));
}

TEST(IncrementalSta, ZeroSinkDirtyNetIsSkipped) {
  // A net with a driver but no sinks (a dangling output mid-edit) has no
  // tree and no timing contribution; listing it dirty must be a no-op, not
  // a crash or a stale-state source.
  GeneratorParams p;
  p.num_comb_cells = 60;
  p.num_registers = 6;
  p.num_primary_inputs = 4;
  p.num_primary_outputs = 4;
  p.seed = 118;
  Design design = generate_design(lib(), p);
  // Append one cell whose output net never gets a sink.
  const int extra_cell = design.add_cell(lib().combinational_types()[0]);
  const int sinkless_net = design.add_net(design.cell(extra_cell).output_pin);
  place_design(design);
  SteinerForest forest = build_forest(design);
  design.set_clock_period(1.0);
  ASSERT_EQ(forest.net_to_tree[static_cast<std::size_t>(sinkless_net)], -1);

  IncrementalSta inc(design);
  inc.analyze(forest, nullptr);
  SteinerForest moved = forest;
  int moved_net = -1;
  for (std::size_t t = 0; t < moved.trees.size(); ++t) {
    if (moved.trees[t].num_steiner_nodes() > 0) {
      moved_net = move_one_net(moved, t, 10.0);
      break;
    }
  }
  ASSERT_GE(moved_net, 0);
  const StaResult& r =
      inc.update(moved, nullptr, {sinkless_net, moved_net, sinkless_net});
  expect_results_equal(r, run_sta(design, moved, nullptr));
}

}  // namespace
}  // namespace tsteiner
