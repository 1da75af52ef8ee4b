#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "droute/detailed_route.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "steiner/rsmt.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

struct Prep {
  Design design;
  SteinerForest forest;
  GlobalRouteResult gr;
};

Prep prep(std::uint64_t seed, double cap_scale = 1.0, int cells = 250) {
  GeneratorParams p;
  p.num_comb_cells = cells;
  p.num_registers = 25;
  p.num_primary_inputs = 6;
  p.num_primary_outputs = 6;
  p.seed = seed;
  Prep out{generate_design(lib(), p), {}, {}};
  place_design(out.design);
  out.forest = build_forest(out.design);
  RouterOptions ro;
  if (cap_scale != 1.0) {
    const GlobalRouteResult probe = global_route(out.design, out.forest, ro);
    ro.fixed_h_cap = probe.calibrated_h_cap * cap_scale;
    ro.fixed_v_cap = probe.calibrated_v_cap * cap_scale;
  }
  out.gr = global_route(out.design, out.forest, ro);
  return out;
}

TEST(DetailedRoute, ProducesPositiveMetrics) {
  const Prep p = prep(61);
  const DetailedRouteResult dr = detailed_route(p.design, p.forest, p.gr);
  EXPECT_GT(dr.wirelength_dbu, 0.0);
  EXPECT_GT(dr.num_vias, 0);
  EXPECT_GE(dr.num_drvs, 0);
}

TEST(DetailedRoute, WirelengthAboveGlobalRoute) {
  const Prep p = prep(62);
  const DetailedRouteResult dr = detailed_route(p.design, p.forest, p.gr);
  EXPECT_GE(dr.wirelength_dbu, p.gr.wirelength_dbu);
  EXPECT_LE(dr.wirelength_dbu, p.gr.wirelength_dbu * 1.25);
}

TEST(DetailedRoute, ViasCountBendsAndPinAccess) {
  const Prep p = prep(63);
  const DetailedRouteResult dr = detailed_route(p.design, p.forest, p.gr);
  long long min_vias = 2 * static_cast<long long>(p.gr.connections.size());
  EXPECT_GE(dr.num_vias, min_vias);
}

TEST(DetailedRoute, TighterCapacityMeansMoreDrvsAndWork) {
  const Prep roomy = prep(64, 2.0);
  const Prep tight = prep(64, 0.35);
  const DetailedRouteResult dr_roomy = detailed_route(roomy.design, roomy.forest, roomy.gr);
  const DetailedRouteResult dr_tight = detailed_route(tight.design, tight.forest, tight.gr);
  EXPECT_GE(dr_tight.num_drvs, dr_roomy.num_drvs);
  EXPECT_GE(dr_tight.repair_work, dr_roomy.repair_work);
}

TEST(DetailedRoute, CleanGrConvergesQuickly) {
  const Prep roomy = prep(65, 4.0);
  const DetailedRouteResult dr = detailed_route(roomy.design, roomy.forest, roomy.gr);
  EXPECT_LE(dr.repair_rounds_used, 4);
}

TEST(DetailedRoute, RepairReducesConflictsVsUnrepaired) {
  // The spill loop must strictly reduce DRVs versus skipping repair (the
  // pin-access term is identical on both sides).
  const Prep p = prep(67, 0.6);
  DrouteOptions no_repair;
  no_repair.repair_rounds_max = 0;
  const DetailedRouteResult raw = detailed_route(p.design, p.forest, p.gr, no_repair);
  const long long pin_drvs = pin_access_violations(p.design, p.gr.grid) / 8;
  ASSERT_GT(raw.num_drvs - pin_drvs, 4) << "fixture must be congested enough to repair";
  const DetailedRouteResult repaired = detailed_route(p.design, p.forest, p.gr);
  EXPECT_LT(repaired.num_drvs, raw.num_drvs)
      << "spilling into adjacent rows should repair some conflicts";
  EXPECT_EQ(raw.repair_rounds_used, 0);
  EXPECT_GT(repaired.repair_rounds_used, 0);
}

TEST(DetailedRoute, WorkScalesWithRounds) {
  const Prep tight = prep(68, 0.35);
  DrouteOptions few;
  few.repair_rounds_max = 2;
  DrouteOptions many;
  many.repair_rounds_max = 24;
  const DetailedRouteResult a = detailed_route(tight.design, tight.forest, tight.gr, few);
  const DetailedRouteResult b = detailed_route(tight.design, tight.forest, tight.gr, many);
  EXPECT_LE(a.repair_rounds_used, 2);
  EXPECT_GE(b.repair_work, a.repair_work);
  EXPECT_LE(b.num_drvs, a.num_drvs);
}

/// FNV-1a over the bit patterns of every DetailedRouteResult field: any
/// change to a violation count, a repair spill or the detour factor moves it.
std::uint64_t droute_fingerprint(const DetailedRouteResult& dr) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(std::bit_cast<std::uint64_t>(dr.wirelength_dbu));
  mix(static_cast<std::uint64_t>(dr.num_vias));
  mix(static_cast<std::uint64_t>(dr.num_drvs));
  mix(static_cast<std::uint64_t>(dr.repair_rounds_used));
  mix(static_cast<std::uint64_t>(dr.repair_work));
  return h;
}

TEST(DetailedRoute, FingerprintPinned) {
  // Three seeds from starved to roomy capacity: below calibration the
  // repair loop runs to its round cap, at 4x it never starts.
  std::uint64_t h = 0;
  for (const std::uint64_t seed : {71, 72, 73}) {
    for (const double cap : {0.35, 0.6, 0.92, 4.0}) {
      const Prep p = prep(seed, cap);
      const DetailedRouteResult dr = detailed_route(p.design, p.forest, p.gr);
      h = h * 0x100000001b3ULL ^ droute_fingerprint(dr);
    }
  }
  // A 1,500-cell design at calibrated capacity: longer rows with more runs.
  {
    const Prep p = prep(74, 1.0, 1500);
    const DetailedRouteResult dr = detailed_route(p.design, p.forest, p.gr);
    h = h * 0x100000001b3ULL ^ droute_fingerprint(dr);
  }
  EXPECT_EQ(h, 0x9856fc5a08628c66ULL);
}

TEST(DetailedRoute, Deterministic) {
  const Prep a = prep(66);
  const Prep b = prep(66);
  const DetailedRouteResult da = detailed_route(a.design, a.forest, a.gr);
  const DetailedRouteResult db = detailed_route(b.design, b.forest, b.gr);
  EXPECT_DOUBLE_EQ(da.wirelength_dbu, db.wirelength_dbu);
  EXPECT_EQ(da.num_vias, db.num_vias);
  EXPECT_EQ(da.num_drvs, db.num_drvs);
}

TEST(TrackAssign, RunsCoverAllPathSteps) {
  const Prep p = prep(101);
  std::vector<WireRun> runs;
  for (const RoutedConnection& c : p.gr.connections) decompose_path_runs(c.path, runs);
  long long run_steps = 0;
  for (const WireRun& r : runs) {
    EXPECT_LT(r.lo, r.hi) << "a run spans at least one step";
    run_steps += r.hi - r.lo;
  }
  long long path_steps = 0;
  for (const RoutedConnection& c : p.gr.connections) {
    path_steps += static_cast<long long>(c.path.size()) - 1;
  }
  EXPECT_EQ(run_steps, path_steps) << "run decomposition must cover every step exactly once";
}

TEST(TrackAssign, MoreTracksFewerViolations) {
  // Same paths, more tracks per row: the track-violation term can only fall,
  // and with 64 tracks only the pin-access term is left.
  const Prep p = prep(103);
  GlobalRouteResult few = p.gr;
  few.grid.set_capacities(2.0, 2.0);
  GlobalRouteResult many = p.gr;
  many.grid.set_capacities(64.0, 64.0);
  DrouteOptions no_repair;
  no_repair.repair_rounds_max = 0;
  const DetailedRouteResult dr_few = detailed_route(p.design, p.forest, few, no_repair);
  const DetailedRouteResult dr_many = detailed_route(p.design, p.forest, many, no_repair);
  EXPECT_GT(dr_few.num_drvs, dr_many.num_drvs);
  EXPECT_EQ(dr_many.num_drvs, pin_access_violations(p.design, many.grid) / 8)
      << "64 tracks must be enough for a 250-cell design";
  EXPECT_EQ(detailed_route(p.design, p.forest, many).repair_rounds_used, 0);
}

TEST(TrackAssign, EmptyRouteHandled) {
  const Design empty_design("empty", &lib());
  const GlobalRouteResult empty;
  const DetailedRouteResult dr = detailed_route(empty_design, SteinerForest{}, empty);
  EXPECT_EQ(dr.wirelength_dbu, 0.0);
  EXPECT_EQ(dr.num_vias, 0);
  EXPECT_EQ(dr.num_drvs, 0);
  EXPECT_EQ(dr.repair_rounds_used, 0);
  std::vector<WireRun> runs;
  decompose_path_runs({GCell{3, 4}}, runs);
  EXPECT_TRUE(runs.empty()) << "a one-gcell path has no runs";
}

}  // namespace
}  // namespace tsteiner
