// Batched learned Steiner construction: packing, prediction, stitch,
// fallback contract, bit-identity, codec.
#include <gtest/gtest.h>

#include <cstring>

#include "gnn/steiner_predictor.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "steiner/batch_builder.hpp"
#include "steiner/rsmt.hpp"
#include "util/parallel.hpp"
#include "verify/invariants.hpp"

#include "testutil.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

Design make_design(std::uint64_t seed, int cells = 360) {
  GeneratorParams params;
  params.num_comb_cells = cells;
  params.num_registers = cells / 6;
  params.seed = seed;
  Design d = generate_design(lib(), params);
  place_design(d);  // pins sit at (0,0) until placement runs
  return d;
}

TEST(HananBatch, PackingIsDeterministicAndSlotsOnlyLargeNets) {
  const Design design = make_design(11);
  const std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(design);
  const HananBatch a = pack_hanan_batch(pin_sets);
  const HananBatch b = pack_hanan_batch(pin_sets);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.counts, b.counts);

  ASSERT_EQ(a.num_nets, pin_sets.size());
  ASSERT_EQ(a.slot_of.size(), pin_sets.size());
  for (std::size_t i = 0; i < pin_sets.size(); ++i) {
    if (static_cast<int>(pin_sets[i].size()) <= kSmallNetPinLimit) {
      EXPECT_EQ(a.slot_of[i], -1) << "small net must not occupy a slot";
      EXPECT_EQ(a.counts[i], 0);
    }
    EXPECT_LE(a.counts[i], kMaxHananPerNet);
  }
  // Padding rows carry zero features so masked reductions add exact +0.0.
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (a.valid[r]) continue;
    for (int f = 0; f < kHananFeatures; ++f) {
      EXPECT_EQ(a.features[r * kHananFeatures + static_cast<std::size_t>(f)], 0.0);
    }
  }
}

TEST(HananBatch, PackingIsThreadWidthInvariant) {
  const Design design = make_design(12);
  const std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(design);
  testutil::PoolWidthGuard guard;
  set_parallel_threads(1);
  const HananBatch a = pack_hanan_batch(pin_sets);
  set_parallel_threads(4);
  const std::uint64_t jobs0 = parallel_jobs();
  const HananBatch b = pack_hanan_batch(pin_sets);
  EXPECT_GT(parallel_jobs(), jobs0) << "width 4 never reached the pool";
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.slots, b.slots);
}

TEST(SteinerPredictor, PredictIsBatchCompositionInvariant) {
  const Design design = make_design(13);
  const std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(design);
  const auto predictor = SteinerPredictor::shared_pretrained();

  const HananBatch full = pack_hanan_batch(pin_sets);
  const std::vector<double> full_probs = predictor->predict(full);

  // Every slotted net, predicted alone, must reproduce its batch rows
  // bit-for-bit (this is the property the steiner-batch oracle leans on).
  int checked = 0;
  for (std::size_t i = 0; i < pin_sets.size() && checked < 12; ++i) {
    if (full.slot_of[i] < 0) continue;
    ++checked;
    const std::vector<std::vector<PointF>> solo_set{pin_sets[i]};
    const HananBatch solo = pack_hanan_batch(solo_set);
    ASSERT_EQ(solo.counts[0], full.counts[i]);
    const std::vector<double> solo_probs = predictor->predict(solo);
    const std::size_t full_base =
        static_cast<std::size_t>(full.slot_of[i]) * static_cast<std::size_t>(full.h_max);
    for (int j = 0; j < solo.counts[0]; ++j) {
      const double a = solo_probs[static_cast<std::size_t>(j)];
      const double b = full_probs[full_base + static_cast<std::size_t>(j)];
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "net " << i << " candidate " << j << " differs across batch compositions";
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(BuildForestBatched, BitIdenticalAcrossThreadWidths) {
  const Design design = make_design(14);
  const auto predictor = SteinerPredictor::shared_pretrained();
  testutil::PoolWidthGuard guard;
  set_parallel_threads(1);
  const SteinerForest a = build_forest_batched(design, *predictor, {});
  set_parallel_threads(4);
  const std::uint64_t jobs0 = parallel_jobs();
  const SteinerForest b = build_forest_batched(design, *predictor, {});
  EXPECT_GT(parallel_jobs(), jobs0) << "width 4 never reached the pool";
  EXPECT_EQ(a.net_to_tree, b.net_to_tree);
  EXPECT_TRUE(testutil::forests_bit_equal(a, b));
}

TEST(BuildForestBatched, SmallNetsFallBackBitIdenticalToExact) {
  const Design design = make_design(15);
  const auto predictor = SteinerPredictor::shared_pretrained();
  BatchBuildOptions opts;
  std::vector<std::uint8_t> used_fallback;
  BatchBuildStats stats;
  const SteinerForest batched = build_forest_batched(design, *predictor, opts, &stats, &used_fallback);
  ASSERT_EQ(used_fallback.size(), batched.trees.size());

  int small_checked = 0;
  for (std::size_t i = 0; i < batched.trees.size(); ++i) {
    const SteinerTree& tree = batched.trees[i];
    const Net& net = design.net(tree.net);
    const auto pins = static_cast<int>(net.sink_pins.size()) + 1;
    if (pins <= kSmallNetPinLimit) {
      EXPECT_TRUE(used_fallback[i]);
      const SteinerTree exact = build_rsmt(design, tree.net, opts.fallback);
      EXPECT_TRUE(bits_equal(tree, exact)) << "net " << tree.net;
      ++small_checked;
    }
  }
  EXPECT_GT(small_checked, 0);
  EXPECT_EQ(stats.num_nets, batched.trees.size());
  EXPECT_EQ(stats.num_predicted + stats.num_fallback(), stats.num_nets);
}

TEST(BuildForestBatched, SatisfiesForestInvariantsAndSmallNetOptimality) {
  const Design design = make_design(16);
  const auto predictor = SteinerPredictor::shared_pretrained();
  const SteinerForest forest = build_forest_batched(design, *predictor, {});
  EXPECT_EQ(verify::check_forest_invariants(design, forest, /*require_min_degree=*/true), "");
  int small = 0;
  for (const SteinerTree& tree : forest.trees) {
    int pins = 0;
    for (const SteinerNode& n : tree.nodes) pins += n.is_steiner() ? 0 : 1;
    if (pins <= 4 && small < 40) {
      EXPECT_EQ(verify::check_small_net_optimality(tree), "");
      ++small;
    }
  }
  EXPECT_GT(small, 0);
}

TEST(BuildForestBatched, WirelengthNeverExceedsPinMstAndStaysNearExact) {
  const Design design = make_design(17, 500);
  const auto predictor = SteinerPredictor::shared_pretrained();
  std::vector<int> net_ids;
  const std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(design, &net_ids);
  const SteinerForest batched = build_forest_batched(design, *predictor, {});
  const SteinerForest exact = build_forest(design, {});

  double mst_total = 0.0;
  for (const std::vector<PointF>& pins : pin_sets) mst_total += mst_length(pins);
  for (std::size_t i = 0; i < batched.trees.size(); ++i) {
    EXPECT_LE(batched.trees[i].wirelength(), mst_length(pin_sets[i]) + 1e-6)
        << "stitch must never exceed the pin MST (net " << net_ids[i] << ")";
  }
  const double wl_batched = batched.total_wirelength();
  const double wl_exact = exact.total_wirelength();
  EXPECT_LE(wl_batched, mst_total + 1e-6);
  EXPECT_GE(wl_batched, wl_exact - 1e-6);  // exact construction is the floor
  // Acceptance-criterion-shaped bound: within 1% of the per-net baseline.
  EXPECT_LE(wl_batched, wl_exact * 1.01);
}

TEST(BuildBatchedTrees, MutationHookDropsAPredictedPointAndChangesTrees) {
  const Design design = make_design(18);
  const auto predictor = SteinerPredictor::shared_pretrained();
  const std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(design);
  BatchBuildOptions opts;
  BatchBuildStats clean_stats;
  const std::vector<SteinerTree> clean =
      build_batched_trees(pin_sets, *predictor, opts, &clean_stats);
  opts.mutate_drop_first_candidate = true;
  BatchBuildStats mut_stats;
  const std::vector<SteinerTree> mutated =
      build_batched_trees(pin_sets, *predictor, opts, &mut_stats);
  ASSERT_EQ(clean.size(), mutated.size());
  ASSERT_GT(clean_stats.num_inserted_points, 0u)
      << "corpus must exercise the predicted path for the mutation to mean anything";
  bool any_diff = false;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (!bits_equal(clean[i], mutated[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SteinerPredictor, PayloadCodecRoundTripsBitIdentical) {
  const auto predictor = SteinerPredictor::shared_pretrained();
  const std::vector<std::uint8_t> payload =
      encode_steiner_predictor_payload(*predictor, "unit-test-tag");
  std::string tag;
  const auto decoded =
      decode_steiner_predictor_payload_any(payload.data(), payload.size(), &tag);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(tag, "unit-test-tag");
  ASSERT_EQ(decoded->parameters().size(), predictor->parameters().size());
  for (std::size_t i = 0; i < decoded->parameters().size(); ++i) {
    const Tensor& a = decoded->parameters()[i];
    const Tensor& b = predictor->parameters()[i];
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)), 0);
  }
  // A decoded predictor must reproduce predictions bit-for-bit.
  const Design design = make_design(19);
  const std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(design);
  const HananBatch batch = pack_hanan_batch(pin_sets);
  const std::vector<double> p1 = predictor->predict(batch);
  const std::vector<double> p2 = decoded->predict(batch);
  ASSERT_EQ(p1.size(), p2.size());
  EXPECT_EQ(std::memcmp(p1.data(), p2.data(), p1.size() * sizeof(double)), 0);
}

TEST(SteinerPredictor, PayloadCodecRejectsTruncationAndCorruption) {
  const auto predictor = SteinerPredictor::shared_pretrained();
  const std::vector<std::uint8_t> payload =
      encode_steiner_predictor_payload(*predictor, "t");
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, payload.size() / 2, payload.size() - 1}) {
    EXPECT_FALSE(decode_steiner_predictor_payload_any(payload.data(), cut, nullptr).has_value())
        << "truncation at " << cut;
  }
  std::vector<std::uint8_t> extra = payload;
  extra.push_back(0);
  EXPECT_FALSE(decode_steiner_predictor_payload_any(extra.data(), extra.size(), nullptr).has_value())
      << "trailing bytes must be rejected";
}

TEST(EstimateWirelengths, MatchesStitchedTreeWirelengths) {
  const Design design = make_design(20);
  const auto predictor = SteinerPredictor::shared_pretrained();
  const std::vector<std::vector<PointF>> pin_sets = routable_pin_sets(design);
  const std::vector<double> wl = estimate_wirelengths(pin_sets, *predictor, {});
  const std::vector<SteinerTree> trees = build_batched_trees(pin_sets, *predictor, {});
  ASSERT_EQ(wl.size(), trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const double direct = trees[i].wirelength();
    EXPECT_EQ(std::memcmp(&wl[i], &direct, sizeof(double)), 0);
  }
}

}  // namespace
}  // namespace tsteiner
