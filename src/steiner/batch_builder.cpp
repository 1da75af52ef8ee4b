#include "steiner/batch_builder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "netlist/netlist.hpp"
#include "util/parallel.hpp"

namespace tsteiner {

namespace {

/// Probability cutoff: rows at or below it are never stitched.
constexpr double kStitchThreshold = 0.35;

/// At most this many above-threshold candidates are offered to the stitch,
/// in descending-probability order (stable w.r.t. packing order).
constexpr std::size_t kMaxCandidatesPerNet = 12;

struct NetCandidates {
  std::vector<PointF> points;
  std::vector<double> dmin;  ///< min Manhattan distance to any pin
};

/// Hanan cross-product candidates for one net: every (x_i, y_j) that is not
/// itself a pin position, deduped. When the grid exceeds kMaxHananPerNet,
/// the candidates nearest to the pins win (ties broken by x then y), which
/// keeps the set deterministic and biased toward useful junctions.
NetCandidates net_candidates(const std::vector<PointF>& pins) {
  NetCandidates out;
  std::vector<PointF> grid;
  for (const PointF& a : pins) {
    for (const PointF& b : pins) {
      if (a.x == b.x || a.y == b.y) continue;
      grid.push_back({a.x, b.y});
    }
  }
  std::sort(grid.begin(), grid.end(), [](const PointF& p, const PointF& q) {
    if (p.x != q.x) return p.x < q.x;
    return p.y < q.y;
  });
  grid.erase(std::unique(grid.begin(), grid.end(),
                         [](const PointF& p, const PointF& q) { return p.x == q.x && p.y == q.y; }),
             grid.end());
  // Drop candidates that coincide with a pin: inserting them can never
  // shorten the MST.
  std::vector<PointF> filtered;
  filtered.reserve(grid.size());
  for (const PointF& c : grid) {
    bool on_pin = false;
    for (const PointF& p : pins) {
      if (p.x == c.x && p.y == c.y) {
        on_pin = true;
        break;
      }
    }
    if (!on_pin) filtered.push_back(c);
  }

  std::vector<double> dmin(filtered.size(), 0.0);
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    double d = std::numeric_limits<double>::infinity();
    for (const PointF& p : pins) d = std::min(d, manhattan(filtered[i], p));
    dmin[i] = d;
  }
  std::vector<std::size_t> order(filtered.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (dmin[a] != dmin[b]) return dmin[a] < dmin[b];
    if (filtered[a].x != filtered[b].x) return filtered[a].x < filtered[b].x;
    return filtered[a].y < filtered[b].y;
  });
  const std::size_t take = std::min<std::size_t>(order.size(), kMaxHananPerNet);
  out.points.reserve(take);
  out.dmin.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    out.points.push_back(filtered[order[i]]);
    out.dmin.push_back(dmin[order[i]]);
  }
  return out;
}

void fill_features(const std::vector<PointF>& pins, const PointF& c, double dmin, double* f) {
  double xmin = pins[0].x, xmax = pins[0].x, ymin = pins[0].y, ymax = pins[0].y;
  double sx = 0.0, sy = 0.0;
  for (const PointF& p : pins) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
    sx += p.x;
    sy += p.y;
  }
  const double k = static_cast<double>(pins.size());
  const double w = std::max(xmax - xmin, 1.0);
  const double h = std::max(ymax - ymin, 1.0);
  const double scale = w + h;
  double dsum = 0.0;
  double align_x = 0.0, align_y = 0.0;
  for (const PointF& p : pins) {
    dsum += manhattan(c, p);
    if (p.x == c.x) align_x += 1.0;
    if (p.y == c.y) align_y += 1.0;
  }
  f[0] = (c.x - xmin) / w;
  f[1] = (c.y - ymin) / h;
  f[2] = std::min(k, 32.0) / 32.0;
  f[3] = (sx / k - xmin) / w;
  f[4] = (sy / k - ymin) / h;
  f[5] = dmin / scale;
  f[6] = dsum / (k * scale);
  f[7] = align_x / k;
  f[8] = align_y / k;
  f[9] = w / scale;
}

/// MST length over `pts` with `cand` appended (pts itself is not modified).
double mst_length_with(std::vector<PointF>& pts, const PointF& cand) {
  pts.push_back(cand);
  const double len = mst_length(pts);
  pts.pop_back();
  return len;
}

/// Structural acceptance for a stitched tree: valid spanning tree, every
/// Steiner node degree >= 3, every Steiner node inside the pin bounding box.
bool stitched_tree_ok(const SteinerTree& tree, const std::vector<PointF>& pins) {
  if (!tree.is_valid_tree()) return false;
  double xmin = pins[0].x, xmax = pins[0].x, ymin = pins[0].y, ymax = pins[0].y;
  for (const PointF& p : pins) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  std::vector<int> degree(tree.nodes.size(), 0);
  for (const SteinerEdge& e : tree.edges) {
    ++degree[static_cast<std::size_t>(e.a)];
    ++degree[static_cast<std::size_t>(e.b)];
  }
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const SteinerNode& n = tree.nodes[i];
    if (!n.is_steiner()) continue;
    if (degree[i] < 3) return false;
    if (n.pos.x < xmin || n.pos.x > xmax || n.pos.y < ymin || n.pos.y > ymax) return false;
  }
  return true;
}

}  // namespace

HananBatch pack_hanan_batch(const std::vector<std::vector<PointF>>& pin_sets) {
  HananBatch batch;
  batch.num_nets = pin_sets.size();
  batch.counts.assign(pin_sets.size(), 0);
  for (const std::vector<PointF>& pins : pin_sets) {
    if (pins.size() < 2) throw std::runtime_error("pack_hanan_batch: net with < 2 pins");
  }

  // Work estimates below are inner operations per index, measured in
  // docs/parallelism.md: a net's Hanan candidates (~4k), a candidate row's
  // features (~64 per pin slot, a pass over the pins), a net's stitch or
  // fallback tree (~4k).
  std::vector<NetCandidates> cands(pin_sets.size());
  parallel_for(0, pin_sets.size(), 4096, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::vector<PointF>& pins = pin_sets[i];
      if (static_cast<int>(pins.size()) <= kSmallNetPinLimit) continue;
      cands[i] = net_candidates(pins);
    }
  });

  int h_max = 0;
  batch.slot_of.assign(pin_sets.size(), -1);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    batch.counts[i] = static_cast<int>(cands[i].points.size());
    if (batch.counts[i] > 0) {
      batch.slot_of[i] = static_cast<int>(batch.slots.size());
      batch.slots.push_back(static_cast<int>(i));
      h_max = std::max(h_max, batch.counts[i]);
    }
  }
  batch.h_max = h_max;
  const std::size_t rows = batch.rows();
  batch.features.assign(rows * kHananFeatures, 0.0);
  batch.points.assign(rows, PointF{0.0, 0.0});
  batch.valid.assign(rows, 0);
  batch.segments.assign(rows, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    batch.segments[r] = static_cast<int>(r / static_cast<std::size_t>(std::max(h_max, 1)));
  }
  if (rows == 0) return batch;

  parallel_for(
      0, batch.slots.size(), 64 * static_cast<std::size_t>(h_max),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const auto net = static_cast<std::size_t>(batch.slots[s]);
          const NetCandidates& nc = cands[net];
          const std::size_t base = s * static_cast<std::size_t>(h_max);
          for (std::size_t j = 0; j < nc.points.size(); ++j) {
            const std::size_t r = base + j;
            batch.points[r] = nc.points[j];
            batch.valid[r] = 1;
            fill_features(pin_sets[net], nc.points[j], nc.dmin[j],
                          batch.features.data() + r * kHananFeatures);
          }
        }
      });
  return batch;
}

std::vector<SteinerTree> stitch_batch(const std::vector<std::vector<PointF>>& pin_sets,
                                      const HananBatch& batch,
                                      const std::vector<double>& probabilities,
                                      const BatchBuildOptions& options,
                                      BatchBuildStats* stats,
                                      std::vector<std::uint8_t>* used_fallback) {
  if (batch.num_nets != pin_sets.size()) {
    throw std::runtime_error("stitch_batch: batch/pin_sets size mismatch");
  }
  if (probabilities.size() != batch.rows()) {
    throw std::runtime_error("stitch_batch: probabilities/rows size mismatch");
  }

  std::vector<SteinerTree> trees(pin_sets.size());
  // Per-net accounting slots; reduced serially below so the stats are
  // deterministic and the parallel loop writes disjoint slots only.
  std::vector<std::uint8_t> fb_small(pin_sets.size(), 0);
  std::vector<std::uint8_t> fb_invalid(pin_sets.size(), 0);
  std::vector<int> offered_counts(pin_sets.size(), 0);
  std::vector<int> inserted_counts(pin_sets.size(), 0);

  parallel_for(
      0, pin_sets.size(), 4096,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::vector<PointF>& pins = pin_sets[i];
          if (static_cast<int>(pins.size()) <= kSmallNetPinLimit) {
            trees[i] = build_rsmt_points(pins, options.fallback);
            fb_small[i] = 1;
            continue;
          }

          // Above-threshold candidates, in descending-probability order
          // (stable w.r.t. packing order so ties are deterministic).
          struct Offer {
            PointF pos;
            double prob;
          };
          std::vector<Offer> offered;
          const int slot = batch.slot_of[i];
          const int count = batch.counts[i];
          const std::size_t base =
              slot >= 0 ? static_cast<std::size_t>(slot) * static_cast<std::size_t>(batch.h_max) : 0;
          for (int j = 0; slot >= 0 && j < count; ++j) {
            const std::size_t r = base + static_cast<std::size_t>(j);
            if (probabilities[r] > kStitchThreshold) {
              offered.push_back({batch.points[r], probabilities[r]});
            }
          }
          std::stable_sort(offered.begin(), offered.end(),
                           [](const Offer& a, const Offer& b) { return a.prob > b.prob; });
          if (offered.size() > kMaxCandidatesPerNet) offered.resize(kMaxCandidatesPerNet);
          if (options.mutate_drop_first_candidate && !offered.empty()) {
            offered.erase(offered.begin());
          }
          offered_counts[i] = static_cast<int>(offered.size());

          // Greedy gain-gated insertion: every accepted candidate strictly
          // shortens the running MST, so the stitched wirelength never
          // exceeds the pin-only MST.
          std::vector<PointF> pts = pins;
          double cur_len = mst_length(pts);
          int inserted = 0;
          for (const Offer& o : offered) {
            const double aug = mst_length_with(pts, o.pos);
            if (cur_len - aug > 1e-9) {
              pts.push_back(o.pos);
              cur_len = aug;
              ++inserted;
            }
          }
          inserted_counts[i] = inserted;

          SteinerTree tree;
          tree.nodes.reserve(pts.size());
          for (std::size_t p = 0; p < pins.size(); ++p) {
            tree.nodes.push_back({pins[p], static_cast<int>(p)});
          }
          for (std::size_t p = pins.size(); p < pts.size(); ++p) {
            tree.nodes.push_back({pts[p], -1});
          }
          tree.driver_node = 0;
          tree.edges = mst_edges(pts);
          prune_low_degree_steiner(tree);

          if (stitched_tree_ok(tree, pins)) {
            trees[i] = std::move(tree);
          } else {
            trees[i] = build_rsmt_points(pins, options.fallback);
            fb_invalid[i] = 1;
          }
        }
      });

  if (used_fallback != nullptr) {
    used_fallback->assign(pin_sets.size(), 0);
    for (std::size_t i = 0; i < pin_sets.size(); ++i) {
      (*used_fallback)[i] = static_cast<std::uint8_t>(fb_small[i] | fb_invalid[i]);
    }
  }
  if (stats != nullptr) {
    *stats = BatchBuildStats{};
    stats->num_nets = pin_sets.size();
    for (std::size_t i = 0; i < pin_sets.size(); ++i) {
      stats->num_fallback_small += fb_small[i];
      stats->num_fallback_invalid += fb_invalid[i];
      if (!fb_small[i] && !fb_invalid[i]) ++stats->num_predicted;
      stats->num_candidate_rows += static_cast<std::size_t>(batch.counts[i]);
      stats->num_offered_points += static_cast<std::size_t>(offered_counts[i]);
      stats->num_inserted_points += static_cast<std::size_t>(inserted_counts[i]);
    }
  }
  return trees;
}

std::vector<std::vector<PointF>> routable_pin_sets(const Design& design, std::vector<int>* net_ids) {
  std::vector<std::vector<PointF>> pin_sets;
  if (net_ids != nullptr) net_ids->clear();
  for (const Net& n : design.nets()) {
    if (n.sink_pins.empty()) continue;
    std::vector<PointF> pins;
    pins.reserve(n.sink_pins.size() + 1);
    pins.push_back(to_f(design.pin_position(n.driver_pin)));
    for (int s : n.sink_pins) pins.push_back(to_f(design.pin_position(s)));
    pin_sets.push_back(std::move(pins));
    if (net_ids != nullptr) net_ids->push_back(n.id);
  }
  return pin_sets;
}

}  // namespace tsteiner
