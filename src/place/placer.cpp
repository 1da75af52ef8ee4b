#include "place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace tsteiner {

namespace {

/// Fraction of the median step taken per pass.
constexpr double kDamping = 0.75;

/// Jitter (sites) to break ties before legalize.
constexpr double kNoise = 0.5;

/// Median of a small scratch vector (averaged middle pair for even sizes).
double median_of(std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid), xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 0) {
    const double lo =
        *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lo + hi);
  }
  return hi;
}

/// Tetris-style legalization: cells sorted by desired x are packed into rows
/// near their desired y; each cell occupies ceil(area) sites of the row.
void legalize(Design& d, Rng& rng) {
  const RectI die = d.die();
  const auto num_rows = static_cast<std::size_t>(std::max<std::int64_t>(1, die.height()));
  std::vector<std::int64_t> next_free(num_rows, die.lo.x);

  std::vector<int> order(d.cells().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return d.cell(a).pos.x < d.cell(b).pos.x;
  });

  for (int cid : order) {
    Cell& c = d.cell(cid);
    const auto width =
        static_cast<std::int64_t>(std::ceil(d.library().type(c.type).area));
    const auto desired_row = static_cast<std::int64_t>(c.pos.y - die.lo.y);
    std::int64_t best_row = -1;
    double best_cost = 1e30;
    const std::int64_t span = std::max<std::int64_t>(8, static_cast<std::int64_t>(num_rows) / 8);
    const std::int64_t lo = std::clamp<std::int64_t>(desired_row - span, 0,
                                                     static_cast<std::int64_t>(num_rows) - 1);
    const std::int64_t hi = std::clamp<std::int64_t>(desired_row + span, 0,
                                                     static_cast<std::int64_t>(num_rows) - 1);
    for (std::int64_t r = lo; r <= hi; ++r) {
      const std::int64_t x = std::max(next_free[static_cast<std::size_t>(r)], c.pos.x);
      if (x + width > die.hi.x) continue;  // row full past desired position
      const double cost = std::abs(static_cast<double>(r - desired_row)) +
                          0.5 * std::abs(static_cast<double>(x - c.pos.x));
      if (cost < best_cost) {
        best_cost = cost;
        best_row = r;
      }
    }
    std::int64_t x;
    if (best_row >= 0) {
      x = std::max(next_free[static_cast<std::size_t>(best_row)], c.pos.x);
    } else {
      // Fall back to the emptiest row and pack at its frontier — keeps every
      // placement inside the die and one cell per site.
      best_row = static_cast<std::int64_t>(
          std::min_element(next_free.begin(), next_free.end()) - next_free.begin());
      x = next_free[static_cast<std::size_t>(best_row)];
    }
    c.pos = {std::clamp(x, die.lo.x, die.hi.x), die.lo.y + best_row};
    next_free[static_cast<std::size_t>(best_row)] = c.pos.x + width;
    (void)rng;
  }
}

}  // namespace

void place_design(Design& design, const PlacerOptions& options) {
  Rng rng(options.seed);
  const RectI die = design.die();

  // Random initial spread.
  for (const Cell& c : design.cells()) {
    design.cell(c.id).pos = {rng.uniform_int(die.lo.x, die.hi.x),
                             rng.uniform_int(die.lo.y, die.hi.y)};
  }

  // Iterative weighted-median relaxation over connected pin positions.
  // Net weights enter as repetition counts: a heavier net pulls the median
  // toward its counterpart more strongly.
  auto weight_of = [&options](int net_id) {
    if (options.net_weights.empty()) return 1;
    const double w = options.net_weights[static_cast<std::size_t>(net_id)];
    return std::clamp(static_cast<int>(std::lround(w)), 1, 8);
  };
  std::vector<double> xs;
  std::vector<double> ys;
  for (int it = 0; it < options.iterations; ++it) {
    for (const Cell& cref : design.cells()) {
      Cell& c = design.cell(cref.id);
      xs.clear();
      ys.clear();
      auto add_counterpart = [&](int pin_id, int repeats) {
        const Pin& p = design.pin(pin_id);
        if (p.cell == c.id) return;  // self
        const PointI pos = design.pin_position(pin_id);
        for (int r = 0; r < repeats; ++r) {
          xs.push_back(static_cast<double>(pos.x));
          ys.push_back(static_cast<double>(pos.y));
        }
      };
      for (int in_pin : c.input_pins) {
        const int net_id = design.pin(in_pin).net;
        if (net_id >= 0) {
          add_counterpart(design.net(net_id).driver_pin, weight_of(net_id));
        }
      }
      const int out_net = design.pin(c.output_pin).net;
      if (out_net >= 0) {
        for (int s : design.net(out_net).sink_pins) add_counterpart(s, weight_of(out_net));
      }
      if (xs.empty()) continue;
      const double mx = median_of(xs);
      const double my = median_of(ys);
      const double nx = static_cast<double>(c.pos.x) +
                        kDamping * (mx - static_cast<double>(c.pos.x)) +
                        rng.uniform(-kNoise, kNoise);
      const double ny = static_cast<double>(c.pos.y) +
                        kDamping * (my - static_cast<double>(c.pos.y)) +
                        rng.uniform(-kNoise, kNoise);
      c.pos = {std::clamp(static_cast<std::int64_t>(std::llround(nx)), die.lo.x, die.hi.x),
               std::clamp(static_cast<std::int64_t>(std::llround(ny)), die.lo.y, die.hi.y)};
    }
  }

  legalize(design, rng);
}

double total_hpwl(const Design& design) { return weighted_hpwl(design, {}); }

double weighted_hpwl(const Design& design, const std::vector<double>& net_weights) {
  double total = 0.0;
  for (const Net& n : design.nets()) {
    if (n.sink_pins.empty()) continue;
    RectI bb{design.pin_position(n.driver_pin), design.pin_position(n.driver_pin)};
    for (int s : n.sink_pins) bb.expand(design.pin_position(s));
    const double w =
        net_weights.empty() ? 1.0 : net_weights[static_cast<std::size_t>(n.id)];
    total += w * static_cast<double>(bb.half_perimeter());
  }
  return total;
}

std::vector<double> timing_net_weights(const Design& design,
                                       const std::vector<double>& pin_arrival,
                                       double clock_period, double max_w) {
  std::vector<double> weights(design.nets().size(), 1.0);
  if (clock_period <= 0.0) return weights;
  for (const Net& n : design.nets()) {
    double worst = 0.0;
    for (int s : n.sink_pins) {
      worst = std::max(worst, pin_arrival[static_cast<std::size_t>(s)]);
    }
    // criticality 0 at arrival = clock/2, 1 at arrival = clock (and beyond).
    const double crit = std::clamp(2.0 * worst / clock_period - 1.0, 0.0, 2.0);
    weights[static_cast<std::size_t>(n.id)] = 1.0 + (max_w - 1.0) * std::min(1.0, crit);
  }
  return weights;
}

}  // namespace tsteiner
