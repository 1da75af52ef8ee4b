#include "route/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tsteiner {

GridGraph::GridGraph(RectI die, std::int64_t gcell_size)
    : die_(die), gcell_size_(gcell_size) {
  if (gcell_size <= 0) throw std::runtime_error("gcell size must be positive");
  nx_ = std::max<int>(2, static_cast<int>((die.width() + gcell_size - 1) / gcell_size) + 1);
  ny_ = std::max<int>(2, static_cast<int>((die.height() + gcell_size - 1) / gcell_size) + 1);
  h_usage_.assign(static_cast<std::size_t>(nx_ - 1) * static_cast<std::size_t>(ny_), 0.0);
  v_usage_.assign(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_ - 1), 0.0);
  h_hist_.assign(h_usage_.size(), 0.0);
  v_hist_.assign(v_usage_.size(), 0.0);
}

GCell GridGraph::gcell_at(PointI p) const {
  const std::int64_t dx = std::clamp(p.x - die_.lo.x, std::int64_t{0}, die_.width());
  const std::int64_t dy = std::clamp(p.y - die_.lo.y, std::int64_t{0}, die_.height());
  GCell g{static_cast<int>(dx / gcell_size_), static_cast<int>(dy / gcell_size_)};
  g.x = std::min(g.x, nx_ - 1);
  g.y = std::min(g.y, ny_ - 1);
  return g;
}

GCell GridGraph::gcell_at(PointF p) const {
  return gcell_at(PointI{static_cast<std::int64_t>(std::llround(p.x)),
                         static_cast<std::int64_t>(std::llround(p.y))});
}

void GridGraph::set_capacities(double h_cap, double v_cap) {
  if (!(h_cap > 0.0 && v_cap > 0.0) || !std::isfinite(h_cap) || !std::isfinite(v_cap)) {
    throw std::invalid_argument("GridGraph::set_capacities: capacities must be positive and finite");
  }
  h_cap_ = h_cap;
  v_cap_ = v_cap;
}

void GridGraph::clear_usage() {
  std::fill(h_usage_.begin(), h_usage_.end(), 0.0);
  std::fill(v_usage_.begin(), v_usage_.end(), 0.0);
}

void GridGraph::clear_history() {
  std::fill(h_hist_.begin(), h_hist_.end(), 0.0);
  std::fill(v_hist_.begin(), v_hist_.end(), 0.0);
}

double GridGraph::total_overflow() const {
  double of = 0.0;
  for (double u : h_usage_) of += std::max(0.0, u - h_cap_);
  for (double u : v_usage_) of += std::max(0.0, u - v_cap_);
  return of;
}

double GridGraph::max_overflow() const {
  double of = 0.0;
  for (double u : h_usage_) of = std::max(of, u - h_cap_);
  for (double u : v_usage_) of = std::max(of, u - v_cap_);
  return std::max(0.0, of);
}

long long GridGraph::num_overflowed_edges() const {
  long long n = 0;
  for (double u : h_usage_) n += u > h_cap_ ? 1 : 0;
  for (double u : v_usage_) n += u > v_cap_ ? 1 : 0;
  return n;
}

double GridGraph::congestion_between(GCell a, GCell b) const {
  if (a == b) return 0.0;
  if (a.y == b.y) {
    const int x = std::min(a.x, b.x);
    return h_usage(x, a.y) / h_cap_;
  }
  if (a.x == b.x) {
    const int y = std::min(a.y, b.y);
    return v_usage(a.x, y) / v_cap_;
  }
  throw std::runtime_error("congestion_between: gcells not adjacent");
}

}  // namespace tsteiner
