// Basic 2-D geometry primitives shared across the physical-design substrates.
//
// All coordinates are in database units (DBU); one DBU corresponds to one
// placement-site-sized step in the synthetic technology used by this
// reproduction. Floating-point points are used wherever Steiner points move
// continuously during refinement; integer points are used for legalized /
// rounded data (placement sites, grid-graph cells).
#pragma once

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <ostream>

namespace tsteiner {

/// Integer point on the placement / routing grid.
struct PointI {
  std::int64_t x = 0;
  std::int64_t y = 0;

  friend auto operator<=>(const PointI&, const PointI&) = default;
};

/// Continuous point; Steiner points live here while being optimized.
struct PointF {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const PointF&, const PointF&) = default;
};

inline PointF to_f(const PointI& p) {
  return {static_cast<double>(p.x), static_cast<double>(p.y)};
}

/// Round-half-away-from-zero to the nearest integer point (the paper rounds
/// final Steiner positions in post-processing).
inline PointI round_to_i(const PointF& p) {
  return {static_cast<std::int64_t>(std::llround(p.x)),
          static_cast<std::int64_t>(std::llround(p.y))};
}

inline std::int64_t manhattan(const PointI& a, const PointI& b) {
  return std::llabs(a.x - b.x) + std::llabs(a.y - b.y);
}

inline double manhattan(const PointF& a, const PointF& b) {
  return std::fabs(a.x - b.x) + std::fabs(a.y - b.y);
}

/// Closed axis-aligned rectangle [lo.x, hi.x] x [lo.y, hi.y].
struct RectI {
  PointI lo;
  PointI hi;

  std::int64_t width() const { return hi.x - lo.x; }
  std::int64_t height() const { return hi.y - lo.y; }
  std::int64_t half_perimeter() const { return width() + height(); }

  bool contains(const PointI& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
  bool contains(const PointF& p) const {
    return p.x >= static_cast<double>(lo.x) && p.x <= static_cast<double>(hi.x) &&
           p.y >= static_cast<double>(lo.y) && p.y <= static_cast<double>(hi.y);
  }

  /// Grow to include p.
  void expand(const PointI& p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }

  friend bool operator==(const RectI&, const RectI&) = default;
};

/// Clamp a continuous point into a closed integer rectangle; used to keep
/// Steiner-point moves inside the grid-graph boundary (paper, Fig. 4 note).
inline PointF clamp_into(const PointF& p, const RectI& box) {
  return {std::clamp(p.x, static_cast<double>(box.lo.x), static_cast<double>(box.hi.x)),
          std::clamp(p.y, static_cast<double>(box.lo.y), static_cast<double>(box.hi.y))};
}

inline std::ostream& operator<<(std::ostream& os, const PointI& p) {
  return os << '(' << p.x << ',' << p.y << ')';
}
inline std::ostream& operator<<(std::ostream& os, const PointF& p) {
  return os << '(' << p.x << ',' << p.y << ')';
}
inline std::ostream& operator<<(std::ostream& os, const RectI& r) {
  return os << '[' << r.lo << ' ' << r.hi << ']';
}

}  // namespace tsteiner
