// Global-routing grid graph (CUGR-style coarse grid).
//
// The die is tiled into gcells; horizontal and vertical gcell-boundary
// edges carry capacities and usage counts. The reproduction models the
// metal stack as one aggregated horizontal and one aggregated vertical
// resource per edge (a "3D-lite" model); capacities are self-calibrated
// from initial demand because the synthetic netlists lack the locality of
// the paper's placed OpenCores designs (see DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "util/geometry.hpp"

namespace tsteiner {

struct GCell {
  int x = 0;
  int y = 0;
  friend bool operator==(const GCell&, const GCell&) = default;
};

class GridGraph {
 public:
  /// Tiles `die` into gcells of `gcell_size` DBU (last row/column may be
  /// smaller). At least a 2x2 grid is always created.
  GridGraph(RectI die, std::int64_t gcell_size);
  /// Trivial 2x2 grid; placeholder until a real route result replaces it.
  GridGraph() : GridGraph(RectI{{0, 0}, {1, 1}}, 1) {}

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  std::int64_t gcell_size() const { return gcell_size_; }
  const RectI& die() const { return die_; }

  GCell gcell_at(PointI p) const;
  GCell gcell_at(PointF p) const;

  // -- edge indexing -------------------------------------------------------
  // Horizontal edge h(x, y): between gcells (x,y) and (x+1,y); x in
  // [0, nx-2], y in [0, ny-1]. Vertical edge v(x, y): between (x,y) and
  // (x,y+1); x in [0, nx-1], y in [0, ny-2].
  std::size_t h_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_ - 1) +
           static_cast<std::size_t>(x);
  }
  std::size_t v_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(x);
  }

  /// Usage of every horizontal / vertical edge, in h_index / v_index order.
  const std::vector<double>& h_usages() const { return h_usage_; }
  const std::vector<double>& v_usages() const { return v_usage_; }
  double h_usage(int x, int y) const { return h_usage_[h_index(x, y)]; }
  double v_usage(int x, int y) const { return v_usage_[v_index(x, y)]; }
  double h_capacity() const { return h_cap_; }
  double v_capacity() const { return v_cap_; }

  void add_h_usage(int x, int y, double delta) { h_usage_[h_index(x, y)] += delta; }
  void add_v_usage(int x, int y, double delta) { v_usage_[v_index(x, y)] += delta; }

  double h_history(int x, int y) const { return h_hist_[h_index(x, y)]; }
  double v_history(int x, int y) const { return v_hist_[v_index(x, y)]; }
  void add_h_history(int x, int y, double delta) { h_hist_[h_index(x, y)] += delta; }
  void add_v_history(int x, int y, double delta) { v_hist_[v_index(x, y)] += delta; }

  /// Set uniform capacities (resource calibration happens in the router).
  /// Throws std::invalid_argument unless both are positive and finite.
  void set_capacities(double h_cap, double v_cap);

  void clear_usage();
  void clear_history();

  /// Total overflow: sum over edges of max(0, usage - capacity).
  double total_overflow() const;
  double max_overflow() const;
  /// Number of edges with usage > capacity.
  long long num_overflowed_edges() const;

  /// Normalized congestion (usage / capacity) of the edge crossed when
  /// stepping from gcell a to adjacent gcell b; 0 for a == b.
  double congestion_between(GCell a, GCell b) const;

 private:
  RectI die_;
  std::int64_t gcell_size_;
  int nx_ = 0;
  int ny_ = 0;
  double h_cap_ = 1.0;
  double v_cap_ = 1.0;
  std::vector<double> h_usage_;
  std::vector<double> v_usage_;
  std::vector<double> h_hist_;
  std::vector<double> v_hist_;
};

}  // namespace tsteiner
