// Stochastic optimizer SO for Steiner point refinement (Eq. 7).
//
// The paper's update is deliberately *memoryless* — m and v are rebuilt from
// the current gradient each iteration (no running moments), which makes the
// per-coordinate step magnitude nearly gradient-scale-invariant:
//   m = (1 - beta1) * g,  v = (1 - beta2) * g (.) g
//   x <- x - theta * m / (sqrt(v) + eps)
// A classic Adam-with-moments variant is provided for the stepsize ablation
// bench.
#pragma once

#include <cmath>
#include <vector>

namespace tsteiner {

/// Eq. 7's moment weights (the paper's Adam betas).
inline constexpr double kSoBeta1 = 0.9;
inline constexpr double kSoBeta2 = 0.999;

struct SoOptions {
  double eps = 1e-8;
  bool with_momentum = false;  ///< ablation: classic Adam running moments
};

class SteinerOptimizer {
 public:
  SteinerOptimizer(std::size_t n, double theta, const SoOptions& options = {})
      : theta_(theta), opts_(options), m_(n, 0.0), v_(n, 0.0) {}

  void set_theta(double theta) { theta_ = theta; }
  double theta() const { return theta_; }

  /// In-place update of xs given gradient g (Eq. 7). `max_move` bounds the
  /// per-coordinate displacement (grid-graph constraint, Section IV-A).
  void step(std::vector<double>& xs, const std::vector<double>& g, double max_move) {
    ++t_;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double m, v;
      if (opts_.with_momentum) {
        m_[i] = kSoBeta1 * m_[i] + (1.0 - kSoBeta1) * g[i];
        v_[i] = kSoBeta2 * v_[i] + (1.0 - kSoBeta2) * g[i] * g[i];
        m = m_[i] / (1.0 - std::pow(kSoBeta1, static_cast<double>(t_)));
        v = v_[i] / (1.0 - std::pow(kSoBeta2, static_cast<double>(t_)));
      } else {
        m = (1.0 - kSoBeta1) * g[i];
        v = (1.0 - kSoBeta2) * g[i] * g[i];
      }
      double delta = theta_ * m / (std::sqrt(v) + opts_.eps);
      if (delta > max_move) delta = max_move;
      if (delta < -max_move) delta = -max_move;
      xs[i] -= delta;
    }
  }

 private:
  double theta_;
  SoOptions opts_;
  std::vector<double> m_, v_;
  long t_ = 0;
};

}  // namespace tsteiner
