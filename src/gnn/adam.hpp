// Classic Adam optimizer over a parameter tensor list (model training).
// Distinct from the paper's memoryless SO update (Eq. 7) used for Steiner
// refinement, which lives in src/tsteiner/optimizer.hpp.
#pragma once

#include <cmath>
#include <stdexcept>
#include <vector>

#include "autodiff/tensor.hpp"

namespace tsteiner {

class Adam {
 public:
  explicit Adam(std::vector<Tensor>* params, double lr = 5e-4, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8)
      : params_(params), lr_(lr), b1_(beta1), b2_(beta2), eps_(eps) {
    if (params == nullptr) throw std::runtime_error("Adam: null parameter list");
    for (const Tensor& p : *params) {
      m_.push_back(Tensor::zeros(p.rows(), p.cols()));
      v_.push_back(Tensor::zeros(p.rows(), p.cols()));
    }
  }

  double lr() const { return lr_; }

  /// One update with the given gradients (same shapes as the parameters).
  void step(const std::vector<Tensor>& grads) {
    if (grads.size() != params_->size()) throw std::runtime_error("Adam: gradient count");
    ++t_;
    const double bc1 = 1.0 - std::pow(b1_, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(b2_, static_cast<double>(t_));
    for (std::size_t i = 0; i < params_->size(); ++i) {
      Tensor& p = (*params_)[i];
      const Tensor& g = grads[i];
      if (g.size() != p.size()) throw std::runtime_error("Adam: gradient shape");
      for (std::size_t k = 0; k < p.size(); ++k) {
        m_[i][k] = b1_ * m_[i][k] + (1.0 - b1_) * g[k];
        v_[i][k] = b2_ * v_[i][k] + (1.0 - b2_) * g[k] * g[k];
        const double mh = m_[i][k] / bc1;
        const double vh = v_[i][k] / bc2;
        p[k] -= lr_ * mh / (std::sqrt(vh) + eps_);
      }
    }
  }

 private:
  std::vector<Tensor>* params_;
  std::vector<Tensor> m_, v_;
  double lr_, b1_, b2_, eps_;
  long t_ = 0;
};

}  // namespace tsteiner
