// Training / evaluation driver for the sign-off timing evaluator.
//
// Samples pair a (design, forest-topology) graph cache with one Steiner
// coordinate assignment and the sign-off arrival-time labels produced by the
// golden flow (GR -> DR -> RC -> STA) for exactly those coordinates. The
// trainer fits the model across designs (paper: 6 train / 4 test) with MSE
// on clock-normalized arrivals; evaluation reports the Table-III R^2 scores
// (`arrival-all` over every pin, `arrival-ends` over endpoints only).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gnn/adam.hpp"
#include "gnn/model.hpp"

namespace tsteiner {

struct TrainingSample {
  std::string design_name;
  std::shared_ptr<const GraphCache> cache;
  std::vector<double> xs, ys;           ///< movable Steiner coordinates (DBU)
  std::vector<double> arrival_label;    ///< sign-off arrival per pin (ns)
  std::vector<int> endpoint_pins;
};

/// Max-norm clip per gradient tensor.
inline constexpr double kGradClip = 5.0;

struct TrainOptions {
  int epochs = 60;
  double lr = 5e-4;         ///< paper's learning rate
  /// Extra MSE weight on endpoint pins: WNS/TNS are endpoint statistics, so
  /// their arrivals matter more than interior pins'.
  double endpoint_loss_weight = 3.0;
  std::uint64_t seed = 99;
};

struct EvalMetrics {
  double r2_all = 0.0;   ///< arrival-time R^2 over all pins
  double r2_ends = 0.0;  ///< arrival-time R^2 over endpoints only
};

class Trainer {
 public:
  Trainer(TimingGnn* model, const TrainOptions& options);

  /// One pass over the samples (shuffled); returns the mean loss.
  double train_epoch(std::span<TrainingSample> samples);

  /// Run `epochs` passes; returns the final epoch's mean loss.
  double fit(std::span<TrainingSample> samples);

  /// Predicted sign-off arrival (ns) per pin.
  std::vector<double> predict(const TrainingSample& sample) const;

  EvalMetrics evaluate(const TrainingSample& sample) const;

 private:
  TimingGnn* model_;
  TrainOptions opts_;
  Adam adam_;
  Rng rng_;
  /// Largest tape seen so far; every fresh tape reserves this up front so
  /// per-sample recording stops paying node-vector reallocation churn.
  mutable std::size_t tape_nodes_hint_ = 0;
};

}  // namespace tsteiner
