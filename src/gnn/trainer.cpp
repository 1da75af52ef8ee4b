#include "gnn/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace tsteiner {

Trainer::Trainer(TimingGnn* model, const TrainOptions& options)
    : model_(model), opts_(options), adam_(&model->parameters(), options.lr),
      rng_(options.seed) {}

double Trainer::train_epoch(std::span<TrainingSample> samples) {
  TS_TRACE_SPAN_CAT("gnn.train_epoch", "gnn");
  static obs::Counter& m_epochs = obs::metrics().counter("gnn.train_epochs");
  m_epochs.add();
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng_.shuffle(order);

  double loss_sum = 0.0;
  for (std::size_t k : order) {
    TrainingSample& s = samples[k];
    Tape tape;
    tape.reserve(tape_nodes_hint_);
    const TimingGnn::Bound bound = model_->bind(tape);
    const Value xs = tape.leaf(Tensor::column(s.xs));
    const Value ys = tape.leaf(Tensor::column(s.ys));
    const Value pred = model_->forward(tape, *s.cache, bound, xs, ys);

    Tensor target(s.arrival_label.size(), 1);
    for (std::size_t i = 0; i < s.arrival_label.size(); ++i) {
      target[i] = s.arrival_label[i] / s.cache->clock;
    }
    Value loss = tape.mse(pred, target);
    if (opts_.endpoint_loss_weight > 0.0 && !s.endpoint_pins.empty()) {
      Tensor ep_target(s.endpoint_pins.size(), 1);
      for (std::size_t i = 0; i < s.endpoint_pins.size(); ++i) {
        ep_target[i] =
            s.arrival_label[static_cast<std::size_t>(s.endpoint_pins[i])] / s.cache->clock;
      }
      const Value ep_pred = tape.gather_rows(pred, s.endpoint_pins);
      loss = tape.add(loss,
                      tape.scale(tape.mse(ep_pred, ep_target), opts_.endpoint_loss_weight));
    }
    tape.backward(loss);

    std::vector<Tensor> grads;
    model_->accumulate_param_grads(tape, bound, grads);
    // Per-tensor max-norm clipping keeps early epochs stable.
    for (Tensor& g : grads) {
      double norm = 0.0;
      for (double v : g.data()) norm += v * v;
      norm = std::sqrt(norm);
      if (norm > kGradClip) {
        const double f = kGradClip / norm;
        for (double& v : g.data()) v *= f;
      }
    }
    adam_.step(grads);
    loss_sum += tape.value(loss)[0];
    tape_nodes_hint_ = std::max(tape_nodes_hint_, tape.num_nodes());
  }
  return samples.empty() ? 0.0 : loss_sum / static_cast<double>(samples.size());
}

double Trainer::fit(std::span<TrainingSample> samples) {
  double loss = 0.0;
  for (int e = 0; e < opts_.epochs; ++e) {
    loss = train_epoch(samples);
    if ((e + 1) % 10 == 0) TS_VERBOSE("  epoch %d/%d loss %.6f", e + 1, opts_.epochs, loss);
  }
  return loss;
}

std::vector<double> Trainer::predict(const TrainingSample& sample) const {
  Tape tape;
  tape.reserve(tape_nodes_hint_);
  const TimingGnn::Bound bound = model_->bind(tape);
  const Value xs = tape.leaf(Tensor::column(sample.xs));
  const Value ys = tape.leaf(Tensor::column(sample.ys));
  const Value pred = model_->forward(tape, *sample.cache, bound, xs, ys);
  const Tensor& t = tape.value(pred);
  std::vector<double> out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = t[i] * sample.cache->clock;
  tape_nodes_hint_ = std::max(tape_nodes_hint_, tape.num_nodes());
  return out;
}

EvalMetrics Trainer::evaluate(const TrainingSample& sample) const {
  const std::vector<double> pred = predict(sample);
  EvalMetrics m;
  m.r2_all = r2_score(sample.arrival_label, pred);
  std::vector<double> gt_ends, pr_ends;
  gt_ends.reserve(sample.endpoint_pins.size());
  for (int ep : sample.endpoint_pins) {
    gt_ends.push_back(sample.arrival_label[static_cast<std::size_t>(ep)]);
    pr_ends.push_back(pred[static_cast<std::size_t>(ep)]);
  }
  m.r2_ends = gt_ends.empty() ? 1.0 : r2_score(gt_ends, pr_ends);
  return m;
}

}  // namespace tsteiner
