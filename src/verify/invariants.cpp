#include "verify/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "autodiff/tape.hpp"
#include "steiner/rsmt.hpp"

namespace tsteiner::verify {

namespace {

std::string tree_tag(const SteinerTree& tree) {
  return "tree of net " + std::to_string(tree.net);
}

}  // namespace

std::string check_forest_invariants(const Design& design, const SteinerForest& forest,
                                    bool require_min_degree, bool require_integral) {
  if (forest.net_to_tree.size() != design.nets().size()) {
    return "net_to_tree size " + std::to_string(forest.net_to_tree.size()) +
           " != net count " + std::to_string(design.nets().size());
  }
  for (std::size_t net = 0; net < forest.net_to_tree.size(); ++net) {
    const int t = forest.net_to_tree[net];
    if (t < 0) continue;
    if (static_cast<std::size_t>(t) >= forest.trees.size()) {
      return "net " + std::to_string(net) + " maps to out-of-range tree " + std::to_string(t);
    }
    if (forest.trees[static_cast<std::size_t>(t)].net != static_cast<int>(net)) {
      return "net " + std::to_string(net) + " maps to tree owned by net " +
             std::to_string(forest.trees[static_cast<std::size_t>(t)].net);
    }
  }

  long long steiner_nodes = 0;
  for (const SteinerTree& tree : forest.trees) {
    if (tree.net < 0 || static_cast<std::size_t>(tree.net) >= design.nets().size()) {
      return tree_tag(tree) + ": invalid net id";
    }
    if (!tree.is_valid_tree()) {
      return tree_tag(tree) + ": not a connected acyclic tree rooted at the driver";
    }
    const Net& net = design.net(tree.net);
    // Pin nodes must cover the net's driver and sinks exactly, pinned to
    // their placed positions; Steiner nodes must stay finite and on-die.
    std::multiset<int> tree_pins;
    std::vector<int> degree(tree.nodes.size(), 0);
    for (const SteinerEdge& e : tree.edges) {
      ++degree[static_cast<std::size_t>(e.a)];
      ++degree[static_cast<std::size_t>(e.b)];
    }
    for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
      const SteinerNode& node = tree.nodes[i];
      if (!std::isfinite(node.pos.x) || !std::isfinite(node.pos.y)) {
        return tree_tag(tree) + ": node " + std::to_string(i) + " has non-finite position";
      }
      if (!design.die().contains(node.pos)) {
        std::ostringstream os;
        os << tree_tag(tree) << ": node " << i << " at " << node.pos
           << " outside die " << design.die();
        return os.str();
      }
      if (require_integral &&
          (node.pos.x != std::floor(node.pos.x) || node.pos.y != std::floor(node.pos.y))) {
        std::ostringstream os;
        os << tree_tag(tree) << ": node " << i << " at " << node.pos
           << " off the rectilinear (integer DBU) grid";
        return os.str();
      }
      if (node.is_steiner()) {
        ++steiner_nodes;
        if (require_min_degree && degree[i] < 3) {
          return tree_tag(tree) + ": Steiner node " + std::to_string(i) + " has degree " +
                 std::to_string(degree[i]) + " < 3";
        }
      } else {
        tree_pins.insert(node.pin);
        const PointI placed = design.pin_position(node.pin);
        if (node.pos.x != static_cast<double>(placed.x) ||
            node.pos.y != static_cast<double>(placed.y)) {
          std::ostringstream os;
          os << tree_tag(tree) << ": pin node " << i << " at " << node.pos
             << " detached from placed pin position " << placed;
          return os.str();
        }
      }
    }
    std::multiset<int> net_pins{net.driver_pin};
    net_pins.insert(net.sink_pins.begin(), net.sink_pins.end());
    if (tree_pins != net_pins) {
      return tree_tag(tree) + ": pin nodes do not match the net's driver+sinks";
    }
  }

  if (forest.num_movable() != static_cast<std::size_t>(steiner_nodes)) {
    return "movable index holds " + std::to_string(forest.num_movable()) +
           " entries but the forest has " + std::to_string(steiner_nodes) +
           " Steiner nodes (stale build_movable_index?)";
  }
  for (const MovableRef& ref : forest.movable()) {
    if (ref.tree < 0 || static_cast<std::size_t>(ref.tree) >= forest.trees.size()) {
      return "movable ref with out-of-range tree " + std::to_string(ref.tree);
    }
    const SteinerTree& tree = forest.trees[static_cast<std::size_t>(ref.tree)];
    if (ref.node < 0 || static_cast<std::size_t>(ref.node) >= tree.nodes.size() ||
        !tree.nodes[static_cast<std::size_t>(ref.node)].is_steiner()) {
      return "movable ref (" + std::to_string(ref.tree) + ", " + std::to_string(ref.node) +
             ") does not point at a Steiner node";
    }
  }
  return {};
}

std::string check_small_net_optimality(const SteinerTree& tree) {
  std::vector<PointF> pins;
  for (const SteinerNode& node : tree.nodes) {
    if (!node.is_steiner()) pins.push_back(node.pos);
  }
  if (pins.size() < 2 || pins.size() > 4) return {};  // brute force covers <= 4 pins

  // Hanan's theorem: some optimal RSMT uses only Steiner points from the
  // grid {pin xs} x {pin ys}, and an n-pin optimum needs at most n-2 of
  // them. Enumerate every such subset and take the best spanning length.
  std::vector<double> gx, gy;
  for (const PointF& p : pins) {
    gx.push_back(p.x);
    gy.push_back(p.y);
  }
  std::sort(gx.begin(), gx.end());
  gx.erase(std::unique(gx.begin(), gx.end()), gx.end());
  std::sort(gy.begin(), gy.end());
  gy.erase(std::unique(gy.begin(), gy.end()), gy.end());
  std::vector<PointF> hanan;
  for (double x : gx) {
    for (double y : gy) {
      const PointF p{x, y};
      if (std::find(pins.begin(), pins.end(), p) == pins.end()) hanan.push_back(p);
    }
  }

  double optimum = mst_length(pins);
  const std::size_t extra = pins.size() - 2;  // max useful Steiner points
  std::vector<PointF> points = pins;
  if (extra >= 1) {
    for (std::size_t i = 0; i < hanan.size(); ++i) {
      points.resize(pins.size());
      points.push_back(hanan[i]);
      optimum = std::min(optimum, mst_length(points));
      if (extra >= 2) {
        for (std::size_t j = i + 1; j < hanan.size(); ++j) {
          points.resize(pins.size() + 1);
          points.push_back(hanan[j]);
          optimum = std::min(optimum, mst_length(points));
        }
      }
    }
  }

  const double wl = tree.wirelength();
  constexpr double kEps = 1e-6;
  if (wl < optimum - kEps) {
    return tree_tag(tree) + ": wirelength " + std::to_string(wl) +
           " below the provable optimum " + std::to_string(optimum) +
           " (length accounting is broken)";
  }
  if (wl > optimum + kEps) {
    return tree_tag(tree) + ": wirelength " + std::to_string(wl) + " exceeds the " +
           std::to_string(pins.size()) + "-pin brute-force optimum " + std::to_string(optimum);
  }
  return {};
}

std::string check_lse_penalty_properties(const std::vector<double>& slack, double gamma) {
  if (slack.empty()) return "empty slack vector";
  if (!(gamma > 0.0)) return "non-positive LSE gamma";
  const double n = static_cast<double>(slack.size());
  const double min_s = *std::min_element(slack.begin(), slack.end());
  double hard_tns = 0.0;
  for (double s : slack) hard_tns += std::min(0.0, s);
  const double tol = 1e-9 * std::max(1.0, std::abs(min_s));

  // Smooth WNS: -LSE_gamma(-s), the penalty graph's exact formulation.
  Tape tape;
  const Value s_leaf = tape.leaf(Tensor::column(slack), /*requires_grad=*/true);
  const Value smooth_wns = tape.neg(tape.log_sum_exp(tape.neg(s_leaf), gamma));
  const double w = tape.value(smooth_wns)[0];
  if (w > min_s + tol) {
    return "smooth WNS " + std::to_string(w) + " above hard WNS " + std::to_string(min_s) +
           " (LSE must over-approximate the max)";
  }
  if (w < min_s - gamma * std::log(n) - tol) {
    return "smooth WNS " + std::to_string(w) + " below the LSE lower bound " +
           std::to_string(min_s - gamma * std::log(n));
  }
  tape.backward(smooth_wns);
  const Tensor& gw = tape.grad(s_leaf);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < gw.size(); ++i) {
    if (gw[i] < -1e-12 || gw[i] > 1.0 + 1e-12) {
      return "smooth-WNS gradient weight " + std::to_string(gw[i]) + " at endpoint " +
             std::to_string(i) + " outside [0, 1]";
    }
    weight_sum += gw[i];
  }
  if (std::abs(weight_sum - 1.0) > 1e-9) {
    return "smooth-WNS gradient weights sum to " + std::to_string(weight_sum) +
           " (softmax simplex requires 1)";
  }

  // Smooth TNS: sum of soft_min0, bounded by the hard TNS from below by
  // n * gamma * ln 2 (the worst per-endpoint smoothing error, at s = 0).
  Tape tape2;
  const Value s_leaf2 = tape2.leaf(Tensor::column(slack), /*requires_grad=*/true);
  const Value smooth_tns = tape2.sum_all(tape2.soft_min0(s_leaf2, gamma));
  const double t = tape2.value(smooth_tns)[0];
  const double tns_tol = 1e-9 * std::max(1.0, std::abs(hard_tns));
  if (t > hard_tns + tns_tol) {
    return "smooth TNS " + std::to_string(t) + " above hard TNS " + std::to_string(hard_tns);
  }
  if (t < hard_tns - n * gamma * std::log(2.0) - tns_tol) {
    return "smooth TNS " + std::to_string(t) + " below its lower bound " +
           std::to_string(hard_tns - n * gamma * std::log(2.0));
  }
  tape2.backward(smooth_tns);
  const Tensor& gt = tape2.grad(s_leaf2);
  for (std::size_t i = 0; i < gt.size(); ++i) {
    if (gt[i] < -1e-12 || gt[i] > 1.0 + 1e-12) {
      return "smooth-TNS gradient " + std::to_string(gt[i]) + " at endpoint " +
             std::to_string(i) + " outside [0, 1]";
    }
  }
  return {};
}

std::string check_keep_best_monotone(const RefineResult& result) {
  constexpr double kTol = 1e-9;
  if (result.best_wns + kTol < result.init_wns) {
    return "keep-best WNS regressed: init " + std::to_string(result.init_wns) + " -> best " +
           std::to_string(result.best_wns);
  }
  if (result.best_tns + kTol < result.init_tns) {
    return "keep-best TNS regressed: init " + std::to_string(result.init_tns) + " -> best " +
           std::to_string(result.best_tns);
  }
  if (static_cast<int>(result.iteration_log.size()) != result.iterations) {
    return "iteration log length " + std::to_string(result.iteration_log.size()) +
           " does not cover " + std::to_string(result.iterations) + " iterations";
  }
  return {};
}

}  // namespace tsteiner::verify
