#include "opt/buffering.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

namespace tsteiner {

namespace {

/// Also allow buffers at midpoints of edges longer than this (DBU).
constexpr double kSplitEdgesLongerThan = 48.0;

/// Nominal input slew for buffer delay lookups.
constexpr double kNominalSlewNs = 0.05;

/// Keep at most this many non-dominated options per node.
constexpr int kMaxOptions = 64;

/// Expanded tree: original nodes plus midpoints of long edges (extra buffer
/// candidates). Deterministic for the tree so plan/apply agree.
struct XTree {
  std::vector<PointF> pos;
  std::vector<int> pin;           ///< design pin id; -1 for candidates
  std::vector<int> parent;        ///< parent node (-1 at driver)
  std::vector<std::vector<int>> children;
  std::vector<double> edge_r;     ///< edge into node from parent
  std::vector<double> edge_c;
  std::vector<int> order;         ///< BFS order from driver
  int driver = 0;
};

XTree expand(const Design& design, const SteinerTree& tree) {
  XTree x;
  const CellLibrary& lib = design.library();
  const auto parent = tree.parents_from_driver();
  const std::size_t n = tree.nodes.size();
  x.pos.reserve(n * 2);
  x.pin.reserve(n * 2);
  for (const SteinerNode& node : tree.nodes) {
    x.pos.push_back(node.pos);
    x.pin.push_back(node.pin);
  }
  x.parent.assign(n, -1);
  for (std::size_t v = 0; v < n; ++v) x.parent[v] = parent[v];
  x.driver = tree.driver_node;

  // Split long parent edges with a midpoint candidate.
  for (std::size_t v = 0; v < n; ++v) {
    const int p = x.parent[v];
    if (p < 0) continue;
    const double len = manhattan(x.pos[v], x.pos[static_cast<std::size_t>(p)]);
    if (len > kSplitEdgesLongerThan) {
      const int mid = static_cast<int>(x.pos.size());
      x.pos.push_back({0.5 * (x.pos[v].x + x.pos[static_cast<std::size_t>(p)].x),
                       0.5 * (x.pos[v].y + x.pos[static_cast<std::size_t>(p)].y)});
      x.pin.push_back(-1);
      x.parent.push_back(p);
      x.parent[v] = mid;
    }
  }

  const std::size_t m = x.pos.size();
  x.children.assign(m, {});
  for (std::size_t v = 0; v < m; ++v) {
    if (x.parent[v] >= 0) x.children[static_cast<std::size_t>(x.parent[v])].push_back(
        static_cast<int>(v));
  }
  x.edge_r.assign(m, 0.0);
  x.edge_c.assign(m, 0.0);
  for (std::size_t v = 0; v < m; ++v) {
    if (x.parent[v] < 0) continue;
    const double len = manhattan(x.pos[v], x.pos[static_cast<std::size_t>(x.parent[v])]);
    x.edge_r[v] = lib.wire_res_kohm_per_dbu() * len;
    x.edge_c[v] = lib.wire_cap_pf_per_dbu() * len;
  }
  x.order.clear();
  x.order.push_back(x.driver);
  for (std::size_t i = 0; i < x.order.size(); ++i) {
    for (int c : x.children[static_cast<std::size_t>(x.order[i])]) x.order.push_back(c);
  }
  if (x.order.size() != m) throw std::runtime_error("buffering: disconnected tree");
  return x;
}

/// Persistent trace of buffer insertions below an option.
struct Trace {
  int buffer_node = -1;  ///< -1: pure merge node
  std::shared_ptr<const Trace> a, b;
};

struct Opt {
  double cap = 0.0;
  double delay = 0.0;
  std::shared_ptr<const Trace> trace;
};

/// Prune dominated options: keep the Pareto front (increasing cap must mean
/// strictly decreasing delay).
void prune(std::vector<Opt>& opts) {
  std::sort(opts.begin(), opts.end(), [](const Opt& a, const Opt& b) {
    if (a.cap != b.cap) return a.cap < b.cap;
    return a.delay < b.delay;
  });
  std::vector<Opt> kept;
  double best_delay = std::numeric_limits<double>::infinity();
  for (const Opt& o : opts) {
    if (o.delay < best_delay - 1e-15) {
      kept.push_back(o);
      best_delay = o.delay;
    }
  }
  if (static_cast<int>(kept.size()) > kMaxOptions) {
    // Thin uniformly, always keeping the extremes.
    std::vector<Opt> thinned;
    const double step =
        static_cast<double>(kept.size() - 1) / static_cast<double>(kMaxOptions - 1);
    for (int i = 0; i < kMaxOptions; ++i) {
      thinned.push_back(kept[static_cast<std::size_t>(std::llround(i * step))]);
    }
    kept = std::move(thinned);
  }
  opts = std::move(kept);
}

void collect_buffers(const std::shared_ptr<const Trace>& t, std::vector<int>& out) {
  if (!t) return;
  if (t->buffer_node >= 0) out.push_back(t->buffer_node);
  collect_buffers(t->a, out);
  collect_buffers(t->b, out);
}

double driver_delay(const Design& design, const Net& net, double load, double slew) {
  const Pin& drv = design.pin(net.driver_pin);
  if (drv.cell < 0) return 0.5 * load;  // PI: generic pad driver
  const CellType& t = design.cell_type(drv.cell);
  return t.arcs[0].delay.lookup(slew, load);
}

}  // namespace

BufferingPlan plan_buffering(const Design& design, const SteinerTree& tree) {
  BufferingPlan plan;
  plan.net = tree.net;
  const Net& net = design.net(tree.net);
  const int buf_type = design.library().find(kBufferType);
  if (buf_type < 0) throw std::runtime_error("unknown buffer type");
  const CellType& buf = design.library().type(buf_type);

  const XTree x = expand(design, tree);
  const std::size_t m = x.pos.size();

  // Bottom-up DP in reverse BFS order.
  std::vector<std::vector<Opt>> dp(m);
  for (auto it = x.order.rbegin(); it != x.order.rend(); ++it) {
    const auto v = static_cast<std::size_t>(*it);
    // Base: this node's own load contribution.
    double own_cap = 0.0;
    if (x.pin[v] >= 0 && x.pin[v] != net.driver_pin) own_cap = design.pin_cap(x.pin[v]);
    std::vector<Opt> opts{{own_cap, 0.0, nullptr}};
    // Merge children (each child option already includes its edge).
    for (int c : x.children[v]) {
      std::vector<Opt> merged;
      merged.reserve(opts.size() * dp[static_cast<std::size_t>(c)].size());
      for (const Opt& a : opts) {
        for (const Opt& b : dp[static_cast<std::size_t>(c)]) {
          merged.push_back({a.cap + b.cap, std::max(a.delay, b.delay),
                            std::make_shared<Trace>(Trace{-1, a.trace, b.trace})});
        }
      }
      opts = std::move(merged);
      prune(opts);
    }
    // Buffer candidate at this node (not at the driver).
    if (static_cast<int>(v) != x.driver) {
      std::vector<Opt> with_buf = opts;
      for (const Opt& o : opts) {
        const double d = buf.arcs[0].delay.lookup(kNominalSlewNs, o.cap);
        with_buf.push_back(
            {buf.input_cap_pf, o.delay + d,
             std::make_shared<Trace>(Trace{static_cast<int>(v), o.trace, nullptr})});
      }
      opts = std::move(with_buf);
      prune(opts);
      // Add the parent edge (pi model: R * (C_down + C_e / 2)).
      for (Opt& o : opts) {
        o.delay += x.edge_r[v] * (o.cap + 0.5 * x.edge_c[v]);
        o.cap += x.edge_c[v];
      }
      prune(opts);
    }
    dp[v] = std::move(opts);
  }

  // Unbuffered reference: plain Elmore worst-sink delay + driver delay.
  {
    std::vector<double> sub_cap(m, 0.0);
    std::vector<double> sub_delay(m, 0.0);  // worst delay node -> sink below
    for (auto it = x.order.rbegin(); it != x.order.rend(); ++it) {
      const auto v = static_cast<std::size_t>(*it);
      double cap = 0.0;
      if (x.pin[v] >= 0 && x.pin[v] != net.driver_pin) cap = design.pin_cap(x.pin[v]);
      double worst = 0.0;
      for (int c : x.children[v]) {
        const auto cc = static_cast<std::size_t>(c);
        const double through =
            x.edge_r[cc] * (sub_cap[cc] + 0.5 * x.edge_c[cc]) + sub_delay[cc];
        worst = std::max(worst, through);
        cap += sub_cap[cc] + x.edge_c[cc];
      }
      sub_cap[v] = cap;
      sub_delay[v] = worst;
    }
    const auto d = static_cast<std::size_t>(x.driver);
    plan.delay_before_ns =
        driver_delay(design, net, sub_cap[d], kNominalSlewNs) + sub_delay[d];
  }

  // Driver: pick the option minimizing driver delay + downstream delay.
  const auto& root = dp[static_cast<std::size_t>(x.driver)];
  double best = std::numeric_limits<double>::infinity();
  const Opt* chosen = nullptr;
  for (const Opt& o : root) {
    const double total = driver_delay(design, net, o.cap, kNominalSlewNs) + o.delay;
    if (total < best) {
      best = total;
      chosen = &o;
    }
  }
  plan.delay_after_ns = std::min(best, plan.delay_before_ns);
  if (best >= plan.delay_before_ns) return plan;  // buffering does not help
  if (chosen != nullptr) {
    std::vector<int> bufs;
    collect_buffers(chosen->trace, bufs);
    // Record expanded-node ids via positions (apply re-expands identically).
    for (int b : bufs) plan.buffers.push_back({x.pos[static_cast<std::size_t>(b)]});
  }
  return plan;
}

std::vector<int> apply_buffering(Design& design, const BufferingPlan& plan,
                                 const SteinerTree& tree) {
  std::vector<int> inserted;
  if (plan.buffers.empty()) return inserted;
  const int buf_type = design.library().find(kBufferType);
  if (buf_type < 0) throw std::runtime_error("unknown buffer type");

  const XTree x = expand(design, tree);
  // Match planned buffer positions back to expanded nodes.
  std::vector<char> is_buffer(x.pos.size(), 0);
  for (const BufferPlacement& b : plan.buffers) {
    bool found = false;
    for (std::size_t v = 0; v < x.pos.size(); ++v) {
      if (!is_buffer[v] && manhattan(x.pos[v], b.pos) < 1e-9) {
        is_buffer[v] = 1;
        found = true;
        break;
      }
    }
    if (!found) throw std::runtime_error("buffer position does not match the tree");
  }

  // Copies, not a reference: add_net below may reallocate the net array.
  const int original_net = design.net(tree.net).id;
  const int driver_pin = design.net(tree.net).driver_pin;
  // Walk the expanded tree from the driver, tracking the current net; at
  // buffer nodes insert the cell and switch to its output net.
  struct Visit {
    int node;
    int net;
  };
  std::vector<Visit> stack{{x.driver, original_net}};
  while (!stack.empty()) {
    const Visit v = stack.back();
    stack.pop_back();
    int current_net = v.net;
    if (is_buffer[static_cast<std::size_t>(v.node)]) {
      const int cell = design.add_cell(buf_type);
      design.cell(cell).pos = round_to_i(x.pos[static_cast<std::size_t>(v.node)]);
      design.connect_sink(current_net, design.cell(cell).input_pins[0]);
      current_net = design.add_net(design.cell(cell).output_pin);
      inserted.push_back(cell);
    }
    const int pin = x.pin[static_cast<std::size_t>(v.node)];
    if (pin >= 0 && pin != driver_pin && current_net != original_net) {
      design.disconnect_sink(original_net, pin);
      design.connect_sink(current_net, pin);
    }
    for (int c : x.children[static_cast<std::size_t>(v.node)]) {
      stack.push_back({c, current_net});
    }
  }
  return inserted;
}

}  // namespace tsteiner
