#include "gnn/model.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tsteiner {

namespace {

/// Elements [lo, hi) of a per-arc / per-edge cache array.
template <class T>
std::vector<T> slice(const std::vector<T>& v, int lo, int hi) {
  return std::vector<T>(v.begin() + lo, v.begin() + hi);
}

/// Level-synchronous propagation state over a graph's nodes (pins or
/// snodes): the frontier tensors recorded so far and, per node, the
/// frontier slot and row holding its value. Each level reads its inputs
/// through one gather_frontiers op and records only its own frontier, so the
/// tape grows with the frontiers, not with levels x nodes.
class FrontierMap {
 public:
  /// Nodes start unwritten (they read +0.0) or, given `base`, at
  /// base.row(node).
  explicit FrontierMap(std::size_t num_nodes, Value base = Value{})
      : slot_(num_nodes, base.valid() ? 0 : -1), row_(num_nodes, 0) {
    if (base.valid()) {
      sources_.push_back(base);
      std::iota(row_.begin(), row_.end(), 0);
    }
    first_frontier_ = static_cast<int>(sources_.size());
  }

  /// One row per entry of `nodes`: 0.0 + the node's current value.
  Value read(Tape& tape, const std::vector<int>& nodes) {
    // Only the frontiers this read touches become operands, renumbered in
    // order of first use (the flat local_ table is reset afterwards).
    local_.resize(sources_.size(), -1);
    std::vector<Value> used;
    std::vector<int> used_slot;
    std::vector<int> slots(nodes.size()), rows(nodes.size());
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const auto n = static_cast<std::size_t>(nodes[k]);
      const int s = slot_[n];
      if (s < 0) {
        slots[k] = -1;
        continue;
      }
      int& local = local_[static_cast<std::size_t>(s)];
      if (local < 0) {
        local = static_cast<int>(used.size());
        used.push_back(sources_[static_cast<std::size_t>(s)]);
        used_slot.push_back(s);
      }
      slots[k] = local;
      rows[k] = row_[n];
    }
    for (int s : used_slot) local_[static_cast<std::size_t>(s)] = -1;
    return tape.gather_frontiers(used, slots, rows);
  }

  /// Record `frontier` (one row per entry of `nodes`) as those nodes'
  /// values. Every node is written by at most one frontier.
  void write(Value frontier, const std::vector<int>& nodes) {
    const int s = static_cast<int>(sources_.size());
    sources_.push_back(frontier);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const auto n = static_cast<std::size_t>(nodes[k]);
      if (slot_[n] >= first_frontier_) {
        throw std::logic_error("FrontierMap: node written by two frontiers");
      }
      slot_[n] = s;
      row_[n] = static_cast<int>(k);
    }
  }

  /// The full (num_nodes x 1) tensor of current values.
  Value assemble(Tape& tape) {
    std::vector<int> all(slot_.size());
    std::iota(all.begin(), all.end(), 0);
    return read(tape, all);
  }

 private:
  std::vector<Value> sources_;
  std::vector<int> slot_, row_;  // by node; slot -1 = unwritten
  std::vector<int> local_;       // by slot: operand index within one read
  int first_frontier_ = 0;
};

}  // namespace

TimingGnn::TimingGnn(const GnnConfig& config, int num_cell_types) : cfg_(config) {
  Rng rng(config.seed);
  const auto H = static_cast<std::size_t>(cfg_.hidden);
  const auto E = static_cast<std::size_t>(cfg_.type_embed);
  const auto D = static_cast<std::size_t>(cfg_.delay_hidden);
  const auto T = static_cast<std::size_t>(num_cell_types);
  auto xavier = [&rng](std::size_t rows, std::size_t cols) {
    return Tensor::randn(rng, rows, cols, std::sqrt(2.0 / static_cast<double>(rows + cols)));
  };
  params_.resize(kNumParams);
  params_[kWIn] = xavier(6, H);
  params_[kBIn] = Tensor::zeros(1, H);
  params_[kWB] = xavier(2 * H + 1, H);
  params_[kBB] = Tensor::zeros(1, H);
  params_[kWU1] = xavier(H, H);
  params_[kWU2] = xavier(H, H);
  params_[kBU] = Tensor::zeros(1, H);
  params_[kWR] = xavier(H + 1, H);
  params_[kBR] = Tensor::zeros(1, H);
  params_[kWU3] = xavier(H, H);
  params_[kWU4] = xavier(H, H);
  params_[kBU2] = Tensor::zeros(1, H);
  params_[kTypeEmb] = xavier(T, E);
  params_[kWC1] = xavier(E + 4, D);
  params_[kBC1] = Tensor::zeros(1, D);
  params_[kWC2] = xavier(D, 1);
  params_[kBC2] = Tensor::zeros(1, 1);
  params_[kWN1] = xavier(2 * H + 3, D);
  params_[kBN1] = Tensor::zeros(1, D);
  params_[kWN2] = xavier(D, 1);
  params_[kBN2] = Tensor::zeros(1, 1);
  params_[kWN3] = xavier(D, 1);
  params_[kBN3] = Tensor::zeros(1, 1);
  params_[kWS1] = xavier(3, 8);
  params_[kBS1] = Tensor::zeros(1, 8);
  params_[kWS2] = xavier(8, 1);
  params_[kBS2] = Tensor::zeros(1, 1);
}

TimingGnn::Bound TimingGnn::bind(Tape& tape) const {
  Bound b;
  b.handles.reserve(params_.size());
  for (const Tensor& p : params_) b.handles.push_back(tape.leaf(p, /*requires_grad=*/true));
  return b;
}

void TimingGnn::accumulate_param_grads(const Tape& tape, const Bound& bound,
                                       std::vector<Tensor>& grads) const {
  if (grads.size() != params_.size()) {
    grads.clear();
    for (const Tensor& p : params_) grads.push_back(Tensor::zeros(p.rows(), p.cols()));
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Tensor& g = tape.grad(bound.handles[i]);
    if (g.size() == 0) continue;
    for (std::size_t k = 0; k < g.size(); ++k) grads[i][k] += g[k];
  }
}

Value TimingGnn::forward(Tape& tape, const GraphCache& g, const Bound& bound, Value xs,
                         Value ys) const {
  TS_TRACE_SPAN_CAT("gnn.forward", "gnn");
  static obs::Counter& m_forwards = obs::metrics().counter("gnn.forwards");
  m_forwards.add();
  const auto P = [&bound](ParamId id) { return bound.handles[id]; };
  using Act = Tape::Act;
  const auto S = static_cast<std::size_t>(g.num_snodes);
  const double len_scale = 1.0 / (4.0 * g.gcell);
  const double wl_scale = 1.0 / (8.0 * g.gcell);

  // ---- snode coordinates: constants + scattered movable leaves -------------
  Value sx = tape.leaf(Tensor::column(g.base_x));
  Value sy = tape.leaf(Tensor::column(g.base_y));
  if (tape.value(xs).rows() > 0) {
    sx = tape.add(sx, tape.scatter_add_rows(xs, g.movable_to_snode, S));
    sy = tape.add(sy, tape.scatter_add_rows(ys, g.movable_to_snode, S));
  }

  // ---- initial snode embeddings ---------------------------------------------
  const std::vector<Value> feats = {
      tape.leaf(Tensor::column(g.feat_is_steiner)),
      tape.leaf(Tensor::column(g.feat_is_driver)),
      tape.leaf(Tensor::column(g.feat_is_sink)),
      tape.leaf(Tensor::column(g.feat_degree)),
      tape.scale(sx, 1.0 / g.die_w),
      tape.scale(sy, 1.0 / g.die_h),
  };
  Value h = tape.dense({{feats, P(kWIn)}}, P(kBIn), Act::kTanh);

  // ---- tree-edge lengths (differentiable in Steiner coordinates) -----------
  const bool has_edges = !g.edge_pa.empty();
  Value len_norm;   // (E x 1) normalized edge lengths
  Value plen_norm;  // (S x 1) driver->node path length
  Value elm_norm;   // (S x 1) clock-normalized geometric Elmore delay
  Value subtree;    // (S x 1) downstream capacitance (pF)
  if (has_edges) {
    const Value dx = tape.smooth_abs(
        tape.sub(tape.gather_rows(sx, g.edge_pa), tape.gather_rows(sx, g.edge_ch)),
        cfg_.soft_abs_delta);
    const Value dy = tape.smooth_abs(
        tape.sub(tape.gather_rows(sy, g.edge_pa), tape.gather_rows(sy, g.edge_ch)),
        cfg_.soft_abs_delta);
    const Value len = tape.add(dx, dy);  // DBU
    len_norm = tape.scale(len, len_scale);

    // Per-depth edge slices (edges sorted by depth in the cache).
    std::vector<std::vector<int>> lvl_idx, lvl_pa, lvl_ch;
    for (std::size_t l = 0; l + 1 < g.level_off.size(); ++l) {
      const int lo = g.level_off[l];
      const int hi = g.level_off[l + 1];
      if (lo == hi) continue;
      std::vector<int> idx(static_cast<std::size_t>(hi - lo));
      std::iota(idx.begin(), idx.end(), lo);
      lvl_idx.push_back(std::move(idx));
      lvl_pa.push_back(slice(g.edge_pa, lo, hi));
      lvl_ch.push_back(slice(g.edge_ch, lo, hi));
    }

    // Exact path lengths, depth by depth: each child's row of the depth's
    // frontier is its parent's length plus the edge (every node has exactly
    // one parent edge; drivers read +0.0).
    FrontierMap plen_map(S);
    for (std::size_t l = 0; l < lvl_idx.size(); ++l) {
      const Value level_len = tape.gather_rows(len_norm, lvl_idx[l]);
      plen_map.write(tape.add(plen_map.read(tape, lvl_pa[l]), level_len), lvl_ch[l]);
    }
    plen_norm = plen_map.assemble(tape);

    // Geometric Elmore delay, fully on-tape (the physics that links Steiner
    // positions to sign-off net delay; routed-length quantization, detours
    // and slew effects are the residual the learned heads absorb).
    // 1. node capacitance: sink pin caps + half of each adjacent edge's wire.
    const Value half_cap = tape.scale(len, 0.5 * g.wire_cap);
    Value node_cap = tape.leaf(Tensor::column(g.snode_pin_cap));
    node_cap = tape.add(node_cap, tape.scatter_add_rows(half_cap, g.edge_pa, S));
    node_cap = tape.add(node_cap, tape.scatter_add_rows(half_cap, g.edge_ch, S));
    // 2. subtree capacitance, deepest depth first: the depth's frontier is
    //    its distinct parents, node_cap + (0.0 + c1 + c2 ...) over their
    //    children's subtrees in edge order. Leaves keep node_cap.
    FrontierMap sub_map(S, node_cap);
    std::vector<int> parent_row(S, -1);
    for (std::size_t l = lvl_idx.size(); l-- > 0;) {
      std::vector<int> parents, local(lvl_pa[l].size());
      for (std::size_t k = 0; k < lvl_pa[l].size(); ++k) {
        int& row = parent_row[static_cast<std::size_t>(lvl_pa[l][k])];
        if (row < 0) {
          row = static_cast<int>(parents.size());
          parents.push_back(lvl_pa[l][k]);
        }
        local[k] = row;
      }
      for (int p : parents) parent_row[static_cast<std::size_t>(p)] = -1;
      const Value child_sum =
          tape.scatter_add_rows(sub_map.read(tape, lvl_ch[l]), std::move(local), parents.size());
      sub_map.write(tape.add(tape.gather_rows(node_cap, parents), child_sum), parents);
    }
    subtree = sub_map.assemble(tape);
    // 3. Elmore: elm[child] = elm[parent] + R_edge * C_subtree(child).
    FrontierMap elm_map(S);
    for (std::size_t l = 0; l < lvl_idx.size(); ++l) {
      const Value r_edge = tape.scale(tape.gather_rows(len, lvl_idx[l]), g.wire_res);
      const Value contrib = tape.mul(r_edge, tape.gather_rows(subtree, lvl_ch[l]));
      elm_map.write(tape.add(elm_map.read(tape, lvl_pa[l]), contrib), lvl_ch[l]);
    }
    elm_norm = tape.scale(elm_map.assemble(tape), 1.0 / g.clock);
  } else {
    len_norm = tape.leaf(Tensor::zeros(0, 1));
    plen_norm = tape.leaf(Tensor::zeros(S, 1));
    elm_norm = tape.leaf(Tensor::zeros(S, 1));
    subtree = tape.leaf(Tensor::column(g.snode_pin_cap));
  }

  // ---- Steiner-graph iterations: broadcast then reduce ----------------------
  for (int it = 0; it < cfg_.steiner_iters; ++it) {
    if (has_edges) {
      const Value hp = tape.gather_rows(h, g.edge_pa);
      const Value hc = tape.gather_rows(h, g.edge_ch);
      const Value msg = tape.dense({{{hp, hc, len_norm}, P(kWB)}}, P(kBB), Act::kRelu);
      const Value agg = tape.scatter_add_rows(msg, g.edge_ch, S);
      h = tape.dense({{{h}, P(kWU1)}, {{agg}, P(kWU2)}}, P(kBU), Act::kTanh);
    }
    if (!g.sink_snode.empty()) {
      const Value hs = tape.gather_rows(h, g.sink_snode);
      const Value ps = tape.gather_rows(plen_norm, g.sink_snode);
      const Value rmsg = tape.dense({{{hs, ps}, P(kWR)}}, P(kBR), Act::kRelu);
      const Value ragg = tape.scatter_add_rows(rmsg, g.sink_driver_snode, S);
      h = tape.dense({{{h}, P(kWU3)}, {{ragg}, P(kWU4)}}, P(kBU2), Act::kTanh);
    }
  }

  // ---- per-tree load features --------------------------------------------------
  Value tree_wl;       // (num_trees x 1), normalized wirelength
  Value tree_cap_pf;   // (num_trees x 1), total load capacitance (pF)
  Value tree_cap;      // (num_trees x 1), normalized
  if (has_edges && g.num_trees > 0) {
    tree_wl = tape.scale(
        tape.segment_sum(len_norm, g.edge_tree, static_cast<std::size_t>(g.num_trees)),
        len_scale > 0 ? (wl_scale / len_scale) : 1.0);
    tree_cap_pf = tape.gather_rows(subtree, g.tree_driver_snode);
    tree_cap = tape.scale(tree_cap_pf, 1.0 / 0.05);
  } else {
    tree_wl = tape.leaf(Tensor::zeros(std::max(1, g.num_trees), 1));
    tree_cap_pf = tape.leaf(Tensor::zeros(std::max(1, g.num_trees), 1));
    tree_cap = tree_cap_pf;
  }

  // ---- netlist propagation -----------------------------------------------------
  // Each stage records only its frontier (q, a level's cell-output arrivals,
  // a level's sink arrivals) and reads earlier arrivals through the pin map.
  FrontierMap arr_map(static_cast<std::size_t>(g.num_pins));

  // Startpoints: register CK->Q. Physical anchor (intrinsic + R * C_load,
  // both from the library / on-tape load) times a bounded learned correction
  // — the correction absorbs slew and table nonlinearity.
  if (!g.regq_pins.empty()) {
    const std::vector<Value> q_in = {
        tape.gather_rows(tree_wl, g.regq_tree),
        tape.gather_rows(tree_cap, g.regq_tree),
        tape.leaf(Tensor::column(g.regq_res)),
    };
    const Value q_hidden = tape.dense({{q_in, P(kWS1)}}, P(kBS1), Act::kRelu);
    Value q;
    if (cfg_.physics_anchor) {
      const Value corr = tape.dense({{{q_hidden}, P(kWS2)}}, P(kBS2), Act::kTanh);
      const Value phys = tape.scale(
          tape.add(tape.leaf(Tensor::column(g.regq_intrinsic)),
                   tape.mul(tape.leaf(Tensor::column(g.regq_res)),
                            tape.gather_rows(tree_cap_pf, g.regq_tree))),
          1.0 / g.clock);
      q = tape.mul(phys, tape.add_scalar(tape.scale(corr, 0.5), 1.0));
    } else {
      q = tape.softplus(tape.dense({{{q_hidden}, P(kWS2)}}, P(kBS2), Act::kNone));
    }
    arr_map.write(q, g.regq_pins);
  }

  // Level-by-level propagation: cell arcs into level l, then net arcs out of
  // drivers at level l.
  for (int l = 0; l <= g.num_levels; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    // Cell arcs whose output pin sits at level l.
    if (lu + 1 < g.cell_arc_off.size()) {
      const int lo = g.cell_arc_off[lu];
      const int hi = g.cell_arc_off[lu + 1];
      if (lo < hi) {
        const auto n = static_cast<std::size_t>(hi - lo);
        std::vector<int> in_pins(n), types(n);
        for (std::size_t i = 0; i < n; ++i) {
          const GraphCache::CellArc& a = g.cell_arcs[static_cast<std::size_t>(lo) + i];
          in_pins[i] = a.in_pin;
          types[i] = a.type;
        }
        const std::vector<int> trees = slice(g.cell_arc_tree, lo, hi);
        const std::vector<double> ress = slice(g.cell_arc_res, lo, hi);
        const Value emb = tape.gather_rows(P(kTypeEmb), types);
        const std::vector<Value> d_in = {
            emb,
            tape.gather_rows(tree_wl, trees),
            tape.gather_rows(tree_cap, trees),
            tape.leaf(Tensor::column(slice(g.cell_arc_cap, lo, hi))),
            tape.leaf(Tensor::column(ress)),
        };
        const Value c_hidden = tape.dense({{d_in, P(kWC1)}}, P(kBC1), Act::kRelu);
        Value delay;
        if (cfg_.physics_anchor) {
          const Value corr = tape.dense({{{c_hidden}, P(kWC2)}}, P(kBC2), Act::kTanh);
          // Physical anchor: intrinsic + R_drive * C_load (Elmore-consistent
          // first-order gate model), bounded learned correction on top.
          const Value phys = tape.scale(
              tape.add(tape.leaf(Tensor::column(slice(g.cell_arc_intrinsic, lo, hi))),
                       tape.mul(tape.leaf(Tensor::column(ress)),
                                tape.gather_rows(tree_cap_pf, trees))),
              1.0 / g.clock);
          delay = tape.mul(phys, tape.add_scalar(tape.scale(corr, 0.5), 1.0));
        } else {
          delay = tape.softplus(tape.dense({{{c_hidden}, P(kWC2)}}, P(kBC2), Act::kNone));
        }
        const Value cand = tape.add(arr_map.read(tape, in_pins), delay);
        const int out_lo = g.cell_out_off[lu];
        const int out_hi = g.cell_out_off[lu + 1];
        const Value out_arr = tape.segment_max(cand, slice(g.cell_arc_seg, lo, hi),
                                               static_cast<std::size_t>(out_hi - out_lo), 0.0);
        arr_map.write(out_arr, slice(g.cell_out_pins, out_lo, out_hi));
      }
    }
    // Net arcs from drivers at level l.
    if (lu + 1 < g.net_arc_off.size()) {
      const int lo = g.net_arc_off[lu];
      const int hi = g.net_arc_off[lu + 1];
      if (lo < hi) {
        const auto n = static_cast<std::size_t>(hi - lo);
        std::vector<int> drv(n), snk(n), d_snode(n);
        for (std::size_t i = 0; i < n; ++i) {
          const GraphCache::NetArc& a = g.net_arcs[static_cast<std::size_t>(lo) + i];
          drv[i] = a.driver_pin;
          snk[i] = a.sink_pin;
          d_snode[i] = g.pin_snode[static_cast<std::size_t>(a.driver_pin)];
          if (d_snode[i] < 0) throw std::runtime_error("driver pin missing snode");
        }
        const std::vector<int> s_snode = slice(g.net_arc_sink_snode, lo, hi);
        const Value elm_s = tape.gather_rows(elm_norm, s_snode);
        const std::vector<Value> n_in = {
            tape.gather_rows(h, s_snode),
            tape.gather_rows(h, d_snode),
            tape.gather_rows(plen_norm, s_snode),
            elm_s,
            tape.gather_rows(tree_wl, slice(g.net_arc_tree, lo, hi)),
        };
        const Value hidden_n = tape.dense({{n_in, P(kWN1)}}, P(kBN1), Act::kRelu);
        Value ndelay;
        if (cfg_.physics_anchor) {
          // net delay = Elmore x bounded correction + small learned additive
          // term (captures gcell quantization and congestion detours).
          const Value mult = tape.dense({{{hidden_n}, P(kWN2)}}, P(kBN2), Act::kTanh);
          const Value addi =
              tape.softplus(tape.dense({{{hidden_n}, P(kWN3)}}, P(kBN3), Act::kNone));
          ndelay = tape.add(tape.mul(elm_s, tape.add_scalar(tape.scale(mult, 0.5), 1.0)),
                            tape.scale(addi, 0.02));
        } else {
          ndelay = tape.softplus(tape.dense({{{hidden_n}, P(kWN2)}}, P(kBN2), Act::kNone));
        }
        arr_map.write(tape.add(arr_map.read(tape, drv), ndelay), snk);
      }
    }
  }
  // The full per-pin arrival tensor, built once.
  return arr_map.assemble(tape);
}

}  // namespace tsteiner
