#include "flow/incremental_signoff.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace tsteiner {

IncrementalSignoff::IncrementalSignoff(const Design* design, const FlowOptions& options)
    : design_(design),
      options_(options),
      router_(design, options.router),
      droute_(design, options.droute),
      sta_(*design, options.sta) {}

const IncrementalSignoff::Result& IncrementalSignoff::full(const SteinerForest& forest) {
  result_ = Result{};
  const GlobalRouteResult* gr = nullptr;
  {
    obs::ScopedPhase phase("signoff.full_gr", &result_.runtime.global_route);
    gr = &router_.route_full(forest);
  }
  const DetailedRouteResult* dr = nullptr;
  {
    obs::ScopedPhase phase("signoff.full_dr", &result_.runtime.detailed_route);
    dr = &droute_.full(*gr);
  }
  const StaResult* sta = nullptr;
  {
    obs::ScopedPhase phase("signoff.full_sta", &result_.runtime.sta);
    sta = &sta_.analyze(forest, gr);
  }
  result_.metrics = signoff_metrics(*sta, *dr);
  result_.sta = sta;
  result_.gr = gr;
  ran_full_ = true;
  return result_;
}

const IncrementalSignoff::Result& IncrementalSignoff::update(
    const SteinerForest& forest, const std::vector<int>& dirty_nets) {
  // A topology change invalidates every stage's cache at once. The router
  // would also detect it and fall back internally, but then its
  // changed_connections() would be empty while every path potentially moved
  // — DR and STA would go stale. Detect it here and rebuild all three stages
  // coherently through full().
  if (!ran_full_) return full(forest);
  const GlobalRouteResult& prev = router_.result();
  if (forest.trees.size() != prev.conn_of_edge.size()) return full(forest);
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    if (forest.trees[t].edges.size() != prev.conn_of_edge[t].size()) return full(forest);
  }

  // Dirty nets -> dirty trees, deduplicated.
  std::vector<char> tree_dirty(forest.trees.size(), 0);
  std::vector<char> net_seen(design_->nets().size(), 0);
  std::size_t unique_dirty = 0;
  bool moved = false;
  for (int net : dirty_nets) {
    if (net < 0 || static_cast<std::size_t>(net) >= forest.net_to_tree.size() ||
        static_cast<std::size_t>(net) >= net_seen.size()) {
      throw std::out_of_range("IncrementalSignoff::update: dirty net " + std::to_string(net) +
                              " is not a net of the forest");
    }
    if (net_seen[static_cast<std::size_t>(net)]) continue;
    net_seen[static_cast<std::size_t>(net)] = 1;
    ++unique_dirty;
    const int t = forest.net_to_tree[static_cast<std::size_t>(net)];
    if (t >= 0) {
      tree_dirty[static_cast<std::size_t>(t)] = 1;
      moved = true;
    }
  }

  static obs::Counter& m_dirty = obs::metrics().counter("signoff.dirty_nets");
  static obs::Counter& m_rerouted = obs::metrics().counter("signoff.rerouted_nets");
  static obs::Counter& m_hits = obs::metrics().counter("signoff.incremental_hit");
  m_dirty.add(static_cast<std::uint64_t>(unique_dirty));

  result_ = Result{};
  result_.incremental = true;
  result_.num_dirty_nets = unique_dirty;

  const GlobalRouteResult* gr = nullptr;
  {
    obs::ScopedPhase phase("signoff.incremental_gr", &result_.runtime.global_route);
    gr = &router_.update(forest, tree_dirty);
  }
  const std::vector<int>& changed = router_.changed_connections();
  result_.num_rerouted = changed.size();
  result_.total_mazes = router_.last_total_mazes();
  // With no tree moved the router returned its previous route, so every
  // maze of that route counts as reused; otherwise every maze re-searched.
  result_.reused_mazes = moved ? 0 : result_.total_mazes;
  if (router_.last_update_was_hit()) m_hits.add();

  const DetailedRouteResult* dr = nullptr;
  {
    obs::ScopedPhase phase("signoff.incremental_dr", &result_.runtime.detailed_route);
    dr = &droute_.update(*gr, changed);
  }

  // STA dirty set = declared dirty nets (geometry moved, RC changed even if
  // the gcell path didn't) ∪ nets of rerouted connections (path changed, RC
  // changed even if the declared set missed them — negotiation can reroute a
  // victim whose own tree never moved). Count each rerouted net once.
  std::vector<int> sta_dirty = dirty_nets;
  std::vector<char> rerouted_seen(design_->nets().size(), 0);
  for (int c : changed) {
    const int t = gr->connections[static_cast<std::size_t>(c)].tree;
    const int net = forest.trees[static_cast<std::size_t>(t)].net;
    if (rerouted_seen[static_cast<std::size_t>(net)]) continue;
    rerouted_seen[static_cast<std::size_t>(net)] = 1;
    if (!net_seen[static_cast<std::size_t>(net)]) sta_dirty.push_back(net);
    m_rerouted.add();
  }

  const StaResult* sta = nullptr;
  {
    obs::ScopedPhase phase("signoff.incremental_sta", &result_.runtime.sta);
    sta = &sta_.update(forest, gr, sta_dirty);
  }

  result_.metrics = signoff_metrics(*sta, *dr);
  result_.sta = sta;
  result_.gr = gr;
  return result_;
}

}  // namespace tsteiner
