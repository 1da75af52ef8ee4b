#include "sta/sta.hpp"

#include <stdexcept>

#include "sta/incremental.hpp"

namespace tsteiner {

double StaResult::slack_of(int pin_id) const {
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    if (endpoints[i] == pin_id) return endpoint_slack[i];
  }
  throw std::runtime_error("pin is not a timing endpoint");
}

StaResult run_sta(const Design& design, const SteinerForest& forest,
                  const GlobalRouteResult* gr, const StaOptions& options,
                  const LayerAssignment* layers) {
  IncrementalSta sta(design, options);
  return sta.analyze(forest, gr, layers);
}

}  // namespace tsteiner
