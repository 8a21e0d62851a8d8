#include "routing/ksp_table.hpp"

namespace flexnets::routing {

const std::vector<std::vector<graph::NodeId>>& KspTable::paths(
    graph::NodeId src, graph::NodeId dst) {
  const auto key = std::make_pair(src, dst);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, search_.paths(src, dst, k_)).first;
  }
  return it->second;
}

}  // namespace flexnets::routing
