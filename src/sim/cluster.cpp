#include "sim/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace chronos::sim {

ClusterConfig ClusterConfig::uniform(int num_nodes, const NodeConfig& node) {
  CHRONOS_EXPECTS(num_nodes >= 1, "cluster needs at least one node");
  ClusterConfig config;
  config.nodes.assign(static_cast<std::size_t>(num_nodes), node);
  return config;
}

Cluster::Cluster(ClusterConfig config) {
  CHRONOS_EXPECTS(!config.nodes.empty(), "cluster needs at least one node");
  nodes_.reserve(config.nodes.size());
  for (const auto& node : config.nodes) {
    // The comparison alone rejects NaN (every comparison with NaN is
    // false), but an infinite speed would sail through and produce
    // zero-length attempt durations downstream — guard for finiteness
    // explicitly.
    CHRONOS_EXPECTS(std::isfinite(node.speed) && node.speed > 0.0,
                    "node speed must be positive and finite");
    CHRONOS_EXPECTS(node.containers >= 1, "node needs >= 1 container");
    nodes_.push_back(NodeState{node, 0});
    total_containers_ += node.containers;
  }
  tree_.assign(2 * nodes_.size(), 0);
  for (int i = 0; i < num_nodes(); ++i) {
    update_key(i);
  }
}

void Cluster::update_key(int node) {
  std::size_t i = nodes_.size() + static_cast<std::size_t>(node);
  tree_[i] = key(node);
  for (i /= 2; i >= 1; i /= 2) {
    tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
  }
}

void Cluster::request_container(Grant grant) {
  CHRONOS_EXPECTS(static_cast<bool>(grant), "grant callback must be callable");
  const std::uint64_t best = tree_[1];
  if ((best >> 32) == 0) {
    waiting_.push_back(std::move(grant));
    notify_occupancy();
    return;
  }
  const int node = static_cast<int>(~static_cast<std::uint32_t>(best));
  ++nodes_[static_cast<std::size_t>(node)].busy;
  update_key(node);
  ++busy_;
  notify_occupancy();
  grant(node);
}

void Cluster::release_container(int node) {
  CHRONOS_EXPECTS(node >= 0 && node < num_nodes(), "node index out of range");
  auto& state = nodes_[static_cast<std::size_t>(node)];
  CHRONOS_EXPECTS(state.busy > 0, "release on a node with no busy container");
  --state.busy;
  update_key(node);
  --busy_;
  notify_occupancy();
  if (!waiting_.empty()) {
    Grant grant = std::move(waiting_.front());
    waiting_.pop_front();
    // Re-grant greedily; the freed container is on `node` but any node with
    // capacity may serve the waiter. Reuse request path for fairness.
    request_container(std::move(grant));
  }
}

double Cluster::slowdown(int node) const {
  CHRONOS_EXPECTS(node >= 0 && node < num_nodes(), "node index out of range");
  return 1.0 / nodes_[static_cast<std::size_t>(node)].config.speed;
}

}  // namespace chronos::sim
