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
    // The comparisons alone reject NaN (every comparison with NaN is
    // false), but an infinite speed or noise mean would sail through and
    // produce zero-length or infinite attempt durations downstream — guard
    // for finiteness explicitly.
    CHRONOS_EXPECTS(std::isfinite(node.speed) && node.speed > 0.0,
                    "node speed must be positive and finite");
    CHRONOS_EXPECTS(node.containers >= 1, "node needs >= 1 container");
    CHRONOS_EXPECTS(std::isfinite(node.noise_mean) && node.noise_mean >= 0.0,
                    "node noise mean must be non-negative and finite");
    CHRONOS_EXPECTS(std::isfinite(node.noise_sigma) &&
                        node.noise_sigma >= 0.0,
                    "node noise sigma must be non-negative and finite");
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

double Cluster::node_speed(int node) const {
  CHRONOS_EXPECTS(node >= 0 && node < num_nodes(), "node index out of range");
  return nodes_[static_cast<std::size_t>(node)].config.speed;
}

double Cluster::sample_slowdown(int node, Rng& rng) const {
  CHRONOS_EXPECTS(node >= 0 && node < num_nodes(), "node index out of range");
  const auto& config = nodes_[static_cast<std::size_t>(node)].config;
  double slowdown = 1.0 / config.speed;
  if (config.noise_mean > 0.0) {
    // Lognormal contention factor with the requested mean: exp(mu + s Z)
    // has mean exp(mu + s^2/2), so mu = ln(mean) - s^2/2.
    const double s = config.noise_sigma;
    const double mu = std::log(config.noise_mean) - 0.5 * s * s;
    slowdown *= 1.0 + std::exp(mu + s * rng.normal());
  }
  return slowdown;
}

}  // namespace chronos::sim
