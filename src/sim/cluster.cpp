#include "sim/cluster.h"

#include <algorithm>
#include <bit>
#include <climits>
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
  long long total = 0;
  int max_containers = 0;
  for (const auto& node : config.nodes) {
    // The comparison alone rejects NaN (every comparison with NaN is
    // false), but an infinite speed would sail through and produce
    // zero-length attempt durations downstream — guard for finiteness
    // explicitly.
    CHRONOS_EXPECTS(std::isfinite(node.speed) && node.speed > 0.0,
                    "node speed must be positive and finite");
    CHRONOS_EXPECTS(node.containers >= 1, "node needs >= 1 container");
    nodes_.push_back(NodeState{node, 0});
    total += node.containers;
    max_containers = std::max(max_containers, node.containers);
  }
  CHRONOS_EXPECTS(total <= INT_MAX, "cluster has more than INT_MAX containers");
  total_containers_ = static_cast<int>(total);

  // Words per tree layer, leaves first.
  auto width = static_cast<std::uint32_t>(nodes_.size());
  do {
    width = (width + 63) / 64;
    layer_words_[static_cast<std::size_t>(layers_++)] = width;
    words_per_set_ += width;
  } while (width > 1);
  bits_.assign((static_cast<std::size_t>(max_containers) + 1) * words_per_set_,
               0);
  for (int i = 0; i < num_nodes(); ++i) {
    insert(nodes_[static_cast<std::size_t>(i)].config.containers, i);
  }
  top_ = max_containers;
}

void Cluster::insert(int free, int node) {
  // Set the node's bit, then each summary bit whose word was empty.
  std::uint64_t* layer = set(free);
  auto i = static_cast<std::size_t>(node);
  for (int k = 0;; ++k) {
    std::uint64_t& word = layer[i / 64];
    const bool was_empty = word == 0;
    word |= std::uint64_t{1} << (i % 64);
    if (!was_empty || k + 1 == layers_) {
      return;
    }
    layer += layer_words_[static_cast<std::size_t>(k)];
    i /= 64;
  }
}

bool Cluster::erase(int free, int node) {
  // Clear the node's bit, then each summary bit whose word just emptied.
  std::uint64_t* layer = set(free);
  auto i = static_cast<std::size_t>(node);
  for (int k = 0;; ++k) {
    std::uint64_t& word = layer[i / 64];
    word &= ~(std::uint64_t{1} << (i % 64));
    if (word != 0) {
      return false;
    }
    if (k + 1 == layers_) {
      return true;  // the root word emptied
    }
    layer += layer_words_[static_cast<std::size_t>(k)];
    i /= 64;
  }
}

int Cluster::lowest(int free) {
  // From the root word (the set's last) down to the leaves.
  const std::uint64_t* layer = set(free) + words_per_set_ - 1;
  std::size_t i = 0;
  for (int k = layers_ - 1;; --k) {
    i = 64 * i + static_cast<std::size_t>(std::countr_zero(layer[i]));
    if (k == 0) {
      return static_cast<int>(i);
    }
    layer -= layer_words_[static_cast<std::size_t>(k - 1)];
  }
}

void Cluster::request_container(Grant&& grant) {
  CHRONOS_EXPECTS(static_cast<bool>(grant), "grant callback must be callable");
  if (top_ == 0) {
    waiting_.push_back(std::move(grant));
    notify_occupancy();
    return;
  }
  const int node = lowest(top_);
  const bool emptied = erase(top_, node);
  insert(top_ - 1, node);
  if (emptied) {
    --top_;
  }
  ++nodes_[static_cast<std::size_t>(node)].busy;
  ++busy_;
  notify_occupancy();
  grant(node);
}

void Cluster::release_container(int node) {
  CHRONOS_EXPECTS(node >= 0 && node < num_nodes(), "node index out of range");
  auto& state = nodes_[static_cast<std::size_t>(node)];
  CHRONOS_EXPECTS(state.busy > 0, "release on a node with no busy container");
  const int free = state.config.containers - state.busy;
  --state.busy;
  erase(free, node);
  insert(free + 1, node);
  top_ = std::max(top_, free + 1);
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
