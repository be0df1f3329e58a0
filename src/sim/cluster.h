// Cluster model: a set of nodes, each with a fixed number of containers
// (YARN-style execution slots) and a relative speed factor that scales the
// duration of every attempt placed on it.
//
// Placement: a request goes to the node with the most free containers, the
// lowest index on ties. A max-tree over one packed key per node,
// `free << 32 | ~index`, keeps that node at its root, so a request or a
// release costs O(log N) and the tree 2N words. Container requests that
// cannot be satisfied immediately (the root has no free container) queue
// FIFO and are granted as containers free up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

namespace chronos::sim {

struct NodeConfig {
  double speed = 1.0;  ///< relative processing speed (> 0)
  int containers = 8;  ///< execution slots (>= 1)
};

struct ClusterConfig {
  std::vector<NodeConfig> nodes;

  /// Homogeneous cluster shortcut.
  static ClusterConfig uniform(int num_nodes, const NodeConfig& node);
};

class Cluster {
 public:
  /// Callback invoked with the granting node's index.
  using Grant = std::function<void(int node)>;

  /// Observer invoked after every change to the busy-container count or the
  /// waiting-request queue (open-system utilization/queue-length tracking).
  /// Purely observational: it must not call back into the cluster's mutating
  /// API and never touches the numeric path.
  using OccupancyObserver = std::function<void(int busy, std::size_t waiting)>;

  explicit Cluster(ClusterConfig config);

  void set_occupancy_observer(OccupancyObserver observer) {
    observer_ = std::move(observer);
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int total_containers() const { return total_containers_; }
  int idle_containers() const { return total_containers_ - busy_; }
  bool has_idle_container() const { return idle_containers() > 0; }
  std::size_t pending_requests() const { return waiting_.size(); }

  /// Requests one container. If one is free the grant runs synchronously;
  /// otherwise the request queues FIFO.
  void request_container(Grant grant);

  /// Releases a container on `node`; the oldest waiting request (if any) is
  /// granted synchronously. Requires a container on `node` to be busy.
  void release_container(int node);

  /// Multiplicative slowdown of an attempt placed on `node`: 1 / speed.
  double slowdown(int node) const;

 private:
  struct NodeState {
    NodeConfig config;
    int busy = 0;
  };

  /// Placement key: free containers above the complemented index, so a
  /// larger key has more free containers or, on a tie, a lower index.
  std::uint64_t key(int node) const {
    const auto& state = nodes_[static_cast<std::size_t>(node)];
    const auto free =
        static_cast<std::uint64_t>(state.config.containers - state.busy);
    return free << 32 | ~static_cast<std::uint32_t>(node);
  }

  /// Recomputes `node`'s key and the keys on its path to the root.
  void update_key(int node);

  void notify_occupancy() const {
    if (observer_) {
      observer_(busy_, waiting_.size());
    }
  }

  std::vector<NodeState> nodes_;
  /// Max-tree over the nodes' keys: leaves at [N, 2N), node i >= 1 holds
  /// max(tree_[2i], tree_[2i + 1]), so tree_[1] is the placement pick.
  std::vector<std::uint64_t> tree_;
  std::deque<Grant> waiting_;
  OccupancyObserver observer_;
  int total_containers_ = 0;
  int busy_ = 0;
};

}  // namespace chronos::sim
