// Cluster model: a set of nodes, each with a fixed number of containers
// (YARN-style execution slots) and a relative speed factor that scales the
// duration of every attempt placed on it.
//
// Placement: a request goes to the node with the most free containers, the
// lowest index on ties. For every free count f in [0, C], C the largest
// node's container count, the cluster keeps the set of nodes with exactly f
// free containers as a 64-ary bit tree over node indices: leaf words of 64
// nodes, one summary bit per nonzero word above them, up to a single root
// word (one word a set for up to 64 nodes, 65 for up to 4,096). With
// `top_`, the highest non-empty free count, a request takes the lowest set
// bit of set `top_` by count-trailing-zeros and a release moves one node up
// one set, so each flips one bit per tree layer: O(log64 N) words. The C + 1
// sets take C + 1 words up to 64 nodes and about C + 1 bits per node beyond:
// memory grows with the largest node as well as the node count (one node of
// 2^20 containers alone takes 8 MB). Manifests cap C at 127, where 2^20
// nodes take 17 MB of sets.
// Container requests that cannot be satisfied immediately (`top_` is 0)
// queue FIFO and are granted as containers free up.
#pragma once

#include <array>
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
  void request_container(Grant&& grant);

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

  /// Tree layers of a free-count set; 64^6 nodes exceed any int index.
  static constexpr int kMaxLayers = 6;

  /// The words of the set of nodes with `free` free containers.
  std::uint64_t* set(int free) {
    return bits_.data() + static_cast<std::size_t>(free) * words_per_set_;
  }
  /// Adds `node` to, or removes it from, the set of `free` free containers;
  /// `erase` returns true when the set is left empty.
  void insert(int free, int node);
  bool erase(int free, int node);
  /// Lowest node index in the non-empty set of `free` free containers.
  int lowest(int free);

  void notify_occupancy() const {
    if (observer_) {
      observer_(busy_, waiting_.size());
    }
  }

  std::vector<NodeState> nodes_;
  /// The free-count sets, `words_per_set_` words each, set f at
  /// [f * words_per_set_, (f + 1) * words_per_set_). Within a set the
  /// layers lie leaves first: layer k (0 = the leaves, layers_ - 1 = the
  /// root word, the set's last) takes layer_words_[k] words, and bit b of
  /// its word w stands for node (or lower-layer word) 64 * w + b.
  std::vector<std::uint64_t> bits_;
  // 32-bit, so a store to a 64-bit set word cannot alias them and they stay
  // in registers across one request's insert and erase.
  std::uint32_t words_per_set_ = 0;
  std::array<std::uint32_t, kMaxLayers> layer_words_{};
  int layers_ = 0;
  int top_ = 0;  ///< highest free count whose set is non-empty
  std::deque<Grant> waiting_;
  OccupancyObserver observer_;
  int total_containers_ = 0;
  int busy_ = 0;
};

}  // namespace chronos::sim
