#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <utility>
#include <vector>

#include "common/error.h"

namespace chronos::sim {
namespace {

ClusterConfig two_nodes() {
  NodeConfig node;
  node.containers = 2;
  return ClusterConfig::uniform(2, node);
}

TEST(Cluster, GrantsImmediatelyWhenIdle) {
  Cluster cluster(two_nodes());
  int granted_node = -1;
  cluster.request_container([&](int node) { granted_node = node; });
  EXPECT_GE(granted_node, 0);
  EXPECT_EQ(cluster.idle_containers(), 3);
}

TEST(Cluster, BalancesAcrossNodes) {
  Cluster cluster(two_nodes());
  std::vector<int> nodes;
  for (int i = 0; i < 4; ++i) {
    cluster.request_container([&](int node) { nodes.push_back(node); });
  }
  // Most-free-first placement alternates between the two nodes.
  EXPECT_EQ(nodes.size(), 4u);
  EXPECT_EQ(std::count(nodes.begin(), nodes.end(), 0), 2);
  EXPECT_EQ(std::count(nodes.begin(), nodes.end(), 1), 2);
}

TEST(Cluster, QueuesWhenFullAndGrantsFifoOnRelease) {
  Cluster cluster(two_nodes());
  std::vector<int> grant_order;
  for (int i = 0; i < 4; ++i) {
    cluster.request_container([](int) {});
  }
  EXPECT_FALSE(cluster.has_idle_container());
  cluster.request_container([&](int) { grant_order.push_back(1); });
  cluster.request_container([&](int) { grant_order.push_back(2); });
  EXPECT_EQ(cluster.pending_requests(), 2u);
  cluster.release_container(0);
  EXPECT_EQ(grant_order, (std::vector<int>{1}));
  cluster.release_container(1);
  EXPECT_EQ(grant_order, (std::vector<int>{1, 2}));
  EXPECT_EQ(cluster.pending_requests(), 0u);
}

TEST(Cluster, ReleaseWithoutBusyThrows) {
  Cluster cluster(two_nodes());
  EXPECT_THROW(cluster.release_container(0), PreconditionError);
  EXPECT_THROW(cluster.release_container(7), PreconditionError);
}

TEST(Cluster, CountsStayConsistent) {
  Cluster cluster(two_nodes());
  EXPECT_EQ(cluster.total_containers(), 4);
  std::vector<int> nodes;
  for (int i = 0; i < 3; ++i) {
    cluster.request_container([&](int n) { nodes.push_back(n); });
  }
  EXPECT_EQ(cluster.idle_containers(), 1);
  cluster.release_container(nodes[0]);
  EXPECT_EQ(cluster.idle_containers(), 2);
}

TEST(Cluster, SlowdownIsInverseSpeed) {
  NodeConfig fast;
  fast.speed = 2.0;
  Cluster cluster(ClusterConfig::uniform(1, fast));
  EXPECT_NEAR(cluster.slowdown(0), 0.5, 1e-12);
}

TEST(Cluster, RejectsInvalidConfigs) {
  EXPECT_THROW(Cluster(ClusterConfig{}), PreconditionError);
  NodeConfig bad;
  bad.speed = 0.0;
  EXPECT_THROW(Cluster(ClusterConfig::uniform(1, bad)), PreconditionError);
  bad = NodeConfig{};
  bad.containers = 0;
  EXPECT_THROW(Cluster(ClusterConfig::uniform(1, bad)), PreconditionError);
  EXPECT_THROW(ClusterConfig::uniform(0, NodeConfig{}), PreconditionError);
}

TEST(Cluster, RejectsMoreThanIntMaxContainers) {
  // 2 x 2^30 = 2^31 containers overflow the int total; the check runs
  // before any placement set is allocated.
  NodeConfig huge;
  huge.containers = 1 << 30;
  EXPECT_THROW(Cluster(ClusterConfig::uniform(2, huge)), PreconditionError);
}

TEST(Cluster, NodeIndexValidation) {
  Cluster cluster(two_nodes());
  EXPECT_THROW(cluster.slowdown(-1), PreconditionError);
  EXPECT_THROW(cluster.slowdown(2), PreconditionError);
}

// --- placement against a linear scan -----------------------------------------

/// The placement rule written as a scan over every node: most free
/// containers, lowest index on ties, FIFO queue while every node is full.
class LinearScanCluster {
 public:
  using Grants = std::vector<std::pair<int, int>>;  ///< (request, node)

  explicit LinearScanCluster(const ClusterConfig& config) {
    for (const auto& node : config.nodes) {
      capacity_.push_back(node.containers);
    }
    busy_.assign(capacity_.size(), 0);
  }

  std::size_t waiting() const { return waiting_.size(); }

  void request(int id, Grants& grants) {
    int best = -1;
    int best_free = 0;
    for (std::size_t i = 0; i < capacity_.size(); ++i) {
      const int free = capacity_[i] - busy_[i];
      if (free > best_free) {
        best_free = free;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {
      waiting_.push_back(id);
      return;
    }
    ++busy_[static_cast<std::size_t>(best)];
    grants.emplace_back(id, best);
  }

  void release(int node, Grants& grants) {
    --busy_[static_cast<std::size_t>(node)];
    if (!waiting_.empty()) {
      const int id = waiting_.front();
      waiting_.pop_front();
      request(id, grants);
    }
  }

 private:
  std::vector<int> capacity_;
  std::vector<int> busy_;
  std::deque<int> waiting_;
};

TEST(Cluster, PlacementMatchesLinearScanUnderRandomRequestsAndReleases) {
  // Seeded random request/release sequences on mixed capacities (1 to 70
  // containers per node, so more free counts than a word has bits). Phases
  // alternate between filling past capacity, so requests queue and releases
  // re-grant them, and draining. Every grant (which request, which node)
  // must match the scan's, in order. The node counts straddle the bit
  // tree's word (64 nodes) and two-layer (4,096 nodes) boundaries; past
  // 1,000 nodes one fill and one drain keep the scan's O(N) requests
  // affordable.
  for (const int num_nodes : {1, 3, 63, 64, 65, 1000, 4095, 4096, 4097}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(num_nodes));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    ClusterConfig config;
    for (int i = 0; i < num_nodes; ++i) {
      NodeConfig node;
      node.containers = std::uniform_int_distribution<int>(1, 70)(rng);
      config.nodes.push_back(node);
    }
    const int phases = num_nodes > 1000 ? 2 : 8;
    Cluster cluster(config);
    LinearScanCluster scan(config);
    LinearScanCluster::Grants got;
    LinearScanCluster::Grants want;
    std::vector<int> held;  // node of every granted, unreleased container
    std::size_t waiting_max = 0;
    int next_id = 0;
    const int phase = 3 * cluster.total_containers() + 30;
    for (int op = 0; op < phases * phase; ++op) {
      const double request_share = (op / phase) % 2 == 0 ? 0.75 : 0.25;
      if (held.empty() || unit(rng) < request_share) {
        const int id = next_id++;
        cluster.request_container([&got, &held, id](int node) {
          got.emplace_back(id, node);
          held.push_back(node);
        });
        scan.request(id, want);
      } else {
        const std::size_t at =
            std::uniform_int_distribution<std::size_t>(0, held.size() - 1)(
                rng);
        const int node = held[at];
        held[at] = held.back();
        held.pop_back();
        cluster.release_container(node);
        scan.release(node, want);
      }
      ASSERT_EQ(got.size(), want.size()) << num_nodes << " nodes, op " << op;
      if (!got.empty()) {
        ASSERT_EQ(got.back(), want.back())
            << num_nodes << " nodes, op " << op;
      }
      ASSERT_EQ(cluster.pending_requests(), scan.waiting())
          << num_nodes << " nodes, op " << op;
      ASSERT_EQ(cluster.total_containers() - cluster.idle_containers(),
                static_cast<int>(held.size()));
      waiting_max = std::max(waiting_max, scan.waiting());
    }
    EXPECT_EQ(got, want) << num_nodes << " nodes";
    // Not vacuous: the queue-when-full path ran.
    EXPECT_GT(waiting_max, 0u) << num_nodes << " nodes";
  }
}

TEST(Cluster, MillionNodeClusterPlacesInOrder) {
  // 2^20 one-container nodes. Filling them with a scan of every node per
  // request would make 2^40 node visits; the placement sets take
  // O(N log64 N) word operations over two sets of about N / 63 words each.
  // test_alloc bounds their bytes per node.
  constexpr int kNodes = 1 << 20;
  NodeConfig node;
  node.containers = 1;
  Cluster cluster(ClusterConfig::uniform(kNodes, node));
  int granted = -1;
  const auto request = [&cluster, &granted] {
    cluster.request_container([&granted](int n) { granted = n; });
  };
  for (int i = 0; i < kNodes; ++i) {
    request();
    ASSERT_EQ(granted, i);
  }
  EXPECT_FALSE(cluster.has_idle_container());
  request();  // queues
  EXPECT_EQ(cluster.pending_requests(), 1u);
  cluster.release_container(kNodes - 1);  // re-granted to the waiter
  EXPECT_EQ(granted, kNodes - 1);
  cluster.release_container(777'777);
  cluster.release_container(5);
  request();
  EXPECT_EQ(granted, 5);  // lowest index among equally free nodes
  request();
  EXPECT_EQ(granted, 777'777);
  EXPECT_FALSE(cluster.has_idle_container());
}

}  // namespace
}  // namespace chronos::sim
