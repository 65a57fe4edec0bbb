#include "elec/topology.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace wrht::elec {
namespace {

ElectricalParams test_params() {
  ElectricalParams p;
  p.link_bandwidth = util::gBps(1.0);
  p.link_latency = util::microseconds(25.0);
  return p;
}

// Checks every ordered host pair against the documented link-id layout:
// each duplex link is an up link at an even id with its down link next to
// it; ToR t's pair is at 2t, host h's at 2 * num_tors + 2h.  Every link of
// test_params() has a 25 us latency.
void expect_link_layout(const ElectricalCluster& cluster,
                        std::uint32_t num_tors, std::uint32_t hosts_per_tor) {
  const std::uint32_t n = cluster.num_hosts();
  EXPECT_EQ(cluster.num_links(), 2u * (num_tors + n));
  EXPECT_EQ(cluster.make_network().num_links(), cluster.num_links());
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < n; ++b) {
      if (a == b) continue;
      std::vector<LinkId> expected{2 * num_tors + 2 * a};
      if (num_tors > 0 && a / hosts_per_tor != b / hosts_per_tor) {
        expected.push_back(2 * (a / hosts_per_tor));
        expected.push_back(2 * (b / hosts_per_tor) + 1);
      }
      expected.push_back(2 * num_tors + 2 * b + 1);
      EXPECT_EQ(cluster.route(a, b), expected) << a << "->" << b;
      EXPECT_DOUBLE_EQ(cluster.route_latency(a, b).value(),
                       25e-6 * static_cast<double>(expected.size()));
    }
  }
}

TEST(Star, EveryPairFollowsTheLinkLayout) {
  const ElectricalCluster cluster = ElectricalCluster::star(8, test_params());
  EXPECT_EQ(cluster.num_hosts(), 8u);
  // 8 duplex host links = 16 directed links.
  EXPECT_EQ(cluster.num_links(), 16u);
  EXPECT_EQ(cluster.route(0, 5), (std::vector<LinkId>{0, 11}));
  expect_link_layout(cluster, 0, 0);
}

TEST(Star, RouteLatencyIsTwoHops) {
  const ElectricalCluster cluster = ElectricalCluster::star(4, test_params());
  EXPECT_NEAR(cluster.route_latency(0, 3).value(), 50e-6, 1e-12);
}

TEST(Star, FlowBetweenHostsSeesFullBandwidth) {
  const ElectricalCluster cluster = ElectricalCluster::star(4, test_params());
  FlowNetwork network = cluster.make_network();
  const FlowId flow =
      network.add_flow(cluster.route(0, 2), util::Bytes(1'000'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 1.0 + 50e-6, 1e-6);
}

TEST(TwoLevelTree, HostsRouteThroughTorAndCore) {
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(8, 4, 1.0, test_params());
  EXPECT_EQ(cluster.num_hosts(), 8u);
  // Same-ToR pair: host->tor->host (2 links).
  EXPECT_EQ(cluster.route(0, 1).size(), 2u);
  // Cross-ToR pair: host->tor->core->tor->host (4 links).
  EXPECT_EQ(cluster.route(0, 5).size(), 4u);
}

TEST(TwoLevelTree, EveryPairFollowsTheLinkLayout) {
  // 10 hosts, 4 per ToR: ToRs of 4, 4 and 2 hosts.
  const ElectricalCluster ragged =
      *ElectricalCluster::two_level_tree(10, 4, 2.0, test_params());
  EXPECT_EQ(ragged.num_links(), 26u);
  EXPECT_EQ(ragged.route(0, 9), (std::vector<LinkId>{6, 0, 5, 25}));
  EXPECT_EQ(ragged.route(9, 8), (std::vector<LinkId>{24, 23}));
  expect_link_layout(ragged, 3, 4);

  // More hosts per ToR than hosts: one ToR, and no route reaches the core.
  const ElectricalCluster one_tor =
      *ElectricalCluster::two_level_tree(5, 8, 1.0, test_params());
  EXPECT_EQ(one_tor.route(4, 0), (std::vector<LinkId>{10, 3}));
  expect_link_layout(one_tor, 1, 8);
}

TEST(TwoLevelTree, OversubscriptionCongestsUplink) {
  // 1:4 oversubscription: the ToR uplink carries 1 GB/s for 4 hosts.  Four
  // simultaneous cross-ToR flows share it at 0.25 GB/s each.
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(8, 4, 4.0, test_params());
  FlowNetwork network = cluster.make_network();
  std::vector<FlowId> flows;
  for (std::uint32_t h = 0; h < 4; ++h) {
    flows.push_back(
        network.add_flow(cluster.route(h, 4 + h), util::Bytes(250'000'000)));
  }
  network.run();
  for (const FlowId flow : flows) {
    EXPECT_NEAR(network.completion_time(flow).value(), 1.0, 0.01);
  }
}

TEST(TwoLevelTree, FullBisectionDoesNotCongest) {
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(8, 4, 1.0, test_params());
  FlowNetwork network = cluster.make_network();
  std::vector<FlowId> flows;
  for (std::uint32_t h = 0; h < 4; ++h) {
    flows.push_back(
        network.add_flow(cluster.route(h, 4 + h), util::Bytes(1'000'000'000)));
  }
  network.run();
  for (const FlowId flow : flows) {
    EXPECT_NEAR(network.completion_time(flow).value(), 1.0, 0.01);
  }
}

TEST(TwoLevelTree, RejectsBadShapes) {
  // Every malformed shape is a recoverable nullopt, never an abort: too few
  // hosts, zero hosts per ToR, and a non-positive or non-finite
  // oversubscription factor.
  EXPECT_FALSE(ElectricalCluster::two_level_tree(1, 4, 1.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(0, 4, 1.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(8, 0, 1.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(8, 4, 0.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(8, 4, -2.0, test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(
      8, 4, std::numeric_limits<double>::quiet_NaN(), test_params()));
  EXPECT_FALSE(ElectricalCluster::two_level_tree(
      8, 4, std::numeric_limits<double>::infinity(), test_params()));
  // The boundary shapes are all accepted.
  EXPECT_TRUE(ElectricalCluster::two_level_tree(2, 1, 1.0, test_params()));
  EXPECT_TRUE(ElectricalCluster::two_level_tree(8, 16, 8.0, test_params()));
}

TEST(Cluster, MakeNetworkLinkCountMatchesLinks) {
  const ElectricalCluster cluster = ElectricalCluster::star(6, test_params());
  const FlowNetwork network = cluster.make_network();
  EXPECT_EQ(network.num_links(), cluster.num_links());
}

}  // namespace
}  // namespace wrht::elec
