#include "elec/flow_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "elec/topology.hpp"
#include "util/random.hpp"

namespace wrht::elec {
namespace {

using util::Bytes;
using util::Seconds;

LinkSpec link_1gBps_no_latency() {
  return LinkSpec{util::gBps(1.0), Seconds(0.0)};
}

TEST(FlowNetwork, SingleFlowFullBandwidth) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  const FlowId flow = network.add_flow({link}, Bytes(500'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 0.5, 1e-9);
}

TEST(FlowNetwork, LatencyDelaysCompletion) {
  FlowNetwork network;
  const LinkId link =
      network.add_link({util::gBps(1.0), util::microseconds(100.0)});
  const FlowId flow = network.add_flow({link}, Bytes(1'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 100e-6 + 1e-3, 1e-12);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  const FlowId a = network.add_flow({link}, Bytes(1'000'000'000));
  const FlowId b = network.add_flow({link}, Bytes(1'000'000'000));
  network.run();
  // Both get 0.5 GB/s: each 1 GB flow takes 2 s.
  EXPECT_NEAR(network.completion_time(a).value(), 2.0, 1e-9);
  EXPECT_NEAR(network.completion_time(b).value(), 2.0, 1e-9);
}

TEST(FlowNetwork, ShortFlowFinishesThenLongSpeedsUp) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  const FlowId small = network.add_flow({link}, Bytes(250'000'000));
  const FlowId large = network.add_flow({link}, Bytes(750'000'000));
  network.run();
  // Phase 1: both at 0.5 GB/s until small (0.25 GB) finishes at t=0.5.
  // Phase 2: large has 0.5 GB left at 1 GB/s -> finishes at t=1.0.
  EXPECT_NEAR(network.completion_time(small).value(), 0.5, 1e-9);
  EXPECT_NEAR(network.completion_time(large).value(), 1.0, 1e-9);
}

TEST(FlowNetwork, MaxMinDemandConstrainedFlow) {
  // Classic max-min example: two links A (1 GB/s) and B (1 GB/s).
  //   flow1 uses A only, flow2 uses B only, flow3 uses A and B.
  // Fair share: flow3 gets 0.5 on both, flows 1-2 get 0.5... then residual
  // rises: actually A carries flow1+flow3, B carries flow2+flow3; max-min
  // gives every flow 0.5 GB/s.
  FlowNetwork network;
  const LinkId link_a = network.add_link(link_1gBps_no_latency());
  const LinkId link_b = network.add_link(link_1gBps_no_latency());
  const FlowId f1 = network.add_flow({link_a}, Bytes(500'000'000));
  const FlowId f2 = network.add_flow({link_b}, Bytes(500'000'000));
  const FlowId f3 = network.add_flow({link_a, link_b}, Bytes(500'000'000));
  EXPECT_NEAR(network.current_rate(f1), 0.0, 1e-9);  // not yet running
  network.run();
  EXPECT_NEAR(network.completion_time(f1).value(), 1.0, 1e-6);
  EXPECT_NEAR(network.completion_time(f2).value(), 1.0, 1e-6);
  EXPECT_NEAR(network.completion_time(f3).value(), 1.0, 1e-6);
}

TEST(FlowNetwork, BottleneckAndFreeLink) {
  // flow1 crosses the shared link and a private link; flow2 only the shared
  // link.  Shared link is the bottleneck: both get 0.5 GB/s.
  FlowNetwork network;
  const LinkId shared = network.add_link(link_1gBps_no_latency());
  const LinkId private_link = network.add_link(link_1gBps_no_latency());
  const FlowId f1 =
      network.add_flow({shared, private_link}, Bytes(500'000'000));
  const FlowId f2 = network.add_flow({shared}, Bytes(500'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(f1).value(), 1.0, 1e-6);
  EXPECT_NEAR(network.completion_time(f2).value(), 1.0, 1e-6);
}

TEST(FlowNetwork, UnequalCapacitiesMaxMin) {
  // Slow link 0.2 GB/s shared by f1; fast link 1.0 GB/s shared by f1 and f2.
  // f1 is capped at 0.2 by its slow link; f2 then gets the residual 0.8.
  FlowNetwork network;
  const LinkId slow = network.add_link({util::gBps(0.2), Seconds(0.0)});
  const LinkId fast = network.add_link(link_1gBps_no_latency());
  const FlowId f1 = network.add_flow({slow, fast}, Bytes(200'000'000));
  const FlowId f2 = network.add_flow({fast}, Bytes(800'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(f1).value(), 1.0, 1e-6);
  EXPECT_NEAR(network.completion_time(f2).value(), 1.0, 1e-6);
}

TEST(FlowNetwork, IncastCongestion) {
  // 8 flows into one destination link: each gets 1/8 of the capacity.
  FlowNetwork network;
  const LinkId dst = network.add_link(link_1gBps_no_latency());
  std::vector<FlowId> flows;
  for (int i = 0; i < 8; ++i) {
    flows.push_back(network.add_flow({dst}, Bytes(125'000'000)));
  }
  network.run();
  for (const FlowId f : flows) {
    EXPECT_NEAR(network.completion_time(f).value(), 1.0, 1e-6);
  }
}

TEST(FlowNetwork, StaggeredStartTimes) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  const FlowId first = network.add_flow({link}, Bytes(1'000'000'000));
  network.run();  // completes at t=1
  const FlowId second = network.add_flow({link}, Bytes(500'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(first).value(), 1.0, 1e-9);
  EXPECT_NEAR(network.completion_time(second).value(), 1.5, 1e-9);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAtLatency) {
  FlowNetwork network;
  const LinkId link =
      network.add_link({util::gBps(1.0), util::microseconds(50.0)});
  const FlowId flow = network.add_flow({link}, Bytes(0));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 50e-6, 1e-12);
}

TEST(FlowNetwork, LinkBytesAccounting) {
  FlowNetwork network;
  const LinkId a = network.add_link(link_1gBps_no_latency());
  const LinkId b = network.add_link(link_1gBps_no_latency());
  network.add_flow({a, b}, Bytes(1'000'000));
  network.add_flow({a}, Bytes(2'000'000));
  network.run();
  EXPECT_EQ(network.link_bytes(a).count(), 3'000'000u);
  EXPECT_EQ(network.link_bytes(b).count(), 1'000'000u);
}

TEST(FlowNetwork, ResetClearsFlowsKeepsLinks) {
  FlowNetwork network;
  const LinkId link = network.add_link(link_1gBps_no_latency());
  network.add_flow({link}, Bytes(1'000'000));
  network.run();
  network.reset();
  EXPECT_DOUBLE_EQ(network.now().value(), 0.0);
  EXPECT_EQ(network.link_bytes(link).count(), 0u);
  const FlowId flow = network.add_flow({link}, Bytes(1'000'000));
  network.run();
  EXPECT_NEAR(network.completion_time(flow).value(), 1e-3, 1e-9);
}

// The split lemma the shared-fabric probe's prefix cache stands on: a
// flow waits outside every solve until it activates, so the network can run
// without it up to its activation instant and take it only then, through
// add_flow_at with the same instant, and every completion time comes out
// bit for bit the same as when the flow was added earlier through
// add_flow with its route latency.

struct PlacedFlow {
  std::vector<LinkId> route;
  Bytes bytes;
};

/// Runs `background` from time 0 on two copies of `base` and adds
/// `candidates` at `t0`: early through add_flow, late through add_flow_at
/// after running to the first candidate's activation.  Every flow's
/// completion must match exactly.
void expect_split_matches(const FlowNetwork& base,
                          const std::vector<PlacedFlow>& background,
                          Seconds t0,
                          const std::vector<PlacedFlow>& candidates) {
  FlowNetwork early = base;
  FlowNetwork late = base;
  for (const PlacedFlow& flow : background) {
    early.add_flow(flow.route, flow.bytes);
    late.add_flow(flow.route, flow.bytes);
  }
  early.run_until(t0);
  late.run_until(t0);
  std::vector<FlowId> early_ids;
  Seconds first(std::numeric_limits<double>::infinity());
  for (const PlacedFlow& flow : candidates) {
    early_ids.push_back(early.add_flow(flow.route, flow.bytes));
    first = std::min(first, t0 + late.route_latency(flow.route));
  }
  late.run_until(first);
  EXPECT_EQ(late.now().value(), first.value());
  std::vector<FlowId> late_ids;
  for (const PlacedFlow& flow : candidates) {
    late_ids.push_back(late.add_flow_at(flow.route, flow.bytes,
                                        t0 + late.route_latency(flow.route)));
  }
  early.run();
  late.run();
  for (FlowId id = 0; id < background.size(); ++id) {
    EXPECT_EQ(early.completion_time(id).value(),
              late.completion_time(id).value())
        << "background flow " << id;
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(early.completion_time(early_ids[i]).value(),
              late.completion_time(late_ids[i]).value())
        << "candidate " << i;
  }
}

TEST(FlowNetwork, SplitAtActivationWithACompletionOnTheSameInstant) {
  // A background flow completes exactly when the candidate activates: the
  // late run processes that completion inside its run to the activation,
  // the early run in the same event as the activation.
  FlowNetwork dry;
  const LinkId dry_link = dry.add_link(link_1gBps_no_latency());
  const FlowId dry_flow = dry.add_flow({dry_link}, Bytes(123'457));
  dry.run();
  const Seconds tie = dry.completion_time(dry_flow);

  FlowNetwork base;
  const LinkId first = base.add_link(link_1gBps_no_latency());
  const LinkId second = base.add_link(link_1gBps_no_latency());
  const LinkId slow = base.add_link({util::gBps(1.0), tie});
  const std::vector<PlacedFlow> background = {
      {{first}, Bytes(123'457)}, {{second}, Bytes(3'000'000)}};
  const std::vector<PlacedFlow> candidate = {
      {{slow, first, second}, Bytes(2'000'000)}};
  {
    // The tie is real, not a rounding near-miss.
    FlowNetwork check = base;
    const FlowId bg = check.add_flow(background[0].route, background[0].bytes);
    check.add_flow(background[1].route, background[1].bytes);
    const FlowId joins = check.add_flow(candidate[0].route, candidate[0].bytes);
    check.run_until(tie);
    ASSERT_TRUE(check.completed(bg));
    EXPECT_EQ(check.completion_time(bg).value(), tie.value());
    EXPECT_GT(check.current_rate(joins), 0.0);
  }
  expect_split_matches(base, background, Seconds(0.0), candidate);
}

TEST(FlowNetwork, SplitAtActivationOnAnIdleNetwork) {
  FlowNetwork base;
  const LinkId a = base.add_link({util::gBps(1.0), util::microseconds(25.0)});
  const LinkId b = base.add_link({util::gBps(2.0), util::microseconds(25.0)});
  expect_split_matches(base, {}, Seconds(0.3),
                       {{{a, b}, Bytes(5'000'000)}, {{a}, Bytes(700'001)}});
}

TEST(FlowNetwork, SplitAtActivationWithTwoRouteLatencies) {
  // On a 4:1 two-level tree, mid-flight: one intra-ToR candidate (two
  // links) and one cross-ToR candidate (four links) joining background
  // traffic that drains around and between their activations.
  const ElectricalCluster cluster =
      *ElectricalCluster::two_level_tree(8, 4, 4.0, ElectricalParams{});
  std::vector<PlacedFlow> background;
  util::Rng rng(29);
  for (int i = 0; i < 12; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(8));
    const auto dst = static_cast<std::uint32_t>((src + 1 + rng.next_below(7)) % 8);
    background.push_back(
        {cluster.route(src, dst), Bytes(1000 + rng.next_below(400'000))});
  }
  expect_split_matches(cluster.make_network(), background,
                       Seconds(120e-6),
                       {{cluster.route(4, 1), Bytes(250'000)},
                        {cluster.route(2, 3), Bytes(90'000)}});
}

TEST(FlowNetwork, RunWithNoFlowsReturnsNow) {
  FlowNetwork network;
  network.add_link(link_1gBps_no_latency());
  EXPECT_DOUBLE_EQ(network.run().value(), 0.0);
}

TEST(FlowNetwork, ManyFlowsRingPatternNoContention) {
  // Ring neighbour pattern over a star: every host sends to the next host.
  // Each flow crosses (uplink_i, downlink_{i+1}); no two flows share a link,
  // so all run at full rate — the property that makes E-Ring's step time
  // equal the alpha-beta prediction.
  FlowNetwork network;
  const int n = 16;
  std::vector<LinkId> up(static_cast<std::size_t>(n));
  std::vector<LinkId> down(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    up[static_cast<std::size_t>(i)] = network.add_link(link_1gBps_no_latency());
    down[static_cast<std::size_t>(i)] =
        network.add_link(link_1gBps_no_latency());
  }
  std::vector<FlowId> flows;
  for (int i = 0; i < n; ++i) {
    flows.push_back(network.add_flow(
        {up[static_cast<std::size_t>(i)],
         down[static_cast<std::size_t>((i + 1) % n)]},
        Bytes(100'000'000)));
  }
  network.run();
  for (const FlowId f : flows) {
    EXPECT_NEAR(network.completion_time(f).value(), 0.1, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Link-conservation invariant: whatever max-min fair shares the solver hands
// out instant by instant, the BYTES a link ends up carrying must equal the
// sum of the bytes of every flow routed over it — fluid fairness reshuffles
// rates, never volume.  Checked under randomized flow sets on both cluster
// shapes the runtime uses.

namespace link_conservation {

/// Drop `num_flows` random host-to-host flows (random sizes, staggered via
/// run_until checkpoints) on `cluster` and check per-link byte conservation.
void check_cluster(const wrht::elec::ElectricalCluster& cluster,
                   std::uint64_t seed, std::uint32_t num_flows) {
  using namespace wrht::elec;
  wrht::util::Rng rng(seed);
  FlowNetwork network = cluster.make_network();
  std::vector<double> expected(network.num_links(), 0.0);

  for (std::uint32_t f = 0; f < num_flows; ++f) {
    const auto a =
        static_cast<std::uint32_t>(rng.next_below(cluster.num_hosts()));
    auto b = static_cast<std::uint32_t>(rng.next_below(cluster.num_hosts()));
    if (b == a) b = (b + 1) % cluster.num_hosts();
    const Bytes bytes(1000 + rng.next_below(50'000'000));
    for (const LinkId link : cluster.route(a, b)) {
      expected[link] += bytes.as_double();
    }
    network.add_flow(cluster.route(a, b), bytes);
    if (rng.next_below(3) == 0) {
      // Stagger: advance mid-flight so later flows join a loaded network.
      network.run_until(network.now() + Seconds(1e-3));
    }
  }
  network.run();

  for (std::size_t link = 0; link < network.num_links(); ++link) {
    // kEpsilonBytes truncation loses at most a milli-byte per flow.
    const double tolerance = 1e-2 * num_flows + 1e-6 * expected[link];
    EXPECT_NEAR(network.link_bytes(static_cast<LinkId>(link)).as_double(),
                expected[link], tolerance)
        << "link " << link << " seed " << seed;
    // A link's peak utilization is a fraction of its capacity by
    // construction; conservation's sibling sanity bound.
    const double peak =
        network.link_peak_utilization(static_cast<LinkId>(link));
    EXPECT_GE(peak, 0.0);
    EXPECT_LE(peak, 1.0 + 1e-9);
  }
}

}  // namespace link_conservation

TEST(FlowNetwork, LinkConservationOnRandomizedStar) {
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    link_conservation::check_cluster(
        ElectricalCluster::star(12, ElectricalParams{}), seed, 60);
  }
}

TEST(FlowNetwork, LinkConservationOnRandomizedTwoLevelTree) {
  for (const std::uint64_t seed : {5ull, 17ull, 91ull}) {
    link_conservation::check_cluster(
        *ElectricalCluster::two_level_tree(16, 4, 4.0, ElectricalParams{}),
        seed, 80);
  }
}

}  // namespace
}  // namespace wrht::elec
