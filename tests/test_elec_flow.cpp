#include "elec/flow_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
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

// ---------------------------------------------------------------------------
// The max-min certificate: certify_max_min() must reject every hand-made
// misallocation, and accept every allocation the solver produces.

namespace certificate {

/// An allocation to certify: per-link capacities, and each flow's route and
/// rate.
struct Allocation {
  std::vector<double> capacity;
  std::vector<std::vector<LinkId>> routes;
  std::vector<double> rates;
};

std::optional<MaxMinViolation> check(const Allocation& a) {
  std::vector<RatedFlow> flows;
  for (std::size_t f = 0; f < a.routes.size(); ++f) {
    flows.push_back(
        RatedFlow{a.routes[f], a.rates[f], static_cast<FlowId>(f)});
  }
  std::vector<double> allocated;
  std::vector<double> top_rate;
  return certify_max_min(a.capacity, flows, allocated, top_rate);
}

/// A test-local copy of the solver's progressive filling over `a`'s
/// capacities and routes, writing a.rates.  `skip_residual_charge` drops
/// the subtraction of a frozen flow's rate from its links' residual
/// capacity — a deliberately broken filling.
void fill(Allocation& a, bool skip_residual_charge) {
  std::vector<double> residual = a.capacity;
  std::vector<std::uint32_t> crossing(a.capacity.size(), 0);
  for (const std::vector<LinkId>& route : a.routes) {
    for (const LinkId link : route) ++crossing[link];
  }
  a.rates.assign(a.routes.size(), 0.0);
  std::vector<bool> fixed(a.routes.size(), false);
  std::size_t left = a.routes.size();
  while (left > 0) {
    double min_share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < residual.size(); ++l) {
      if (crossing[l] > 0) {
        min_share = std::min(min_share, residual[l] / crossing[l]);
      }
    }
    std::vector<std::size_t> frozen;
    for (std::size_t f = 0; f < a.routes.size(); ++f) {
      if (fixed[f]) continue;
      for (const LinkId link : a.routes[f]) {
        if (residual[link] / crossing[link] <= min_share * (1 + 1e-12)) {
          frozen.push_back(f);
          break;
        }
      }
    }
    for (const std::size_t f : frozen) {
      a.rates[f] = min_share;
      fixed[f] = true;
      --left;
      for (const LinkId link : a.routes[f]) {
        if (!skip_residual_charge) residual[link] -= min_share;
        --crossing[link];
      }
    }
  }
}

}  // namespace certificate

TEST(MaxMinCertificate, AcceptsTheMaxMinAllocation) {
  // Two 1 GB/s links; f0 on A, f1 on B, f2 on both: 0.5 GB/s each, both
  // links saturated, every flow at the top rate of each.
  const certificate::Allocation fair{
      {1e9, 1e9}, {{0}, {1}, {0, 1}}, {0.5e9, 0.5e9, 0.5e9}};
  EXPECT_FALSE(certificate::check(fair));
  // No flows: nothing to violate.
  EXPECT_FALSE(certificate::check({{1e9}, {}, {}}));
}

TEST(MaxMinCertificate, RejectsALinkOverCapacity) {
  const std::optional<MaxMinViolation> v =
      certificate::check({{1e9, 1e9}, {{1}, {1}}, {0.6e9, 0.6e9}});
  ASSERT_TRUE(v);
  EXPECT_EQ(v->kind, MaxMinViolation::Kind::kOverCapacity);
  EXPECT_EQ(v->id, 1u);
}

TEST(MaxMinCertificate, RejectsAFlowWithNoSaturatedLink) {
  // f0 fills link 0; f1, alone on link 1 at 0.4 of its capacity, could
  // go faster.
  const std::optional<MaxMinViolation> v =
      certificate::check({{1e9, 1e9}, {{0}, {1}}, {1e9, 0.4e9}});
  ASSERT_TRUE(v);
  EXPECT_EQ(v->kind, MaxMinViolation::Kind::kUnsaturated);
  EXPECT_EQ(v->id, 1u);
}

TEST(MaxMinCertificate, RejectsAFlowBelowTheTopRateOnItsSaturatedLink) {
  // Link 0 is full, but f0 gets 0.3 while f1 gets 0.7 on it: the fair
  // split is 0.5 each.  f1, at the top rate, is fine; f0 is not.
  const std::optional<MaxMinViolation> v =
      certificate::check({{1e9, 1e9}, {{0, 1}, {0}}, {0.3e9, 0.7e9}});
  ASSERT_TRUE(v);
  EXPECT_EQ(v->kind, MaxMinViolation::Kind::kOutpaced);
  EXPECT_EQ(v->id, 0u);
}

TEST(MaxMinCertificate, RejectsAFillingThatSkipsTheResidualCharge) {
  // Link 0 (3 GB/s) carries f0 and f1; link 1 (1 GB/s) carries f1 and f2.
  // Fair: f1 = f2 = 0.5 on the bottleneck link 1, then f0 takes link 0's
  // remaining 2.5.  A filling that forgets to charge f1's 0.5 against
  // link 0 hands f0 all 3 GB/s, overfilling link 0.
  certificate::Allocation a{{3e9, 1e9}, {{0}, {0, 1}, {1}}, {}};
  certificate::fill(a, /*skip_residual_charge=*/false);
  EXPECT_EQ(a.rates, (std::vector<double>{2.5e9, 0.5e9, 0.5e9}));
  EXPECT_FALSE(certificate::check(a));

  certificate::fill(a, /*skip_residual_charge=*/true);
  EXPECT_EQ(a.rates, (std::vector<double>{3e9, 0.5e9, 0.5e9}));
  const std::optional<MaxMinViolation> v = certificate::check(a);
  ASSERT_TRUE(v);
  EXPECT_EQ(v->kind, MaxMinViolation::Kind::kOverCapacity);
  EXPECT_EQ(v->id, 0u);
}

TEST(MaxMinCertificate, RejectsNonFiniteRates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::optional<MaxMinViolation> v =
      certificate::check({{1e9}, {{0}}, {nan}});
  ASSERT_TRUE(v);
  EXPECT_EQ(v->kind, MaxMinViolation::Kind::kOverCapacity);
}

TEST(MaxMinCertificate, SolverOutputPassesOnRandomNetworks) {
  // 2,000 seeded networks, half stars and half two-level trees, each with
  // up to 24 host-to-host flows.  Byte counts are drawn from a small set so
  // that ties are exact, a quarter of the networks repeat one route for
  // every flow (all flows share every link), and some flows carry zero
  // bytes.  The network certifies its own solves; the test also certifies
  // the rates it reads back at every event.
  constexpr std::uint64_t kNetworks = 2000;
  std::uint64_t solves = 0;
  std::uint64_t checks = 0;
  for (std::uint64_t seed = 0; seed < kNetworks; ++seed) {
    util::Rng rng(seed + 1);
    ElectricalParams params;
    params.link_bandwidth = util::gBps(0.5 + rng.next_double());
    params.link_latency = util::microseconds(
        static_cast<double>(rng.next_below(3)) * 10.0);
    const auto hosts = static_cast<std::uint32_t>(2 + rng.next_below(15));
    const ElectricalCluster cluster =
        seed % 2 == 0
            ? ElectricalCluster::star(hosts, params)
            : *ElectricalCluster::two_level_tree(
                  hosts, static_cast<std::uint32_t>(1 + rng.next_below(4)),
                  1.0 + static_cast<double>(rng.next_below(8)), params);
    FlowNetwork network = cluster.make_network();
    network.enable_certificate();
    ASSERT_TRUE(network.certifies());
    // Each link's capacity, read back as the rate of a lone flow on it.
    std::vector<double> capacity;
    {
      FlowNetwork probe = cluster.make_network();
      std::vector<FlowId> lone;
      for (std::size_t l = 0; l < probe.num_links(); ++l) {
        lone.push_back(probe.add_flow_at({static_cast<LinkId>(l)}, Bytes(1),
                                         Seconds(0.0)));
      }
      probe.run_until(Seconds(0.0));
      for (const FlowId f : lone) capacity.push_back(probe.current_rate(f));
    }
    const bool one_route = rng.next_below(4) == 0;
    const auto src0 = static_cast<std::uint32_t>(rng.next_below(hosts));
    const auto dst0 = (src0 + 1) % hosts;
    std::vector<std::pair<FlowId, std::vector<LinkId>>> flows;
    const auto num_flows = static_cast<std::uint32_t>(1 + rng.next_below(24));
    for (std::uint32_t i = 0; i < num_flows; ++i) {
      std::uint32_t src = src0;
      std::uint32_t dst = dst0;
      if (!one_route) {
        src = static_cast<std::uint32_t>(rng.next_below(hosts));
        dst = static_cast<std::uint32_t>(rng.next_below(hosts - 1));
        if (dst >= src) ++dst;
      }
      const std::uint64_t draw = rng.next_below(5);
      const Bytes bytes(draw == 0 ? 0 : draw * 1'000'000);
      std::vector<LinkId> route = cluster.route(src, dst);
      flows.emplace_back(network.add_flow(route, bytes), route);
      if (rng.next_below(4) == 0) {
        network.run_until(network.now() + Seconds(1e-3));
      }
    }
    while (const std::optional<Seconds> at = network.next_event()) {
      // next_event() just solved the active set: certify what it reads.
      std::vector<RatedFlow> rated;
      for (const auto& [id, route] : flows) {
        if (!network.completed(id) && network.current_rate(id) > 0.0) {
          rated.push_back(RatedFlow{route, network.current_rate(id), id});
        }
      }
      std::vector<double> allocated;
      std::vector<double> top_rate;
      EXPECT_FALSE(certify_max_min(capacity, rated, allocated, top_rate))
          << "seed " << seed << " t=" << network.now().value();
      ++checks;
      network.run_until(*at);
    }
    for (const auto& [id, route] : flows) {
      EXPECT_TRUE(network.completed(id)) << "seed " << seed;
    }
    solves += network.solves();
  }
  EXPECT_GT(solves, kNetworks);
  EXPECT_GT(checks, kNetworks);
}

}  // namespace
}  // namespace wrht::elec
