// Correctness of every collective primitive against its oracle, across node
// counts (powers of two and awkward sizes) and root placements.
#include "coll/primitives.hpp"

#include <gtest/gtest.h>

#include "coll/oracle.hpp"
#include "coll/validation.hpp"
#include "util/math.hpp"

namespace wrht::coll {
namespace {

constexpr std::size_t kPayload = 60;

class RootedPrimitives
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, NodeId>> {
 protected:
  std::uint32_t nodes() const { return std::get<0>(GetParam()); }
  NodeId root() const { return std::get<1>(GetParam()) % nodes(); }
};

TEST_P(RootedPrimitives, BroadcastBinomial) {
  const Schedule schedule = broadcast_binomial(nodes(), root());
  const OracleResult result =
      Oracle::verify_broadcast(schedule, root(), kPayload);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(validate(schedule).ok());
}

TEST_P(RootedPrimitives, BroadcastRingPipelined) {
  const Schedule schedule = broadcast_ring_pipelined(nodes(), root());
  const OracleResult result =
      Oracle::verify_broadcast(schedule, root(), kPayload);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(validate(schedule).ok());
}

TEST_P(RootedPrimitives, ReduceBinomial) {
  const Schedule schedule = reduce_binomial(nodes(), root());
  const OracleResult result =
      Oracle::verify_reduce(schedule, root(), kPayload);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_P(RootedPrimitives, ScatterBinomial) {
  const Schedule schedule = scatter_binomial(nodes(), root());
  const OracleResult result =
      Oracle::verify_scatter(schedule, root(), kPayload);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(validate(schedule).ok());
}

TEST_P(RootedPrimitives, GatherBinomial) {
  const Schedule schedule = gather_binomial(nodes(), root());
  const OracleResult result =
      Oracle::verify_gather(schedule, root(), kPayload);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(validate(schedule).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RootedPrimitives,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 5u, 7u, 8u, 12u, 16u,
                                         17u, 30u, 32u, 33u),
                       ::testing::Values(0u, 1u, 5u, 31u)),
    [](const auto& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_root" +
             std::to_string(std::get<1>(param_info.param));
    });

class RootlessPrimitives : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  // N-chunk schedules need at least N payload elements.
  std::size_t payload() const {
    return std::max<std::size_t>(kPayload, GetParam());
  }
};

TEST_P(RootlessPrimitives, AllgatherRing) {
  const Schedule schedule = allgather_ring(GetParam());
  const OracleResult result = Oracle::verify_allgather(schedule, payload());
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(validate(schedule).ok());
}

TEST_P(RootlessPrimitives, AllgatherBruck) {
  const Schedule schedule = allgather_bruck(GetParam());
  const OracleResult result = Oracle::verify_allgather(schedule, payload());
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(validate(schedule).ok());
}

TEST_P(RootlessPrimitives, ReduceScatterRing) {
  const Schedule schedule = reduce_scatter_ring(GetParam());
  const OracleResult result =
      Oracle::verify_reduce_scatter(schedule, payload());
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(validate(schedule).ok());
}

INSTANTIATE_TEST_SUITE_P(Sweep, RootlessPrimitives,
                         ::testing::Values(2u, 3u, 4u, 5u, 7u, 8u, 12u, 16u,
                                           17u, 30u, 32u, 33u, 64u));

TEST(PrimitiveShapes, StepCounts) {
  EXPECT_EQ(broadcast_binomial(16, 0).num_steps(), 4u);
  EXPECT_EQ(broadcast_binomial(17, 3).num_steps(), 5u);
  EXPECT_EQ(reduce_binomial(16, 5).num_steps(), 4u);
  EXPECT_EQ(scatter_binomial(16, 0).num_steps(), 4u);
  EXPECT_EQ(gather_binomial(16, 0).num_steps(), 4u);
  EXPECT_EQ(allgather_ring(16).num_steps(), 15u);
  EXPECT_EQ(allgather_bruck(16).num_steps(), 4u);
  EXPECT_EQ(allgather_bruck(17).num_steps(), 5u);
  EXPECT_EQ(reduce_scatter_ring(16).num_steps(), 15u);
  EXPECT_EQ(broadcast_ring_pipelined(16, 0).num_steps(), 30u);
}

TEST(PrimitiveShapes, PipelinedBroadcastBandwidthOptimal) {
  // The pipelined ring broadcast moves (2N - 3 + 1) chunks per link at most:
  // total traffic is D (N - 1), same as a flat broadcast, but the busiest
  // node per step carries only D/N.
  const std::uint32_t n = 8;
  const util::Bytes payload(8000);
  const Schedule pipelined = broadcast_ring_pipelined(n, 0);
  const Schedule flat = broadcast_binomial(n, 0);
  EXPECT_EQ(pipelined.total_traffic(payload).count(),
            flat.total_traffic(payload).count());
  EXPECT_EQ(step_bottleneck_bytes(pipelined, n / 2, payload).count(), 1000u);
  EXPECT_EQ(step_bottleneck_bytes(flat, 0, payload).count(), 8000u);
}

TEST(PrimitiveShapes, ScatterTrafficLogFactor) {
  // Binomial scatter moves each chunk along a tree path: total traffic for
  // N = 8 is 8 + ... = sum over rounds of (range sizes) = N/2 * log N chunks.
  const std::uint32_t n = 8;
  const util::Bytes payload(8000);
  const Schedule schedule = scatter_binomial(n, 0);
  // Rounds move 4, 4, 4 chunks of 1000 B (ranges [4,8), [2,4)+[6,8), odds).
  EXPECT_EQ(schedule.total_traffic(payload).count(), 12'000u);
}

TEST(PrimitiveShapes, BruckMovesFewerStepsThanRing) {
  const std::uint32_t n = 64;
  EXPECT_LT(allgather_bruck(n).num_steps(), allgather_ring(n).num_steps());
  // Same total traffic: every chunk still visits every node once.
  const util::Bytes payload(64'000);
  EXPECT_EQ(allgather_bruck(n).total_traffic(payload).count(),
            allgather_ring(n).total_traffic(payload).count());
}

TEST(PrimitiveComposition, ReduceScatterPlusAllgatherIsAllReduce) {
  // The textbook identity behind ring all-reduce, checked functionally:
  // concatenating the two schedules yields a correct all-reduce.
  const std::uint32_t n = 12;
  const Schedule rs = reduce_scatter_ring(n);
  const Schedule ag = allgather_ring(n);
  Schedule combined("rs_plus_ag", n, n);
  for (const Step& step : rs.steps()) {
    combined.add_step();
    for (const Transfer& t : step.transfers) combined.add_transfer(t);
  }
  for (const Step& step : ag.steps()) {
    combined.add_step();
    for (const Transfer& t : step.transfers) combined.add_transfer(t);
  }
  EXPECT_TRUE(Oracle::verify_allreduce(combined, 48).ok);
}

TEST(PrimitiveComposition, ReducePlusBroadcastIsAllReduce) {
  const std::uint32_t n = 9;
  const NodeId root = 4;
  const Schedule reduce = reduce_binomial(n, root);
  const Schedule bcast = broadcast_binomial(n, root);
  Schedule combined("reduce_plus_bcast", n, 1);
  for (const Step& step : reduce.steps()) {
    combined.add_step();
    for (const Transfer& t : step.transfers) combined.add_transfer(t);
  }
  for (const Step& step : bcast.steps()) {
    combined.add_step();
    for (const Transfer& t : step.transfers) combined.add_transfer(t);
  }
  EXPECT_TRUE(Oracle::verify_allreduce(combined, 18).ok);
}

}  // namespace
}  // namespace wrht::coll
