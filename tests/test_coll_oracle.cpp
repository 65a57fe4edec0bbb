// The oracle rejects what it must: for every collective contract, a correct
// schedule passes and a mutated copy of it (a dropped transfer, a reduce
// counted twice, a flipped op, a copy re-targeted into a non-participant)
// fails with that contract's what-string.  The survivor form leaves evicted
// contributors unspecified, and a repeated copy within one step is
// idempotent, so both of those pass.  A node id outside the schedule
// aborts instead of indexing past the payloads.
#include "coll/oracle.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coll/algorithms.hpp"
#include "coll/primitives.hpp"

namespace wrht::coll {
namespace {

constexpr std::size_t kPayload = 48;
constexpr std::uint32_t kNodes = 8;
constexpr NodeId kRoot = 3;

using Steps = std::vector<std::vector<Transfer>>;

// A copy of `schedule` whose steps went through `edit`.
template <typename Edit>
Schedule mutated(const Schedule& schedule, Edit edit) {
  Steps steps;
  for (const Step& step : schedule.steps()) steps.push_back(step.transfers);
  edit(steps);
  Schedule out(schedule.name(), schedule.num_nodes(), schedule.num_chunks());
  for (const auto& transfers : steps) {
    out.add_step();
    for (const Transfer& t : transfers) out.add_transfer(t);
  }
  return out;
}

void drop_last(Steps& steps) { steps.back().pop_back(); }

void flip_last(Steps& steps) {
  TransferOp& op = steps.back().back().op;
  op = op == TransferOp::kReduce ? TransferOp::kCopy : TransferOp::kReduce;
}

void duplicate_last(Steps& steps) {
  const Transfer t = steps.back().back();
  steps.back().push_back(t);
}

// Sends the first reduce of the schedule twice in its step.
void double_count(Steps& steps) {
  for (auto& transfers : steps) {
    for (const Transfer& t : transfers) {
      if (t.op == TransferOp::kReduce) {
        const Transfer twice = t;
        transfers.push_back(twice);
        return;
      }
    }
  }
  FAIL() << "schedule has no reduce to double-count";
}

// Removes the final-step transfer that lands on `dst`.
auto drop_final_copy_to(NodeId dst) {
  return [dst](Steps& steps) {
    auto& last = steps.back();
    for (auto it = last.begin(); it != last.end(); ++it) {
      if (it->dst == dst) {
        last.erase(it);
        return;
      }
    }
    FAIL() << "no final transfer lands on node " << dst;
  };
}

// Points the final-step copy that lands on `from` at `to` instead.
auto retarget_final_copy(NodeId from, NodeId to) {
  return [from, to](Steps& steps) {
    for (Transfer& t : steps.back()) {
      if (t.dst == from && t.op == TransferOp::kCopy) {
        t.dst = to;
        return;
      }
    }
    FAIL() << "no final copy lands on node " << from;
  };
}

void expect_rejected(const OracleResult& verdict, const std::string& what) {
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.message.find(what), std::string::npos) << verdict.message;
}

// A 4-node ring all-reduce laid onto nodes {1, 3, 4, 6} of an 8-node ring;
// nodes 0, 2, 5 and 7 take no part.
const std::vector<NodeId> kMembers = {1, 3, 4, 6};

Schedule subset_ring() {
  const Schedule inner = ring_allreduce(4);
  Schedule out("subset-ring", kNodes, inner.num_chunks());
  for (const Step& step : inner.steps()) {
    out.add_step();
    for (Transfer t : step.transfers) {
      t.src = kMembers[t.src];
      t.dst = kMembers[t.dst];
      out.add_transfer(t);
    }
  }
  return out;
}

TEST(OracleBroadcast, RejectsMutations) {
  const Schedule s = broadcast_binomial(kNodes, kRoot);
  const auto verify = [](const Schedule& x) {
    return Oracle::verify_broadcast(x, kRoot, kPayload);
  };
  EXPECT_TRUE(verify(s).ok) << verify(s).message;
  expect_rejected(verify(mutated(s, drop_last)), "broadcast mismatch");
  expect_rejected(verify(mutated(s, flip_last)), "broadcast mismatch");
}

TEST(OracleBroadcast, MessageNamesScheduleNodeAndElement) {
  const Schedule s = mutated(broadcast_binomial(kNodes, kRoot), drop_last);
  const OracleResult verdict = Oracle::verify_broadcast(s, kRoot, kPayload);
  ASSERT_FALSE(verdict.ok);
  const std::string prefix =
      "schedule '" + s.name() + "': broadcast mismatch at node ";
  EXPECT_EQ(verdict.message.rfind(prefix, 0), 0u) << verdict.message;
  EXPECT_NE(verdict.message.find(" element "), std::string::npos);
}

TEST(OracleBroadcast, DuplicatedCopyIsIdempotent) {
  const Schedule s = mutated(broadcast_binomial(kNodes, kRoot),
                             duplicate_last);
  const OracleResult verdict = Oracle::verify_broadcast(s, kRoot, kPayload);
  EXPECT_TRUE(verdict.ok) << verdict.message;
}

TEST(OracleReduce, RejectsMutations) {
  const Schedule s = reduce_binomial(kNodes, kRoot);
  const auto verify = [](const Schedule& x) {
    return Oracle::verify_reduce(x, kRoot, kPayload);
  };
  EXPECT_TRUE(verify(s).ok) << verify(s).message;
  expect_rejected(verify(mutated(s, drop_last)), "reduce mismatch");
  expect_rejected(verify(mutated(s, double_count)), "reduce mismatch");
  expect_rejected(verify(mutated(s, flip_last)), "reduce mismatch");
}

TEST(OracleScatter, RejectsMutations) {
  const Schedule s = scatter_binomial(kNodes, kRoot);
  const auto verify = [](const Schedule& x) {
    return Oracle::verify_scatter(x, kRoot, kPayload);
  };
  EXPECT_TRUE(verify(s).ok) << verify(s).message;
  expect_rejected(verify(mutated(s, drop_last)), "scatter mismatch");
  expect_rejected(verify(mutated(s, flip_last)), "scatter mismatch");
}

TEST(OracleGather, RejectsMutations) {
  const Schedule s = gather_binomial(kNodes, kRoot);
  const auto verify = [](const Schedule& x) {
    return Oracle::verify_gather(x, kRoot, kPayload);
  };
  EXPECT_TRUE(verify(s).ok) << verify(s).message;
  expect_rejected(verify(mutated(s, drop_last)), "gather mismatch");
  expect_rejected(verify(mutated(s, flip_last)), "gather mismatch");
}

TEST(OracleAllgather, RejectsMutations) {
  const Schedule s = allgather_ring(kNodes);
  const auto verify = [](const Schedule& x) {
    return Oracle::verify_allgather(x, kPayload);
  };
  EXPECT_TRUE(verify(s).ok) << verify(s).message;
  expect_rejected(verify(mutated(s, drop_last)), "allgather mismatch");
  expect_rejected(verify(mutated(s, flip_last)), "allgather mismatch");
}

TEST(OracleReduceScatter, RejectsMutations) {
  const Schedule s = reduce_scatter_ring(kNodes);
  const auto verify = [](const Schedule& x) {
    return Oracle::verify_reduce_scatter(x, kPayload);
  };
  EXPECT_TRUE(verify(s).ok) << verify(s).message;
  expect_rejected(verify(mutated(s, drop_last)), "reduce-scatter mismatch");
  expect_rejected(verify(mutated(s, double_count)),
                  "reduce-scatter mismatch");
  expect_rejected(verify(mutated(s, flip_last)), "reduce-scatter mismatch");
}

TEST(OracleAllreduceAmong, RejectsMutations) {
  const Schedule s = subset_ring();
  const auto verify = [](const Schedule& x) {
    return Oracle::verify_allreduce_among(x, kMembers, kPayload);
  };
  EXPECT_TRUE(verify(s).ok) << verify(s).message;
  expect_rejected(verify(mutated(s, drop_last)), "all-reduce mismatch");
  expect_rejected(verify(mutated(s, double_count)), "all-reduce mismatch");
  expect_rejected(verify(mutated(s, flip_last)), "all-reduce mismatch");
  expect_rejected(verify(mutated(s, retarget_final_copy(3, 2))),
                  "non-participant was written");
}

TEST(OracleAllreduceAmong, SurvivorFormLeavesEvictedUnspecified) {
  const Schedule s = subset_ring();
  const std::vector<NodeId> survivors = {1, 3, 4};
  const auto verify = [&](const Schedule& x) {
    return Oracle::verify_allreduce_among(x, kMembers, survivors, kPayload);
  };
  EXPECT_TRUE(verify(s).ok) << verify(s).message;
  expect_rejected(verify(mutated(s, drop_final_copy_to(4))),
                  "survivor all-reduce mismatch");
  // Node 6 was evicted: its stale final state is not a failure.
  const OracleResult stale = verify(mutated(s, drop_final_copy_to(6)));
  EXPECT_TRUE(stale.ok) << stale.message;
  expect_rejected(verify(mutated(s, retarget_final_copy(6, 7))),
                  "non-participant was written");
}

TEST(OracleAllreduce, RejectsMutations) {
  const Schedule s = ring_allreduce(kNodes);
  const auto verify = [](const Schedule& x) {
    return Oracle::verify_allreduce(x, kPayload);
  };
  EXPECT_TRUE(verify(s).ok) << verify(s).message;
  expect_rejected(verify(mutated(s, drop_last)), "all-reduce mismatch");
  expect_rejected(verify(mutated(s, double_count)), "all-reduce mismatch");
  expect_rejected(verify(mutated(s, flip_last)), "all-reduce mismatch");
}

TEST(OracleAllreduceAmong, WholeGroupMatchesFullAllreduce) {
  const Schedule s = mutated(ring_allreduce(kNodes), drop_last);
  const std::vector<NodeId> everyone = {0, 1, 2, 3, 4, 5, 6, 7};
  const OracleResult among =
      Oracle::verify_allreduce_among(s, everyone, kPayload);
  const OracleResult full = Oracle::verify_allreduce(s, kPayload);
  ASSERT_FALSE(among.ok);
  ASSERT_FALSE(full.ok);
  // Same promise, same first broken element; only the what-string differs.
  EXPECT_EQ(among.message.substr(among.message.find(" at node ")),
            full.message.substr(full.message.find(" at node ")));
}

TEST(OracleDeathTest, ContributorOutsideScheduleAborts) {
  const Schedule s = ring_allreduce(kNodes);
  const std::vector<NodeId> participants = {0, 1, 2, 3, 4, 5, 6, 7, 200};
  EXPECT_DEATH((void)Oracle::verify_allreduce_among(s, participants, kPayload),
               "node 200 outside schedule 'ring'");
}

TEST(OracleDeathTest, RootOutsideScheduleAborts) {
  const Schedule s = broadcast_binomial(kNodes, kRoot);
  EXPECT_DEATH((void)Oracle::verify_broadcast(s, 4000000, kPayload),
               "node 4000000 outside schedule");
}

}  // namespace
}  // namespace wrht::coll
