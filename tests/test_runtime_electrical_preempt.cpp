// Electrical renegotiation: BSP step boundaries as preemption points.
//
// Substrate-level: suspend/resume mechanics, host remapping when the
// original positions are taken, the final-step-boundary edge (a remainder
// of exactly one step), and the refusal when too few hosts are free.
//
// Runtime-level: a pinned electrical victim evicted by a pinned urgent
// arrival under kPriorityPreempt, resume with ZERO surviving hosts on the
// victim's original ToR (the remainder lands on the other ToR), and both
// oracles over the remapped composite — the functional all-reduce oracle
// (the runtime aborts if it fails, so completion is the verdict) and the
// shared fabric's per-solve max-min certificate (replay_checked_steps
// must cover every electrical step, remapped resumes included).
//
// Host placement scan: a queued job blocked by a busy host is placed at
// the very instant the host frees — by a completion or by a node repair —
// and a job whose fuse-window hold ends after a failed scan is placed at
// the instant of the release, in arrival (FIFO) or priority order.  The
// scan skips entries it has proven blocked, so these pin that it never
// skips one that just became placeable.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "elec/schedule_runner.hpp"
#include "elec/topology.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "runtime/substrate.hpp"

namespace wrht::runtime {
namespace {

std::unique_ptr<ExecutionSubstrate> star_substrate(std::uint32_t hosts) {
  return make_electrical_substrate(hosts, ElectricalFallbackConfig{});
}

/// kResume renegotiation with the test's defaults (desired width 1, floor
/// 1), unwrapped to the plan for terse assertions.
std::unique_ptr<SubstrateExecution> resume(ExecutionSubstrate& sub,
                                           SubstrateExecution& plan,
                                           std::size_t steps_done) {
  return sub
      .renegotiate(&plan, RenegotiationRequest::resume(steps_done, 1, 1))
      .plan;
}

/// Drive `plan` through steps [first, last) on `sub`, returning the clock.
util::Seconds run_steps(ExecutionSubstrate& sub, SubstrateExecution& plan,
                        std::size_t first, std::size_t last,
                        util::Seconds clock) {
  for (std::size_t s = first; s < last; ++s) {
    const StepTiming t = sub.time_step(plan, s, clock);
    EXPECT_TRUE(t.end.has_value());  // the star's ends are closed form
    EXPECT_GT(t.end.value_or(clock), clock);
    clock = t.end.value_or(clock);
  }
  return clock;
}

TEST(ElectricalResume, PrefersOriginalHostsWhenFree) {
  const std::unique_ptr<ExecutionSubstrate> sub = star_substrate(16);
  std::unique_ptr<SubstrateExecution> plan =
      sub->place({4, 5, 6, 7}, util::megabytes(4), 1);
  const std::size_t total = plan->num_steps();
  util::Seconds clock = run_steps(*sub, *plan, 0, 2, util::Seconds(0.0));
  sub->release(*plan, clock);

  std::unique_ptr<SubstrateExecution> resumed = resume(*sub, *plan, 2);
  ASSERT_NE(resumed, nullptr);
  // Nothing took the hosts meanwhile: identity placement again.
  EXPECT_EQ(resumed->hosts(), (std::vector<topo::NodeId>{4, 5, 6, 7}));
  EXPECT_EQ(resumed->num_steps(), total - 2);
}

TEST(ElectricalResume, RemapsOntoFreeHostsWhenBlocked) {
  const std::unique_ptr<ExecutionSubstrate> sub = star_substrate(16);
  std::unique_ptr<SubstrateExecution> plan =
      sub->place({0, 1, 2, 3}, util::megabytes(4), 1);
  util::Seconds clock = run_steps(*sub, *plan, 0, 1, util::Seconds(0.0));
  sub->release(*plan, clock);

  // A blocker takes two of the original hosts, so identity is impossible.
  std::unique_ptr<SubstrateExecution> blocker =
      sub->place({2, 3, 8, 9}, util::megabytes(1), 1);
  std::unique_ptr<SubstrateExecution> resumed = resume(*sub, *plan, 1);
  ASSERT_NE(resumed, nullptr);
  // Lowest-id free hosts, deterministically: 0 and 1 survive, 4 and 5
  // substitute for the taken 2 and 3.
  EXPECT_EQ(resumed->hosts(), (std::vector<topo::NodeId>{0, 1, 4, 5}));
  // The remapped remainder still times and the two tenants coexist.
  clock = run_steps(*sub, *resumed, 0, resumed->num_steps(), clock);
  sub->release(*resumed, clock);
  sub->release(*blocker, clock);
}

TEST(ElectricalResume, FinalStepBoundaryLeavesOneStepRemainder) {
  const std::unique_ptr<ExecutionSubstrate> sub = star_substrate(8);
  std::unique_ptr<SubstrateExecution> plan =
      sub->place({0, 1, 2, 3}, util::megabytes(2), 1);
  const std::size_t total = plan->num_steps();
  ASSERT_GE(total, 2u);
  // Preempt at the LAST boundary: every step but the final one executed.
  util::Seconds clock =
      run_steps(*sub, *plan, 0, total - 1, util::Seconds(0.0));
  sub->release(*plan, clock);

  std::unique_ptr<SubstrateExecution> resumed =
      resume(*sub, *plan, total - 1);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->num_steps(), 1u);
  const util::Seconds end =
      run_steps(*sub, *resumed, 0, 1, clock + util::milliseconds(1.0));
  EXPECT_GT(end, clock);
  sub->release(*resumed, end);
  EXPECT_TRUE(sub->can_place({0, 1, 2, 3}, 1));
}

TEST(ElectricalResume, RefusesWithoutEnoughFreeHosts) {
  const std::unique_ptr<ExecutionSubstrate> sub = star_substrate(8);
  std::unique_ptr<SubstrateExecution> plan =
      sub->place({0, 1, 2, 3}, util::megabytes(2), 1);
  util::Seconds clock = run_steps(*sub, *plan, 0, 1, util::Seconds(0.0));
  sub->release(*plan, clock);

  // Six of the eight hosts taken: only two remain for a four-host resume.
  std::unique_ptr<SubstrateExecution> blocker =
      sub->place({0, 1, 2, 5, 6, 7}, util::megabytes(1), 1);
  EXPECT_EQ(resume(*sub, *plan, 1), nullptr);
  // The refusal touched nothing: freeing the blocker re-enables resume.
  sub->release(*blocker, clock);
  EXPECT_NE(resume(*sub, *plan, 1), nullptr);
}

TEST(ElectricalResume, ResumedTailTimesItsOwnFirstStep) {
  // On the shared fabric the routing price memoizes the quiet first step of
  // the schedule a placement on (hosts, payload) would run, and that
  // placement's first real step reuses it.  A resumed tail's step 0 is a
  // later step of the same schedule on the same hosts and payload, so it
  // must be timed afresh: here recursive doubling over two 4-host ToRs,
  // whose first step stays inside a ToR and whose third crosses the 4:1
  // uplinks.
  ElectricalFallbackConfig config;
  config.fabric = ElectricalFabric::kTwoLevelShared;
  config.hosts_per_tor = 4;
  config.oversubscription = 4.0;
  const std::unique_ptr<ExecutionSubstrate> sub =
      make_electrical_substrate(8, config);
  obs::MetricsRegistry registry;
  sub->attach_metrics(registry);
  const obs::Counter* quiet_solves =
      registry.find_counter("fabric.solves.quiet");
  ASSERT_NE(quiet_solves, nullptr);
  const elec::ElectricalCluster cluster =
      *elec::ElectricalCluster::two_level_tree(8, 4, 4.0, config.link);
  elec::StepFlowTimer reference(cluster);
  const std::vector<topo::NodeId> group{0, 1, 2, 3, 4, 5, 6, 7};
  const util::Bytes payload = util::kilobytes(64);

  (void)sub->predict_completion(group, payload, 1, util::Seconds(0.0));
  std::unique_ptr<SubstrateExecution> plan = sub->place(group, payload, 1);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->num_steps(), 3u);  // recursive doubling on 8 ranks
  util::Seconds clock{0.0};
  std::vector<util::Seconds> quiet;
  const std::uint64_t priced_solves = quiet_solves->value();
  EXPECT_GT(priced_solves, 0u);
  for (std::size_t s = 0; s < 2; ++s) {
    const StepTiming t = sub->time_step(*plan, s, clock);
    // The first step comes from the price's memo, the second is timed.
    EXPECT_EQ(quiet_solves->value() > priced_solves, s > 0) << "step " << s;
    quiet.push_back(t.quiet);
    EXPECT_EQ(t.quiet, reference.time_step(plan->schedule(), s, payload));
    // The shared fabric delivers the step's end through its wakes.
    while (const std::optional<util::Seconds> at = sub->next_wake()) {
      if (sub->wake(*at) == plan.get()) {
        clock = *at;
        break;
      }
    }
  }
  sub->release(*plan, clock);

  std::unique_ptr<SubstrateExecution> resumed = resume(*sub, *plan, 2);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->hosts(), group);
  const StepTiming tail = sub->time_step(*resumed, 0, clock);
  EXPECT_EQ(tail.quiet, reference.time_step(resumed->schedule(), 0, payload));
  EXPECT_GT(tail.quiet, quiet.front());
  while (const std::optional<util::Seconds> at = sub->next_wake()) {
    if (sub->wake(*at) == resumed.get()) {
      clock = *at;
      break;
    }
  }
  sub->release(*resumed, clock);
  EXPECT_EQ(sub->self_check(), 3u);
}

RuntimeConfig shared_preempt_config() {
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;
  config.placement = HybridPlacementPolicy::kElectricalOverflow;
  config.electrical.fabric = ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = 8;
  config.electrical.oversubscription = 2.0;
  return config;
}

TEST(ElectricalPreemption, PinnedVictimSuspendsAndResumesUnderPriority) {
  CollectiveRuntime rt(shared_preempt_config());
  rt.trace().enable();

  JobSpec batch;
  batch.participants = {0, 1, 2, 3};
  batch.payload = util::megabytes(32);
  batch.pin = SubstratePin::kElectricalOnly;
  batch.priority = 0;
  const JobId victim = rt.submit(batch);

  JobSpec urgent;
  urgent.participants = {2, 3, 4, 5};  // overlaps the victim's hosts
  urgent.payload = util::megabytes(1);
  urgent.arrival = util::milliseconds(3.0);
  urgent.pin = SubstratePin::kElectricalOnly;
  urgent.priority = 9;
  const JobId vip = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_GE(report.preemptions, 1u);
  EXPECT_EQ(report.resumes, report.preemptions);
  EXPECT_GE(rt.record(victim).preemptions, 1u);
  EXPECT_EQ(rt.record(victim).substrate, SubstrateKind::kElectrical);
  EXPECT_EQ(rt.record(victim).state, JobState::kDone);
  EXPECT_TRUE(rt.record(victim).oracle_ok);
  // The urgent job did not wait for the victim to finish.
  EXPECT_LT(rt.record(vip).completed, rt.record(victim).completed);
  // Every electrical step — the victim's pre-preemption prefix, its
  // remapped remainder, and the vip's run — was timed on certified
  // max-min solves.
  EXPECT_EQ(report.replay_checked_steps, report.electrical.steps);
}

TEST(ElectricalPreemption, ResumesOnOtherTorWhenOriginalTorIsFull) {
  // The victim lives entirely in ToR0 (hosts 0..7 at 8 hosts per ToR).
  // The urgent arrival takes ALL of ToR0, so the resume has zero surviving
  // hosts there and the remainder must land on ToR1 — while the urgent job
  // still runs (the completions overlap).
  CollectiveRuntime rt(shared_preempt_config());
  rt.trace().enable();

  JobSpec batch;
  batch.participants = {0, 1, 2, 3};
  batch.payload = util::megabytes(24);
  batch.pin = SubstratePin::kElectricalOnly;
  batch.priority = 0;
  const JobId victim = rt.submit(batch);

  JobSpec urgent;
  urgent.participants = {0, 1, 2, 3, 4, 5, 6, 7};  // the whole ToR0
  urgent.payload = util::megabytes(8);
  urgent.arrival = util::milliseconds(3.0);
  urgent.pin = SubstratePin::kElectricalOnly;
  urgent.priority = 9;
  const JobId vip = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_GE(rt.record(victim).preemptions, 1u);
  EXPECT_EQ(rt.record(victim).state, JobState::kDone);

  // The victim resumed BEFORE the vip completed: only possible on ToR1
  // hosts, since the vip holds every ToR0 host until it finishes.
  util::Seconds resume_time{-1.0};
  for (const sim::TraceEvent& event : rt.trace().events()) {
    if (event.kind == sim::TraceKind::kJobResume &&
        static_cast<JobId>(event.a) == victim) {
      resume_time = event.time;
      break;
    }
  }
  ASSERT_GE(resume_time.value(), 0.0) << "victim never resumed";
  EXPECT_LT(resume_time, rt.record(vip).completed);
  EXPECT_EQ(report.replay_checked_steps, report.electrical.steps);
}

TEST(ElectricalPreemption, KAnyWaiterNeverEvictsElectricalTenants) {
  // A high-priority kAny arrival has the optical line working for it; even
  // when its ring positions collide with a running electrical tenant, the
  // tenant keeps its hosts (preemption would buy the waiter nothing it
  // could not get optically).
  RuntimeConfig config = shared_preempt_config();
  config.optical.wdm.num_wavelengths = 16;
  CollectiveRuntime rt(config);

  JobSpec tenant;
  tenant.participants = {0, 1, 2, 3};
  tenant.payload = util::megabytes(16);
  tenant.pin = SubstratePin::kElectricalOnly;
  tenant.priority = 0;
  const JobId pinned = rt.submit(tenant);

  JobSpec urgent;
  urgent.participants = {0, 1, 2, 3, 4, 5};
  urgent.payload = util::megabytes(1);
  urgent.arrival = util::milliseconds(2.0);
  urgent.priority = 9;  // kAny
  const JobId vip = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(rt.record(pinned).preemptions, 0u);
  EXPECT_EQ(rt.record(vip).substrate, SubstrateKind::kOptical);
}

TEST(ElectricalPreemption, StarFabricPreemptsWithoutReplayMachinery) {
  // Same eviction story on the exclusive star: no shared uplinks, no
  // retimings, no replay log — but the boundary suspend / remapped resume
  // and the composite oracle still hold.
  RuntimeConfig config = shared_preempt_config();
  config.electrical.fabric = ElectricalFabric::kStarExclusive;
  CollectiveRuntime rt(config);

  JobSpec batch;
  batch.participants = {0, 1, 2, 3};
  batch.payload = util::megabytes(32);
  batch.pin = SubstratePin::kElectricalOnly;
  batch.priority = 0;
  const JobId victim = rt.submit(batch);

  JobSpec urgent;
  urgent.participants = {2, 3, 4, 5};
  urgent.payload = util::megabytes(1);
  urgent.arrival = util::milliseconds(3.0);
  urgent.pin = SubstratePin::kElectricalOnly;
  urgent.priority = 9;
  const JobId vip = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_GE(rt.record(victim).preemptions, 1u);
  EXPECT_LT(rt.record(vip).completed, rt.record(victim).completed);
  EXPECT_EQ(report.replay_checked_steps, 0u);
  EXPECT_EQ(report.step_retimes, 0u);
  EXPECT_TRUE(rt.record(victim).oracle_ok);
}

/// A pinned electrical job over `hosts`, arriving at `arrival_ms`.
JobSpec host_job(std::vector<topo::NodeId> hosts, util::Bytes payload,
                 double arrival_ms, std::int32_t priority) {
  JobSpec spec;
  spec.participants = std::move(hosts);
  spec.payload = payload;
  spec.arrival = util::milliseconds(arrival_ms);
  spec.pin = SubstratePin::kElectricalOnly;
  spec.priority = priority;
  return spec;
}

constexpr FairnessPolicy kScanPolicies[] = {FairnessPolicy::kFifo,
                                            FairnessPolicy::kPriorityPreempt};

TEST(HostPlacementScan, BlockedJobsPlaceAtTheCompletionThatFreesTheirHost) {
  for (const FairnessPolicy policy : kScanPolicies) {
    SCOPED_TRACE(fairness_policy_name(policy));
    RuntimeConfig config = shared_preempt_config();
    config.policy = policy;
    CollectiveRuntime rt(config);
    // The holder outranks both waiters, so nobody preempts it.
    const JobId holder =
        rt.submit(host_job({0, 1, 2, 3}, util::megabytes(8), 0.0, 9));
    const JobId early =
        rt.submit(host_job({3, 4}, util::megabytes(1), 1.0, 1));
    const JobId urgent =
        rt.submit(host_job({3, 5}, util::megabytes(1), 2.0, 5));
    // Free hosts behind the blocked entries: placed on arrival.
    const JobId elsewhere =
        rt.submit(host_job({8, 9}, util::megabytes(1), 3.0, 0));

    const RuntimeReport report = rt.run();
    ASSERT_EQ(report.completed, 4u);
    ASSERT_GT(rt.record(holder).completed, util::milliseconds(3.0));
    EXPECT_EQ(rt.record(elsewhere).admitted,
              rt.record(elsewhere).spec.arrival);
    const bool fifo = policy == FairnessPolicy::kFifo;
    const JobId first = fifo ? early : urgent;
    const JobId second = fifo ? urgent : early;
    EXPECT_EQ(rt.record(first).admitted, rt.record(holder).completed);
    EXPECT_EQ(rt.record(second).admitted, rt.record(first).completed);
  }
}

TEST(HostPlacementScan, BlockedJobsPlaceAtTheRepairThatFreesTheirHost) {
  for (const FairnessPolicy policy : kScanPolicies) {
    SCOPED_TRACE(fairness_policy_name(policy));
    const FaultSpec fault{FaultDomain::kNode, 3, util::milliseconds(0.5),
                          util::milliseconds(4.0)};
    ScriptedFaultSource faults({fault});
    RuntimeConfig config = shared_preempt_config();
    config.policy = policy;
    config.faults = &faults;
    CollectiveRuntime rt(config);
    const JobId early =
        rt.submit(host_job({3, 4}, util::megabytes(1), 1.0, 1));
    const JobId urgent =
        rt.submit(host_job({3, 5}, util::megabytes(1), 2.0, 5));
    const JobId elsewhere =
        rt.submit(host_job({8, 9}, util::megabytes(1), 3.0, 0));

    const RuntimeReport report = rt.run();
    ASSERT_EQ(report.completed, 3u);
    ASSERT_EQ(report.faults.repairs, 1u);
    EXPECT_EQ(rt.record(elsewhere).admitted,
              rt.record(elsewhere).spec.arrival);
    const bool fifo = policy == FairnessPolicy::kFifo;
    const JobId first = fifo ? early : urgent;
    const JobId second = fifo ? urgent : early;
    EXPECT_EQ(rt.record(first).admitted, fault.at + fault.repair_after);
    EXPECT_EQ(rt.record(second).admitted, rt.record(first).completed);
  }
}

TEST(HostPlacementScan, HeldJobPlacesAtItsReleaseAfterAFailedScan) {
  for (const FairnessPolicy policy : kScanPolicies) {
    SCOPED_TRACE(fairness_policy_name(policy));
    RuntimeConfig config = shared_preempt_config();
    config.policy = policy;
    config.batcher.enabled = true;
    config.batcher.fuse_window = util::milliseconds(5.0);
    CollectiveRuntime rt(config);
    // Over the fuse threshold, so never held: the holder, and a waiter on
    // its host whose arrival scan fails after the small job went by held.
    const JobId holder =
        rt.submit(host_job({0, 1, 2, 3}, util::megabytes(32), 0.0, 9));
    const JobId small =
        rt.submit(host_job({8, 9}, util::kilobytes(64), 1.0, 0));
    const JobId blocked =
        rt.submit(host_job({3, 10}, util::megabytes(1), 2.0, 5));

    const RuntimeReport report = rt.run();
    ASSERT_EQ(report.completed, 3u);
    ASSERT_GT(rt.record(holder).completed, util::milliseconds(6.0));
    // The hold ends at arrival + window with hosts 8 and 9 free all along.
    EXPECT_EQ(rt.record(small).admitted,
              rt.record(small).spec.arrival + config.batcher.fuse_window);
    EXPECT_EQ(rt.record(blocked).admitted, rt.record(holder).completed);
  }
}

}  // namespace
}  // namespace wrht::runtime
