// Executes a collective Schedule on an electrical cluster with the flow
// simulator: each schedule step becomes a batch of concurrent flows; the
// step's duration is the batch makespan under max-min fair sharing, and
// steps are separated by a synchronization barrier (the next step's flows
// start only when the previous step fully completes — BSP semantics, the
// same model the optical side uses).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "coll/schedule.hpp"
#include "elec/topology.hpp"
#include "util/units.hpp"

namespace wrht::elec {

struct ElecRunResult {
  util::Seconds total;
  std::vector<util::Seconds> step_durations;
};

/// Incremental per-step seam: times one schedule step at a time, so a
/// runtime can interleave electrical steps with other tenants' events on a
/// shared clock instead of committing to a whole schedule up front.  Reuses
/// one FlowNetwork across calls (reset before each step — the same
/// quiet-network-per-step construction run_on_electrical uses, and
/// run_on_electrical is itself implemented on this timer, so per-step and
/// whole-schedule timings agree by construction).  `cluster` must outlive
/// the timer.
class StepFlowTimer {
 public:
  explicit StepFlowTimer(const ElectricalCluster& cluster);

  /// BSP makespan of `schedule` step `step` for `payload` under max-min
  /// fair sharing on a quiet network.  An out-of-range step or a schedule
  /// needing more hosts than the cluster has is rejected with nullopt (the
  /// timer state is untouched), so callers driving tenant-supplied
  /// schedules can surface the error on their own terms.
  [[nodiscard]] std::optional<util::Seconds> time_step(
      const coll::Schedule& schedule, std::size_t step, util::Bytes payload);

  /// Max-min solves performed since construction (a work counter).
  [[nodiscard]] std::uint64_t solves() const { return network_.solves(); }
  /// Progressive-filling rounds of those solves.
  [[nodiscard]] std::uint64_t rounds() const { return network_.rounds(); }

 private:
  const ElectricalCluster* cluster_;
  FlowNetwork network_;
};

[[nodiscard]] ElecRunResult run_on_electrical(const coll::Schedule& schedule,
                                              const ElectricalCluster& cluster,
                                              util::Bytes payload);

}  // namespace wrht::elec
