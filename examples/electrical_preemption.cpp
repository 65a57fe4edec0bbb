// Electrical renegotiation: BSP step boundaries are preemption points too.
//
// Part 1 drives the electrical substrate directly to show the mechanics:
// a tenant is placed on its participants' hosts, suspended at a step
// boundary (hosts surrendered), a blocker takes some of those hosts, and a
// kResume renegotiation re-places the remainder on a DIFFERENT host set —
// the schedule remap that carries a compact collective onto any free hosts.
//
// Part 2 runs the same story end-to-end through the multi-tenant runtime
// on the shared two-level fabric: a background electrically-pinned tenant
// is evicted at its next step boundary when an urgent pinned arrival needs
// its hosts, resumes immediately on free hosts across the fabric while the
// urgent job still runs, and the whole interleaving is re-proven by both
// oracles (the composite all-reduce oracle over the executed prefix plus
// remapped remainder, and the max-min certificate of every flow solve).
//
//   $ ./examples/electrical_preemption
#include <cstdio>

#include "runtime/runtime.hpp"
#include "runtime/substrate.hpp"

namespace {

using namespace wrht;

void print_hosts(const char* label,
                 const runtime::SubstrateExecution& plan) {
  std::printf("%-22s", label);
  for (const topo::NodeId host : plan.hosts()) std::printf(" %2u", host);
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace wrht;

  // ---- part 1: the substrate-level mechanics --------------------------
  std::printf("substrate mechanics: suspend at a boundary, resume remapped\n");
  const runtime::ElectricalFallbackConfig fallback;
  const std::unique_ptr<runtime::ExecutionSubstrate> sub =
      runtime::make_electrical_substrate(16, fallback);

  std::unique_ptr<runtime::SubstrateExecution> tenant =
      sub->place({0, 1, 2, 3}, util::megabytes(8), 1);
  print_hosts("placed on hosts", *tenant);

  util::Seconds clock{0.0};
  const runtime::StepTiming first = sub->time_step(*tenant, 0, clock);
  clock = *first.end;  // one executed step; the boundary is the preemption
                       // point (the star's step ends are closed form)
  sub->release(*tenant, clock);
  std::printf("%-22s step 0 done at %s, hosts surrendered\n", "suspended",
              util::to_string(clock).c_str());

  // An urgent tenant takes two of the original hosts...
  std::unique_ptr<runtime::SubstrateExecution> urgent =
      sub->place({2, 3, 8, 9}, util::megabytes(2), 1);
  print_hosts("urgent tenant on", *urgent);

  // ...so the resume remaps the remainder onto the lowest free hosts.
  runtime::RenegotiationOutcome outcome = sub->renegotiate(
      tenant.get(), runtime::RenegotiationRequest::resume(1, 1, 1));
  if (!outcome.accepted()) {
    std::printf("resume unexpectedly refused\n");
    return 1;
  }
  const std::unique_ptr<runtime::SubstrateExecution> resumed =
      std::move(outcome.plan);
  print_hosts("resumed remapped on", *resumed);
  std::printf("%-22s %zu of %zu steps remain\n\n", "remainder",
              resumed->num_steps(), tenant->num_steps());

  // ---- part 2: end-to-end through the runtime -------------------------
  std::printf("runtime end-to-end on the shared two-level fabric\n");
  runtime::RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = runtime::FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;
  config.placement = runtime::HybridPlacementPolicy::kElectricalOverflow;
  config.electrical.fabric = runtime::ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = 8;
  config.electrical.oversubscription = 2.0;

  runtime::CollectiveRuntime rt(config);
  rt.trace().enable();

  runtime::JobSpec batch;
  batch.participants = {0, 1, 2, 3, 8, 9, 10, 11};  // straddles both ToRs
  batch.payload = util::megabytes(48);
  batch.pin = runtime::SubstratePin::kElectricalOnly;
  batch.priority = 0;
  batch.name = "batch";
  const runtime::JobId victim = rt.submit(batch);

  runtime::JobSpec interactive;
  interactive.participants = {2, 3, 4, 5};  // overlaps the batch's hosts
  interactive.payload = util::megabytes(1);
  interactive.arrival = util::milliseconds(4.0);
  interactive.pin = runtime::SubstratePin::kElectricalOnly;
  interactive.priority = 9;
  interactive.name = "urgent";
  const runtime::JobId vip = rt.submit(interactive);

  const runtime::RuntimeReport report = rt.run();
  std::fputs(report.to_string().c_str(), stdout);

  std::printf("\njob lifecycle events:\n");
  for (const sim::TraceEvent& event : rt.trace().events()) {
    switch (event.kind) {
      case sim::TraceKind::kJobAdmit:
      case sim::TraceKind::kJobPreempt:
      case sim::TraceKind::kJobResume:
      case sim::TraceKind::kJobComplete:
        std::printf("  t=%-10s %-14s %s\n",
                    util::to_string(event.time).c_str(),
                    sim::trace_kind_name(event.kind),
                    rt.record(static_cast<runtime::JobId>(event.a))
                        .spec.name.c_str());
        break;
      default:
        break;
    }
  }

  const runtime::JobRecord& victim_record = rt.record(victim);
  const bool ok = victim_record.preemptions >= 1 &&
                  victim_record.state == runtime::JobState::kDone &&
                  rt.record(vip).completed < victim_record.completed &&
                  report.replay_checked_steps == report.electrical.steps &&
                  report.oracle_failures == 0;
  std::printf(
      "\nbatch preempted %u time(s) at step boundaries, resumed on free "
      "hosts, and both\njobs completed oracle-proven (%llu steps on "
      "certified flow solves): %s\n",
      victim_record.preemptions,
      static_cast<unsigned long long>(report.replay_checked_steps),
      ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
