// Elastic failover through the runtime's REAL failure API: node losses are
// fault events on the sim clock, detected at BSP step boundaries and
// resolved through the same typed renegotiation entry point preemption and
// elastic resize use.
//
// Part 1 scripts two transceiver losses mid-collective and shows the
// survivor rebuild: the tenant keeps its band, the failed nodes are
// stripped from the delivery set (kEvict) or the remainder restarts among
// the survivors (kRestart), and the composite prefix+remainder oracle
// re-proves every renegotiated schedule inside the runtime.
//
// Part 2 turns on chaos mode — a seeded FaultInjector riding a seeded
// workload — and runs the SAME configuration twice, comparing the full
// event traces: fault injection is deterministic per seed, so two runs are
// t-identical event for event.
//
//   $ ./examples/elastic_failover --nodes 32 --payload-mb 100
#include <cstdio>
#include <vector>

#include "runtime/faults.hpp"
#include "runtime/runtime.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wrht;

/// The whole trace flattened to comparable tuples (time, kind, a, b, c) —
/// two runs are t-identical iff these match exactly.
std::vector<std::tuple<util::Seconds, sim::TraceKind, std::int64_t,
                       std::int64_t, std::int64_t>>
flatten(const sim::Trace& trace) {
  std::vector<std::tuple<util::Seconds, sim::TraceKind, std::int64_t,
                         std::int64_t, std::int64_t>>
      out;
  out.reserve(trace.events().size());
  for (const sim::TraceEvent& e : trace.events()) {
    out.emplace_back(e.time, e.kind, e.a, e.b, e.c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wrht;
  util::CliParser cli(
      "Survive node failures via fault-event renegotiation, twice over.");
  cli.add_flag("nodes", "32", "ring size");
  cli.add_flag("wavelengths", "16", "wavelengths per waveguide");
  cli.add_flag("payload-mb", "100", "gradient size in MB");
  cli.add_flag("seed", "42", "chaos + workload seed for part 2");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<std::uint32_t>(cli.get_int("nodes"));
  const auto wavelengths =
      static_cast<std::uint32_t>(cli.get_int("wavelengths"));
  const util::Bytes payload =
      util::megabytes(static_cast<std::uint64_t>(cli.get_int("payload-mb")));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  runtime::RuntimeConfig config;
  config.ring_size = n;
  config.optical.wdm.num_wavelengths = wavelengths;
  config.batcher.enabled = false;

  runtime::JobSpec gradient;
  for (std::uint32_t i = 0; i < n - n / 4; ++i) {
    gradient.participants.push_back(i);
  }
  gradient.payload = payload;
  gradient.name = "gradient all-reduce";

  // ---- part 1: scripted node losses mid-collective ---------------------
  // A calibration run (no faults) finds the makespan, so the two losses
  // land squarely inside the collective — one per third.
  util::Seconds calm_makespan;
  {
    runtime::CollectiveRuntime calm(config);
    calm.submit(gradient);
    calm_makespan = calm.run().makespan;
  }

  const topo::NodeId first_victim = 7;
  const topo::NodeId second_victim = 13;
  runtime::ScriptedFaultSource script({
      {runtime::FaultDomain::kTransceiver, first_victim,
       util::Seconds(calm_makespan.value() / 3.0), util::Seconds(0.0)},
      {runtime::FaultDomain::kTransceiver, second_victim,
       util::Seconds(calm_makespan.value() * 2.0 / 3.0), util::Seconds(0.0)},
  });
  config.faults = &script;

  runtime::CollectiveRuntime rt(config);
  rt.trace().enable();
  const runtime::JobId id = rt.submit(gradient);
  const runtime::RuntimeReport report = rt.run();
  config.faults = nullptr;

  std::printf("scripted failover — ring of %u, %s gradient, %u wavelengths\n",
              n, util::to_string(payload).c_str(), wavelengths);
  std::printf("fault-free makespan %s; transceivers %u and %u fail at 1/3 "
              "and 2/3 of it\n\n",
              util::to_string(calm_makespan).c_str(), first_victim,
              second_victim);

  util::Table timeline({"t", "event", "detail"});
  for (const sim::TraceEvent& e : rt.trace().events()) {
    switch (e.kind) {
      case sim::TraceKind::kNodeFail:
        timeline.add_row({util::to_string(e.time), "node_fail",
                          "node " + std::to_string(e.a)});
        break;
      case sim::TraceKind::kJobResize:
        timeline.add_row({util::to_string(e.time), "rebuilt remainder",
                          "band [" + std::to_string(e.b) + ", +" +
                              std::to_string(e.c) + ")"});
        break;
      case sim::TraceKind::kJobAdmit:
      case sim::TraceKind::kJobResume:
      case sim::TraceKind::kJobComplete:
        timeline.add_row({util::to_string(e.time),
                          sim::trace_kind_name(e.kind),
                          "width " + std::to_string(e.c)});
        break;
      default:
        break;
    }
  }
  std::fputs(timeline.render().c_str(), stdout);

  const runtime::JobRecord& record = rt.record(id);
  std::printf(
      "\nsurvivor rebuilds: %u eviction(s) + %u restart(s), mttr %s, "
      "goodput %.3f\njob %s, oracle-proven: %s\n\n",
      report.faults.evictions, report.faults.restarts,
      util::to_string(report.faults.mttr()).c_str(), report.goodput(),
      runtime::job_state_name(record.state),
      record.oracle_ok ? "yes" : "NO");

  const bool part1_ok = record.state == runtime::JobState::kDone &&
                        record.oracle_ok && report.oracle_failures == 0 &&
                        report.faults.disrupted_executions >= 1 &&
                        report.faults.evictions + report.faults.restarts >= 1;

  // ---- part 2: chaos mode, twice — t-identical traces ------------------
  workload::WorkloadConfig chaos;
  chaos.seed = seed;
  chaos.num_jobs = 60;
  chaos.ring_size = n;
  chaos.mean_rate = 400.0;
  chaos.fault_horizon = util::Seconds(5.0);
  chaos.transceiver_mtbf = util::Seconds(0.05);
  chaos.node_mtbf = util::Seconds(0.08);
  chaos.wavelength_mtbf = util::Seconds(0.08);
  chaos.fault_mttr = util::Seconds(0.01);
  chaos.fault_num_wavelengths = wavelengths;

  auto chaos_run = [&]() {
    workload::WorkloadGenerator jobs(chaos);
    runtime::FaultInjector injector = jobs.make_fault_injector();
    runtime::RuntimeConfig cfg = config;
    cfg.faults = &injector;
    runtime::CollectiveRuntime chaos_rt(cfg);
    chaos_rt.trace().enable();
    const runtime::RuntimeReport chaos_report = chaos_rt.serve(jobs);
    return std::make_tuple(chaos_report, flatten(chaos_rt.trace()),
                           chaos_rt.completion_order());
  };
  const auto [report_a, trace_a, order_a] = chaos_run();
  const auto [report_b, trace_b, order_b] = chaos_run();

  std::printf("chaos mode — %llu jobs under seeded fault injection "
              "(seed %llu):\n",
              static_cast<unsigned long long>(chaos.num_jobs),
              static_cast<unsigned long long>(seed));
  std::printf(
      "  %u faults injected, %u repairs, %u disruptions -> %u evictions + "
      "%u restarts,\n  %u fault preemptions, %u killed; mttr %s, goodput "
      "%.3f\n",
      report_a.faults.injected, report_a.faults.repairs,
      report_a.faults.disrupted_executions, report_a.faults.evictions,
      report_a.faults.restarts, report_a.faults.fault_preemptions,
      report_a.faults.killed_jobs, util::to_string(report_a.faults.mttr()).c_str(),
      report_a.goodput());

  const bool identical = trace_a == trace_b && order_a == order_b;
  std::printf(
      "  two runs, %zu trace events each: %s\n",
      trace_a.size(),
      identical ? "t-identical event for event" : "DIVERGED");

  const bool part2_ok = identical && report_a.faults.injected > 0 &&
                        report_a.oracle_failures == 0 &&
                        report_a.completed + report_a.rejected +
                                report_a.faults.killed_jobs ==
                            report_a.submitted;
  const bool ok = part1_ok && part2_ok;
  std::printf("\n%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
