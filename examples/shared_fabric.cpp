// Shared-fabric contention on the electrical fallback: what multi-tenancy
// actually costs once the fallback fabric stops pretending every tenant
// has private links.
//
// The fallback is configured as an oversubscribed two-level tree
// (hosts -> ToRs -> core).  Two big optical tenants hold the whole
// spectrum; a burst of overflow jobs straddles the two ToRs, so their
// flows meet on the shared uplinks: ONE SharedFabricTimer times every
// in-flight electrical step together under max-min fairness, each step
// ends when the real shared network drains its last flow, each job
// reports its contention slowdown (shared-fabric time / quiet-network
// time), and the whole-horizon flow replay re-proves every step time at
// the end of the run.
//
//   $ ./examples/shared_fabric [--trace-out=trace.json]
//                              [--metrics-out=metrics.json]
#include <cstdint>
#include <cstdio>
#include <vector>

#include "harness/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "runtime/runtime.hpp"
#include "util/cli.hpp"

namespace {

using namespace wrht;

void submit_workload(runtime::CollectiveRuntime& rt) {
  // Two spectrum-hogging optical tenants...
  for (std::uint32_t t = 0; t < 2; ++t) {
    runtime::JobSpec big;
    for (std::uint32_t i = 0; i < 16; ++i) {
      big.participants.push_back(t * 16 + i);
    }
    big.payload = util::megabytes(48);
    big.requested_wavelengths = 8;
    big.min_wavelengths = 8;
    big.name = "tenant-" + std::to_string(t);
    rt.submit(big);
  }
  // ... and six overflow jobs whose participants straddle both ToRs, so
  // every one of their ring steps crosses the shared uplinks.
  for (std::uint32_t b = 0; b < 6; ++b) {
    runtime::JobSpec burst;
    burst.participants = {2 * b, 2 * b + 1, 16 + 2 * b, 16 + 2 * b + 1};
    burst.payload = util::megabytes(6);
    burst.arrival = util::milliseconds(1.0);
    burst.name = "burst-" + std::to_string(b);
    rt.submit(burst);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Shared electrical fallback contention demo.");
  cli.add_flag("trace-out", "", "write a Chrome/Perfetto trace JSON here");
  cli.add_flag("metrics-out", "", "write the metrics registry dump here");
  if (!cli.parse(argc, argv)) return 1;

  obs::MetricsRegistry registry;

  runtime::RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 16;
  config.batcher.enabled = false;
  config.placement = runtime::HybridPlacementPolicy::kElectricalOverflow;
  config.electrical.fabric = runtime::ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = 16;
  config.electrical.oversubscription = 4.0;
  config.metrics = &registry;

  runtime::CollectiveRuntime rt(config);
  rt.trace().enable();
  submit_workload(rt);
  const runtime::RuntimeReport report = rt.run();

  std::printf("=== shared two-level fallback, 4:1 oversubscription ===\n%s\n",
              report.to_string().c_str());

  std::printf("%s\n",
              harness::render_substrate_table(
                  {{"optical", report.optical.jobs,
                    report.optical.executions, report.optical.steps,
                    report.optical.makespan.value()},
                   {"electrical", report.electrical.jobs,
                    report.electrical.executions, report.electrical.steps,
                    report.electrical.makespan.value()}})
                  .c_str());

  std::vector<harness::SlowdownRow> rows;
  for (runtime::JobId id = 0; id < rt.num_jobs(); ++id) {
    const runtime::JobRecord& record = rt.record(id);
    rows.push_back({record.spec.name, record.turnaround().value(),
                    record.contention_slowdown});
  }
  std::printf("%s\n", harness::render_slowdown_table(rows).c_str());
  // Only the saturated links: the four ToR uplink directions (ids 0-3, the
  // first edges the two-level builder lays) plus the access links of hosts
  // driven at line rate.
  std::printf("%s\n",
              harness::render_link_utilization(report.electrical_link_peak,
                                               /*threshold=*/0.95)
                  .c_str());

  // Solver work: the real network solves once per flow activation or
  // completion, and certifies each solve max-min fair as it goes; nothing
  // re-simulates the future at step starts.
  const auto count = [&registry](const char* name) -> std::uint64_t {
    const obs::Counter* counter = registry.find_counter(name);
    return counter ? counter->value() : 0;
  };
  for (const char* name :
       {"fabric.steps_timed", "fabric.solves.network",
        "fabric.solves.certified", "fabric.solver.rounds"}) {
    std::printf("%-24s %llu\n", name,
                static_cast<unsigned long long>(count(name)));
  }

  double worst = 0.0;
  for (const harness::SlowdownRow& row : rows) {
    if (row.slowdown > worst) worst = row.slowdown;
  }
  // The four ToR uplink directions lead the link ids (see above).
  double uplink_peak = 0.0;
  for (std::size_t l = 0; l < 4 && l < report.electrical_link_peak.size();
       ++l) {
    if (report.electrical_link_peak[l] > uplink_peak) {
      uplink_peak = report.electrical_link_peak[l];
    }
  }
  bool ok = report.completed == 8 && worst > 1.0 && uplink_peak > 0.999 &&
            report.replay_checked_steps == report.electrical.steps &&
            count("fabric.solves.certified") ==
                count("fabric.solves.network");
  std::printf("\ntenants contended on a saturated shared uplink and every "
              "solve behind the step times was certified max-min fair: %s\n",
              ok ? "PASS" : "FAIL");
  if (!obs::export_observability(cli.get_string("trace-out"),
                                 cli.get_string("metrics-out"), rt.trace(),
                                 rt.records(), &registry)) {
    ok = false;
  }
  return ok ? 0 : 1;
}
