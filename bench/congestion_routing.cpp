// Congestion-aware routing on a saturated hybrid, against the quiet
// alpha-beta baseline it replaced.
//
// kCostModelChoice's original comparison was of QUIET run times: the WRHT
// formula vs. the alpha-beta cost of the electrical schedule, both as if
// the job ran alone.  On an oversubscribed two-level fabric that estimate
// is a trap — small latency-bound jobs are all predicted faster on the
// electrical side (a few 25 us alphas vs. multi-millisecond optical step
// overheads), so EVERY one of them spills onto the same ToR uplinks, and
// the fabric the router believed was fast is saturated by the router's own
// decisions.  Meanwhile the optical ring sits underused because the
// comparison never charged the electrical side for its congestion.
//
// RoutingCostModel::kCongestionAware folds the live fabric state into both
// predictions: the electrical estimate stretches with the residual uplink
// bandwidth the in-flight tenants leave behind (one max-min solve on a
// clone of the shared FlowNetwork), the optical estimate adds the predicted
// wait for a free spectrum band (the arbiter backlog).  Once a few jobs
// have spilled, the stretched electrical prediction loses the comparison
// and the remainder runs optically — the two fabrics share the burst
// instead of one drowning.
//
// The quiet model was deleted after commit 24d4e70; its numbers on this
// burst, measured there, are kept as constants.  Congestion-aware routing
// must beat them on makespan, on the worst per-job contention slowdown AND
// on the mean per-decision predicted-vs-actual routing error, or the
// verdict is FAIL.
//
//   $ ./bench/congestion_routing [--trace-out=trace.json]
//                                [--metrics-out=metrics.json]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/bench_json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "runtime/runtime.hpp"
#include "util/cli.hpp"

namespace {

using namespace wrht;

/// The quiet alpha-beta model on this burst, measured at commit 24d4e70
/// (the last one with the model).
constexpr util::Seconds kQuietMakespanAt24d4e70{0.028922666666666666};
constexpr util::Seconds kQuietMeanTurnaroundAt24d4e70{0.0096478111111111108};
constexpr std::uint32_t kQuietToOpticalAt24d4e70 = 16;
constexpr std::uint32_t kQuietToElectricalAt24d4e70 = 32;
constexpr double kQuietWorstSlowdownAt24d4e70 = 7.3504482445658921;
constexpr double kQuietMeanErrorAt24d4e70 = 4.3187965812764784;
constexpr double kQuietWorstErrorAt24d4e70 = 6.5731891004618346;

constexpr std::uint32_t kWaves = 3;

runtime::RuntimeConfig routed_config() {
  runtime::RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 8;  // scarce spectrum: spill tempts
  config.batcher.enabled = false;
  config.placement = runtime::HybridPlacementPolicy::kCostModelChoice;
  config.electrical.fabric = runtime::ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = 16;
  config.electrical.oversubscription = 8.0;  // hot uplinks
  return config;
}

/// A burst of ToR-straddling pair jobs {j, 16+j}: every group has one host
/// in ToR0 and one in ToR1, the 16 groups cover all 32 hosts disjointly
/// (nothing host-blocks, so quiet routing is free to spill every single
/// one), and every electrical placement pushes its flows through the
/// oversubscribed uplinks.  Payloads sized so the QUIET alpha-beta
/// prediction says "electrical" for all of them — the over-spill trap.
void submit_burst(runtime::CollectiveRuntime& rt, std::uint32_t waves) {
  for (std::uint32_t w = 0; w < waves; ++w) {
    for (std::uint32_t j = 0; j < 16; ++j) {
      runtime::JobSpec spec;
      spec.participants = {j, 16 + j};
      spec.payload = util::megabytes(2);
      spec.requested_wavelengths = 1;
      spec.arrival = util::microseconds(8000.0 * w + 40.0 * j);
      spec.name = "burst-" + std::to_string(w * 16 + j);
      rt.submit(spec);
    }
  }
}

struct Outcome {
  runtime::RuntimeReport report;
  double worst_slowdown = 0.0;
};

Outcome run_model(runtime::CollectiveRuntime& rt) {
  submit_burst(rt, kWaves);
  Outcome out{rt.run(), 0.0};
  for (runtime::JobId id = 0; id < rt.num_jobs(); ++id) {
    out.worst_slowdown =
        std::max(out.worst_slowdown, rt.record(id).contention_slowdown);
  }
  return out;
}

void print_row(const char* model, util::Seconds makespan,
               util::Seconds mean_turnaround, std::uint32_t to_optical,
               std::uint32_t to_electrical, double worst_slowdown,
               double mean_error, double worst_error) {
  std::printf("%-18s %-12s %-10s %5u/%-5u %10.3fx %11.1f%% %10.1f%%\n",
              model, util::to_string(makespan).c_str(),
              util::to_string(mean_turnaround).c_str(), to_optical,
              to_electrical, worst_slowdown, mean_error * 100.0,
              worst_error * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Congestion-aware routing bench.");
  cli.add_flag("trace-out", "", "write a Chrome/Perfetto trace JSON here");
  cli.add_flag("metrics-out", "", "write the metrics registry dump here");
  if (!cli.parse(argc, argv)) return 1;

  std::printf(
      "cost-model routing under saturation: 48 straddling pair jobs, "
      "8-lambda ring,\ntwo-level electrical fabric (16 hosts/ToR, 8:1 "
      "oversubscription)\n\n");
  std::printf("%-18s %-12s %-10s %-11s %10s %12s %11s\n", "routing model",
              "makespan", "mean turn", "opt/elec", "worst slow",
              "mean |err|", "worst |err|");

  // The run carries the observability export: its trace shows the
  // route-decision instants flipping back to optical as the stretched
  // electrical prediction starts losing.
  obs::MetricsRegistry registry;
  runtime::RuntimeConfig aware_cfg = routed_config();
  aware_cfg.metrics = &registry;
  runtime::CollectiveRuntime aware_rt(aware_cfg);
  aware_rt.trace().enable();
  const Outcome aware = run_model(aware_rt);

  print_row("quiet (24d4e70)", kQuietMakespanAt24d4e70,
            kQuietMeanTurnaroundAt24d4e70, kQuietToOpticalAt24d4e70,
            kQuietToElectricalAt24d4e70, kQuietWorstSlowdownAt24d4e70,
            kQuietMeanErrorAt24d4e70, kQuietWorstErrorAt24d4e70);
  print_row("congestion-aware", aware.report.makespan,
            aware.report.mean_turnaround(), aware.report.routing.to_optical,
            aware.report.routing.to_electrical, aware.worst_slowdown,
            aware.report.routing.mean_error,
            aware.report.routing.worst_error);

  const bool spreads = aware.report.routing.to_optical > 0 &&
                       aware.report.routing.to_electrical > 0;
  const bool tighter =
      aware.report.routing.mean_error < kQuietMeanErrorAt24d4e70;
  bool ok = aware.report.makespan < kQuietMakespanAt24d4e70 &&
            aware.worst_slowdown < kQuietWorstSlowdownAt24d4e70 && spreads &&
            tighter && aware.report.completed == kWaves * 16;
  if (!obs::export_observability(cli.get_string("trace-out"),
                                 cli.get_string("metrics-out"),
                                 aware_rt.trace(), aware_rt.records(),
                                 &registry)) {
    ok = false;
  }
  std::printf(
      "\ncongestion-aware routing beats quiet alpha-beta at 24d4e70 on "
      "makespan (%0.2fx),\nworst job slowdown (%.2fx -> %.2fx) and mean "
      "routing error (%.1f%% -> %.1f%%)\nby spreading the burst across both "
      "fabrics: %s\n",
      kQuietMakespanAt24d4e70 / aware.report.makespan,
      kQuietWorstSlowdownAt24d4e70, aware.worst_slowdown,
      kQuietMeanErrorAt24d4e70 * 100.0,
      aware.report.routing.mean_error * 100.0, ok ? "PASS" : "FAIL");

  harness::BenchJson json("congestion_routing");
  json.note("verdict", ok ? "PASS" : "FAIL");
  json.metric("quiet_makespan_s", kQuietMakespanAt24d4e70.value());
  json.metric("aware_makespan_s", aware.report.makespan.value());
  json.metric("aware_speedup",
              kQuietMakespanAt24d4e70 / aware.report.makespan);
  json.metric("quiet_worst_slowdown", kQuietWorstSlowdownAt24d4e70);
  json.metric("aware_worst_slowdown", aware.worst_slowdown);
  json.metric("quiet_mean_turnaround_s",
              kQuietMeanTurnaroundAt24d4e70.value());
  json.metric("aware_mean_turnaround_s",
              aware.report.mean_turnaround().value());
  json.metric("quiet_to_electrical", kQuietToElectricalAt24d4e70);
  json.metric("aware_to_electrical", aware.report.routing.to_electrical);
  json.metric("quiet_routing_mean_error", kQuietMeanErrorAt24d4e70);
  json.metric("aware_routing_mean_error", aware.report.routing.mean_error);
  json.write();
  return ok ? 0 : 1;
}
