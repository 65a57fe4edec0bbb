// Congestion-aware vs quiet-alpha-beta routing on a saturated hybrid.
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
// The same saturated burst is routed both ways; congestion-aware must win
// on makespan, on the worst per-job contention slowdown AND on the mean
// per-decision predicted-vs-actual routing error, or the verdict is FAIL.
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

runtime::RuntimeConfig routed_config(runtime::RoutingCostModel model) {
  runtime::RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 8;  // scarce spectrum: spill tempts
  config.batcher.enabled = false;
  config.placement = runtime::HybridPlacementPolicy::kCostModelChoice;
  config.routing_cost_model = model;
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
  submit_burst(rt, /*waves=*/3);
  Outcome out{rt.run(), 0.0};
  for (runtime::JobId id = 0; id < rt.num_jobs(); ++id) {
    out.worst_slowdown =
        std::max(out.worst_slowdown, rt.record(id).contention_slowdown);
  }
  return out;
}

void print_row(const char* model, const Outcome& o) {
  std::printf("%-18s %-12s %-10s %5u/%-5u %10.3fx %11.1f%% %10.1f%%\n",
              model, util::to_string(o.report.makespan).c_str(),
              util::to_string(o.report.mean_turnaround()).c_str(),
              o.report.routing.to_optical, o.report.routing.to_electrical,
              o.worst_slowdown, o.report.routing.mean_error * 100.0,
              o.report.routing.worst_error * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Congestion-aware vs quiet-alpha-beta routing bench.");
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

  runtime::CollectiveRuntime quiet_rt(
      routed_config(runtime::RoutingCostModel::kQuietAlphaBeta));
  const Outcome quiet = run_model(quiet_rt);

  // The congestion-aware run carries the observability export: its trace
  // shows the route-decision instants flipping back to optical as the
  // stretched electrical prediction starts losing.
  obs::MetricsRegistry registry;
  runtime::RuntimeConfig aware_cfg =
      routed_config(runtime::RoutingCostModel::kCongestionAware);
  aware_cfg.metrics = &registry;
  runtime::CollectiveRuntime aware_rt(aware_cfg);
  aware_rt.trace().enable();
  const Outcome aware = run_model(aware_rt);

  print_row("quiet-alpha-beta", quiet);
  print_row("congestion-aware", aware);

  const bool spreads = aware.report.routing.to_optical > 0 &&
                       aware.report.routing.to_electrical > 0;
  const bool tighter = aware.report.routing.mean_error <
                       quiet.report.routing.mean_error;
  bool ok = aware.report.makespan < quiet.report.makespan &&
            aware.worst_slowdown < quiet.worst_slowdown && spreads &&
            tighter && quiet.report.completed == aware.report.completed;
  if (!obs::export_observability(cli.get_string("trace-out"),
                                 cli.get_string("metrics-out"),
                                 aware_rt.trace(), aware_rt.records(),
                                 &registry)) {
    ok = false;
  }
  std::printf(
      "\ncongestion-aware routing beats quiet-alpha-beta on makespan "
      "(%0.2fx), worst\njob slowdown (%.2fx -> %.2fx) and mean routing "
      "error (%.1f%% -> %.1f%%) by\nspreading the burst across both "
      "fabrics: %s\n",
      quiet.report.makespan / aware.report.makespan, quiet.worst_slowdown,
      aware.worst_slowdown, quiet.report.routing.mean_error * 100.0,
      aware.report.routing.mean_error * 100.0, ok ? "PASS" : "FAIL");

  harness::BenchJson json("congestion_routing");
  json.note("verdict", ok ? "PASS" : "FAIL");
  json.metric("quiet_makespan_s", quiet.report.makespan.value());
  json.metric("aware_makespan_s", aware.report.makespan.value());
  json.metric("aware_speedup",
              quiet.report.makespan / aware.report.makespan);
  json.metric("quiet_worst_slowdown", quiet.worst_slowdown);
  json.metric("aware_worst_slowdown", aware.worst_slowdown);
  json.metric("quiet_mean_turnaround_s",
              quiet.report.mean_turnaround().value());
  json.metric("aware_mean_turnaround_s",
              aware.report.mean_turnaround().value());
  json.metric("quiet_to_electrical", quiet.report.routing.to_electrical);
  json.metric("aware_to_electrical", aware.report.routing.to_electrical);
  json.metric("quiet_routing_mean_error", quiet.report.routing.mean_error);
  json.metric("aware_routing_mean_error", aware.report.routing.mean_error);
  json.write();
  return ok ? 0 : 1;
}
