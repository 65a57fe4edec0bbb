// Shared-fabric electrical contention: multi-tenant flow timing on an
// oversubscribed two-level tree vs. the exclusive-star fallback.
//
// The star gives every execution private host links, so quiet-network step
// timing is exact and tenants never contend — hiding the very congestion
// that motivates the optical ring.  The shared two-level fabric times all
// tenants' flows together in ONE FlowNetwork with max-min fair sharing on
// the ToR uplinks.  This bench shows both regimes:
//
//  * SANITY — disjoint ToR-contained tenants on the shared fabric at full
//    bisection reproduce the exclusive-star timing (no shared link is ever
//    crossed, so the fluid model must agree to rounding);
//  * CONTENTION — tenants straddling two ToRs sweep the oversubscription
//    factor: at 1:1 the uplinks are wide enough and the slowdown stays
//    1.00x, beyond it the tenants' cross-ToR flows fight for uplink
//    bandwidth and every job's contention slowdown (shared-fabric time /
//    quiet-network time) climbs with the factor, while the exclusive star
//    would have claimed nothing happened.
//
// Every shared-fabric step is timed on max-min solves the network
// certifies as it runs (the runtime aborts on a failed certificate, and the
// report counts the audited steps).
//
//   $ ./bench/electrical_contention
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_json.hpp"
#include "runtime/runtime.hpp"
#include "util/math.hpp"

namespace {

using namespace wrht;

runtime::RuntimeConfig fabric_config(runtime::ElectricalFabric fabric,
                                     std::uint32_t hosts_per_tor,
                                     double oversubscription) {
  runtime::RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 16;
  config.batcher.enabled = false;
  config.placement = runtime::HybridPlacementPolicy::kElectricalOverflow;
  config.electrical.fabric = fabric;
  config.electrical.hosts_per_tor = hosts_per_tor;
  config.electrical.oversubscription = oversubscription;
  return config;
}

/// Disjoint jobs pinned to the electrical fabric.  Contained: four 8-host
/// jobs, each inside one ToR of 8 — no shared link is ever crossed.
/// Straddling: eight 4-host jobs, each half in ToR0 and half in ToR1 (of
/// 16) — every ring step pushes 16 concurrent flows through each uplink
/// direction, so any uplink narrower than the hosts' aggregate rate
/// congests.
void submit_quartet(runtime::CollectiveRuntime& rt, bool contained) {
  const std::uint32_t jobs = contained ? 4u : 8u;
  for (std::uint32_t j = 0; j < jobs; ++j) {
    runtime::JobSpec spec;
    if (contained) {
      for (std::uint32_t i = 0; i < 8; ++i) {
        spec.participants.push_back(j * 8 + i);
      }
    } else {
      spec.participants = {2 * j, 2 * j + 1, 16 + 2 * j, 16 + 2 * j + 1};
    }
    spec.payload = util::megabytes(4 + j);
    spec.pin = runtime::SubstratePin::kElectricalOnly;
    spec.name = "tenant-" + std::to_string(j);
    rt.submit(spec);
  }
}

struct RunOutcome {
  runtime::RuntimeReport report;
  double worst_slowdown = 0.0;
  double completion_delta = 0.0;  // max relative delta vs. a reference run
};

RunOutcome run_quartet(const runtime::RuntimeConfig& config, bool contained,
                       const runtime::CollectiveRuntime* reference) {
  runtime::CollectiveRuntime rt(config);
  submit_quartet(rt, contained);
  RunOutcome out{rt.run(), 0.0, 0.0};
  for (runtime::JobId id = 0; id < rt.num_jobs(); ++id) {
    out.worst_slowdown =
        std::max(out.worst_slowdown, rt.record(id).contention_slowdown);
    if (reference != nullptr) {
      const double mine = rt.record(id).completed.value();
      const double theirs = reference->record(id).completed.value();
      out.completion_delta =
          std::max(out.completion_delta, std::abs(mine - theirs) / theirs);
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf(
      "electrical contention on the shared two-level fallback fabric\n"
      "32 hosts, 10 Gb/s access links, tenants pinned electrical\n\n");

  // --- sanity: ToR-contained tenants reproduce the exclusive star -------
  runtime::CollectiveRuntime star_rt(fabric_config(
      runtime::ElectricalFabric::kStarExclusive, 8, 1.0));
  submit_quartet(star_rt, /*contained=*/true);
  const runtime::RuntimeReport star_contained = star_rt.run();
  const RunOutcome shared_contained = run_quartet(
      fabric_config(runtime::ElectricalFabric::kTwoLevelShared, 8, 1.0),
      /*contained=*/true, &star_rt);
  std::printf(
      "ToR-contained tenants, full bisection: shared two-level vs star\n"
      "  star makespan %s, shared makespan %s\n"
      "  max per-job completion delta %.2e (fluid-model rounding only)\n"
      "  worst contention slowdown %.3fx, certified steps %llu\n\n",
      util::to_string(star_contained.makespan).c_str(),
      util::to_string(shared_contained.report.makespan).c_str(),
      shared_contained.completion_delta, shared_contained.worst_slowdown,
      static_cast<unsigned long long>(
          shared_contained.report.replay_checked_steps));

  // --- contention: straddling tenants sweep the oversubscription --------
  runtime::CollectiveRuntime star_straddle_rt(fabric_config(
      runtime::ElectricalFabric::kStarExclusive, 8, 1.0));
  submit_quartet(star_straddle_rt, /*contained=*/false);
  const runtime::RuntimeReport star_straddle = star_straddle_rt.run();
  std::printf(
      "ToR-straddling tenants: 8 jobs, one uplink flow each per direction "
      "per step,\nso the 16-host uplinks congest once oversubscription "
      "exceeds 16/8 = 2.\n(the exclusive star would claim: makespan %s, "
      "slowdown 1.000x at every oversubscription)\n\n",
      util::to_string(star_straddle.makespan).c_str());
  std::printf("%-16s %-12s %-10s %-10s %s\n", "oversubscription",
              "makespan", "vs star", "slowdown", "uplink peak");

  bool diverged = false;
  bool matched_at_one = false;
  harness::BenchJson json("electrical_contention");
  json.metric("star_straddle_makespan_s", star_straddle.makespan.value());
  json.metric("contained_completion_delta",
              shared_contained.completion_delta);
  for (const double oversub : {1.0, 2.0, 3.0, 4.0, 8.0}) {
    const RunOutcome outcome = run_quartet(
        fabric_config(runtime::ElectricalFabric::kTwoLevelShared, 16,
                      oversub),
        /*contained=*/false, nullptr);
    const double peak =
        outcome.report.electrical_link_peak.empty()
            ? 0.0
            : *std::max_element(outcome.report.electrical_link_peak.begin(),
                                outcome.report.electrical_link_peak.end());
    std::printf("%-16.0f %-12s %-10.3f %-10.3f %.0f%%\n", oversub,
                util::to_string(outcome.report.makespan).c_str(),
                outcome.report.makespan.value() /
                    star_straddle.makespan.value(),
                outcome.worst_slowdown, peak * 100.0);
    const std::string tag = "oversub_" + std::to_string(
                                static_cast<int>(oversub));
    json.metric(tag + "_makespan_s", outcome.report.makespan.value());
    json.metric(tag + "_worst_slowdown", outcome.worst_slowdown);
    json.metric(tag + "_uplink_peak", peak);
    if (util::approx_eq(oversub, 1.0, 1e-12)) {
      matched_at_one = outcome.worst_slowdown < 1.0 + 1e-6;
    } else if (oversub > 2.0 && outcome.worst_slowdown > 1.05) {
      diverged = true;
    }
  }

  const bool ok = matched_at_one && diverged &&
                  shared_contained.completion_delta < 1e-9 &&
                  shared_contained.worst_slowdown < 1.0 + 1e-6 &&
                  shared_contained.report.replay_checked_steps ==
                      shared_contained.report.electrical.steps;
  std::printf(
      "\nshared fabric matches the star when nothing is shared, diverges "
      "under oversubscribed load: %s\n",
      ok ? "PASS" : "FAIL");
  json.note("verdict", ok ? "PASS" : "FAIL");
  json.write();
  return ok ? 0 : 1;
}
