// FNV-1a digest of a RuntimeReport, shared by the tests that pin or compare
// whole reports: the golden digests in test_runtime_serve.cpp and the
// per-seed lines test_runtime_stress.cpp prints, so two builds' stress
// sweeps can be diffed line by line.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "runtime/runtime.hpp"
#include "workload/trace_io.hpp"

namespace wrht::runtime {

/// FNV-1a over every report field (doubles printed exactly); the same
/// fields, in the same order, as perfbench's report digest.
inline std::uint64_t report_digest(const RuntimeReport& r) {
  std::string text;
  const auto num = [&text](double v) {
    text += std::isfinite(v) ? workload::format_double_exact(v) : "nonfinite";
    text += ',';
  };
  const auto count = [&text](std::uint64_t v) {
    text += std::to_string(v);
    text += ',';
  };
  const auto breakdown = [&](const SubstrateBreakdown& b) {
    count(b.jobs);
    count(b.executions);
    count(b.steps);
    num(b.makespan.value());
    num(b.busy_time.value());
    num(b.quiet_time.value());
  };
  num(r.makespan.value());
  count(r.submitted);
  count(r.completed);
  count(r.rejected);
  count(r.executions);
  count(r.batches);
  count(r.total_steps);
  count(r.total_retunes);
  count(r.spectrum_reservations);
  count(r.peak_concurrent_jobs);
  count(r.oracle_failures);
  count(r.preemptions);
  count(r.resumes);
  count(r.resizes);
  count(r.step_retimes);
  count(r.replay_checked_steps);
  for (const double peak : r.electrical_link_peak) num(peak);
  num(r.total_turnaround.value());
  count(r.routing.decisions);
  count(r.routing.to_optical);
  count(r.routing.to_electrical);
  num(r.routing.mean_error);
  num(r.routing.worst_error);
  breakdown(r.optical);
  breakdown(r.electrical);
  const obs::SloStats& slo = r.slo;
  count(slo.jobs);
  num(slo.p50_turnaround.value());
  num(slo.p99_turnaround.value());
  num(slo.p999_turnaround.value());
  num(slo.p50_slowdown);
  num(slo.p99_slowdown);
  num(slo.p999_slowdown);
  num(slo.max_wait.value());
  count(slo.deadline_jobs);
  count(slo.deadline_hits);
  const FaultStats& f = r.faults;
  count(f.injected);
  count(f.transceiver_faults);
  count(f.node_faults);
  count(f.tor_faults);
  count(f.wavelength_faults);
  count(f.repairs);
  count(f.disrupted_executions);
  count(f.evictions);
  count(f.restarts);
  count(f.migrations);
  count(f.fault_preemptions);
  count(f.killed_jobs);
  count(f.recoveries);
  num(f.total_recovery.value());
  num(f.wasted_step_time.value());
  num(r.step_time_total.value());

  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace wrht::runtime
