// Fixed bands vs elastic bands on a contended ring.
//
// Once a band is granted, a fixed-band runtime holds it unchanged until the
// job completes — the narrow job that was admitted during a busy moment
// stays narrow after the ring empties, and the tenant that arrives during a
// monopolized moment waits for a full completion.  Elastic resize uses the
// step boundaries instead: a running band GROWS into freed neighboring
// spectrum when the rebuilt remainder has fewer levels, and SHRINKS toward
// its floor when the surrendered range would unblock a starved arrival.
//
// The same contended scenario is timed both ways:
//
//   hog      48 nodes, huge payload, admitted on the whole spectrum at t=0
//   starved  16 nodes, arrives while the hog holds everything, min 8 lambda
//   narrow   24 nodes, arrives while the ring is crowded, happy with 2
//
//   $ ./bench/renegotiation
#include <cstdio>

#include "harness/bench_json.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace wrht;

std::vector<runtime::JobSpec> contended_workload() {
  std::vector<runtime::JobSpec> jobs;

  runtime::JobSpec hog;
  for (std::uint32_t i = 0; i < 48; ++i) hog.participants.push_back(i);
  hog.payload = util::megabytes(192);
  hog.requested_wavelengths = 64;
  hog.min_wavelengths = 2;
  hog.name = "hog";
  jobs.push_back(hog);

  runtime::JobSpec starved;
  for (std::uint32_t i = 0; i < 16; ++i) starved.participants.push_back(8 + i);
  starved.payload = util::megabytes(24);
  starved.arrival = util::milliseconds(2.0);
  starved.requested_wavelengths = 8;
  starved.min_wavelengths = 8;
  starved.name = "starved";
  jobs.push_back(starved);

  runtime::JobSpec narrow;
  for (std::uint32_t i = 0; i < 24; ++i) narrow.participants.push_back(2 * i);
  narrow.payload = util::megabytes(96);
  narrow.arrival = util::milliseconds(3.0);
  narrow.requested_wavelengths = 2;
  narrow.min_wavelengths = 2;
  narrow.name = "narrow";
  jobs.push_back(narrow);

  return jobs;
}

runtime::RuntimeReport run_mode(bool elastic) {
  runtime::RuntimeConfig config;
  config.ring_size = 64;
  config.optical.wdm.num_wavelengths = 64;
  config.batcher.enabled = false;
  config.elastic_resize = elastic;
  runtime::CollectiveRuntime rt(config);
  for (const runtime::JobSpec& spec : contended_workload()) rt.submit(spec);
  return rt.run();
}

}  // namespace

int main() {
  const runtime::RuntimeReport fixed = run_mode(false);
  const runtime::RuntimeReport elastic = run_mode(true);

  std::printf("contended 3-job scenario, 64-node ring, 64 wavelengths\n\n");
  std::printf("%-14s %-12s %-9s %-16s %s\n", "mode", "makespan", "speedup",
              "mean turnaround", "resizes");
  std::printf("%-14s %-12s %8.2fx %-16s %u\n", "fixed bands",
              util::to_string(fixed.makespan).c_str(), 1.0,
              util::to_string(fixed.mean_turnaround()).c_str(),
              fixed.resizes);
  std::printf("%-14s %-12s %8.2fx %-16s %u\n", "elastic bands",
              util::to_string(elastic.makespan).c_str(),
              fixed.makespan / elastic.makespan,
              util::to_string(elastic.mean_turnaround()).c_str(),
              elastic.resizes);

  const bool ok = elastic.makespan < fixed.makespan &&
                  elastic.resizes >= 2 && fixed.resizes == 0 &&
                  elastic.mean_turnaround() < fixed.mean_turnaround();
  std::printf("\nelastic beats fixed on makespan and turnaround via %u "
              "step-boundary resizes: %s\n",
              elastic.resizes, ok ? "PASS" : "FAIL");

  harness::BenchJson json("renegotiation");
  json.note("verdict", ok ? "PASS" : "FAIL");
  json.metric("fixed_makespan_s", fixed.makespan.value());
  json.metric("elastic_makespan_s", elastic.makespan.value());
  json.metric("elastic_speedup", fixed.makespan / elastic.makespan);
  json.metric("fixed_mean_turnaround_s", fixed.mean_turnaround().value());
  json.metric("elastic_mean_turnaround_s", elastic.mean_turnaround().value());
  json.metric("elastic_resizes", elastic.resizes);
  json.write();
  return ok ? 0 : 1;
}
