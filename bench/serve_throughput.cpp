// Million-job trace-driven serving throughput.
//
// A generated workload (seeded Poisson arrivals, heavy-tailed payloads and
// participant sets) is pulled through CollectiveRuntime::serve() one spec at
// a time.  The headline metrics are sustained jobs/sec and the peak RSS of
// the run; the run fails unless every job completes.
//
// The arrival rate deliberately exceeds the spectrum's service capacity, so
// a backlog forms — exactly the regime a million-job serving frontend
// lives in.  The oracle is off here (see make_runtime_config);
// perfbench/ measures serve() with it on.
//
//   $ ./bench/serve_throughput [--jobs=100000] [--seed=1] [--rate=50000]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/bench_json.hpp"
#include "runtime/runtime.hpp"
#include "util/cli.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wrht;

/// Wall-clock seconds elapsed since `since` — this bench measures HOST
/// throughput of the simulator itself; nothing here feeds the sim clock.
// simlint-allow(wallclock): benchmarking the event loop's real-time cost
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point since) {
  return std::chrono::duration<double>(WallClock::now() - since).count();
}

/// Peak resident set (VmHWM) in kB; 0 where /proc is unavailable.
std::uint64_t peak_rss_kb() {
  std::uint64_t kb = 0;
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
#endif
  return kb;
}

workload::WorkloadConfig make_workload_config(std::uint64_t jobs,
                                              std::uint64_t seed,
                                              double rate) {
  workload::WorkloadConfig w;
  w.seed = seed;
  w.num_jobs = jobs;
  w.ring_size = 64;
  w.arrivals = workload::ArrivalProcess::kPoisson;
  // Above service capacity on purpose: the backlog this builds is the
  // serving frontend's design point.
  w.mean_rate = rate;
  w.payload_median = util::kilobytes(256);
  w.max_payload = util::megabytes(16);
  w.max_participants = 16;
  w.deadline_fraction = 0.5;
  return w;
}

runtime::RuntimeConfig make_runtime_config() {
  runtime::RuntimeConfig config;
  config.ring_size = 64;
  config.optical.wdm.num_wavelengths = 64;
  config.policy = runtime::FairnessPolicy::kFifo;
  config.default_request = 8;
  config.batcher.enabled = false;
  // The oracle re-proves every schedule; at 10^5+ jobs that per-job cost
  // would dominate the event-loop throughput this bench exists for.
  config.validate_with_oracle = false;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Trace-driven serving throughput of serve().");
  cli.add_flag("jobs", "100000", "jobs streamed through serve()");
  cli.add_flag("seed", "1", "workload seed");
  cli.add_flag("rate", "50000",
               "mean arrival rate, jobs per simulated second");
  if (!cli.parse(argc, argv)) return 1;

  const std::int64_t jobs_flag = cli.get_int("jobs");
  if (jobs_flag <= 0) {
    std::fprintf(stderr, "serve_throughput: --jobs must be a positive "
                         "integer, got '%s'\n",
                 cli.get_string("jobs").c_str());
    return 2;
  }
  const auto jobs = static_cast<std::uint64_t>(jobs_flag);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double rate = cli.get_double("rate");

  std::printf("streaming serve: %lu jobs...\n",
              static_cast<unsigned long>(jobs));
  const auto start = WallClock::now();
  workload::WorkloadGenerator gen(make_workload_config(jobs, seed, rate));
  runtime::CollectiveRuntime rt(make_runtime_config());
  const runtime::RuntimeReport report = rt.serve(gen);
  const double wall_s = seconds_since(start);
  const std::uint64_t rss_kb = peak_rss_kb();
  const double jobs_per_sec = static_cast<double>(report.completed) / wall_s;

  std::printf("\n%-12s %10.2fs\n", "wall", wall_s);
  std::printf("%-12s %11.0f\n", "jobs/sec", jobs_per_sec);
  std::printf("%-12s %8lu kB\n", "peak RSS",
              static_cast<unsigned long>(rss_kb));

  const bool ok = report.completed == jobs;

  harness::BenchJson json("serve_throughput");
  json.note("verdict", ok ? "PASS" : "FAIL");
  json.metric("jobs", static_cast<double>(jobs));
  json.metric("arrival_rate_per_sec", rate);
  json.metric("jobs_per_sec", jobs_per_sec);
  json.metric("wall_s", wall_s);
  json.metric("peak_rss_kb", static_cast<double>(rss_kb));
  json.metric("makespan_s", report.makespan.value());
  json.metric("p99_turnaround_s", report.slo.p99_turnaround.value());
  json.write();

  std::printf("all %lu jobs completed: %s\n",
              static_cast<unsigned long>(jobs), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
