// Trace-driven serving: stream a generated or recorded submission trace
// into the runtime without ever materializing the workload.
//
// Three ways to drive it:
//
//   generate + serve (default)   a seeded workload generator feeds
//                                CollectiveRuntime::serve() directly
//   generate + record + replay   --record=FILE writes the trace to disk
//                                first, then serves by REPLAYING the file —
//                                proving the on-disk round trip preserves
//                                every spec
//   replay only                  --trace-in=FILE serves a trace recorded
//                                earlier (format from --format)
//
// Every path ends in the same place: a RuntimeReport, the SLO table, and —
// optionally — a Chrome/Perfetto trace of the whole run.
//
// --fabric picks one of the three fabric configurations the repository
// benchmark (perfbench/) serves: `optical` (the 64-λ ring alone),
// `overflow` (jobs the ring cannot place spill to a shared two-level
// electrical fabric, 8 hosts per ToR, 4:1 oversubscribed) or `routed` (the
// same two fabrics, each job routed by the congestion-aware cost model).
//
//   $ ./examples/trace_serve --jobs=5000 --arrivals=bursty --rate=2000
//   $ ./examples/trace_serve --fabric=overflow --trace-out=hybrid.json
//   $ ./examples/trace_serve --jobs=2000 --record=trace.jsonl
//   $ ./examples/trace_serve --trace-in=trace.jsonl --trace-out=perfetto.json
#include <cstdio>
#include <fstream>
#include <string>

#include "harness/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "runtime/runtime.hpp"
#include "util/cli.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace wrht;

  util::CliParser cli(
      "Serve a generated or recorded submission trace through the streaming "
      "runtime frontend.");
  cli.add_flag("jobs", "2000", "jobs to generate (ignored with --trace-in)");
  cli.add_flag("seed", "1", "workload seed");
  cli.add_flag("arrivals", "poisson", "arrival process: poisson|diurnal|bursty");
  cli.add_flag("rate", "2000", "mean arrival rate, jobs per simulated second");
  cli.add_flag("fabric", "optical", "fabric config: optical|overflow|routed");
  cli.add_flag("format", "jsonl", "trace file format: jsonl|csv");
  cli.add_flag("trace-in", "", "replay this recorded trace instead of generating");
  cli.add_flag("record", "", "write the generated trace here, then replay it");
  cli.add_flag("trace-out", "", "write a Chrome/Perfetto trace JSON here");
  cli.add_flag("metrics-out", "", "write the metrics registry dump here");
  if (!cli.parse(argc, argv)) return 1;

  const std::string trace_in = cli.get_string("trace-in");
  const std::string record = cli.get_string("record");
  const std::string trace_out = cli.get_string("trace-out");
  const std::string metrics_out = cli.get_string("metrics-out");

  const std::optional<workload::TraceFormat> format =
      workload::parse_trace_format(cli.get_string("format"));
  if (!format) {
    std::fprintf(stderr, "unknown --format '%s' (want jsonl|csv)\n",
                 cli.get_string("format").c_str());
    return 1;
  }

  const std::string fabric = cli.get_string("fabric");
  if (fabric != "optical" && fabric != "overflow" && fabric != "routed") {
    std::fprintf(stderr,
                 "unknown --fabric '%s' (want optical|overflow|routed)\n",
                 fabric.c_str());
    return 1;
  }

  workload::WorkloadConfig wconfig;
  wconfig.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  wconfig.num_jobs = static_cast<std::uint64_t>(cli.get_int("jobs"));
  wconfig.ring_size = 64;
  wconfig.mean_rate = cli.get_double("rate");
  const std::optional<workload::ArrivalProcess> arrivals =
      workload::parse_arrival_process(cli.get_string("arrivals"));
  if (!arrivals) {
    std::fprintf(stderr, "unknown --arrivals '%s' (want poisson|diurnal|bursty)\n",
                 cli.get_string("arrivals").c_str());
    return 1;
  }
  wconfig.arrivals = *arrivals;

  // Record first if asked: the serve below then replays the file, so what
  // the runtime sees is exactly what a later replay would see.
  if (trace_in.empty() && !record.empty()) {
    workload::WorkloadGenerator gen(wconfig);
    std::ofstream out(record);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", record.c_str());
      return 1;
    }
    const std::uint64_t written =
        workload::record_trace(gen, out, *format);
    std::printf("recorded %lu jobs to %s (%s)\n",
                static_cast<unsigned long>(written), record.c_str(),
                workload::trace_format_name(*format));
  }

  obs::MetricsRegistry registry;
  runtime::RuntimeConfig config;
  config.ring_size = 64;
  config.optical.wdm.num_wavelengths = 64;
  config.policy = runtime::FairnessPolicy::kFifo;
  config.default_request = 8;
  config.batcher.enabled = false;
  config.metrics = &registry;
  if (fabric != "optical") {
    config.placement = fabric == "overflow"
                           ? runtime::HybridPlacementPolicy::kElectricalOverflow
                           : runtime::HybridPlacementPolicy::kCostModelChoice;
    config.electrical.fabric = runtime::ElectricalFabric::kTwoLevelShared;
    config.electrical.hosts_per_tor = 8;
    config.electrical.oversubscription = 4.0;
  }

  runtime::CollectiveRuntime rt(config);
  if (!trace_out.empty()) rt.trace().enable();

  const std::string replay_path = !trace_in.empty() ? trace_in : record;
  runtime::RuntimeReport report;
  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s for reading\n", replay_path.c_str());
      return 1;
    }
    workload::TraceReader reader(in, *format);
    report = rt.serve(reader);
    std::printf("replayed %lu jobs from %s\n\n",
                static_cast<unsigned long>(reader.read()),
                replay_path.c_str());
  } else {
    workload::WorkloadGenerator gen(wconfig);
    report = rt.serve(gen);
    std::printf("served %lu generated jobs (%s arrivals, seed %lu, %s "
                "fabric)\n\n",
                static_cast<unsigned long>(wconfig.num_jobs),
                workload::arrival_process_name(wconfig.arrivals),
                static_cast<unsigned long>(wconfig.seed), fabric.c_str());
  }

  std::fputs(report.to_string().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(harness::render_slo_table(report.slo).c_str(), stdout);

  bool ok = report.completed + report.rejected == report.submitted &&
            report.oracle_failures == 0 && report.completed > 0;
  if (!obs::export_observability(trace_out, metrics_out, rt.trace(),
                                 rt.records(), &registry)) {
    ok = false;
  }
  if (!trace_out.empty() && ok) {
    std::printf("trace written to %s (load at https://ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  std::printf("\nserved to completion: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
