// Chrome trace-event JSON export: converts a run's sim::Trace + JobRecords
// (+ optionally a MetricsRegistry's sampled time series) into a document
// that loads directly in Perfetto / chrome://tracing.
//
// Track layout:
//   * pid 1 "optical ring" / pid 2 "electrical fabric" — one thread (tid)
//     per job, on the fabric that carried it.  A job's lifetime is a B/E
//     duration span from admission to completion; preempt/resume windows
//     nest as "suspended" spans inside it, schedule steps nest as
//     sequential "step N" spans on the execution's lead job, and resizes /
//     fusions / route decisions render as instant events with numeric args
//     (band events carry band_base and width; route decisions carry BOTH
//     predicted completion times in seconds, read from the job records).
//   * pid 0 "metrics" — one counter track per sampled gauge series
//     (queue depth, spectrum occupancy, uplink utilization, ...).
//
// Timestamps are microseconds (the trace-event convention); events arrive
// from sim::Trace in simulation order, so every track's ts sequence is
// non-decreasing, and span begins/ends are balanced per job by
// construction (any span still open at the end of a partial trace is
// closed at the last timestamp so the document stays loadable).
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/job.hpp"
#include "sim/trace.hpp"

namespace wrht::obs {

/// The complete trace-event document as a string.  `metrics` may be
/// nullptr (no counter tracks then).
[[nodiscard]] std::string chrome_trace_json(
    const sim::Trace& trace,
    const std::vector<runtime::JobRecord>& records,
    const MetricsRegistry* metrics);

/// Write chrome_trace_json to `path`; false (with a stderr note) on I/O
/// failure.
bool write_chrome_trace(const std::string& path, const sim::Trace& trace,
                        const std::vector<runtime::JobRecord>& records,
                        const MetricsRegistry* metrics);

/// One-call export tail for examples and benches: writes the Chrome trace
/// to `trace_path` and the registry dump to `metrics_path`, skipping
/// whichever is empty.  Returns false when any requested write failed.
bool export_observability(const std::string& trace_path,
                          const std::string& metrics_path,
                          const sim::Trace& trace,
                          const std::vector<runtime::JobRecord>& records,
                          const MetricsRegistry* metrics);

}  // namespace wrht::obs
