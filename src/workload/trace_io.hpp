// Submission-trace serialization: stream JobSpecs to and from disk.
//
// A trace is the durable form of a workload — recorded from a generator
// once, replayed into CollectiveRuntime::serve() forever after.  Two
// formats, both line-oriented so a million-job trace streams in O(1)
// memory:
//
//   kJsonl  one JSON object per line.  Each line parses with the strict
//           obs::json parser (the round-trip tests prove it), and numeric
//           fields are printed with shortest-round-trip precision, so a
//           replayed trace reproduces the recorded RuntimeReport bit for
//           bit.  Keys the reader does not know are ignored.
//   kCsv    one RFC-4180 row per job (header row first) via util::CsvWriter;
//           participants are a space-separated list inside one cell.  The
//           header must match the column list exactly.
//
// TraceReader is a runtime::JobSource: serve() pulls specs straight off the
// stream, one line at a time — the trace is never materialized.  Defaulted
// fields are omitted on write (JSONL) and re-defaulted on read, keeping
// million-line traces compact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "runtime/faults.hpp"
#include "runtime/job.hpp"
#include "runtime/runtime.hpp"
#include "util/csv.hpp"

namespace wrht::workload {

enum class TraceFormat : std::uint8_t {
  kJsonl,
  kCsv,
};

[[nodiscard]] const char* trace_format_name(TraceFormat format);
/// Parse "jsonl" / "csv"; nullopt otherwise.
[[nodiscard]] std::optional<TraceFormat> parse_trace_format(
    const std::string& name);

/// `v` printed with the fewest significant digits (15..17) that parse back
/// to exactly `v` — the property that makes text traces replay
/// bit-identically.  Requires a finite value.
[[nodiscard]] std::string format_double_exact(double v);

/// Streams JobSpecs out.  The stream must outlive the writer; kCsv writes
/// its header row at construction.
class TraceWriter {
 public:
  TraceWriter(std::ostream& out, TraceFormat format);
  void write(const runtime::JobSpec& spec);
  [[nodiscard]] std::uint64_t written() const { return written_; }

 private:
  std::ostream* out_;
  TraceFormat format_;
  util::CsvWriter csv_;
  std::uint64_t written_ = 0;
};

/// Streams JobSpecs in; a JobSource serve() can pull from directly.  The
/// stream must outlive the reader.  A malformed line aborts with the line
/// number — a trace is machine-written, so damage means the wrong file, not
/// a tenant typo.
class TraceReader : public runtime::JobSource {
 public:
  TraceReader(std::istream& in, TraceFormat format);
  std::optional<runtime::JobSpec> next() override;
  [[nodiscard]] std::uint64_t read() const { return read_; }

 private:
  std::istream* in_;
  TraceFormat format_;
  std::uint64_t read_ = 0;
  std::uint64_t line_number_ = 0;
};

/// Drain `source` through a TraceWriter; returns the number of specs
/// recorded.  The trace-then-replay path of examples/trace_serve.
std::uint64_t record_trace(runtime::JobSource& source, std::ostream& out,
                           TraceFormat format);

/// Streams FaultSpecs out as JSONL — the durable form of a chaos schedule,
/// the fault counterpart of TraceWriter.  One object per line:
///   {"at":0.0125,"domain":"node","subject":7,"repair":0.003}
/// with the same discipline as job traces: shortest-round-trip doubles and
/// defaulted fields (subject 0, permanent faults) omitted on write and
/// re-defaulted on read, so record-then-replay is byte-stable.
class FaultTraceWriter {
 public:
  explicit FaultTraceWriter(std::ostream& out);
  void write(const runtime::FaultSpec& fault);
  [[nodiscard]] std::uint64_t written() const { return written_; }

 private:
  std::ostream* out_;
  std::uint64_t written_ = 0;
};

/// Streams FaultSpecs back in; a runtime::FaultSource that
/// RuntimeConfig::faults can point at directly, so a recorded chaos run
/// replays through the same pull interface the injector fills.  Malformed
/// or time-warped (decreasing `at`) lines abort with the line number.
class FaultTraceReader : public runtime::FaultSource {
 public:
  explicit FaultTraceReader(std::istream& in);
  std::optional<runtime::FaultSpec> next() override;
  [[nodiscard]] std::uint64_t read() const { return read_; }

 private:
  std::istream* in_;
  std::uint64_t read_ = 0;
  std::uint64_t line_number_ = 0;
  double last_at_ = 0.0;
};

/// Drain a fault source to JSONL; returns the number of faults recorded.
std::uint64_t record_fault_trace(runtime::FaultSource& source,
                                 std::ostream& out);

}  // namespace wrht::workload
