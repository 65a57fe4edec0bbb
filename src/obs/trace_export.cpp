#include "obs/trace_export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

#include "obs/json.hpp"
#include "runtime/faults.hpp"
#include "util/logging.hpp"

namespace wrht::obs {

namespace {

/// Process ids of the fixed tracks (see the header's layout comment).
constexpr int kMetricsPid = 0;
constexpr int kOpticalPid = 1;
constexpr int kElectricalPid = 2;
/// Low-level sim events (transfers, tunes, flows) that are not job-keyed;
/// only present when a substrate-level trace is exported through here.
constexpr int kSimPid = 3;

constexpr double kMicros = 1e6;

class TraceWriter {
 public:
  explicit TraceWriter(const std::vector<runtime::JobRecord>& records)
      : records_(records) {}

  [[nodiscard]] int job_pid(std::int64_t job) const {
    if (job < 0 || static_cast<std::size_t>(job) >= records_.size()) {
      return kOpticalPid;
    }
    return records_[static_cast<std::size_t>(job)].substrate ==
                   runtime::SubstrateKind::kElectrical
               ? kElectricalPid
               : kOpticalPid;
  }

  [[nodiscard]] std::string job_label(std::int64_t job) const {
    if (job >= 0 && static_cast<std::size_t>(job) < records_.size() &&
        !records_[static_cast<std::size_t>(job)].spec.name.empty()) {
      return records_[static_cast<std::size_t>(job)].spec.name;
    }
    return "job " + std::to_string(job);
  }

  void begin(int pid, std::int64_t tid, double ts_us, const std::string& name,
             const std::string& args) {
    emit("B", pid, tid, ts_us, name, args);
    ++open_spans_[{pid, tid}];
  }

  void end(int pid, std::int64_t tid, double ts_us) {
    // An E with no matching B would make the document invalid; a balanced
    // producer (the runtime) never hits this, a truncated trace might.
    auto it = open_spans_.find({pid, tid});
    if (it == open_spans_.end() || it->second == 0) return;
    --it->second;
    emit("E", pid, tid, ts_us, {}, {});
  }

  void instant(int pid, std::int64_t tid, double ts_us,
               const std::string& name, const std::string& args) {
    emit("i", pid, tid, ts_us, name, args, /*scope=*/true);
  }

  void counter(const std::string& name, double ts_us, double value) {
    emit("C", kMetricsPid, 0, ts_us, name,
         "{\"value\": " + json_number(value) + "}");
  }

  void metadata(int pid, std::int64_t tid, const char* what,
                const std::string& name) {
    std::string event = "{\"name\": \"";
    event += what;
    event += "\", \"ph\": \"M\", \"pid\": " + std::to_string(pid);
    if (tid >= 0) event += ", \"tid\": " + std::to_string(tid);
    event += ", \"args\": {\"name\": " + json_quote(name) + "}}";
    push(std::move(event));
  }

  /// Close every span still open, at the latest timestamp seen, so a
  /// partial trace still loads.
  void close_open_spans() {
    for (auto& [track, depth] : open_spans_) {
      while (depth > 0) {
        --depth;
        emit("E", track.first, track.second, max_ts_, {}, {});
      }
    }
  }

  [[nodiscard]] std::string finish() && {
    std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      out += events_[i];
      if (i + 1 < events_.size()) out += ',';
      out += '\n';
    }
    out += "]\n}\n";
    return out;
  }

 private:
  void emit(const char* ph, int pid, std::int64_t tid, double ts_us,
            const std::string& name, const std::string& args,
            bool scope = false) {
    max_ts_ = std::max(max_ts_, ts_us);
    std::string event = "{\"ph\": \"";
    event += ph;
    event += "\", \"pid\": " + std::to_string(pid) +
             ", \"tid\": " + std::to_string(tid) +
             ", \"ts\": " + json_number(ts_us);
    if (!name.empty()) event += ", \"name\": " + json_quote(name);
    if (scope) event += ", \"s\": \"t\"";  // thread-scoped instant
    if (!args.empty()) event += ", \"args\": " + args;
    event += "}";
    push(std::move(event));
  }

  void push(std::string event) { events_.push_back(std::move(event)); }

  const std::vector<runtime::JobRecord>& records_;
  std::vector<std::string> events_;
  std::map<std::pair<int, std::int64_t>, int> open_spans_;
  double max_ts_ = 0.0;
};

/// Args of a band-claiming event: the band's base and width.
std::string band_args(const sim::TraceEvent& event) {
  return "{\"band_base\": " + std::to_string(event.b) +
         ", \"width\": " + std::to_string(event.c) + "}";
}

}  // namespace

std::string chrome_trace_json(const sim::Trace& trace,
                              const std::vector<runtime::JobRecord>& records,
                              const MetricsRegistry* metrics) {
  TraceWriter writer(records);

  writer.metadata(kMetricsPid, -1, "process_name", "metrics");
  writer.metadata(kOpticalPid, -1, "process_name", "optical ring");
  writer.metadata(kElectricalPid, -1, "process_name", "electrical fabric");
  for (const runtime::JobRecord& record : records) {
    if (record.state == runtime::JobState::kRejected) continue;
    writer.metadata(writer.job_pid(record.id), record.id, "thread_name",
                    writer.job_label(record.id));
  }

  bool any_sim_event = false;
  for (const sim::TraceEvent& event : trace.events()) {
    const double ts = event.time.value() * kMicros;
    const std::int64_t job = event.a;
    const int pid = writer.job_pid(job);
    switch (event.kind) {
      case sim::TraceKind::kJobAdmit:
        writer.begin(pid, job, ts, writer.job_label(job), band_args(event));
        break;
      case sim::TraceKind::kJobComplete:
        writer.end(pid, job, ts);
        break;
      case sim::TraceKind::kJobPreempt:
        writer.begin(pid, job, ts, "suspended", {});
        break;
      case sim::TraceKind::kJobResume:
        writer.end(pid, job, ts);
        break;
      case sim::TraceKind::kJobResize:
        writer.instant(pid, job, ts, "resize", band_args(event));
        break;
      case sim::TraceKind::kJobFused:
        writer.instant(pid, job, ts, "fused",
                       "{\"into_lead_job\": " + std::to_string(event.b) +
                           "}");
        break;
      case sim::TraceKind::kStepBegin:
        writer.begin(pid, job, ts, "step " + std::to_string(event.b), {});
        break;
      case sim::TraceKind::kStepEnd:
        writer.end(pid, job, ts);
        break;
      case sim::TraceKind::kRouteDecision: {
        const runtime::JobRecord& record =
            records.at(static_cast<std::size_t>(job));
        writer.instant(
            pid, job, ts, "route decision",
            "{\"chose\": " +
                json_quote(runtime::substrate_kind_name(
                    static_cast<runtime::SubstrateKind>(event.b))) +
                ", \"predicted_optical\": " +
                json_number(record.predicted_optical.value()) +
                ", \"predicted_electrical\": " +
                json_number(record.predicted_electrical.value()) + "}");
        break;
      }
      case sim::TraceKind::kJobMigrate:
        writer.instant(pid, job, ts, "migrate", band_args(event));
        break;
      case sim::TraceKind::kJobKilled:
        // Terminal: close the job's open span (admit or suspension).
        writer.end(pid, job, ts);
        break;
      case sim::TraceKind::kJobPlaceOptical:
      case sim::TraceKind::kJobPlaceElectrical:
        // The placement verdict is already encoded in the job's pid.
        break;
      case sim::TraceKind::kNodeFail:
      case sim::TraceKind::kWavelengthDegrade:
      case sim::TraceKind::kFaultRepair:
        any_sim_event = true;
        writer.instant(kSimPid, job, ts, sim::trace_kind_name(event.kind),
                       "{\"domain\": " +
                           json_quote(runtime::fault_domain_name(
                               static_cast<runtime::FaultDomain>(event.b))) +
                           "}");
        break;
      default:
        // Substrate-level events (transfers, tunes, flows, custom): instant
        // events on the generic sim track keyed by their subject id.
        any_sim_event = true;
        writer.instant(kSimPid, event.a >= 0 ? event.a : 0, ts,
                       sim::trace_kind_name(event.kind),
                       "{\"b\": " + std::to_string(event.b) + "}");
        break;
    }
  }
  if (any_sim_event) {
    writer.metadata(kSimPid, -1, "process_name", "sim events");
  }
  writer.close_open_spans();

  if (metrics) {
    for (const TimeSeriesSampler::Series& series :
         metrics->sampler().series()) {
      for (const TimeSeriesSampler::Point& point : series.points) {
        writer.counter(series.name, point.time_seconds * kMicros,
                       point.value);
      }
    }
  }
  return std::move(writer).finish();
}

bool write_chrome_trace(const std::string& path, const sim::Trace& trace,
                        const std::vector<runtime::JobRecord>& records,
                        const MetricsRegistry* metrics) {
  std::ofstream out(path);
  if (!out) {
    WRHT_ERROR() << "write_chrome_trace: cannot open " << path
                 << " for writing";
    return false;
  }
  out << chrome_trace_json(trace, records, metrics);
  return static_cast<bool>(out);
}

bool export_observability(const std::string& trace_path,
                          const std::string& metrics_path,
                          const sim::Trace& trace,
                          const std::vector<runtime::JobRecord>& records,
                          const MetricsRegistry* metrics) {
  bool ok = true;
  if (!trace_path.empty()) {
    ok = write_chrome_trace(trace_path, trace, records, metrics) && ok;
  }
  if (!metrics_path.empty()) {
    if (metrics) {
      ok = metrics->write_json(metrics_path) && ok;
    } else {
      WRHT_ERROR() << "export_observability: --metrics-out given but no "
                      "metrics registry is installed";
      ok = false;
    }
  }
  return ok;
}

}  // namespace wrht::obs
