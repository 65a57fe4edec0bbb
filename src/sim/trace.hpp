// Optional event tracing.  A network model records (time, kind, a, b, c)
// events of plain numbers; tests assert on them and the schedule explorer
// example prints them.  Tracing is off unless a sink is installed, and
// recording into a disabled trace is a no-op with no allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace wrht::sim {

enum class TraceKind : std::uint8_t {
  kStepBegin,
  kStepEnd,
  kTransferBegin,
  kTransferEnd,
  kTune,
  kFlowBegin,
  kFlowEnd,
  kJobAdmit,
  kJobComplete,
  kJobPreempt,
  kJobResume,
  kJobResize,
  /// Hybrid placement verdicts: which substrate an admitted job landed on.
  /// Recorded alongside kJobAdmit so one trace tells both timing stories.
  kJobPlaceOptical,
  kJobPlaceElectrical,
  /// A cost-model routing verdict, recorded when the decision binds (the
  /// job is placed).  `a` is the job, `b` the chosen substrate
  /// (SubstrateKind as int).  BOTH predicted completion times live on the
  /// job's record (JobRecord::predicted_optical / predicted_electrical), so
  /// routing errors are auditable post-hoc against its actual completion.
  kRouteDecision,
  /// Never recorded: shared-fabric step ends come from the real flow
  /// network and never move (RuntimeReport::step_retimes is always 0).
  /// Kept so kind tables and trace consumers keep their shape.
  kStepRetimed,
  /// The Batcher fused a queued job into another execution's schedule.  `a`
  /// is the fused peer, `b` the batch's lead job — without this event a
  /// fused-batch timeline misattributes the whole payload to the lead.
  kJobFused,
  /// A fault took hardware out of service.  `a` is the failed subject
  /// (node/host id, or ToR id), `b` the FaultDomain as int.
  kNodeFail,
  /// A wavelength degraded out of service.  `a` is the wavelength index.
  kWavelengthDegrade,
  /// A fault healed and its subject returned to service.  `a`/`b` mirror
  /// the injection event.
  kFaultRepair,
  /// A ToR fault migrated a job across substrates mid-run.  `a` is the
  /// job, `b` the landing band base and `c` its width, like every other
  /// band-claiming event.
  kJobMigrate,
  /// Faults shrank a job's participant set below the minimum; the job is
  /// dead (JobState::kFailed).  `a` is the job.
  kJobKilled,
  kCustom,
};

/// Number of TraceKind values.  trace.cpp static_asserts this against the
/// enum (via kCustom being last), and the exhaustiveness test in
/// test_sim_trace walks every kind through trace_kind_name — so a new kind
/// cannot silently render as "?".
inline constexpr std::size_t kTraceKindCount =
    static_cast<std::size_t>(TraceKind::kCustom) + 1;

[[nodiscard]] const char* trace_kind_name(TraceKind kind);

struct TraceEvent {
  util::Seconds time;
  TraceKind kind;
  // Meaning depends on kind: step index, transfer id, node id...
  std::int64_t a = -1;
  std::int64_t b = -1;
  // Band width on the runtime's band events (admit, place, preempt, resume,
  // resize, migrate, complete, killed; `b` is the band base), -1 otherwise.
  std::int64_t c = -1;
};

class Trace {
 public:
  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(util::Seconds time, TraceKind kind, std::int64_t a = -1,
              std::int64_t b = -1, std::int64_t c = -1);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

  /// One line per event, "t=12.5us job_admit a=3 b=0 c=4"; a, b and c are
  /// printed when non-negative.
  [[nodiscard]] std::string to_string() const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace wrht::sim
