#include "sim/trace.hpp"

namespace wrht::sim {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kStepBegin:
      return "step_begin";
    case TraceKind::kStepEnd:
      return "step_end";
    case TraceKind::kTransferBegin:
      return "transfer_begin";
    case TraceKind::kTransferEnd:
      return "transfer_end";
    case TraceKind::kTune:
      return "tune";
    case TraceKind::kFlowBegin:
      return "flow_begin";
    case TraceKind::kFlowEnd:
      return "flow_end";
    case TraceKind::kJobAdmit:
      return "job_admit";
    case TraceKind::kJobComplete:
      return "job_complete";
    case TraceKind::kJobPreempt:
      return "job_preempt";
    case TraceKind::kJobResume:
      return "job_resume";
    case TraceKind::kJobResize:
      return "job_resize";
    case TraceKind::kJobPlaceOptical:
      return "job_place_optical";
    case TraceKind::kJobPlaceElectrical:
      return "job_place_electrical";
    case TraceKind::kRouteDecision:
      return "route_decision";
    case TraceKind::kStepRetimed:
      return "step_retimed";
    case TraceKind::kJobFused:
      return "job_fused";
    case TraceKind::kNodeFail:
      return "node_fail";
    case TraceKind::kWavelengthDegrade:
      return "wavelength_degrade";
    case TraceKind::kFaultRepair:
      return "fault_repair";
    case TraceKind::kJobMigrate:
      return "job_migrate";
    case TraceKind::kJobKilled:
      return "job_killed";
    case TraceKind::kCustom:
      return "custom";
  }
  return "?";
}

// Adding a kind after kCustom would silently skip the exhaustiveness test's
// walk; this pins the convention that kCustom stays last.
static_assert(kTraceKindCount == 23,
              "TraceKind changed: update kTraceKindCount's expectation, keep "
              "kCustom last, and add the name case above");

void Trace::record(util::Seconds time, TraceKind kind, std::int64_t a,
                   std::int64_t b, std::int64_t c) {
  if (!enabled_) return;
  events_.push_back(TraceEvent{time, kind, a, b, c});
}

std::string Trace::to_string() const {
  std::string out;
  for (const TraceEvent& e : events_) {
    out += "t=" + util::to_string(e.time);
    out += ' ';
    out += trace_kind_name(e.kind);
    if (e.a >= 0) out += " a=" + std::to_string(e.a);
    if (e.b >= 0) out += " b=" + std::to_string(e.b);
    if (e.c >= 0) out += " c=" + std::to_string(e.c);
    out += '\n';
  }
  return out;
}

}  // namespace wrht::sim
