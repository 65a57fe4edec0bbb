// A tenant's all-reduce request and its lifecycle inside the multi-tenant
// collective runtime.
//
// A job names an arbitrary participant subset of the shared ring, a gradient
// payload, and an arrival time on the simulation clock; the runtime decides
// when it runs and how much of the wavelength spectrum it gets.  JobSpec is
// what the tenant submits; JobRecord is the runtime's authoritative account
// of what happened to it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/ring.hpp"
#include "util/units.hpp"

namespace wrht::runtime {

using JobId = std::uint32_t;

inline constexpr JobId kNoJob = 0xFFFFFFFFu;

/// Per-job substrate pinning: where the tenant allows the job to run.
/// kAny leaves placement to the hybrid policy; a pinned job only ever runs
/// on its named fabric (an electrically-pinned job is rejected outright
/// when the runtime has no electrical fallback configured).
enum class SubstratePin : std::uint8_t {
  kAny,
  kOpticalOnly,
  kElectricalOnly,
};

[[nodiscard]] const char* substrate_pin_name(SubstratePin pin);

struct JobSpec {
  /// Ring positions holding gradients (ascending, unique, >= 2 of them).
  std::vector<topo::NodeId> participants;
  /// All-reduce payload per participant.
  util::Bytes payload;
  /// When the job enters the system, on the shared simulation clock.
  util::Seconds arrival{0.0};
  /// Wavelengths the tenant would like (0 = runtime default).  The grant is
  /// capped by spectrum availability and by what the job can actually use.
  std::uint32_t requested_wavelengths = 0;
  /// Smallest grant the job accepts; below this it waits in the queue.
  std::uint32_t min_wavelengths = 1;
  /// Share under the weighted-fair policy (ignored by FIFO / smallest-first).
  double weight = 1.0;
  /// Urgency under the priority-preempt policy (higher runs first; a queued
  /// job may suspend running lower-priority executions at their next step
  /// boundary).  Ignored by the other policies.
  std::int32_t priority = 0;
  /// Substrate the job must (or must not) run on.
  SubstratePin pin = SubstratePin::kAny;
  /// Optional turnaround budget relative to arrival (0 = no deadline).
  /// Purely observational: admission and placement ignore it; the report's
  /// SloStats scores completed jobs against it (hit when
  /// turnaround() <= deadline).
  util::Seconds deadline{0.0};
  /// Optional label for reports and traces.
  std::string name;
};

enum class JobState : std::uint8_t {
  kSubmitted,  // accepted, waiting for its arrival time
  kQueued,     // arrived, waiting for spectrum
  kRunning,    // executing on the ring
  kPreempted,  // suspended at a step boundary, band surrendered, will resume
  kDone,       // all-reduce complete
  kRejected,   // can never run (bad or inconsistent spec)
  kFailed,     // killed mid-run: faults left fewer than 2 live participants
};

[[nodiscard]] const char* job_state_name(JobState state);

/// Execution fabric a job was placed on.  The runtime serves the optical
/// ring (wavelength-band grants) and, under a hybrid placement policy, the
/// electrical fallback cluster (host-link grants); the record keeps which
/// one carried the job.
enum class SubstrateKind : std::uint8_t {
  kOptical,
  kElectrical,
};

[[nodiscard]] const char* substrate_kind_name(SubstrateKind kind);

/// Contiguous run of wavelengths [base, base + width) granted to one job.
struct WavelengthBand {
  std::uint32_t base = 0;
  std::uint32_t width = 0;

  [[nodiscard]] bool valid() const { return width > 0; }
  friend bool operator==(const WavelengthBand&, const WavelengthBand&) =
      default;
};

struct JobRecord {
  JobId id = kNoJob;
  JobSpec spec;
  JobState state = JobState::kSubmitted;
  /// Normalized wavelength request (spec's request after defaulting and
  /// capping to what the job can use / the ring has).
  std::uint32_t effective_request = 0;
  /// Fabric the job executed on (meaningful once running; kOptical until a
  /// hybrid placement decides otherwise).
  SubstrateKind substrate = SubstrateKind::kOptical;
  /// Spectrum band the arbiter granted (valid only once running on the
  /// optical substrate; electrically-placed jobs keep the invalid band).
  WavelengthBand band;
  util::Seconds admitted{0.0};
  util::Seconds completed{0.0};
  /// Schedule steps executed on behalf of this job (shared across a batch).
  std::uint32_t steps = 0;
  /// Jobs fused into the same execution, including this one (1 = ran alone).
  std::uint32_t batch_size = 1;
  /// Oracle verdict for the schedule(s) that carried this job — re-proven
  /// after every renegotiation rebuild.  Also true when
  /// RuntimeConfig::validate_with_oracle is off (no check ran to fail).
  bool oracle_ok = false;
  /// Times this job was suspended at a step boundary for a higher-priority
  /// arrival.
  std::uint32_t preemptions = 0;
  /// Step-boundary band renegotiations (grow or shrink) applied while
  /// running.
  std::uint32_t resizes = 0;
  /// Multi-tenant contention slowdown of the execution that carried this
  /// job: time its steps actually took on the shared fabric divided by
  /// their quiet-network time (1.0 = never contended).  Zero when the
  /// substrate has no quiet baseline to compare against (optical bands are
  /// private by construction; exclusive-star electrical is its own quiet
  /// network, so it reports exactly 1.0).
  double contention_slowdown = 0.0;
  /// Cost-model routing audit (kCostModelChoice placements only, zero
  /// otherwise): the ABSOLUTE completion time the router predicted for the
  /// substrate it chose, frozen at the instant the decision bound
  /// (admitted).  Compared against `completed` at run end.
  util::Seconds predicted_completion{0.0};
  /// Both fabrics' predictions behind that decision (absolute, zero
  /// unless audited), exported on the job's kRouteDecision event.
  util::Seconds predicted_optical{0.0};
  util::Seconds predicted_electrical{0.0};
  /// |completed - predicted_completion| relative to the predicted span
  /// (predicted_completion - admitted).  Filled at completion for audited
  /// decisions; includes whatever the router could not see coming (later
  /// arrivals, preemptions), which is exactly what makes it worth
  /// reporting.
  double routing_error = 0.0;
  /// Why the spec was rejected (empty unless state == kRejected).
  std::string reject_reason;

  [[nodiscard]] util::Seconds turnaround() const {
    return completed - spec.arrival;
  }
};

}  // namespace wrht::runtime
