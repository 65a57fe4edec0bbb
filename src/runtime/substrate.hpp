// Pluggable execution substrates for the multi-tenant runtime.
//
// The runtime's serving loop (admission, fairness, batching, the shared
// clock, oracle validation) is substrate-agnostic: what it needs from a
// fabric is "claim resources for this participant set, give me a schedule,
// time its steps on my clock, release".  ExecutionSubstrate is that seam.
// Two implementations exist:
//
//  * the OPTICAL substrate — the paper's WDM ring.  Grants are contiguous
//    wavelength bands carved out of the shared spectrum by a
//    SpectrumArbiter; schedules are Wrht builds sized to the band; per-step
//    timing claims (span, wavelength, direction) cells on the shared
//    SpectrumMap and pays the paper's per-step optical overheads.  Supports
//    step-boundary renegotiation (preemption and elastic resize) via
//    core::rebuild_wrht_remainder.
//
//  * the ELECTRICAL substrate — the alpha-beta/flow baseline fabric from
//    src/elec.  Grants are exclusive claims on the participants' host
//    access links in a star cluster (link-capacity grant model: with every
//    flow crossing only its endpoints' access links, host exclusivity makes
//    the per-execution quiet-network flow timing exact).  Schedules are the
//    classic electrical collectives (chunked ring / recursive doubling,
//    picked by the alpha-beta cost model); per-step timing is the BSP step
//    makespan under max-min fair sharing, exactly elec::run_on_electrical's
//    model, produced incrementally so electrical steps interleave with
//    optical tenants on one clock.
//
// Every substrate suspends at step boundaries (preemption) and fuses
// same-group jobs; grants_hosts() names its grant model, and the runtime
// resizes only band grants.  Each substrate also owns the fault state of
// its own units (apply_fault), so the runtime reconciles a faulted
// execution through two read-only queries, node_down and healthy_grant,
// without knowing the fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "coll/schedule.hpp"
#include "elec/topology.hpp"
#include "optical/assign.hpp"
#include "optical/params.hpp"
#include "runtime/faults.hpp"
#include "runtime/job.hpp"
#include "sim/simulator.hpp"
#include "topo/ring.hpp"

namespace wrht::obs {
class MetricsRegistry;
}  // namespace wrht::obs

namespace wrht::runtime {

/// Per-execution state owned by a substrate: the schedule still ahead and
/// the resources backing it.  The runtime folds executed steps into its own
/// composite-oracle checkpoint; the plan always describes only the work
/// remaining (the whole job at admission, the rebuilt remainder after a
/// renegotiation).
class SubstrateExecution {
 public:
  virtual ~SubstrateExecution() = default;

  /// Schedule for the steps still ahead.
  [[nodiscard]] virtual const coll::Schedule& schedule() const = 0;
  [[nodiscard]] virtual std::size_t num_steps() const = 0;
  /// Spectrum band backing this plan.  Off-spectrum substrates return the
  /// invalid {0, 0} band; JobRecord keeps it as "no band held".
  [[nodiscard]] virtual WavelengthBand band() const = 0;
  /// Current grant in the substrate's capacity units (wavelengths for
  /// optical, host-link claims for electrical).
  [[nodiscard]] virtual std::uint32_t grant() const = 0;
  /// Physical hosts backing this plan, in participant-rank order (hosts[i]
  /// carries participants[i]'s data).  Empty for substrates whose grants
  /// are not host-denominated (optical bands).  After a remapped resume
  /// this differs from the participant list — the runtime's preemption
  /// planner reads it to know which host claims a victim would surrender.
  [[nodiscard]] virtual std::vector<topo::NodeId> hosts() const { return {}; }
};

/// Timing of one executed step on the shared clock.
struct StepTiming {
  /// Absolute completion time of the step, including the substrate's
  /// inter-step barrier — known in closed form at dispatch on the optical
  /// ring and the exclusive star.  nullopt on the shared two-level fabric,
  /// whose step ends depend on tenants that have not arrived yet: the
  /// substrate delivers them through next_wake()/wake() instead.
  std::optional<util::Seconds> end;
  std::uint64_t retunes = 0;
  /// (arc, wavelength) cells claimed on the shared spectrum map (0 for
  /// substrates without shared-medium reservations).
  std::uint64_t reservations = 0;
  /// Duration this step would take on a quiet network (no other tenants) —
  /// the denominator of the per-job contention slowdown.  Zero when the
  /// substrate has no meaningful quiet baseline (optical bands are private
  /// by construction).
  util::Seconds quiet{0.0};
};

/// One typed entry point for every way an execution's contract can change
/// at a step boundary.  Historically resume / grow / shrink were separate
/// virtuals on ExecutionSubstrate; faults (node loss, wavelength
/// degradation, cross-substrate migration) would each have needed yet
/// another copy of the suspend-rebuild-resume dance, so the verbs collapsed
/// into one request type and kEvict / kRestart became new kinds instead of
/// new methods.
struct RenegotiationRequest {
  enum class Kind : std::uint8_t {
    /// Re-place a suspended execution: allocate a fresh grant of at most
    /// `width` units (refuse below `min_grant`) and rebuild the remainder
    /// after `steps_done` executed steps.  `nodes` may name failed
    /// participants to drop from the remainder's delivery set.
    kResume,
    /// Grow the current grant in place toward `width` when the rebuilt
    /// remainder gets strictly shorter; roll the grant back otherwise.
    kGrow,
    /// Shrink the current grant in place to exactly `width` units.
    kShrink,
    /// Rebuild the remainder after `steps_done` with the failed `nodes`
    /// dropped from its delivery set, on the SAME grant (survivor rebuild).
    /// Refused when a failed node still carries state the remainder needs —
    /// the caller must then fall back to kRestart among the survivors.
    kEvict,
    /// Brand-new plan for `nodes` / `payload` on a fresh grant of at most
    /// `width` units (refuse below `min_grant`), discarding any executed
    /// prefix.  Reads nothing from `current` — it may be null, or a plan
    /// owned by a different substrate (cross-substrate migration).
    kRestart,
  };

  Kind kind = Kind::kResume;
  /// Steps of the current plan already executed (the prefix the runtime
  /// folds into its composite-oracle checkpoint).
  std::size_t steps_done = 0;
  /// Grant-width operand; meaning depends on kind (desired ceiling for
  /// kResume/kRestart, growth ceiling for kGrow, exact keep for kShrink;
  /// ignored by kEvict, which keeps the current grant).
  std::uint32_t width = 0;
  /// Floor below which kResume / kRestart refuse rather than thrash.
  std::uint32_t min_grant = 1;
  /// kResume / kEvict: failed nodes to drop from the remainder's delivery
  /// set.  kRestart: the (surviving) participant set of the fresh plan.
  std::vector<topo::NodeId> nodes;
  /// kRestart only: payload of the fresh plan.
  util::Bytes payload{0};

  [[nodiscard]] static RenegotiationRequest resume(
      std::size_t steps_done, std::uint32_t desired, std::uint32_t min_grant,
      std::vector<topo::NodeId> evict = {}) {
    return {Kind::kResume, steps_done, desired, min_grant, std::move(evict),
            util::Bytes(0)};
  }
  [[nodiscard]] static RenegotiationRequest grow(std::size_t steps_done,
                                                std::uint32_t max_grant) {
    return {Kind::kGrow, steps_done, max_grant, 1, {}, util::Bytes(0)};
  }
  [[nodiscard]] static RenegotiationRequest shrink(std::size_t steps_done,
                                                  std::uint32_t keep) {
    return {Kind::kShrink, steps_done, keep, 1, {}, util::Bytes(0)};
  }
  [[nodiscard]] static RenegotiationRequest evict(
      std::size_t steps_done, std::vector<topo::NodeId> failed) {
    return {Kind::kEvict, steps_done, 0, 1, std::move(failed),
            util::Bytes(0)};
  }
  [[nodiscard]] static RenegotiationRequest restart(
      std::vector<topo::NodeId> participants, util::Bytes payload,
      std::uint32_t desired, std::uint32_t min_grant) {
    return {Kind::kRestart, 0,      desired, min_grant, std::move(participants),
            payload};
  }
};

[[nodiscard]] const char* renegotiation_kind_name(
    RenegotiationRequest::Kind kind);

/// Result of a renegotiation: the replacement plan (owning its grant), or
/// nothing — a refusal leaves `current` untouched.  On acceptance the old
/// plan's grant has been consumed in place (kGrow / kShrink / kEvict) or
/// must already have been released (kResume / kRestart); the runtime folds
/// the executed prefix and re-proves the composite schedule.
struct RenegotiationOutcome {
  std::unique_ptr<SubstrateExecution> plan;
  [[nodiscard]] bool accepted() const { return plan != nullptr; }
};

class ExecutionSubstrate {
 public:
  virtual ~ExecutionSubstrate() = default;

  [[nodiscard]] virtual SubstrateKind kind() const = 0;
  /// True when a grant is one exclusive host per participant (electrical):
  /// placed on the participants' own hosts, remapped onto any free ones at
  /// resume, ridden by fused peers.  False for a positionless wavelength
  /// band (optical), which the fairness policy sizes, a fused peer's
  /// min_wavelengths floor must fit, and elastic resize may grow or shrink.
  [[nodiscard]] virtual bool grants_hosts() const = 0;

  /// Capacity view the admission policies reason over, in grant units.
  [[nodiscard]] virtual std::uint32_t largest_free_grant() const = 0;
  [[nodiscard]] virtual std::uint32_t free_grant_total() const = 0;

  /// True when a grant of `min_grant` units for `participants` could be
  /// claimed right now.
  [[nodiscard]] virtual bool can_place(
      const std::vector<topo::NodeId>& participants,
      std::uint32_t min_grant) const = 0;

  /// The placement-memo seam of a host-granting fabric (grants_hosts()).
  /// host_busy: `host` is claimed by an execution or out of service, so no
  /// participant set containing it can be placed now — a one-host witness
  /// of can_place() == false.  free_epoch: how many times hosts have gone
  /// back to free (a release(), or an apply_fault() repair returning a
  /// host to service).  Those are the only ways a busy host frees, so
  /// while the epoch reads the same, a set that could not be placed still
  /// cannot.  A band fabric has no hosts: false and 0.
  [[nodiscard]] virtual bool host_busy(topo::NodeId /*host*/) const {
    return false;
  }
  [[nodiscard]] virtual std::uint64_t free_epoch() const { return 0; }

  /// Claim `grant` units and build the execution plan for an all-reduce of
  /// `payload` among `participants`: a kRestart with no prior plan.  The
  /// caller must have established feasibility (optical: the arbiter
  /// advertised a free run; electrical: can_place said yes) — a refusal, or
  /// a plan on hosts other than the participants' own, is an arbitration
  /// bug and aborts, never a quiet failure.
  [[nodiscard]] std::unique_ptr<SubstrateExecution> place(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant);

  /// Execute step `step` of `exec` starting at `now`: claim any per-step
  /// shared-medium resources, schedule their release events, and return the
  /// step's timing.  With a closed-form end the caller owns the
  /// step-boundary event; without one (StepTiming::end empty) the step ends
  /// when a later wake() hands `exec` back.
  [[nodiscard]] virtual StepTiming time_step(SubstrateExecution& exec,
                                             std::size_t step,
                                             util::Seconds now) = 0;

  /// Release exec's standing grant (band / host links) at time `now` on the
  /// shared clock.  Idempotent; the plan itself survives for a later
  /// kResume renegotiation.  The shared electrical fabric needs the clock
  /// to settle the execution's last flows out of its network.
  virtual void release(SubstrateExecution& exec, util::Seconds now) = 0;

  /// The instant the runtime must next call wake(): the shared fabric's
  /// next network event while steps without a closed-form end are in
  /// flight; nullopt otherwise (always, where every step end is closed
  /// form).  Ask again after every time_step() without an end and after
  /// every wake(); a release() at a step boundary never moves it earlier.
  [[nodiscard]] virtual std::optional<util::Seconds> next_wake() {
    return std::nullopt;
  }

  /// Advance the fabric to `now` and hand back one execution whose
  /// in-flight step ended there, lowest fabric session first; nullptr once
  /// none is left.  The caller runs that execution's step boundary, then
  /// calls again.
  [[nodiscard]] virtual SubstrateExecution* wake(util::Seconds /*now*/) {
    return nullptr;
  }

  /// Peak utilization (fraction of capacity, in [0,1]) per fabric link over
  /// the run so far.  Empty for substrates without per-link accounting.
  [[nodiscard]] virtual std::vector<double> link_peak_utilization() const {
    return {};
  }

  /// Advisory snapshot of the demand still waiting for THIS substrate's
  /// capacity: the minimum grants (in this substrate's units) of queued
  /// jobs and suspended executions, excluding whatever the runtime is about
  /// to place.  Placement-planning substrates (the optical planner policy)
  /// score candidate placements jointly against this demand; the default
  /// ignores it.  The runtime refreshes it immediately before each place()
  /// or renegotiate() call, so a substrate may treat it as current.
  virtual void note_pending_demand(const std::vector<std::uint32_t>& min_grants) {
    (void)min_grants;
  }

  /// Register the substrate's own metrics (grant-churn counters, occupancy
  /// and utilization gauges) with `registry` and keep the handles for the
  /// run.  Called at most once, before any placement.  The registry must
  /// outlive the substrate.
  virtual void attach_metrics(obs::MetricsRegistry& registry) = 0;

  /// End-of-run self audit.  A substrate whose timing carries a proof (the
  /// shared electrical fabric certifies every max-min solve as it runs)
  /// closes it here — every step begun must have ended — and ABORTS on a
  /// failure, mirroring the fatal semantics of a wavelength conflict.
  /// Returns the number of steps audited (0 when there is nothing to
  /// check).
  [[nodiscard]] virtual std::uint64_t self_check() const { return 0; }

  /// Predicted completion time of a fresh `grant`-unit execution — the
  /// hybrid cost-model placement signal (WRHT formula time vs. alpha-beta).
  [[nodiscard]] virtual util::Seconds predict_makespan(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant) const = 0;

  /// Congestion-aware routing signal: the predicted ABSOLUTE completion
  /// time of a fresh execution submitted at `now`, folding in what the
  /// substrate knows about its current state — the live residual bandwidth
  /// of shared fabric links (electrical), or the expected wait for a free
  /// spectrum band (optical).  On an idle substrate this equals
  /// now + predict_makespan.
  [[nodiscard]] virtual util::Seconds predict_completion(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant, util::Seconds now) const = 0;

  /// THE step-boundary renegotiation entry point.  A kind the fabric cannot
  /// honour is refused (a host-granting fabric has no wider or narrower
  /// grant to resize toward).  `current` is the plan being renegotiated —
  /// null allowed only for kRestart, which reads nothing from it.  See
  /// RenegotiationRequest for per-kind semantics.
  [[nodiscard]] virtual RenegotiationOutcome renegotiate(
      SubstrateExecution* current, const RenegotiationRequest& request) = 0;

  /// What-if probe: largest free grant if `exec` kept only `keep` units of
  /// its current grant (the shrink-under-pressure decision signal).
  [[nodiscard]] virtual std::uint32_t free_grant_if_kept(
      const SubstrateExecution& exec, std::uint32_t keep) const;

  /// Book `fault` against the units this fabric serves (optical: ring
  /// positions for kTransceiver/kNode, wavelengths for kWavelength;
  /// electrical: hosts for kNode/kTor), or un-book it when `repaired`.  Down
  /// units are refcounted, so overlapping faults keep a unit down until the
  /// last repair.  A free down unit leaves service at once; a held one when
  /// its holder's grant is released or shrunk away; a unit whose count
  /// returns to 0 goes back into service.  Returns false when the fault's
  /// domain is not one this fabric serves.
  virtual bool apply_fault(const FaultSpec& fault, bool repaired) = 0;
  /// True when this fabric has lost ring position `node`'s data, so a
  /// remainder must drop it.  Fabrics that remap a dead unit at resume
  /// (electrical hosts checkpoint at step boundaries) answer false.
  [[nodiscard]] virtual bool node_down(topo::NodeId node) const;
  /// Grant units of `plan`, counted from the grant's base, still in
  /// service: plan.grant() when nothing it holds is down.
  [[nodiscard]] virtual std::uint32_t healthy_grant(
      const SubstrateExecution& plan) const = 0;
};

/// The WDM-ring substrate (spectrum arbiter + Wrht builds + shared-map
/// per-step reservations).  Bands are placed by the SpectrumPlanner.
/// `ring` and `sim` must outlive the substrate.
[[nodiscard]] std::unique_ptr<ExecutionSubstrate> make_optical_substrate(
    const topo::RingTopology& ring, const optical::OpticalParams& params,
    optical::FitPolicy fit_policy, sim::Simulator& sim);

/// Which electrical fabric backs the fallback substrate.
enum class ElectricalFabric : std::uint8_t {
  /// Star cluster, exclusive host access links: every execution times its
  /// steps on a private quiet network (exact, but tenants never contend).
  kStarExclusive,
  /// Oversubscribed two-level tree (hosts -> ToRs -> core), ONE shared
  /// FlowNetwork for the whole fabric: concurrent executions' flows share
  /// the ToR uplinks under max-min fairness, so a step's completion time
  /// depends on what other tenants send while it is in flight.  Step ends
  /// come from that network as it advances (next_wake / wake).
  kTwoLevelShared,
};

[[nodiscard]] const char* electrical_fabric_name(ElectricalFabric fabric);

/// Electrical-fallback fabric configuration.
struct ElectricalFallbackConfig {
  /// Host access-link spec of the cluster backing the fallback.
  elec::ElectricalParams link{};
  ElectricalFabric fabric = ElectricalFabric::kStarExclusive;
  /// kTwoLevelShared shape: hosts per ToR switch, and the factor by which
  /// each ToR uplink is undersized relative to its hosts' aggregate access
  /// bandwidth (1.0 = full bisection, 4.0 = classic 4:1 oversubscription).
  std::uint32_t hosts_per_tor = 8;
  double oversubscription = 1.0;
  /// Certify every max-min solve of the shared fabric's network (each link
  /// within capacity, each flow at the top rate of a saturated link, no
  /// completion late; a failure aborts).  The check keeps O(1) memory
  /// however long the run, and reads only the rates, so timing is
  /// bit-identical either way; off, self_check() counts no audited steps.
  bool replay_audit = true;
};

/// The flow-simulator fallback substrate over `num_hosts` hosts (one per
/// ring position, so any participant set maps 1:1 onto hosts), wired to the
/// fabric `config` picks.  Host claims stay exclusive on BOTH fabrics — a
/// host runs one tenant at a time; what kTwoLevelShared adds is contention
/// between different tenants' flows on the shared ToR uplinks.
[[nodiscard]] std::unique_ptr<ExecutionSubstrate> make_electrical_substrate(
    std::uint32_t num_hosts, const ElectricalFallbackConfig& config);

}  // namespace wrht::runtime
