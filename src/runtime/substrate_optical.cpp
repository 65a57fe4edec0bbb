// The WDM-ring execution substrate: everything wavelength-shaped the
// runtime used to do inline lives here now.  Grants are contiguous spectrum
// bands from the SpectrumArbiter; plans are Wrht builds sized to the band
// and shifted into place; per-step timing claims every (span, wavelength,
// direction) cell on the shared SpectrumMap (a failed claim is an
// arbitration bug and aborts, same fatal semantics as the single-job DES)
// and schedules the release events on the shared clock.  Renegotiation — one
// typed renegotiate() entry point covering resume, grow, shrink, fault
// eviction, and restart — rebuilds the not-yet-run remainder through
// core::rebuild_wrht_remainder and transacts the band on the
// arbiter, with rollback when a rebuild does not pay off.  The substrate
// owns its fault state: down ring positions (transceiver and node faults)
// and degraded wavelengths, both refcounted.  A degraded wavelength leaves
// service as a width-1 arbiter allocation, so the planner cannot grant it
// until repair.
#include "runtime/substrate.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "optical/network.hpp"
#include "optical/spectrum.hpp"
#include "optical/transceiver.hpp"
#include "runtime/arbiter.hpp"
#include "runtime/down_units.hpp"
#include "runtime/planner.hpp"
#include "wrht/builder.hpp"
#include "wrht/executor.hpp"
#include "wrht/time_model.hpp"

namespace wrht::runtime {

namespace {

class OpticalExecution final : public SubstrateExecution {
 public:
  [[nodiscard]] const coll::Schedule& schedule() const override {
    return build.annotated.schedule;
  }
  [[nodiscard]] std::size_t num_steps() const override {
    return timed_steps.size();
  }
  [[nodiscard]] WavelengthBand band() const override { return band_; }
  [[nodiscard]] std::uint32_t grant() const override { return band_.width; }

  core::WrhtBuild build;
  WavelengthBand band_;
  /// False once the band went back to the arbiter (suspension) or moved to
  /// a successor plan (resize) — the double-release guard.
  bool holds_band = false;
  util::Bytes payload;
  std::vector<std::vector<optical::TimedTransfer>> timed_steps;
  /// When this band is expected back: refreshed after every timed step by
  /// extrapolating the remaining steps at the step's own pace.  Zero until
  /// the first step is timed (a just-placed band; treated as releasing
  /// soonest by the queue-wait estimate).  Feeds predict_completion's
  /// spectrum-backlog estimate.
  util::Seconds predicted_end{0.0};
  /// Position in the substrate's outstanding_ registry, so deregistration
  /// is a swap-remove instead of a linear scan (kept in sync by forget()).
  std::size_t outstanding_index = 0;
};

class OpticalSubstrate final : public ExecutionSubstrate {
 public:
  OpticalSubstrate(const topo::RingTopology& ring,
                   const optical::OpticalParams& params,
                   optical::FitPolicy fit_policy, sim::Simulator& sim)
      : ring_(ring),
        params_(params),
        fit_policy_(fit_policy),
        sim_(sim),
        spectrum_(ring, params.wdm.num_wavelengths),
        transceivers_(ring.num_nodes()),
        arbiter_(params.wdm.num_wavelengths),
        nodes_down_(ring.num_nodes()),
        wavelengths_down_(params.wdm.num_wavelengths) {}

  [[nodiscard]] SubstrateKind kind() const override {
    return SubstrateKind::kOptical;
  }
  [[nodiscard]] bool grants_hosts() const override { return false; }

  void attach_metrics(obs::MetricsRegistry& registry) override {
    arbiter_.attach_metrics(registry);
    retunes_ = registry.counter("optical.retunes");
    reservations_ = registry.counter("optical.cell_reservations");
  }

  [[nodiscard]] std::uint32_t largest_free_grant() const override {
    return arbiter_.largest_free_block();
  }
  [[nodiscard]] std::uint32_t free_grant_total() const override {
    return arbiter_.free_total();
  }

  [[nodiscard]] bool can_place(const std::vector<topo::NodeId>&,
                               std::uint32_t min_grant) const override {
    return arbiter_.largest_free_block() >= min_grant;
  }

  void note_pending_demand(
      const std::vector<std::uint32_t>& min_grants) override {
    pending_widths_ = min_grants;
  }

  [[nodiscard]] StepTiming time_step(SubstrateExecution& e, std::size_t step,
                                     util::Seconds now) override {
    auto& exec = static_cast<OpticalExecution&>(e);
    const std::vector<optical::TimedTransfer>& transfers =
        exec.timed_steps[step];
    StepTiming out;

    // Claim the step's spectrum cells on the SHARED map.  Bands are
    // disjoint, so a failed claim means the arbitration above is broken.
    for (const optical::TimedTransfer& t : transfers) {
      for (const optical::WavelengthId lambda : t.lambdas) {
        WRHT_CHECK(spectrum_.try_reserve(t.arc, lambda),
                   "OpticalSubstrate: wavelength conflict on lambda "
                       << lambda << " — arbitration bug");
        ++out.reservations;
      }
    }

    util::Seconds step_end = now;
    for (const optical::TimedTransfer& t : transfers) {
      const optical::WavelengthId primary = t.lambdas.front();
      bool retuned = transceivers_.retune_tx(t.src, t.arc.direction, primary);
      retuned |= transceivers_.retune_rx(t.dst, t.arc.direction, primary);
      if (params_.retune_every_step) retuned = true;
      if (retuned) ++out.retunes;

      const util::Seconds finish =
          now + optical::transfer_cost(params_, t, retuned);
      step_end = std::max(step_end, finish);
    }
    // One release event for the whole step.  The cells belong to this band
    // alone (bands are disjoint), and the only parties that could re-reserve
    // them — this execution's next step, or a successor band after a resize
    // — act at the step boundary (>= step_end + sync), which pops after
    // this event.  The captured pointer into the plan's timed_steps outlives
    // the event: the plan is destroyed no earlier than the step-boundary
    // event, which was scheduled after this one (so at an equal timestamp
    // this release still fires first).
    sim_.schedule_at(step_end, [this, step_transfers = &transfers] {
      for (const optical::TimedTransfer& t : *step_transfers) {
        for (const optical::WavelengthId lambda : t.lambdas) {
          spectrum_.release(t.arc, lambda);
        }
      }
    });
    const util::Seconds end = step_end + params_.sync_time;
    out.end = end;
    obs::inc(retunes_, out.retunes);
    obs::inc(reservations_, out.reservations);
    // Backlog bookkeeping: the band comes back roughly `remaining steps at
    // this step's pace` from now.  Wrht steps of one execution are close
    // enough in duration for a queue-wait ESTIMATE, and the figure is
    // refreshed every step, so it converges as the execution drains.
    const double step_span = (end - now).value();
    const double remaining =
        static_cast<double>(exec.timed_steps.size() - step - 1);
    exec.predicted_end = end + util::Seconds(step_span * remaining);
    return out;
  }

  void release(SubstrateExecution& e, util::Seconds /*now*/) override {
    auto& exec = static_cast<OpticalExecution&>(e);
    if (!exec.holds_band) return;
    arbiter_.release(exec.band_);
    exec.holds_band = false;
    forget(exec);
    // exec.band_ keeps its value: the pre-suspension width is the resume
    // path's sizing hint.
    if (wavelengths_down_.pending()) take_down_wavelengths();
  }

  [[nodiscard]] util::Seconds predict_completion(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant, util::Seconds now) const override {
    // Run time plus the predicted wait for a band:
    // SpectrumPlanner::earliest_fit, the first instant a CONTIGUOUS run of
    // the width exists when outstanding bands release at their predicted
    // ends — so a fragmented pool whose free TOTAL covers the request does
    // not read as "available now".
    const util::Seconds run = quiet_run(participants, payload, grant);
    return SpectrumPlanner::earliest_fit(std::max(grant, 1u),
                                         planner_context(now)) +
           run;
  }

  [[nodiscard]] RenegotiationOutcome renegotiate(
      SubstrateExecution* c, const RenegotiationRequest& request) override {
    switch (request.kind) {
      case RenegotiationRequest::Kind::kResume:
        return resume(static_cast<OpticalExecution&>(*c), request);
      case RenegotiationRequest::Kind::kGrow:
        return grow(static_cast<OpticalExecution&>(*c), request);
      case RenegotiationRequest::Kind::kShrink:
        return shrink(static_cast<OpticalExecution&>(*c), request);
      case RenegotiationRequest::Kind::kEvict:
        return evict(static_cast<OpticalExecution&>(*c), request);
      case RenegotiationRequest::Kind::kRestart:
        // Reads nothing from `c` — the fresh plan may replace one owned by
        // another substrate (cross-substrate migration).
        return restart(request);
    }
    return {};
  }

  [[nodiscard]] std::uint32_t free_grant_if_kept(
      const SubstrateExecution& e, std::uint32_t keep) const override {
    const auto& exec = static_cast<const OpticalExecution&>(e);
    const WavelengthBand band = exec.band_;
    const WavelengthBand freed{band.base + keep, band.width - keep};
    return arbiter_.largest_free_block_assuming(freed);
  }

  bool apply_fault(const FaultSpec& fault, bool repaired) override {
    switch (fault.domain) {
      case FaultDomain::kTransceiver:
      case FaultDomain::kNode:
        // Ring positions hold no grant: they only change what node_down
        // answers.
        nodes_down_.apply(fault.subject, repaired);
        return true;
      case FaultDomain::kWavelength:
        if (wavelengths_down_.apply(fault.subject, repaired)) {
          arbiter_.release(WavelengthBand{fault.subject, 1});
        }
        take_down_wavelengths();
        return true;
      case FaultDomain::kTor:
        return false;
    }
    return false;
  }

  [[nodiscard]] bool node_down(topo::NodeId node) const override {
    return nodes_down_.down(node);
  }

  [[nodiscard]] std::uint32_t healthy_grant(
      const SubstrateExecution& e) const override {
    const WavelengthBand band = static_cast<const OpticalExecution&>(e).band_;
    for (std::uint32_t i = 0; i < band.width; ++i) {
      if (wavelengths_down_.down(band.base + i)) return i;
    }
    return band.width;
  }

 private:
  /// The WRHT formula time of a fresh `grant`-band execution on a quiet
  /// ring: predict_completion's run time.
  [[nodiscard]] util::Seconds quiet_run(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t grant) const {
    core::WrhtParams wrht;
    wrht.num_wavelengths = std::max(grant, 1u);
    wrht.fit_policy = fit_policy_;
    return core::wrht_time_formula(
        static_cast<std::uint32_t>(participants.size()), payload, params_,
        wrht);
  }

  [[nodiscard]] RenegotiationOutcome resume(
      const OpticalExecution& current, const RenegotiationRequest& request) {
    const std::uint32_t budget = arbiter_.largest_free_block();
    if (budget < request.min_grant) return {};
    std::uint32_t grant = std::min(request.width, budget);
    std::optional<core::WrhtBuild> rebuilt =
        rebuild_remainder(current, request.steps_done, grant, request.nodes);
    if (!rebuilt && budget > grant) {
      // The remainder's inherited mirrors can need more than the job's
      // admission minimum; retry with everything contiguous on offer.
      grant = budget;
      rebuilt = rebuild_remainder(current, request.steps_done, grant,
                                  request.nodes);
    }
    if (!rebuilt) return {};
    const std::optional<WavelengthBand> band = acquire_band(grant);
    WRHT_CHECK(band.has_value(), "OpticalSubstrate: arbiter refused a "
                                     << grant << "-band on resume");
    return {make_plan(std::move(*rebuilt), *band, current.payload)};
  }

  [[nodiscard]] RenegotiationOutcome grow(OpticalExecution& current,
                                          const RenegotiationRequest& request) {
    const WavelengthBand old = current.band_;
    const WavelengthBand grown = arbiter_.grow(old, request.width);
    if (grown == old) return {};
    const std::size_t remaining = current.num_steps() - request.steps_done;
    std::optional<core::WrhtBuild> rebuilt =
        rebuild_remainder(current, request.steps_done, grown.width);
    // A wider band only pays off by collapsing remaining tree levels (each
    // transfer still rides one wavelength, so same-depth schedules run at
    // the same speed); otherwise give the spectrum straight back.
    if (!rebuilt || rebuilt->annotated.schedule.num_steps() >= remaining) {
      arbiter_.shrink_to(grown, old);
      return {};
    }
    current.holds_band = false;  // the grown band moves to the new plan
    forget(current);
    return {make_plan(std::move(*rebuilt), grown, current.payload)};
  }

  [[nodiscard]] RenegotiationOutcome shrink(
      OpticalExecution& current, const RenegotiationRequest& request) {
    const WavelengthBand old = current.band_;
    std::optional<core::WrhtBuild> rebuilt =
        rebuild_remainder(current, request.steps_done, request.width);
    if (!rebuilt) return {};
    const WavelengthBand kept{old.base, request.width};
    arbiter_.shrink_to(old, kept);
    current.holds_band = false;  // the kept band moves to the new plan
    forget(current);
    // A fault shrink cuts a degraded tail; it leaves service now.
    if (wavelengths_down_.pending()) take_down_wavelengths();
    return {make_plan(std::move(*rebuilt), kept, current.payload)};
  }

  /// Survivor rebuild on the SAME band: the remainder is rebuilt with the
  /// failed nodes stripped from its delivery set.  Refused when a failed
  /// node still carries live state (rebuild_wrht_remainder's contract) —
  /// the caller then restarts among the survivors.
  [[nodiscard]] RenegotiationOutcome evict(
      OpticalExecution& current, const RenegotiationRequest& request) {
    std::optional<core::WrhtBuild> rebuilt = rebuild_remainder(
        current, request.steps_done, current.band_.width, request.nodes);
    if (!rebuilt) return {};
    const WavelengthBand band = current.band_;
    current.holds_band = false;  // the band moves unchanged to the new plan
    forget(current);
    return {make_plan(std::move(*rebuilt), band, current.payload)};
  }

  /// Brand-new plan among request.nodes on a fresh band — the from-scratch
  /// path for first placements, survivor restarts and cross-substrate
  /// migrations.
  [[nodiscard]] RenegotiationOutcome restart(
      const RenegotiationRequest& request) {
    const std::uint32_t budget = arbiter_.largest_free_block();
    if (budget < request.min_grant) return {};
    const std::uint32_t grant = std::min(std::max(request.width, 1u), budget);
    const std::optional<WavelengthBand> band = acquire_band(grant);
    if (!band) return {};
    core::WrhtParams wrht;
    wrht.num_wavelengths = band->width;
    wrht.fit_policy = fit_policy_;
    core::WrhtBuild build =
        core::build_wrht_among(request.nodes, ring_.num_nodes(), wrht);
    WRHT_CHECK(build.annotated.wavelengths_required <= band->width,
               "OpticalSubstrate: schedule overflowed its band ("
                   << build.annotated.wavelengths_required << " > "
                   << band->width << ")");
    return {make_plan(std::move(build), *band, request.payload)};
  }

  /// Quarantine every degraded wavelength no band holds: a width-1
  /// allocation the arbiter refuses while a granted band covers it.
  void take_down_wavelengths() {
    wavelengths_down_.sweep([this](std::size_t w) {
      return arbiter_.allocate_at(static_cast<std::uint32_t>(w), 1)
          .has_value();
    });
  }

  /// Snapshot of the spectrum the planner scores placements/forecasts
  /// against, as of `now`.
  [[nodiscard]] PlannerContext planner_context(util::Seconds now) const {
    PlannerContext ctx;
    ctx.free_intervals = arbiter_.free_intervals();
    ctx.outstanding.reserve(outstanding_.size());
    for (const OpticalExecution* exec : outstanding_) {
      ctx.outstanding.push_back(
          OutstandingBand{exec->band_, exec->predicted_end});
    }
    ctx.pending_min_widths = pending_widths_;
    ctx.total_wavelengths = arbiter_.total();
    ctx.now = now;
    return ctx;
  }

  /// Claim a `width`-wide band.  The planner proposes a base scored against
  /// outstanding bands and pending demand; the arbiter still
  /// occupancy-checks the exact range (a collision would be a
  /// planner/arbiter disagreement and aborts), so a planned placement is
  /// proven before it exists.
  [[nodiscard]] std::optional<WavelengthBand> acquire_band(
      std::uint32_t width) {
    const std::optional<std::uint32_t> base =
        SpectrumPlanner::choose_base(width, planner_context(sim_.now()));
    if (!base) return std::nullopt;
    const std::optional<WavelengthBand> band =
        arbiter_.allocate_at(*base, width);
    WRHT_CHECK(band.has_value(),
               "OpticalSubstrate: planner placement [" << *base << ", "
                   << *base + width << ") collided with a granted band");
    return band;
  }

  [[nodiscard]] std::optional<core::WrhtBuild> rebuild_remainder(
      const OpticalExecution& exec, std::size_t steps_done,
      std::uint32_t width,
      const std::vector<topo::NodeId>& evicted = {}) const {
    core::WrhtParams wrht;
    wrht.num_wavelengths = width;
    wrht.fit_policy = fit_policy_;
    return core::rebuild_wrht_remainder(exec.build, steps_done, evicted,
                                        ring_.num_nodes(), wrht);
  }

  [[nodiscard]] std::unique_ptr<SubstrateExecution> make_plan(
      core::WrhtBuild build, const WavelengthBand& band, util::Bytes payload) {
    auto plan = std::make_unique<OpticalExecution>();
    plan->build = std::move(build);
    plan->band_ = band;
    plan->holds_band = true;
    plan->payload = payload;
    const std::size_t num_steps = plan->build.annotated.schedule.num_steps();
    plan->timed_steps.reserve(num_steps);
    for (std::size_t s = 0; s < num_steps; ++s) {
      plan->timed_steps.push_back(
          core::timed_step(plan->build.annotated, s, payload, band.base));
    }
    plan->outstanding_index = outstanding_.size();
    outstanding_.push_back(plan.get());
    return plan;
  }

  /// Drop an execution from the backlog registry the moment its band stops
  /// being outstanding (release, or a resize moving the band to a successor
  /// plan) — the plan object itself may be destroyed right after.  Swap-
  /// remove keeps this O(1); earliest_fit sorts the bands it reads by
  /// predicted release (base breaks ties), so the order perturbation is
  /// invisible.
  void forget(OpticalExecution& exec) {
    const std::size_t idx = exec.outstanding_index;
    WRHT_CHECK(idx < outstanding_.size() && outstanding_[idx] == &exec,
               "OpticalSubstrate: outstanding registry out of sync");
    outstanding_[idx] = outstanding_.back();
    outstanding_[idx]->outstanding_index = idx;
    outstanding_.pop_back();
  }

  const topo::RingTopology& ring_;
  optical::OpticalParams params_;
  optical::FitPolicy fit_policy_;
  sim::Simulator& sim_;
  optical::SpectrumMap spectrum_;
  optical::TransceiverBank transceivers_;
  SpectrumArbiter arbiter_;
  /// Metric handles; nullptr (zero-overhead emission) without a registry.
  obs::Counter* retunes_ = nullptr;
  obs::Counter* reservations_ = nullptr;
  /// Executions whose bands are currently outstanding, for the queue-wait
  /// backlog estimate.  Entries are non-owning and live exactly while the
  /// plan holds its band.
  std::vector<OpticalExecution*> outstanding_;
  /// Latest note_pending_demand snapshot: minimum widths of queued +
  /// suspended demand, excluding the job being placed.  Read only by the
  /// planner's placement cost.
  std::vector<std::uint32_t> pending_widths_;
  /// Fault state: ring positions out of optical service, and degraded
  /// wavelengths (out of service once no band holds them).
  DownUnits nodes_down_;
  DownUnits wavelengths_down_;
};

}  // namespace

std::unique_ptr<ExecutionSubstrate> make_optical_substrate(
    const topo::RingTopology& ring, const optical::OpticalParams& params,
    optical::FitPolicy fit_policy, sim::Simulator& sim) {
  return std::make_unique<OpticalSubstrate>(ring, params, fit_policy, sim);
}

}  // namespace wrht::runtime
