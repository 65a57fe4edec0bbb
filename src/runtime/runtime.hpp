// The multi-tenant collective runtime: many all-reduce jobs, one shared
// simulation clock, and a list of execution fabrics.
//
// Tenants submit jobs (participant subset + payload + arrival time).  On
// arrival a job enters the admission queue; the fairness policy decides who
// runs next.  Execution itself is delegated to polymorphic
// ExecutionSubstrates (runtime/substrate.hpp): a substrate owns schedule
// construction, resource grant/release, per-step timing, and
// renegotiation, while the runtime keeps admission, fairness, batching, the
// shared clock, and oracle validation.  The runtime holds its fabrics as a
// list — the primary first — and finds one by position or by kind(), never
// by name.
//
// The primary fabric is the paper's optical WDM ring: the arbiter carves a
// disjoint wavelength band per admitted job, each job's Wrht schedule is
// built against its private band width and progressed step by step as
// events on ONE sim::Simulator, with the shared SpectrumMap re-checking
// every (span, wavelength, direction) reservation.  Under a hybrid
// placement policy the list also holds the ELECTRICAL fallback fabric
// (src/elec's flow simulator): when the spectrum saturates, queued arrivals
// are placed onto host links of an electrical cluster instead of waiting.
// Placement is one pass over the fabrics in the policy's preference order,
// each placing until it declines — kElectricalOverflow asks the ring first
// and spills whatever it declined, kCostModelChoice asks the fallback first
// and places there only the jobs the cost models predict finish sooner
// there — and JobSpec::pin lets a tenant force (or forbid) the fallback
// outright.  The fallback is either an exclusive star (every execution
// times its steps on a private quiet network) or an oversubscribed
// two-level tree whose shared ToR uplinks make concurrent executions
// contend — there one SharedFabricTimer times every in-flight electrical
// step together, the runtime keeps one wake event per fabric on the sim
// clock that advances the real flow network from one of its events to the
// next and ends the steps that drained there, and every max-min solve of
// that network is certified fair as it runs.  Both timing
// models land in one report, with per-substrate breakdowns and per-job
// contention slowdowns.
//
// Small same-group jobs queued together are fused by the Batcher into a
// single schedule (one set of per-step overheads for the whole batch), and
// every execution's schedule is proven correct with the coll:: oracle
// before it touches its fabric.
//
// Step-boundary renegotiation: the runtime may PREEMPT an execution at a
// step boundary (suspend it, surrender its whole grant to a higher-priority
// arrival under FairnessPolicy::kPriorityPreempt, resume it later on
// whatever grant it regains), RESIZE it on a band fabric (grow into freed
// neighboring spectrum, or shrink toward the job's floor when queued
// tenants starve), or reconcile it with a fault (evict dead participants,
// restart among the survivors, or migrate to the ring).  Each transition
// has one body — start_running, stop_running, resize and
// restart_among_survivors — and adopt_plan is the one adopt site: it
// re-proves every rebuilt remainder with the oracle, composed with the
// functional steps already executed, before it touches the fabric.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "optical/params.hpp"
#include "runtime/admission.hpp"
#include "runtime/batcher.hpp"
#include "runtime/faults.hpp"
#include "runtime/job.hpp"
#include "runtime/substrate.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace wrht::runtime {

/// Which fabrics admission may place jobs on.
enum class HybridPlacementPolicy : std::uint8_t {
  /// Optical ring only; saturated-spectrum arrivals queue (pre-refactor
  /// behavior, the default).
  kOpticalOnly,
  /// Optical first; whatever the optical admission loop declines spills
  /// onto the electrical fallback as soon as its hosts are free.
  kElectricalOverflow,
  /// Route each arrival to whichever fabric the cost models predict
  /// FINISHES it sooner under the fabrics' current state (see
  /// RoutingCostModel::kCongestionAware); routing is work-conserving, not
  /// sticky — an electrical-predicted job whose hosts are busy still runs
  /// on free optical spectrum rather than idle-waiting for the fallback.
  kCostModelChoice,
};

[[nodiscard]] const char* hybrid_placement_policy_name(
    HybridPlacementPolicy policy);

/// Cost signal kCostModelChoice compares when routing an arrival.  One
/// value is left: the enum and RuntimeConfig::routing_cost_model stay only
/// because perfbench/perfbench.cpp names both, and go with the next change
/// to the benchmark.
enum class RoutingCostModel : std::uint8_t {
  /// Predicted COMPLETION times under the fabrics' current state: the
  /// electrical side folds the live residual uplink bandwidth of the
  /// shared fabric into its estimate (a saturated fabric stops attracting
  /// over-spill), the optical side folds the predicted wait for a free
  /// spectrum band (a backed-up ring stops holding jobs hostage).  Every
  /// decision is traced with both predictions and scored against the
  /// job's actual completion in the report.
  kCongestionAware,
};

struct RuntimeConfig {
  /// Nodes on the shared ring.
  std::uint32_t ring_size = 64;
  /// Optical cost model; wdm.num_wavelengths is the total spectrum budget
  /// the arbiter partitions between tenants.
  optical::OpticalParams optical{};
  FairnessPolicy policy = FairnessPolicy::kFifo;
  BatcherConfig batcher{};
  /// Wavelength request used when a JobSpec leaves requested_wavelengths 0.
  std::uint32_t default_request = 8;
  optical::FitPolicy fit_policy = optical::FitPolicy::kFirstFit;
  /// Prove every execution's schedule with the functional oracle before
  /// running it (cheap: oracle payloads are oracle_payload_len doubles,
  /// or one per chunk when a schedule has more chunks than that).
  bool validate_with_oracle = true;
  std::size_t oracle_payload_len = 48;
  /// Step-boundary elastic resize: grow a running execution's band into
  /// adjacent freed spectrum when that shortens its remaining schedule, and
  /// shrink a band toward its jobs' floor when the shrink would unblock a
  /// starved queued job.
  bool elastic_resize = false;
  /// Priority aging half-life for starvation control (0 = aging off, the
  /// historical behavior).  While a job waits — queued, or suspended after a
  /// preemption — its EFFECTIVE priority rises by one class per
  /// aging_half_life of sim-clock wait, so a repeatedly-preempted tenant
  /// eventually outranks the traffic that keeps displacing it.  Running
  /// executions keep their raw priority; aging applies at admission,
  /// preemption-target, and resume comparisons.
  util::Seconds aging_half_life{0.0};
  /// Hybrid placement across substrates.
  HybridPlacementPolicy placement = HybridPlacementPolicy::kOpticalOnly;
  /// What kCostModelChoice compares; its one value (see RoutingCostModel).
  RoutingCostModel routing_cost_model = RoutingCostModel::kCongestionAware;
  /// Electrical fallback fabric (used when placement != kOpticalOnly).
  ElectricalFallbackConfig electrical{};
  /// Observability sink.  When set, the runtime and its substrates register
  /// counters/gauges/histograms here and the registry's time-series sampler
  /// is pumped on every runtime event; when null, every emission site keeps
  /// a null handle and the hot path does no observability work at all.
  /// Must outlive the runtime.
  obs::MetricsRegistry* metrics = nullptr;
  /// Fault stream injected alongside the workload (null = no faults, the
  /// default).  Each fault and its repair become ordinary events on the
  /// shared clock; disruptions are detected at the affected executions'
  /// next BSP step boundaries and resolved through the same renegotiate()
  /// entry point preemption and resize use.  Must outlive the runtime.
  FaultSource* faults = nullptr;
};

/// Per-substrate slice of a run: how much of the workload each fabric
/// carried, and its contribution to the shared-clock makespan (the
/// completion time of the last job it ran).
struct SubstrateBreakdown {
  std::uint32_t jobs = 0;
  std::uint32_t executions = 0;
  std::uint64_t steps = 0;
  util::Seconds makespan{0.0};
  /// Wall-clock the fabric's steps actually took vs. what they would have
  /// taken on a quiet network — the aggregate contention story.  Zero/zero
  /// for substrates without a quiet baseline (optical).
  util::Seconds busy_time{0.0};
  util::Seconds quiet_time{0.0};

  /// Aggregate contention slowdown (1.0 = nobody ever contended; 0.0 = no
  /// quiet baseline on this substrate).
  [[nodiscard]] double contention_slowdown() const {
    return quiet_time.value() > 0.0 ? busy_time.value() / quiet_time.value()
                                    : 0.0;
  }
};

/// Cost-model routing audit: how often each fabric won, and how far the
/// router's predicted completion times landed from the truth.  Errors are
/// relative to the predicted span (|actual - predicted| / (predicted -
/// decision time)), so a 0.25 means the job finished a quarter of its
/// predicted duration away from the promise — in either direction.
struct RoutingStats {
  std::uint32_t decisions = 0;
  std::uint32_t to_optical = 0;
  std::uint32_t to_electrical = 0;
  double mean_error = 0.0;
  double worst_error = 0.0;
};

/// What the fault stream did to the run, and what the recovery machinery
/// did about it.  All zero when RuntimeConfig::faults is null.
struct FaultStats {
  std::uint32_t injected = 0;
  std::uint32_t transceiver_faults = 0;
  std::uint32_t node_faults = 0;
  std::uint32_t tor_faults = 0;
  std::uint32_t wavelength_faults = 0;
  std::uint32_t repairs = 0;
  /// Running executions a fault forced into a boundary renegotiation.
  std::uint32_t disrupted_executions = 0;
  /// In-place survivor rebuilds: the remainder re-proven with the failed
  /// nodes stripped from its delivery set (kEvict accepted).
  std::uint32_t evictions = 0;
  /// Fresh plans among the survivors after the remainder could not absorb
  /// the eviction (kRestart accepted, executed prefix discarded).
  std::uint32_t restarts = 0;
  /// Cross-substrate moves: ToR-orphaned electrical executions restarted
  /// on the optical ring.
  std::uint32_t migrations = 0;
  /// Fault-triggered suspensions (a subset of the report's preemptions):
  /// the execution waits for repair or free capacity, then resumes.
  std::uint32_t fault_preemptions = 0;
  /// Jobs whose live participant count fell below 2 (JobState::kFailed).
  std::uint32_t killed_jobs = 0;
  /// Completed recoveries: from a fault first disrupting a RUNNING
  /// execution to that execution running again (evicted, restarted,
  /// migrated, or resumed).
  std::uint32_t recoveries = 0;
  util::Seconds total_recovery{0.0};
  /// Step wall-clock discarded by restarts, migrations, and kills — the
  /// executed work the fault threw away.
  util::Seconds wasted_step_time{0.0};

  [[nodiscard]] util::Seconds mttr() const {
    return recoveries == 0 ? util::Seconds(0.0)
                           : util::Seconds(total_recovery.value() /
                                           static_cast<double>(recoveries));
  }
};

struct RuntimeReport {
  util::Seconds makespan{0.0};
  std::uint32_t submitted = 0;
  std::uint32_t completed = 0;
  std::uint32_t rejected = 0;
  /// Executions started / executions that fused more than one job.
  std::uint32_t executions = 0;
  std::uint32_t batches = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t total_retunes = 0;
  /// (arc, wavelength) reservations checked against the shared spectrum
  /// map.  A cross-job conflict aborts the process, so a finished run had
  /// zero wavelength-conflict aborts by construction; this counts how many
  /// opportunities there were.
  std::uint64_t spectrum_reservations = 0;
  /// Most jobs simultaneously holding a grant (on any substrate) at any
  /// instant.
  std::uint32_t peak_concurrent_jobs = 0;
  /// Executions whose schedule failed the functional oracle.  Like a
  /// wavelength conflict this aborts the process, so a returned report
  /// always says 0; the field documents that the checks ran.
  std::uint32_t oracle_failures = 0;
  /// Step-boundary renegotiations: executions suspended for a
  /// higher-priority arrival, executions resumed afterwards, and band
  /// grow/shrink rebuilds applied in place.
  std::uint32_t preemptions = 0;
  std::uint32_t resumes = 0;
  std::uint32_t resizes = 0;
  /// Always 0: step ends on the shared electrical fabric come from the
  /// real flow network as it advances, so no step-completion event is ever
  /// re-scheduled.  Kept so report digests and consumers keep their shape.
  std::uint64_t step_retimes = 0;
  /// Steps audited by the substrates' self checks (the shared electrical
  /// fabric's steps, timed on max-min solves each certified as it ran).  A
  /// failed certificate aborts the process, so a returned report documents
  /// that this many steps were proven.
  std::uint64_t replay_checked_steps = 0;
  /// Peak utilization per electrical-fabric link (fraction of capacity),
  /// indexed by the fallback cluster's link ids.  Empty without a shared
  /// electrical fabric.
  std::vector<double> electrical_link_peak;
  util::Seconds total_turnaround{0.0};
  /// Per-decision routing audit under kCostModelChoice (all zero for the
  /// other placements).
  RoutingStats routing;
  /// Both timing models under one report: what each fabric carried.
  /// optical.jobs + electrical.jobs == completed, and likewise for
  /// executions and steps.
  SubstrateBreakdown optical;
  SubstrateBreakdown electrical;
  /// SLO percentiles over the completed jobs (exact nearest-rank quantiles
  /// recomputed from the job records at run end — registry-independent, so
  /// they are present even when RuntimeConfig::metrics is null).
  obs::SloStats slo;
  /// Chaos accounting (all zero without a fault stream).  The job ledger
  /// under faults closes as completed + rejected + faults.killed_jobs ==
  /// submitted.
  FaultStats faults;
  /// Total step wall-clock across both fabrics — the goodput denominator.
  util::Seconds step_time_total{0.0};

  [[nodiscard]] util::Seconds mean_turnaround() const {
    return completed == 0 ? util::Seconds(0.0)
                          : util::Seconds(total_turnaround.value() /
                                          static_cast<double>(completed));
  }
  /// Fraction of step time that contributed to a completed job: 1 minus
  /// the share restarts/migrations/kills threw away.  1.0 on a fault-free
  /// run (or before any step ran).
  [[nodiscard]] double goodput() const {
    return step_time_total.value() > 0.0
               ? 1.0 - faults.wasted_step_time.value() /
                           step_time_total.value()
               : 1.0;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Pull-based stream of job specs — the seam between the workload layer
/// (generators, trace replay) and the runtime's streaming front end.
/// serve() pulls the next spec only when the clock reaches the previous
/// arrival, so a million-job trace is never materialized up front: at any
/// instant the runtime holds one not-yet-arrived spec, not the whole tail.
class JobSource {
 public:
  virtual ~JobSource() = default;
  /// The next job spec, or nullopt when the stream is exhausted.  Specs
  /// MUST be yielded in nondecreasing arrival order (serve() aborts
  /// otherwise — out-of-order arrivals would silently warp the clock).
  virtual std::optional<JobSpec> next() = 0;
};

class CollectiveRuntime {
 public:
  explicit CollectiveRuntime(RuntimeConfig config);

  /// Register a job.  Infeasible specs (bad participant list, or a minimum
  /// demand no grant can ever satisfy) are rejected immediately.  Must be
  /// called before run().
  JobId submit(JobSpec spec);

  /// Drive the shared clock until every submitted job has completed.
  RuntimeReport run();

  /// Streaming variant of run(): pull specs from `source` one at a time —
  /// each arrival event ingests the NEXT spec and chains the next arrival —
  /// so the event queue and spec storage stay O(in-flight), not O(trace).
  /// Jobs submit()ted beforehand run too.  Rejected specs are counted and
  /// recorded exactly as submit() would.  `source` must outlive the call.
  RuntimeReport serve(JobSource& source);

  [[nodiscard]] const JobRecord& record(JobId id) const;
  [[nodiscard]] std::size_t num_jobs() const { return records_.size(); }
  /// All job records, indexed by JobId — the trace exporter's input.
  [[nodiscard]] const std::vector<JobRecord>& records() const {
    return records_;
  }
  /// Job ids in completion order (deterministic for a fixed submission set).
  [[nodiscard]] const std::vector<JobId>& completion_order() const {
    return completion_order_;
  }
  [[nodiscard]] const topo::RingTopology& ring() const { return ring_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] const sim::Trace& trace() const { return trace_; }
  [[nodiscard]] util::Seconds now() const { return simulator_.now(); }

 private:
  /// One admitted unit of work: a single job or a fused batch, bound to the
  /// substrate that placed it.  `plan` is the substrate's schedule +
  /// resources for the work still ahead (the whole job at admission, the
  /// rebuilt remainder after a renegotiation); `executed` accumulates the
  /// functional steps already run, so the composite executed + plan can be
  /// re-proven with the oracle after every rebuild.
  struct Execution {
    std::vector<JobId> jobs;
    ExecutionSubstrate* substrate = nullptr;
    std::unique_ptr<SubstrateExecution> plan;
    /// Urgency (max over fused jobs) under kPriorityPreempt.  Starts at the
    /// lowest representable value so max-folding preserves NEGATIVE tenant
    /// priorities instead of flattening them to 0.
    std::int32_t priority = std::numeric_limits<std::int32_t>::min();
    /// Narrowest band the execution accepts (max over fused jobs' minima).
    /// The widest it can exploit follows from the participant count.
    std::uint32_t min_width = 1;
    std::vector<topo::NodeId> participants;
    util::Bytes batch_payload;
    std::vector<coll::Step> executed;
    std::size_t next_step = 0;
    /// Failed participants already stripped from the remainder's delivery
    /// set (their contributions are merged; their hardware is gone).  The
    /// composite oracle proves the sum over ALL of `participants` reaches
    /// every participant EXCEPT these.
    std::vector<topo::NodeId> evicted;
    /// A queued higher-priority job asked for this band; surrender it at
    /// the next step boundary.
    bool preempt_requested = false;
    /// A fault touched this execution's resources; reconcile against its
    /// substrate's fault state at the next step boundary.
    bool fault_pending = false;
    /// A ToR fault orphaned this electrical execution; attempt a
    /// cross-substrate restart at the next step boundary.
    bool migrate_pending = false;
    /// The executed prefix was discarded (the remainder could not absorb
    /// an eviction): the next resume issues kRestart among `participants`
    /// (already shrunk to the survivors) instead of kResume.
    bool fresh_restart = false;
    /// When a fault first disrupted this RUNNING execution (0 = not
    /// disrupted) — the recovery-time (MTTR) anchor, cleared when the
    /// execution runs again.
    util::Seconds fault_since{0.0};
    /// When the execution last suspended (valid while it is in suspended_)
    /// — the clock priority aging runs against.
    util::Seconds suspended_since{0.0};
    /// When the in-flight step started, and the accumulated actual/quiet
    /// durations of finished steps (the per-job contention slowdown).
    util::Seconds step_started{0.0};
    util::Seconds busy_time{0.0};
    util::Seconds quiet_time{0.0};
  };

  /// The body of submit(), minus the pre-run() guard: validate, record,
  /// count.  serve() calls it mid-run for every spec its source yields.
  JobId ingest(JobSpec spec);
  /// Pull specs from source_ until one is accepted (rejects are recorded
  /// and skipped), then schedule its arrival event — which ingests the
  /// next spec in turn.  `floor` is the previous arrival time, enforcing
  /// the source's nondecreasing-arrival contract.
  void pump_source(util::Seconds floor);
  /// The body of run() (`source` null) and serve(): schedule the submitted
  /// arrivals, chain in the stream, bookend the metrics, drain the clock,
  /// run the end-of-run audits, and seal the report.
  RuntimeReport drive(JobSource* source);
  void on_arrival(JobId id);
  /// The placement pass over placement_order_, then resumes and (under
  /// kPriorityPreempt) preemption requests.
  void try_admit();
  /// The router's completion predictions on both fabrics.
  struct RoutePrediction {
    util::Seconds optical;
    util::Seconds electrical;
  };
  [[nodiscard]] RoutePrediction predict_route(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t optical_grant) const;
  /// Place one queued job on `fabric` (the fairness policy's pick on a band
  /// fabric, the first placeable candidate on a host fabric), behind the
  /// priority guard; false when the fabric declines.  On a host fabric the
  /// scan pays per change, not per queued job: it starts at host_mark_ and
  /// passes every entry whose blocker memo host is still busy, both certain
  /// failures, and probes only the rest.  FIFO tries the survivors in seq
  /// order as it walks; kPriorityPreempt stable-sorts them by aged
  /// priority first.  Either way it places the entry the full scan would.
  bool place_one(ExecutionSubstrate& fabric);
  /// Shared placement tail: pop the queue entry at `queue_index` (plus its
  /// fusable peers when the substrate batches), build the plan with `grant`
  /// units on `substrate`, prove it, and start it running.  `verdict` is
  /// the router's prediction that sent the lead here, if it ran.
  void place_execution(ExecutionSubstrate& substrate, std::size_t queue_index,
                       std::uint32_t grant,
                       const std::optional<RoutePrediction>& verdict);
  /// The one start of a placed or resumed execution: count its jobs as
  /// running, list it, and dispatch its next step.
  void start_running(const std::shared_ptr<Execution>& exec);
  /// The one stop of a suspended, killed or finished execution: uncount
  /// its jobs, release its grant (a no-op when already surrendered), unlist
  /// it, and re-run admission on what it freed.
  void stop_running(const std::shared_ptr<Execution>& exec);
  /// Dispatch exec's next step: a closed-form end schedules its boundary
  /// event; otherwise the fabric's wake delivers it.
  void run_step(const std::shared_ptr<Execution>& exec);
  /// The step-completion body: fold the step's wall-clock, then
  /// finish / renegotiate / dispatch the next step.
  void on_step_end(const std::shared_ptr<Execution>& exec);
  /// The wake event of fabrics_[fabric]: run the step boundary of every
  /// execution whose step the fabric ended now, then re-arm.
  void on_wake(std::size_t fabric);
  /// Point fabrics_[fabric]'s wake event at its next_wake(), keeping an
  /// event already armed for that instant.  Deferred while its own wake is
  /// running, which re-arms once at the end.
  void arm_wake(std::size_t fabric);
  /// The full can_place probe of `job` on host fabric `fabric`, counted as
  /// runtime.placement_probes (a blocker memo hit is not a probe).  A
  /// failure records a busy participant as the job's blocker memo.
  [[nodiscard]] bool probe_placement(const ExecutionSubstrate& fabric,
                                     const QueueEntry& job);
  void finish_execution(const std::shared_ptr<Execution>& exec);

  /// The step-boundary renegotiation point: called between two steps of
  /// `exec`, with exec's own cells released and its grant still held.  May
  /// suspend the execution or swap in a rebuilt remainder on a different
  /// band.  Returns true when the execution surrendered its grant HERE —
  /// the caller must not dispatch the next step then, even if a
  /// same-instant resume already restarted the execution (the resume
  /// dispatched it).
  [[nodiscard]] bool renegotiate(const std::shared_ptr<Execution>& exec);
  /// `fault` marks a fault-triggered suspension, counted separately.  The
  /// substrate takes any down unit the release frees out of service, so the
  /// re-run of admission cannot hand it to anyone else.
  void suspend_execution(const std::shared_ptr<Execution>& exec,
                         bool fault = false);
  /// Resume the most urgent suspended execution that can run now: evict
  /// participants that died while it waited, or restart among the
  /// survivors when its remainder cannot absorb them.
  bool try_resume_one();

  /// Pull the next fault from the stream and schedule its injection event
  /// (which chains the next pull) — the chaos mirror of pump_source.
  void pump_faults();
  /// The injection event body: book the fault on every fabric, mark the
  /// executions it touched for boundary reconciliation, kill unrecoverable
  /// suspended work, and schedule the repair.
  void on_fault(const FaultSpec& fault);
  void on_fault_repair(const FaultSpec& fault);
  /// Boundary reconciliation of a fault-marked execution against its
  /// substrate's CURRENT fault state (node_down, healthy_grant); a repair
  /// may have landed first, and then this is a no-op recovery.  Returns
  /// true when the caller must not dispatch the next step (killed,
  /// suspended, or the execution now runs a plan whose dispatch happened
  /// elsewhere).
  [[nodiscard]] bool reconcile_fault(const std::shared_ptr<Execution>& exec);
  /// Throw away exec's executed prefix before a fresh plan: bill its step
  /// time as wasted and restart the step count.
  void discard_prefix(Execution& exec);
  /// The one survivor restart: shrink exec to its live participants (and
  /// its floor to their useful cap), discard the prefix, and mark it
  /// fresh_restart until a plan is adopted.
  void restart_among_survivors(Execution& exec);
  /// `hint` clamped to [min_width, useful cap of exec's participants]: the
  /// width every resume and restart asks for (restart_among_survivors
  /// keeps the bounds ordered).
  [[nodiscard]] static std::uint32_t clamped_width(const Execution& exec,
                                                   std::uint32_t hint);
  /// Ask `fabric` for a brand-new plan among exec's participants of at most
  /// `desired` units, with the demand snapshot refreshed first.
  [[nodiscard]] RenegotiationOutcome request_restart(
      ExecutionSubstrate& fabric, const Execution& exec,
      std::uint32_t desired);
  /// Faults left fewer than 2 live participants: mark every carried job
  /// JobState::kFailed, release the grant, and drop the execution.
  void kill_execution(const std::shared_ptr<Execution>& exec);
  /// Close the MTTR window opened when a fault disrupted this running
  /// execution (no-op when none is open).
  void note_recovery(Execution& exec);
  /// Participants exec's substrate has lost and not yet evicted — the
  /// nodes the next renegotiation must drop.
  [[nodiscard]] std::vector<topo::NodeId> newly_dead(
      const Execution& exec) const;
  /// participants − evicted − newly dead: the survivor set a restart runs
  /// among.
  [[nodiscard]] std::vector<topo::NodeId> live_participants(
      const Execution& exec) const;
  /// Ask lower-priority executions of `substrate` to surrender their grants
  /// at the next step boundary: a fabric's waiters (see waits_for) preempt
  /// only that fabric's executions.  Suspending across fabrics would free
  /// nothing the waiter can use.
  void request_preemptions(ExecutionSubstrate& substrate);
  /// Who waits for a fabric's capacity: the most urgent queued entry that
  /// waits_for it (aged priority, oldest among equals) and the most urgent
  /// of its suspended executions (effective priority, earliest suspended
  /// among equals); null at the lowest priority when there is none.
  struct WaitLine {
    const QueueEntry* queued = nullptr;
    std::int32_t queued_priority = std::numeric_limits<std::int32_t>::min();
    const Execution* suspended = nullptr;
    std::int32_t suspended_priority = std::numeric_limits<std::int32_t>::min();
  };
  [[nodiscard]] WaitLine wait_line(const ExecutionSubstrate& fabric) const;
  /// wait_line's suspended half alone (queued fields left empty): all the
  /// placement guard's priority floor needs.
  [[nodiscard]] WaitLine suspended_line(
      const ExecutionSubstrate& fabric) const;
  /// Suspended `exec`'s effective priority right now: its priority aged by
  /// the suspension wait (running executions keep their raw priority).
  [[nodiscard]] std::int32_t effective_priority(const Execution& exec) const;
  /// Refresh `substrate`'s advisory pending-demand snapshot (floor grants
  /// of the queued jobs waiting for it + its suspended executions, minus
  /// `excluding`) ahead of a placement or renegotiation.
  void publish_demand(ExecutionSubstrate& substrate,
                      const Execution* excluding);
  /// True when `entry`'s urgency counts against `substrate`'s capacity:
  /// it may drive preemptions there and block lower-priority placements
  /// and resumes.  Electrically pinned entries wait for the electrical
  /// fabric; every other entry waits for the optical ring (a kAny job has
  /// the optical line working for it, and host claims it could get by
  /// preemption are claims the optical path never needed).
  [[nodiscard]] bool waits_for(const QueueEntry& entry,
                               const ExecutionSubstrate& substrate) const;
  /// Smallest grant, in `substrate`'s units, that lets waiting work over
  /// `participants` run: one unit per participant where units are
  /// hosts (grants_hosts), the band floor `min_width` otherwise.
  [[nodiscard]] static std::uint32_t floor_grant(
      const ExecutionSubstrate& substrate, std::size_t participants,
      std::uint32_t min_width);
  /// Record + trace the cost-model verdict that just bound for `exec`.
  /// Only genuine router choices are audited: kCostModelChoice placements
  /// of un-pinned jobs (a pinned tenant decided for itself — its outcome
  /// must not color the router's accuracy figures).  `verdict` is reused
  /// when it priced exactly this work.
  void audit_route_decision(const Execution& exec, std::uint32_t grant,
                            std::uint32_t optical_request, SubstratePin pin,
                            const std::optional<RoutePrediction>& verdict);
  void try_shrink(const std::shared_ptr<Execution>& exec);
  /// The one resize adoption (grow, shrink, fault shrink): renegotiate
  /// `request` in place and, when accepted, adopt the rebuilt remainder and
  /// count the resize per job and in the report.
  bool resize(Execution& exec, const RenegotiationRequest& request);

  /// The one adopt site of every rebuilt or fresh plan: count a survivor
  /// restart (clearing fresh_restart) or the eviction of `dead`, fold the
  /// executed prefix of exec's current plan into exec->executed, install
  /// `next`, re-prove the composite with the oracle, close any open
  /// recovery window, and update the job records.
  void adopt_plan(Execution& exec, std::unique_ptr<SubstrateExecution> next,
                  const std::vector<topo::NodeId>& dead = {});
  void verify_composite_or_die(const Execution& exec);
  void trace_job(sim::TraceKind kind, JobId id, const WavelengthBand& band);
  [[nodiscard]] SubstrateBreakdown& breakdown(SubstrateKind kind);

  /// Cached metric handles; all nullptr when config_.metrics is null, so
  /// every emission site is a single null check (no lookups, no strings,
  /// no allocation on the hot path).
  struct Instruments {
    obs::Counter* jobs_submitted = nullptr;
    obs::Counter* jobs_completed = nullptr;
    obs::Counter* jobs_rejected = nullptr;
    obs::Counter* jobs_fused = nullptr;
    obs::Counter* preemptions = nullptr;
    obs::Counter* resumes = nullptr;
    obs::Counter* resizes = nullptr;
    obs::Counter* placement_probes = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* running_jobs = nullptr;
    obs::Gauge* suspended_jobs = nullptr;
    obs::Histogram* admission_wait = nullptr;
    obs::Histogram* batch_jobs = nullptr;
    obs::Histogram* turnaround = nullptr;
    obs::Histogram* slowdown = nullptr;
    obs::Histogram* routing_error = nullptr;
    obs::Counter* faults_injected = nullptr;
    obs::Counter* fault_repairs = nullptr;
    obs::Counter* fault_recoveries = nullptr;
    obs::Counter* jobs_killed = nullptr;
  };
  /// Register the runtime's metrics (and the substrates') with
  /// config_.metrics; no-op when null.
  void init_instruments();
  /// Refresh the sampled gauges (queue depth, running/suspended jobs) and
  /// give the registry's time-series sampler a chance to take a snapshot at
  /// the current sim time.  Called at the end of every event handler; no-op
  /// without a registry.
  void pump_metrics();
  /// Find-or-create the "runtime.max_wait_seconds.p<priority>" gauge — the
  /// per-priority-class starvation bound (max admission wait seen so far).
  [[nodiscard]] obs::Gauge* max_wait_gauge(std::int32_t priority);

  RuntimeConfig config_;
  topo::RingTopology ring_;
  sim::Simulator simulator_;
  /// Every fabric served, the primary (the optical ring) first.  Found by
  /// position or by kind(), never by name.
  std::vector<std::unique_ptr<ExecutionSubstrate>> fabrics_;
  /// The same fabrics in the placement policy's preference order.
  std::vector<ExecutionSubstrate*> placement_order_;
  /// One wake event per fabric, parallel to fabrics_ (empty until the
  /// first arm_wake): the sim-clock event that next advances a fabric
  /// without closed-form step ends.
  struct FabricWake {
    std::uint64_t event = 0;
    util::Seconds at{0.0};
    bool armed = false;
    /// Inside on_wake for this fabric: arm_wake waits for its end.
    bool running = false;
  };
  std::vector<FabricWake> wakes_;
  /// The host fabric's blocked-prefix mark (the runtime serves at most one
  /// host-granting fabric, the electrical fallback): every eligible queued
  /// entry with seq below `seq` failed a probe, or had a busy blocker memo
  /// host, while that fabric's free_epoch() read `epoch`.  Hosts only turn
  /// busy within an epoch, so those entries still cannot be placed and the
  /// scan starts at `seq`.  A new epoch resets the mark to 0; arrivals land
  /// above it.
  struct HostScanMark {
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
  };
  HostScanMark host_mark_;
  /// kPriorityPreempt's host-scan candidates as (aged priority, queue
  /// index): scratch reused across place_one calls.
  std::vector<std::pair<std::int32_t, std::size_t>> host_ranked_;
  JobQueue queue_;
  std::vector<JobRecord> records_;
  std::vector<JobId> completion_order_;
  sim::Trace trace_;
  RuntimeReport report_;
  std::vector<std::shared_ptr<Execution>> running_execs_;
  /// Preempted executions awaiting spectrum, in suspension order.
  std::vector<std::shared_ptr<Execution>> suspended_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t running_jobs_ = 0;
  /// Completion time of the last job so far — the report's makespan.  The
  /// drained clock can sit later (a fault or its repair may land after the
  /// last completion).
  util::Seconds last_completion_{0.0};
  /// Running sum of per-decision routing errors; becomes the report's mean
  /// at run end.
  double routing_error_sum_ = 0.0;
  /// Live only inside serve(): the stream the arrival chain pulls from.
  JobSource* source_ = nullptr;
  /// Live while the fault chain still pulls (null = exhausted or never
  /// configured); the floor enforces the stream's nondecreasing contract.
  FaultSource* fault_source_ = nullptr;
  util::Seconds last_fault_at_{0.0};
  /// Any fault ever injected — gates the fault-path scans so a fault-free
  /// run pays nothing on the hot path.
  bool any_fault_ever_ = false;
  bool started_ = false;
  Instruments ins_;
  /// Per-priority-class max-admission-wait gauges, keyed by JobSpec
  /// priority (created on first placement of that class).
  std::map<std::int32_t, obs::Gauge*> max_wait_by_priority_;
};

}  // namespace wrht::runtime
