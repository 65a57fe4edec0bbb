#include "runtime/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "coll/oracle.hpp"
#include "util/check.hpp"
#include "util/string_utils.hpp"
#include "wrht/builder.hpp"

namespace wrht::runtime {

namespace {

/// Most wavelengths a job over `num_participants` nodes can exploit: the
/// single-group tree step uses floor(P/2), and the all-to-all merge tops out
/// at the Liang & Shen budget ceil(P^2/8).  Granting more than this only
/// starves other tenants.
std::uint32_t useful_wavelength_cap(std::size_t num_participants) {
  const auto p = static_cast<std::uint32_t>(num_participants);
  return std::max(1u, core::all_to_all_wavelength_bound(p));
}

/// `participants` minus `evicted`, kept where `keep` says so: the one filter
/// behind an execution's oracle recipients, survivors and newly dead.
template <typename Keep>
std::vector<topo::NodeId> unevicted(
    const std::vector<topo::NodeId>& participants,
    const std::vector<topo::NodeId>& evicted, Keep keep) {
  std::vector<topo::NodeId> out;
  out.reserve(participants.size());
  for (const topo::NodeId node : participants) {
    if (keep(node) &&
        std::find(evicted.begin(), evicted.end(), node) == evicted.end()) {
      out.push_back(node);
    }
  }
  return out;
}

}  // namespace

const char* hybrid_placement_policy_name(HybridPlacementPolicy policy) {
  switch (policy) {
    case HybridPlacementPolicy::kOpticalOnly:
      return "optical-only";
    case HybridPlacementPolicy::kElectricalOverflow:
      return "electrical-overflow";
    case HybridPlacementPolicy::kCostModelChoice:
      return "cost-model-choice";
  }
  return "?";
}

std::string RuntimeReport::to_string() const {
  std::string out;
  out += "jobs            : " + std::to_string(submitted) + " submitted, " +
         std::to_string(completed) + " completed, " + std::to_string(rejected) +
         " rejected\n";
  out += "executions      : " + std::to_string(executions) + " (" +
         std::to_string(batches) + " fused batches)\n";
  out += "steps / retunes : " + std::to_string(total_steps) + " / " +
         std::to_string(total_retunes) + "\n";
  out += "renegotiations  : " + std::to_string(preemptions) + " preempted, " +
         std::to_string(resumes) + " resumed, " + std::to_string(resizes) +
         " resized\n";
  out += "replay audit    : " + std::to_string(replay_checked_steps) +
         " shared-fabric steps certified\n";
  out += "spectrum        : " + std::to_string(spectrum_reservations) +
         " reservations, 0 wavelength-conflict aborts\n";
  out += "peak concurrency: " + std::to_string(peak_concurrent_jobs) +
         " jobs\n";
  out += "optical         : " + std::to_string(optical.jobs) + " jobs, " +
         std::to_string(optical.executions) + " executions, " +
         std::to_string(optical.steps) + " steps, makespan " +
         util::to_string(optical.makespan) + "\n";
  out += "electrical      : " + std::to_string(electrical.jobs) + " jobs, " +
         std::to_string(electrical.executions) + " executions, " +
         std::to_string(electrical.steps) + " steps, makespan " +
         util::to_string(electrical.makespan);
  if (electrical.quiet_time.value() > 0.0) {
    out += ", contention slowdown " +
           util::format_double(electrical.contention_slowdown(), 3) + "x";
  }
  out += "\n";
  if (routing.decisions > 0) {
    out += "routing         : " + std::to_string(routing.decisions) +
           " cost-model decisions (" + std::to_string(routing.to_optical) +
           " optical / " + std::to_string(routing.to_electrical) +
           " electrical), mean |err| " +
           util::format_double(routing.mean_error * 100.0, 1) + "%, worst " +
           util::format_double(routing.worst_error * 100.0, 1) + "%\n";
  }
  if (faults.injected > 0) {
    out += "faults          : " + std::to_string(faults.injected) +
           " injected (" + std::to_string(faults.transceiver_faults) +
           " transceiver, " + std::to_string(faults.node_faults) + " node, " +
           std::to_string(faults.tor_faults) + " tor, " +
           std::to_string(faults.wavelength_faults) + " wavelength), " +
           std::to_string(faults.repairs) + " repaired\n";
    out += "fault recovery  : " + std::to_string(faults.evictions) +
           " evictions, " + std::to_string(faults.restarts) + " restarts, " +
           std::to_string(faults.migrations) + " migrations, " +
           std::to_string(faults.fault_preemptions) +
           " fault-preemptions, " + std::to_string(faults.killed_jobs) +
           " jobs killed\n";
    out += "mttr / goodput  : " + util::to_string(faults.mttr()) + " / " +
           util::format_double(goodput() * 100.0, 1) + "%\n";
  }
  out += "makespan        : " + util::to_string(makespan) + "\n";
  out += "mean turnaround : " + util::to_string(mean_turnaround()) + "\n";
  return out;
}

CollectiveRuntime::CollectiveRuntime(RuntimeConfig config)
    : config_(config), ring_(config.ring_size) {
  fabrics_.push_back(make_optical_substrate(ring_, config_.optical,
                                            config_.fit_policy, simulator_));
  if (config_.placement != HybridPlacementPolicy::kOpticalOnly) {
    fabrics_.push_back(
        make_electrical_substrate(config_.ring_size, config_.electrical));
  }
  for (const auto& fabric : fabrics_) placement_order_.push_back(fabric.get());
  if (config_.placement == HybridPlacementPolicy::kCostModelChoice) {
    std::reverse(placement_order_.begin(), placement_order_.end());
  }
  init_instruments();
}

void CollectiveRuntime::init_instruments() {
  obs::MetricsRegistry* reg = config_.metrics;
  if (!reg) return;
  ins_.jobs_submitted = reg->counter("runtime.jobs_submitted");
  ins_.jobs_completed = reg->counter("runtime.jobs_completed");
  ins_.jobs_rejected = reg->counter("runtime.jobs_rejected");
  ins_.jobs_fused = reg->counter("runtime.jobs_fused");
  ins_.preemptions = reg->counter("runtime.preemptions");
  ins_.resumes = reg->counter("runtime.resumes");
  ins_.resizes = reg->counter("runtime.resizes");
  ins_.placement_probes = reg->counter("runtime.placement_probes");
  ins_.queue_depth = reg->sampled_gauge("runtime.queue_depth");
  ins_.running_jobs = reg->sampled_gauge("runtime.running_jobs");
  ins_.suspended_jobs = reg->sampled_gauge("runtime.suspended_jobs");
  ins_.admission_wait = reg->histogram("runtime.admission_wait_seconds");
  ins_.batch_jobs = reg->histogram("runtime.batch_jobs", 1.0, 2.0, 8);
  ins_.turnaround = reg->histogram("runtime.turnaround_seconds");
  ins_.slowdown = reg->histogram("runtime.slowdown", 1.0, 1.25, 32);
  ins_.routing_error = reg->histogram("runtime.routing_error");
  ins_.faults_injected = reg->counter("runtime.faults_injected");
  ins_.fault_repairs = reg->counter("runtime.fault_repairs");
  ins_.fault_recoveries = reg->counter("runtime.fault_recoveries");
  ins_.jobs_killed = reg->counter("runtime.jobs_killed");
  for (const auto& fabric : fabrics_) fabric->attach_metrics(*reg);
}

void CollectiveRuntime::pump_metrics() {
  if (!config_.metrics) return;
  obs::set(ins_.queue_depth, static_cast<double>(queue_.size()));
  obs::set(ins_.running_jobs, static_cast<double>(running_jobs_));
  obs::set(ins_.suspended_jobs, static_cast<double>(suspended_.size()));
  config_.metrics->sampler().maybe_sample(simulator_.now());
}

obs::Gauge* CollectiveRuntime::max_wait_gauge(std::int32_t priority) {
  if (!config_.metrics) return nullptr;
  const auto found = max_wait_by_priority_.find(priority);
  if (found != max_wait_by_priority_.end()) return found->second;
  obs::Gauge* gauge = config_.metrics->gauge(
      "runtime.max_wait_seconds.p" + std::to_string(priority));
  max_wait_by_priority_.emplace(priority, gauge);
  return gauge;
}

SubstrateBreakdown& CollectiveRuntime::breakdown(SubstrateKind kind) {
  return kind == SubstrateKind::kOptical ? report_.optical
                                         : report_.electrical;
}

JobId CollectiveRuntime::submit(JobSpec spec) {
  WRHT_REQUIRE(!started_, "CollectiveRuntime: submit after run()");
  return ingest(std::move(spec));
}

JobId CollectiveRuntime::ingest(JobSpec spec) {
  const auto id = static_cast<JobId>(records_.size());
  JobRecord record;
  record.id = id;
  record.spec = std::move(spec);

  const JobSpec& s = record.spec;
  const bool participants_ok =
      s.participants.size() >= 2 &&
      std::is_sorted(s.participants.begin(), s.participants.end()) &&
      std::adjacent_find(s.participants.begin(), s.participants.end()) ==
          s.participants.end() &&
      s.participants.back() < config_.ring_size;
  const std::uint32_t total = config_.optical.wdm.num_wavelengths;

  // An inconsistent spec is rejected with a reason, never silently rewritten:
  // a request below the job's own minimum, or a minimum above what the job
  // could ever use, is a tenant bug the runtime must surface, not paper over
  // by quietly inflating the grant.
  std::string reject;
  if (!participants_ok) {
    reject = "participants must be >= 2 ascending unique on-ring positions";
  } else if (s.min_wavelengths == 0) {
    reject = "min_wavelengths must be >= 1";
  } else if (s.min_wavelengths > total) {
    reject = "min_wavelengths exceeds the spectrum";
  } else if (s.arrival < util::Seconds(0.0)) {
    reject = "arrival time is negative";
  } else if (s.requested_wavelengths != 0 &&
             s.requested_wavelengths < s.min_wavelengths) {
    reject = "requested_wavelengths below min_wavelengths";
  } else if (useful_wavelength_cap(s.participants.size()) <
             s.min_wavelengths) {
    reject = "min_wavelengths exceeds the job's useful wavelength cap";
  } else if (s.pin == SubstratePin::kElectricalOnly &&
             config_.placement == HybridPlacementPolicy::kOpticalOnly) {
    reject = "pinned to the electrical fabric, but placement is optical-only";
  }

  if (!reject.empty()) {
    record.state = JobState::kRejected;
    record.reject_reason = std::move(reject);
    ++report_.rejected;
    obs::inc(ins_.jobs_rejected);
  } else {
    std::uint32_t request = s.requested_wavelengths != 0
                                ? s.requested_wavelengths
                                : config_.default_request;
    request = std::min(request, useful_wavelength_cap(s.participants.size()));
    // With the consistency checks above, the lower clamp binds only when the
    // RUNTIME default (requested_wavelengths == 0) sits below the tenant's
    // stated minimum — raising our own default is not rewriting their
    // request.
    record.effective_request =
        std::clamp(request, s.min_wavelengths, total);
  }
  ++report_.submitted;
  obs::inc(ins_.jobs_submitted);
  records_.push_back(std::move(record));
  return id;
}

const JobRecord& CollectiveRuntime::record(JobId id) const {
  WRHT_REQUIRE(id < records_.size(), "CollectiveRuntime: unknown job " << id);
  return records_[id];
}

void CollectiveRuntime::trace_job(sim::TraceKind kind, JobId id,
                                  const WavelengthBand& band) {
  // Band identity is its BASE for every job event (a band is named by where
  // it sits in the spectrum) and its width rides in `c`, so preempt /
  // resume / resize sequences in one trace are interpretable side by side.
  // Electrically-placed jobs hold no band and record the invalid {0, 0}.
  trace_.record(simulator_.now(), kind, id,
                static_cast<std::int64_t>(band.base),
                static_cast<std::int64_t>(band.width));
}

void CollectiveRuntime::on_arrival(JobId id) {
  JobRecord& record = records_[id];
  record.state = JobState::kQueued;
  queue_.push(QueueEntry{id, next_seq_++, record.spec.min_wavelengths,
                         record.effective_request, record.spec.payload,
                         record.spec.participants, record.spec.priority,
                         record.spec.arrival, record.spec.pin});
  try_admit();
  pump_metrics();
}

CollectiveRuntime::WaitLine CollectiveRuntime::wait_line(
    const ExecutionSubstrate& fabric) const {
  // The queue is in seq order and suspended_ in suspension order, so a
  // strict > keeps the oldest of equals on both sides.
  WaitLine line = suspended_line(fabric);
  const util::Seconds now = simulator_.now();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const QueueEntry& entry = queue_.at(i);
    if (!waits_for(entry, fabric)) continue;
    const std::int32_t aged = aged_priority(entry.priority, entry.arrival,
                                            now, config_.aging_half_life);
    if (line.queued == nullptr || aged > line.queued_priority) {
      line.queued = &entry;
      line.queued_priority = aged;
    }
  }
  return line;
}

CollectiveRuntime::WaitLine CollectiveRuntime::suspended_line(
    const ExecutionSubstrate& fabric) const {
  WaitLine line;
  for (const auto& exec : suspended_) {
    if (exec->substrate != &fabric) continue;
    const std::int32_t effective = effective_priority(*exec);
    if (line.suspended == nullptr || effective > line.suspended_priority) {
      line.suspended = exec.get();
      line.suspended_priority = effective;
    }
  }
  return line;
}

std::int32_t CollectiveRuntime::effective_priority(
    const Execution& exec) const {
  return aged_priority(exec.priority, exec.suspended_since, simulator_.now(),
                       config_.aging_half_life);
}

void CollectiveRuntime::publish_demand(ExecutionSubstrate& substrate,
                                       const Execution* excluding) {
  // Advisory planner input only — recomputed immediately before each
  // placement and renegotiation, so the snapshot is exact at decision time.
  //
  // The scan is bounded to a head-of-queue window: the head is what
  // admission considers next, and the planner's blocked/sliver terms only
  // discriminate on the near-term demand — an unbounded walk would make
  // every placement O(queue depth) and melt the streaming hot path (a
  // 100k-job serve keeps tens of thousands of jobs queued at once).
  constexpr std::size_t kDemandWindow = 32;
  std::vector<std::uint32_t> widths;
  widths.reserve(kDemandWindow + suspended_.size());
  const std::size_t scan = std::min(queue_.size(), kDemandWindow);
  for (std::size_t i = 0; i < scan; ++i) {
    const QueueEntry& entry = queue_.at(i);
    if (waits_for(entry, substrate)) {
      widths.push_back(floor_grant(substrate, entry.participants.size(),
                                   entry.min_wavelengths));
    }
  }
  for (const auto& exec : suspended_) {
    if (exec.get() == excluding || exec->substrate != &substrate) continue;
    widths.push_back(
        floor_grant(substrate, exec->participants.size(), exec->min_width));
  }
  substrate.note_pending_demand(widths);
}

bool CollectiveRuntime::waits_for(const QueueEntry& entry,
                                  const ExecutionSubstrate& substrate) const {
  return entry.pin == SubstratePin::kElectricalOnly
             ? substrate.kind() == SubstrateKind::kElectrical
             : &substrate == fabrics_.front().get();
}

std::uint32_t CollectiveRuntime::floor_grant(
    const ExecutionSubstrate& substrate, std::size_t participants,
    std::uint32_t min_width) {
  return substrate.grants_hosts() ? static_cast<std::uint32_t>(participants)
                                  : min_width;
}

void CollectiveRuntime::try_admit() {
  // Each fabric, in the placement policy's preference order, places until
  // it declines.  kCostModelChoice asks the electrical fabric first, so a
  // job the router sends there is not grabbed by the optical admission
  // just because spectrum is free; a job whose hosts are busy may still
  // run on free spectrum (routing is work-conserving, not sticky).  A
  // decline on the primary fabric is followed by one resume, and placement
  // repeats when it succeeds.
  for (ExecutionSubstrate* fabric : placement_order_) {
    while (place_one(*fabric) ||
           (fabric == fabrics_.front().get() && try_resume_one())) {
    }
  }
  // A placement on a later fabric may have drained a guard's reason to
  // wait (the urgent pinned arrival that held hosts is running now), so
  // suspended work resumes on what is left at this very instant.
  while (try_resume_one()) {
  }
  if (config_.policy == FairnessPolicy::kPriorityPreempt) {
    for (const auto& fabric : fabrics_) request_preemptions(*fabric);
  }
}

CollectiveRuntime::RoutePrediction CollectiveRuntime::predict_route(
    const std::vector<topo::NodeId>& participants, util::Bytes payload,
    std::uint32_t optical_grant) const {
  // Both sides answer for their CURRENT state — the electrical estimate
  // stretches with the live residual uplink bandwidth, the optical one with
  // the predicted wait for a free band — so a saturated fabric stops
  // attracting spill and a backed-up ring stops holding jobs.
  const util::Seconds now = simulator_.now();
  RoutePrediction out;
  for (const auto& fabric : fabrics_) {
    const std::uint32_t grant = fabric->grants_hosts() ? 1 : optical_grant;
    (fabric->kind() == SubstrateKind::kOptical ? out.optical
                                               : out.electrical) =
        fabric->predict_completion(participants, payload, grant, now);
  }
  return out;
}

bool CollectiveRuntime::place_one(ExecutionSubstrate& fabric) {
  // The priority guard: capacity this fabric's most urgent suspended
  // execution waits for must not leak to a less urgent candidate, or a
  // steady trickle of small low-priority jobs starves a preempted victim
  // forever (admission-side priority inversion).  Another fabric's
  // suspended work waits for other capacity and holds nothing up here.
  // Without a floor (FIFO) no aged priority is computed at all.
  constexpr std::int32_t kNoFloor = std::numeric_limits<std::int32_t>::min();
  const bool by_priority = config_.policy == FairnessPolicy::kPriorityPreempt;
  const std::int32_t floor =
      by_priority ? suspended_line(fabric).suspended_priority : kNoFloor;
  const util::Seconds now = simulator_.now();
  const auto aged = [this, now](const QueueEntry& entry) {
    return aged_priority(entry.priority, entry.arrival, now,
                         config_.aging_half_life);
  };
  const auto below_floor = [&](const QueueEntry& entry) {
    return floor != kNoFloor && floor > aged(entry);
  };

  if (!fabric.grants_hosts()) {
    // A band fabric: the fairness policy picks the candidate and its grant.
    const std::optional<AdmissionDecision> decision =
        next_admission(queue_, config_.policy, fabric.largest_free_grant(),
                       now, config_.aging_half_life);
    if (!decision || below_floor(queue_.at(decision->queue_index))) {
      return false;
    }
    place_execution(fabric, decision->queue_index, decision->grant,
                    std::nullopt);
    return true;
  }

  // A fabric of positioned hosts: the first candidate whose hosts are free,
  // in the fairness policy's preference — arrival order, which is the
  // queue's own (seq) order, re-ranked by aged priority under
  // kPriorityPreempt (a stable sort keeps arrival among equals).  Entries
  // below the mark and entries whose blocker memo host is still busy
  // certainly fail the probe, so dropping them changes no pick.
  enum class Try : std::uint8_t { kPlaced, kBlocked, kDeclined };
  const auto try_place = [&](std::size_t index) {
    const QueueEntry& job = queue_.at(index);
    if (below_floor(job)) return Try::kDeclined;
    if (!probe_placement(fabric, job)) return Try::kBlocked;
    std::optional<RoutePrediction> verdict;
    if (config_.placement == HybridPlacementPolicy::kCostModelChoice &&
        job.pin == SubstratePin::kAny) {
      // A pinned job skips the comparison: the tenant already decided.
      verdict = predict_route(job.participants, job.payload,
                              job.requested_wavelengths);
      if (verdict->electrical >= verdict->optical) return Try::kDeclined;
    }
    place_execution(fabric, index, /*grant=*/1, verdict);
    return Try::kPlaced;
  };
  if (host_mark_.epoch != fabric.free_epoch()) {
    host_mark_ = {fabric.free_epoch(), 0};
  }
  // The mark advances over the walk's leading run of proven-blocked (or
  // ineligible) entries; a floor or route decline, which may not hold
  // later in the epoch, and any entry left untried end the run.
  bool blocked_run = true;
  host_ranked_.clear();
  for (std::size_t i = queue_.lower_bound(host_mark_.seq);
       i < queue_.size(); ++i) {
    const QueueEntry& job = queue_.at(i);
    bool blocked = job.pin == SubstratePin::kOpticalOnly ||
                   fabric.host_busy(job.participants[job.blocker]);
    if (!blocked && by_priority) {
      host_ranked_.emplace_back(aged(job), i);
    } else if (!blocked) {
      const Try outcome = try_place(i);
      if (outcome == Try::kPlaced) return true;
      blocked = outcome == Try::kBlocked;
    }
    blocked_run = blocked_run && blocked;
    if (blocked_run) host_mark_.seq = job.seq + 1;
  }
  std::stable_sort(host_ranked_.begin(), host_ranked_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (const auto& [priority, index] : host_ranked_) {
    if (try_place(index) == Try::kPlaced) return true;
  }
  return false;
}

void CollectiveRuntime::request_preemptions(ExecutionSubstrate& substrate) {
  // Positioned units (hosts) are fungible at resume, so a suspended waiter
  // can use free units anywhere; positionless bands need a contiguous run.
  const bool host_units = substrate.grants_hosts();
  // The most urgent waiter: the top aged queued entry this fabric may serve
  // (for the optical ring, the same pick as the priority policy's, so
  // preemptions always benefit the job admission will actually take) or a
  // suspended execution of this fabric, whichever outranks the other (the
  // queued entry on a tie).
  const WaitLine line = wait_line(substrate);
  const QueueEntry* queued = line.queued;
  std::int32_t target = line.queued_priority;
  std::uint32_t need =
      queued != nullptr ? floor_grant(substrate, queued->participants.size(),
                                      queued->min_wavelengths)
                        : 0;
  if (line.suspended != nullptr && line.suspended_priority > target) {
    target = line.suspended_priority;
    queued = nullptr;
    need = floor_grant(substrate, line.suspended->participants.size(),
                       line.suspended->min_width);
  }
  if (need == 0) return;

  // Victims surrender at their next step boundary, which is what makes the
  // handoff safe: renegotiate() re-checks there, and an under-shoot here is
  // retried on the next try_admit.
  if (queued != nullptr && host_units) {
    // A queued waiter claims ITS OWN hosts at first placement.
    if (probe_placement(substrate, *queued)) {
      return;  // placeable right now; the placement path will take it
    }
    // Host sets are snapshotted once — hosts() copies, and the scan below
    // would otherwise re-copy per (waiter host x execution) pair.
    struct Holder {
      std::shared_ptr<Execution> exec;
      std::vector<topo::NodeId> hosts;
    };
    std::vector<Holder> holders;
    for (const auto& exec : running_execs_) {
      if (exec->substrate == &substrate) {
        holders.push_back(Holder{exec, exec->plan->hosts()});
      }
    }
    // Only the holders of the waiter's own hosts are victims, and every
    // one must be strictly lower-priority, or preemption cannot help at
    // all.  A holder already surrendering needs no new request: it is
    // waiting on its step boundary.  Hosts are exclusive, so each has at
    // most one holder; a busy waiter host that none holds is down and stays
    // unusable until its repair whoever is suspended, so nobody is marked.
    std::vector<std::shared_ptr<Execution>> blockers;
    for (const topo::NodeId host : queued->participants) {
      const auto holder = std::find_if(
          holders.begin(), holders.end(), [host](const Holder& h) {
            return std::find(h.hosts.begin(), h.hosts.end(), host) !=
                   h.hosts.end();
          });
      if (holder == holders.end()) {
        if (substrate.host_busy(host)) return;  // down: hopeless
        continue;
      }
      if (holder->exec->priority >= target) return;  // outranked: hopeless
      if (!holder->exec->preempt_requested &&
          std::find(blockers.begin(), blockers.end(), holder->exec) ==
              blockers.end()) {
        blockers.push_back(holder->exec);
      }
    }
    for (const auto& victim : blockers) victim->preempt_requested = true;
    return;
  }

  // Capacity usable today plus grants already being surrendered.  Free
  // hosts count wherever they are; a band needs a CONTIGUOUS run, so there
  // the baseline is the largest free block, not the free total — a
  // fragmented pool that sums to the minimum admits nothing.  Adding victim
  // bands is still approximate (they may not abut the free runs); both
  // error directions self-correct: under-preemption retries on the next
  // try_admit, and a victim whose suspension became unnecessary is
  // reprieved by the boundary re-check in renegotiate().
  std::uint32_t pending = host_units ? substrate.free_grant_total()
                                     : substrate.largest_free_grant();
  std::vector<std::shared_ptr<Execution>> victims;
  for (const auto& exec : running_execs_) {
    if (exec->substrate != &substrate) continue;
    if (exec->preempt_requested) {
      pending += exec->plan->grant();
    } else if (exec->priority < target) {
      victims.push_back(exec);
    }
  }
  if (pending >= need) return;
  // Cheapest first: lowest priority, then widest grant so one victim
  // usually suffices, then oldest lead job for determinism.
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) {
              if (a->priority != b->priority) return a->priority < b->priority;
              if (a->plan->grant() != b->plan->grant()) {
                return a->plan->grant() > b->plan->grant();
              }
              return a->jobs.front() < b->jobs.front();
            });
  for (const auto& victim : victims) {
    if (pending >= need) break;
    victim->preempt_requested = true;
    pending += victim->plan->grant();
  }
}

void CollectiveRuntime::verify_composite_or_die(const Execution& exec) {
  if (!config_.validate_with_oracle) {
    // Nothing to prove: records keep the benefit of the doubt, matching the
    // pre-renegotiation behavior of a disabled oracle.
    for (const JobId id : exec.jobs) records_[id].oracle_ok = true;
    return;
  }
  // Prove the steps ALREADY RUN plus the (possibly rebuilt) steps still
  // ahead compute the all-reduce — a renegotiated schedule must clear the
  // same bar as a fresh one, and an electrically-placed schedule the same
  // bar as an optical one, before touching its fabric.  Chunk granularity
  // follows the plan (Wrht schedules carry the full vector in one chunk,
  // electrical ring schedules are chunked); renegotiation never changes it,
  // so the executed prefix always shares the plan's granularity.
  coll::Schedule composite("composite", config_.ring_size,
                           exec.plan->schedule().num_chunks());
  for (const auto* steps : {&exec.executed, &exec.plan->schedule().steps()}) {
    for (const coll::Step& step : *steps) {
      composite.add_step();
      for (const coll::Transfer& t : step.transfers) {
        composite.add_transfer(t);
      }
    }
  }
  // Faults change the delivery contract, not the sum: once nodes were
  // evicted mid-flight, every ORIGINAL participant contributed but only
  // the survivors must end holding the total (the evicted nodes' hardware
  // is gone — their final state is unspecified).  An electrical ring
  // schedule over a large group can carry more chunks than
  // oracle_payload_len elements; every chunk needs at least one.
  const coll::OracleResult verdict = coll::Oracle::verify_allreduce_among(
      composite, exec.participants,
      unevicted(exec.participants, exec.evicted,
                [](topo::NodeId) { return true; }),
      std::max<std::size_t>(config_.oracle_payload_len,
                            composite.num_chunks()));
  if (!verdict.ok) ++report_.oracle_failures;
  // A schedule that fails the oracle must never touch its fabric; like a
  // wavelength conflict, this is a library bug, not a tenant error.
  WRHT_CHECK(verdict.ok,
             "CollectiveRuntime: schedule failed the all-reduce oracle (job "
                 << exec.jobs.front() << "): " << verdict.message);
  for (const JobId id : exec.jobs) records_[id].oracle_ok = true;
}

void CollectiveRuntime::adopt_plan(Execution& exec,
                                   std::unique_ptr<SubstrateExecution> next,
                                   const std::vector<topo::NodeId>& dead) {
  if (exec.fresh_restart) {
    exec.fresh_restart = false;
    ++report_.faults.restarts;
  } else if (!dead.empty()) {
    exec.evicted.insert(exec.evicted.end(), dead.begin(), dead.end());
    ++report_.faults.evictions;
  }
  const std::vector<coll::Step>& old_steps = exec.plan->schedule().steps();
  for (std::size_t s = 0; s < exec.next_step; ++s) {
    exec.executed.push_back(old_steps[s]);
  }
  exec.plan = std::move(next);
  exec.next_step = 0;
  WRHT_CHECK(exec.substrate->grants_hosts() ||
                 exec.plan->grant() >= exec.min_width,
             "CollectiveRuntime: job " << exec.jobs.front() << " adopted a "
                 << exec.plan->grant() << "-wide band below its floor "
                 << exec.min_width);
  verify_composite_or_die(exec);
  note_recovery(exec);
  const std::size_t ahead = exec.plan->num_steps();
  for (const JobId id : exec.jobs) {
    JobRecord& record = records_[id];
    record.band = exec.plan->band();
    record.steps =
        static_cast<std::uint32_t>(exec.executed.size() + ahead);
  }
}

void CollectiveRuntime::place_execution(
    ExecutionSubstrate& substrate, std::size_t queue_index,
    std::uint32_t grant, const std::optional<RoutePrediction>& verdict) {
  // Read before the entry is popped: the width the routing audit prices
  // the optical alternative at when the execution lands electrically, and
  // the pin that tells it whether the router chose at all.
  const std::uint32_t lead_request =
      queue_.at(queue_index).requested_wavelengths;
  const SubstratePin lead_pin = queue_.at(queue_index).pin;
  // A fused peer executes inside the lead's grant; only substrates whose
  // grants are wavelength-denominated impose the peer's min_wavelengths
  // floor on it (electrical peers ride host links, not a band).
  const std::uint32_t fuse_width =
      substrate.grants_hosts() ? std::numeric_limits<std::uint32_t>::max()
                               : grant;
  const std::vector<std::size_t> members =
      fusable_peers(queue_, queue_index, fuse_width, config_.batcher);

  auto exec = std::make_shared<Execution>();
  exec->substrate = &substrate;
  // Pop members back-to-front so earlier indices stay valid.
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    QueueEntry entry = queue_.take(*it);
    if (exec->participants.empty()) {
      exec->participants = std::move(entry.participants);
    }
    exec->batch_payload += entry.payload;
    exec->priority = std::max(exec->priority, entry.priority);
    exec->min_width = std::max(exec->min_width, entry.min_wavelengths);
    exec->jobs.push_back(entry.id);
  }
  std::reverse(exec->jobs.begin(), exec->jobs.end());  // oldest first

  // The members just left the queue, so the snapshot is exactly the
  // demand this placement must not strand.
  publish_demand(substrate, nullptr);
  exec->plan =
      substrate.place(exec->participants, exec->batch_payload, grant);
  verify_composite_or_die(*exec);

  const SubstrateKind kind = substrate.kind();
  const WavelengthBand band = exec->plan->band();
  const std::size_t num_steps = exec->plan->num_steps();
  const util::Seconds now = simulator_.now();
  for (const JobId id : exec->jobs) {
    JobRecord& record = records_[id];
    record.state = JobState::kRunning;
    record.admitted = now;
    record.substrate = kind;
    record.band = band;
    record.batch_size = static_cast<std::uint32_t>(exec->jobs.size());
    record.steps = static_cast<std::uint32_t>(num_steps);
    trace_job(sim::TraceKind::kJobAdmit, id, band);
    trace_job(kind == SubstrateKind::kOptical
                  ? sim::TraceKind::kJobPlaceOptical
                  : sim::TraceKind::kJobPlaceElectrical,
              id, band);
    if (id != exec->jobs.front()) {
      trace_.record(now, sim::TraceKind::kJobFused, id,
                    static_cast<std::int64_t>(exec->jobs.front()));
    }
    // Admission wait of this job (fused peers waited too), folded into the
    // per-priority-class starvation high-watermark.
    const double wait = (now - record.spec.arrival).value();
    obs::observe(ins_.admission_wait, wait);
    obs::set_max(max_wait_gauge(record.spec.priority), wait);
  }
  obs::observe(ins_.batch_jobs, static_cast<double>(exec->jobs.size()));
  if (exec->jobs.size() > 1) {
    obs::inc(ins_.jobs_fused,
             static_cast<std::uint64_t>(exec->jobs.size() - 1));
    ++report_.batches;
  }
  ++report_.executions;
  SubstrateBreakdown& slice = breakdown(kind);
  slice.jobs += static_cast<std::uint32_t>(exec->jobs.size());
  ++slice.executions;

  // Admission does not filter on node liveness (a down TRANSCEIVER's job
  // may still have been queued before the fault): a fresh placement over
  // participants its fabric has lost runs its first step and reconciles at
  // the first boundary, exactly like a running execution the fault caught.
  if (any_fault_ever_ && !newly_dead(*exec).empty()) {
    exec->fault_pending = true;
  }

  audit_route_decision(*exec, grant, lead_request, lead_pin, verdict);
  start_running(exec);
}

void CollectiveRuntime::audit_route_decision(
    const Execution& exec, std::uint32_t grant, std::uint32_t optical_request,
    SubstratePin pin, const std::optional<RoutePrediction>& verdict) {
  // The routing verdict binds HERE, at placement — until now the
  // comparison was re-asked on every event and carried no commitment.
  // Record both fabrics' predictions (the decision's inputs, frozen for
  // post-hoc audit) and stamp each carried job with the chosen one; the
  // run-end report scores them against actual completions.  One decision
  // per EXECUTION (the router ran once; fused peers ride the verdict),
  // and none at all for pinned jobs — a forced placement says nothing
  // about the router's accuracy.
  if (config_.placement != HybridPlacementPolicy::kCostModelChoice ||
      pin != SubstratePin::kAny) {
    return;
  }
  const util::Seconds now = simulator_.now();
  const bool placed_electrical =
      exec.substrate->kind() == SubstrateKind::kElectrical;
  // The router's own verdict priced exactly this work unless fusion
  // happened (the fabric state is untouched: the execution's own flows are
  // injected by run_step, after this audit), so re-running the congestion
  // probe would buy the same numbers for another FlowNetwork clone.  A
  // FUSED execution runs batch_payload, not the lead's payload the verdict
  // priced; it gets a fresh estimate, so electrical and optical decisions
  // are scored against the same (batched) work.
  const RoutePrediction prediction =
      verdict && exec.jobs.size() == 1
          ? *verdict
          : predict_route(exec.participants, exec.batch_payload,
                          placed_electrical ? optical_request : grant);
  const util::Seconds chosen =
      placed_electrical ? prediction.electrical : prediction.optical;
  ++report_.routing.decisions;
  ++(placed_electrical ? report_.routing.to_electrical
                       : report_.routing.to_optical);
  for (const JobId id : exec.jobs) {
    JobRecord& record = records_[id];
    record.predicted_completion = chosen;
    record.predicted_optical = prediction.optical;
    record.predicted_electrical = prediction.electrical;
    trace_.record(now, sim::TraceKind::kRouteDecision, id,
                  static_cast<std::int64_t>(exec.substrate->kind()));
  }
}

bool CollectiveRuntime::renegotiate(const std::shared_ptr<Execution>& exec) {
  // Faults outrank every voluntary renegotiation: dead hardware cannot
  // carry the next step, so reconcile against the fabric's fault state
  // before the preempt/resize logic gets a say.
  if (exec->fault_pending || exec->migrate_pending) {
    if (reconcile_fault(exec)) return true;
  }
  const bool preempt = exec->preempt_requested;
  const bool resizable =
      config_.elastic_resize && !exec->substrate->grants_hosts();
  if (!preempt && !resizable) return false;
  const WaitLine line = wait_line(*exec->substrate);
  if (preempt) {
    exec->preempt_requested = false;
    // Re-check at the boundary: the waiter that asked for this grant — a
    // queued arrival or a suspended execution trying to resume — may have
    // been satisfied meanwhile by a completion elsewhere.  Only a waiter
    // this fabric could actually serve justifies the suspension (see
    // waits_for).
    if (std::max(line.queued_priority, line.suspended_priority) >
        exec->priority) {
      // suspend_execution re-runs admission, which may legally resume THIS
      // execution at the same instant on a different band (run_step already
      // dispatched by the resume) — so the verdict here is "surrendered",
      // unconditionally, not the current suspended flag.
      suspend_execution(exec);
      return true;
    }
  }
  if (!resizable) return false;
  // Suspended executions of this fabric are waiting on its capacity too:
  // growing past them would hand a runner the very grant a preempted
  // (possibly more urgent) job needs to resume — priority inversion by
  // resize.  (Another fabric's waiters are neither helped nor hurt by this
  // resize.)  A grow stops at the useful cap.
  const std::uint32_t cap = useful_wavelength_cap(exec->participants.size());
  if (line.queued != nullptr || line.suspended != nullptr) {
    try_shrink(exec);
  } else if (exec->plan->grant() < cap) {
    resize(*exec, RenegotiationRequest::grow(exec->next_step, cap));
  }
  return false;
}

void CollectiveRuntime::suspend_execution(
    const std::shared_ptr<Execution>& exec, bool fault) {
  exec->suspended_since = simulator_.now();
  for (const JobId id : exec->jobs) {
    JobRecord& record = records_[id];
    record.state = JobState::kPreempted;
    ++record.preemptions;
    trace_job(sim::TraceKind::kJobPreempt, id, exec->plan->band());
  }
  ++report_.preemptions;
  obs::inc(ins_.preemptions);
  if (fault) ++report_.faults.fault_preemptions;
  suspended_.push_back(exec);
  // The surrendered band is free NOW, at the boundary — the waiting
  // high-priority job starts without waiting for this execution to finish.
  stop_running(exec);
}

bool CollectiveRuntime::try_resume_one() {
  if (suspended_.empty()) return false;
  // Highest EFFECTIVE (aged) priority first, FIFO among equals.
  std::vector<std::size_t> order(suspended_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return effective_priority(*suspended_[a]) >
                            effective_priority(*suspended_[b]);
                   });
  for (const std::size_t idx : order) {
    const std::shared_ptr<Execution> exec = suspended_[idx];
    // Never hand capacity back to a victim while the queue still holds a
    // strictly more urgent job waiting for the SAME fabric — that is the
    // resource being fought over.
    if (config_.policy == FairnessPolicy::kPriorityPreempt &&
        wait_line(*exec->substrate).queued_priority >
            effective_priority(*exec)) {
      continue;
    }
    // Fault reconciliation first: participants that died while this
    // execution waited must be dropped before (or instead of) resuming.
    std::vector<topo::NodeId> dead;
    if (any_fault_ever_) {
      dead = newly_dead(*exec);
      if (!dead.empty() &&
          exec->participants.size() - exec->evicted.size() - dead.size() <
              2) {
        kill_execution(exec);
        return true;  // state changed; the caller's loop re-enters
      }
      if (exec->fresh_restart && !dead.empty()) {
        // Nothing executed survives anyway — just shrink the restart set.
        restart_among_survivors(*exec);
      }
    }
    // The pre-suspension width is the sizing hint; the substrate may settle
    // for less (never below the floor) or need more for inherited mirrors.
    const std::uint32_t desired =
        clamped_width(*exec, exec->plan->band().width);
    RenegotiationOutcome outcome;
    if (!exec->fresh_restart) {
      publish_demand(*exec->substrate, exec.get());
      outcome = exec->substrate->renegotiate(
          exec->plan.get(),
          RenegotiationRequest::resume(exec->next_step, desired,
                                       exec->min_width, dead));
      // The remainder cannot absorb the eviction (a dead node still
      // carries state it needs): restart among the survivors instead, at
      // the width sized before they shrank.
      if (!outcome.accepted() && !dead.empty()) {
        restart_among_survivors(*exec);
      }
    }
    if (exec->fresh_restart) {
      outcome = request_restart(*exec->substrate, *exec, desired);
    }
    if (!outcome.accepted()) continue;

    suspended_.erase(suspended_.begin() +
                     static_cast<std::ptrdiff_t>(idx));
    adopt_plan(*exec, std::move(outcome.plan), dead);
    for (const JobId id : exec->jobs) {
      records_[id].state = JobState::kRunning;
      trace_job(sim::TraceKind::kJobResume, id, exec->plan->band());
    }
    ++report_.resumes;
    obs::inc(ins_.resumes);
    start_running(exec);
    return true;
  }
  return false;
}

void CollectiveRuntime::start_running(const std::shared_ptr<Execution>& exec) {
  running_jobs_ += static_cast<std::uint32_t>(exec->jobs.size());
  report_.peak_concurrent_jobs =
      std::max(report_.peak_concurrent_jobs, running_jobs_);
  running_execs_.push_back(exec);
  run_step(exec);
}

void CollectiveRuntime::stop_running(const std::shared_ptr<Execution>& exec) {
  running_jobs_ -= static_cast<std::uint32_t>(exec->jobs.size());
  exec->substrate->release(*exec->plan, simulator_.now());
  running_execs_.erase(
      std::find(running_execs_.begin(), running_execs_.end(), exec));
  try_admit();
  pump_metrics();
}

void CollectiveRuntime::try_shrink(const std::shared_ptr<Execution>& exec) {
  const std::uint32_t width = exec->plan->grant();
  if (width <= exec->min_width) return;

  // A cut "helps" when the surrendered range would actually unblock
  // someone: the job the ACTIVE POLICY would admit next, ranked on the
  // same aged priorities placement uses (a fitting tail entry behind a
  // blocked head admits nothing), or a suspended execution waiting to
  // resume.  Smaller keeps free more, so helps is monotone — the GENTLEST
  // helping cut is the right target: surrendering more than the waiter
  // needs just costs the running job extra levels for nothing.
  const auto helps = [this, &exec](std::uint32_t target) {
    const std::uint32_t would =
        exec->substrate->free_grant_if_kept(*exec->plan, target);
    if (next_admission(queue_, config_.policy, would, simulator_.now(),
                       config_.aging_half_life)) {
      return true;
    }
    for (const auto& suspended : suspended_) {
      if (suspended->substrate != exec->substrate) continue;
      if (suspended->min_width <= would) return true;
    }
    return false;
  };
  std::uint32_t target = width - 1;
  while (target > exec->min_width && !helps(target)) --target;
  if (!helps(target)) return;

  // Deeper cuts only make the remainder rebuild harder (the owed mirrors
  // need their level widths), so if the gentlest helping cut cannot
  // rebuild, no helping cut can.
  if (resize(*exec, RenegotiationRequest::shrink(exec->next_step, target))) {
    try_admit();
  }
}

bool CollectiveRuntime::resize(Execution& exec,
                               const RenegotiationRequest& request) {
  RenegotiationOutcome outcome =
      exec.substrate->renegotiate(exec.plan.get(), request);
  if (!outcome.accepted()) return false;
  adopt_plan(exec, std::move(outcome.plan));
  for (const JobId id : exec.jobs) {
    ++records_[id].resizes;
    trace_job(sim::TraceKind::kJobResize, id, exec.plan->band());
  }
  ++report_.resizes;
  obs::inc(ins_.resizes);
  return true;
}

// ---------------------------------------------------------------------------
// Fault injection and recovery.

void CollectiveRuntime::pump_faults() {
  if (fault_source_ == nullptr) return;
  std::optional<FaultSpec> spec = fault_source_->next();
  if (!spec) {
    fault_source_ = nullptr;
    return;
  }
  WRHT_REQUIRE(spec->at >= last_fault_at_,
               "CollectiveRuntime: fault source yielded injection at "
                   << spec->at.value() << "s after " << last_fault_at_.value()
                   << "s — faults must be in nondecreasing time order");
  last_fault_at_ = spec->at;
  // Chain exactly like pump_source: the injection event pulls the NEXT
  // fault, so one not-yet-injected fault exists at any instant.
  const FaultSpec fault = *spec;
  simulator_.schedule_at(fault.at, [this, fault] {
    on_fault(fault);
    pump_faults();
  });
}

void CollectiveRuntime::on_fault(const FaultSpec& fault) {
  any_fault_ever_ = true;
  ++report_.faults.injected;
  obs::inc(ins_.faults_injected);
  const util::Seconds now = simulator_.now();
  const std::uint32_t hpt = std::max(1u, config_.electrical.hosts_per_tor);
  const std::uint32_t num_tors = (config_.ring_size + hpt - 1) / hpt;
  switch (fault.domain) {
    case FaultDomain::kTransceiver:
      WRHT_REQUIRE(fault.subject < config_.ring_size,
                   "on_fault: transceiver subject " << fault.subject
                                                    << " off the ring");
      ++report_.faults.transceiver_faults;
      break;
    case FaultDomain::kNode:
      WRHT_REQUIRE(fault.subject < config_.ring_size,
                   "on_fault: node subject " << fault.subject
                                             << " off the ring");
      ++report_.faults.node_faults;
      break;
    case FaultDomain::kTor:
      WRHT_REQUIRE(fault.subject < num_tors,
                   "on_fault: tor subject " << fault.subject
                                            << " off the fabric ("
                                            << num_tors << " ToRs)");
      ++report_.faults.tor_faults;
      break;
    case FaultDomain::kWavelength:
      WRHT_REQUIRE(fault.subject < config_.optical.wdm.num_wavelengths,
                   "on_fault: wavelength subject " << fault.subject
                                                   << " off the spectrum");
      ++report_.faults.wavelength_faults;
      break;
  }
  trace_.record(now,
                fault.domain == FaultDomain::kWavelength
                    ? sim::TraceKind::kWavelengthDegrade
                    : sim::TraceKind::kNodeFail,
                fault.subject, static_cast<std::int64_t>(fault.domain));
  // Every fabric books the fault against its own units (free down units
  // leave service at once, held ones when their holders release).
  std::vector<const ExecutionSubstrate*> touched;
  for (const auto& fabric : fabrics_) {
    if (fabric->apply_fault(fault, false)) touched.push_back(fabric.get());
  }

  // Mark every running execution the fault touches for reconciliation at
  // its next BSP step boundary — the in-flight step finishes first (its
  // transfers were committed when the step was dispatched).  Touched means:
  // the faulted ring position is a live participant its fabric lost (an
  // earlier loss marked the execution when it happened), or part of its
  // grant is out of service.
  const bool names_node = fault.domain == FaultDomain::kTransceiver ||
                          fault.domain == FaultDomain::kNode;
  for (const auto& exec : running_execs_) {
    ExecutionSubstrate& substrate = *exec->substrate;
    if (std::find(touched.begin(), touched.end(), &substrate) ==
        touched.end()) {
      continue;
    }
    const bool lost_participant =
        names_node && substrate.node_down(fault.subject) &&
        std::find(exec->participants.begin(), exec->participants.end(),
                  fault.subject) != exec->participants.end() &&
        std::find(exec->evicted.begin(), exec->evicted.end(),
                  fault.subject) == exec->evicted.end();
    if (!lost_participant &&
        substrate.healthy_grant(*exec->plan) >= exec->plan->grant()) {
      continue;
    }
    // A ToR loss orphans a whole host group while the optical ring stays
    // up: try moving the work there first.
    if (fault.domain == FaultDomain::kTor) {
      exec->migrate_pending = true;
    } else {
      exec->fault_pending = true;
    }
    // A disruption opens the recovery window note_recovery closes, so the
    // two counts pair up (a pending flag alone is no window: placement sets
    // one for work queued before an earlier fault).
    if (exec->fault_since.value() <= 0.0) {
      ++report_.faults.disrupted_executions;
      exec->fault_since = now;
    }
  }

  // Suspended work whose survivor set this fault just shrank below two can
  // never resume — kill it now rather than strand it (and the
  // drained-clock invariant) behind a resume that will refuse forever.
  const std::vector<std::shared_ptr<Execution>> snapshot = suspended_;
  for (const auto& exec : snapshot) {
    if (std::find(suspended_.begin(), suspended_.end(), exec) ==
        suspended_.end()) {
      continue;  // a kill's admission re-run already moved it
    }
    if (live_participants(*exec).size() < 2) kill_execution(exec);
  }

  if (fault.repair_after.value() > 0.0) {
    const FaultSpec copy = fault;
    simulator_.schedule_at(now + fault.repair_after,
                           [this, copy] { on_fault_repair(copy); });
  }
  pump_metrics();
}

void CollectiveRuntime::on_fault_repair(const FaultSpec& fault) {
  ++report_.faults.repairs;
  obs::inc(ins_.fault_repairs);
  for (const auto& fabric : fabrics_) fabric->apply_fault(fault, true);
  trace_.record(simulator_.now(), sim::TraceKind::kFaultRepair,
                fault.subject, static_cast<std::int64_t>(fault.domain));
  // Restored capacity is free capacity: suspended work may resume and
  // queued work may admit at this very instant.
  try_admit();
  pump_metrics();
}

std::vector<topo::NodeId> CollectiveRuntime::newly_dead(
    const Execution& exec) const {
  return unevicted(exec.participants, exec.evicted, [&exec](topo::NodeId node) {
    return exec.substrate->node_down(node);
  });
}

std::vector<topo::NodeId> CollectiveRuntime::live_participants(
    const Execution& exec) const {
  return unevicted(exec.participants, exec.evicted, [&exec](topo::NodeId node) {
    return !exec.substrate->node_down(node);
  });
}

void CollectiveRuntime::note_recovery(Execution& exec) {
  if (exec.fault_since.value() <= 0.0) return;
  report_.faults.total_recovery += simulator_.now() - exec.fault_since;
  ++report_.faults.recoveries;
  exec.fault_since = util::Seconds(0.0);
  obs::inc(ins_.fault_recoveries);
}

void CollectiveRuntime::kill_execution(
    const std::shared_ptr<Execution>& exec) {
  for (const JobId id : exec->jobs) {
    JobRecord& record = records_[id];
    record.state = JobState::kFailed;
    trace_job(sim::TraceKind::kJobKilled, id, record.band);
  }
  report_.faults.killed_jobs +=
      static_cast<std::uint32_t>(exec->jobs.size());
  obs::inc(ins_.jobs_killed, exec->jobs.size());
  report_.faults.wasted_step_time += exec->busy_time;
  // The breakdown counted these jobs at placement; a killed job never
  // completes, so the slice must forget it for optical.jobs +
  // electrical.jobs == completed to keep closing.
  breakdown(exec->substrate->kind()).jobs -=
      static_cast<std::uint32_t>(exec->jobs.size());
  exec->fault_since = util::Seconds(0.0);  // killed, not recovered
  const auto parked = std::find(suspended_.begin(), suspended_.end(), exec);
  if (parked == suspended_.end()) {
    stop_running(exec);
    return;
  }
  suspended_.erase(parked);
  try_admit();
  pump_metrics();
}

void CollectiveRuntime::discard_prefix(Execution& exec) {
  report_.faults.wasted_step_time += exec.busy_time;
  exec.busy_time = util::Seconds(0.0);
  exec.quiet_time = util::Seconds(0.0);
  exec.executed.clear();
  exec.evicted.clear();
  exec.next_step = 0;
}

void CollectiveRuntime::restart_among_survivors(Execution& exec) {
  exec.participants = live_participants(exec);
  // The one place a participant set shrinks: survivors too few to use the
  // floor lower it to their useful cap, so no grant ever undercuts it.
  exec.min_width = std::min(exec.min_width,
                            useful_wavelength_cap(exec.participants.size()));
  discard_prefix(exec);
  exec.fresh_restart = true;
}

std::uint32_t CollectiveRuntime::clamped_width(const Execution& exec,
                                               std::uint32_t hint) {
  return std::clamp(hint, exec.min_width,
                    useful_wavelength_cap(exec.participants.size()));
}

RenegotiationOutcome CollectiveRuntime::request_restart(
    ExecutionSubstrate& fabric, const Execution& exec, std::uint32_t desired) {
  publish_demand(fabric, &exec);
  return fabric.renegotiate(
      nullptr, RenegotiationRequest::restart(exec.participants,
                                             exec.batch_payload, desired,
                                             exec.min_width));
}

bool CollectiveRuntime::reconcile_fault(
    const std::shared_ptr<Execution>& exec) {
  const bool migrate = exec->migrate_pending;
  exec->fault_pending = false;
  exec->migrate_pending = false;
  ExecutionSubstrate& substrate = *exec->substrate;
  const std::vector<topo::NodeId> dead = newly_dead(*exec);
  const std::uint32_t grant = exec->plan->grant();
  const std::uint32_t healthy = substrate.healthy_grant(*exec->plan);
  if (dead.empty() && healthy == grant) {
    // Stale marker: the repair beat this boundary.  The execution never
    // actually stopped — close the recovery window and carry on.
    note_recovery(*exec);
    return false;
  }

  if (!dead.empty()) {
    if (exec->participants.size() - exec->evicted.size() - dead.size() < 2) {
      kill_execution(exec);
      return true;
    }
    if (healthy == grant) {
      // Survivor rebuild in place: same grant, remainder re-proven with the
      // dead nodes stripped from its delivery set.
      RenegotiationOutcome outcome = substrate.renegotiate(
          exec->plan.get(),
          RenegotiationRequest::evict(exec->next_step, dead));
      if (outcome.accepted()) {
        adopt_plan(*exec, std::move(outcome.plan), dead);
        return false;  // still running; the caller dispatches the next step
      }
    }
    // The remainder cannot absorb the eviction (a dead node still carries
    // live state), or the grant itself is degraded: restart fresh among
    // the survivors on a fresh grant, clamped to their useful cap.
    restart_among_survivors(*exec);
    substrate.release(*exec->plan, simulator_.now());
    RenegotiationOutcome restart =
        request_restart(substrate, *exec, clamped_width(*exec, grant));
    if (!restart.accepted()) {
      suspend_execution(exec, /*fault=*/true);
      return true;
    }
    adopt_plan(*exec, std::move(restart.plan));
    // The grant moved: record the new claim so band-disjointness audits
    // can follow the execution across the restart.
    for (const JobId id : exec->jobs) {
      trace_job(sim::TraceKind::kJobResize, id, exec->plan->band());
    }
    return false;
  }

  // Degraded grant, every participant alive.
  if (migrate) {
    // A ToR loss took a whole host group down, but the optical ring is
    // untouched — try a cross-substrate restart FIRST, before any state
    // here is mutated, so a refusal degrades cleanly into the fallbacks
    // below.  Only migratable work qualifies: no job pinned to the
    // electrical fabric, and every participant's ring position optically
    // alive (the restart re-runs the all-reduce from the participants'
    // initial gradients).
    ExecutionSubstrate& ring = *fabrics_.front();
    bool migratable = true;
    for (const JobId id : exec->jobs) {
      migratable &= records_[id].spec.pin != SubstratePin::kElectricalOnly;
    }
    for (const topo::NodeId node : exec->participants) {
      migratable &= !ring.node_down(node);
    }
    if (migratable) {
      RenegotiationOutcome outcome = request_restart(
          ring, *exec, clamped_width(*exec, config_.default_request));
      if (outcome.accepted()) {
        discard_prefix(*exec);
        substrate.release(*exec->plan, simulator_.now());
        // The jobs change fabric mid-flight; move their breakdown slice so
        // per-substrate job counts keep closing against completions.
        const auto moved = static_cast<std::uint32_t>(exec->jobs.size());
        SubstrateBreakdown& from = breakdown(substrate.kind());
        SubstrateBreakdown& to = breakdown(ring.kind());
        from.jobs -= moved;
        to.jobs += moved;
        --from.executions;
        ++to.executions;
        exec->substrate = &ring;
        adopt_plan(*exec, std::move(outcome.plan));
        ++report_.faults.migrations;
        for (const JobId id : exec->jobs) {
          records_[id].substrate = ring.kind();
          trace_job(sim::TraceKind::kJobMigrate, id, exec->plan->band());
        }
        return false;  // still running; the caller dispatches step 0
      }
    }
  }
  // Keep the healthy prefix of the grant when the floor allows.
  if (healthy >= exec->min_width &&
      resize(*exec, RenegotiationRequest::shrink(exec->next_step, healthy))) {
    return false;
  }
  // Otherwise surrender the grant and wait for repair or free capacity.
  // Hosts checkpoint at BSP boundaries, so a dead host costs a remap at
  // resume, not data; a degraded band is simply not re-granted.
  suspend_execution(exec, /*fault=*/true);
  return true;
}

void CollectiveRuntime::run_step(const std::shared_ptr<Execution>& exec) {
  // A rebuild can leave nothing ahead (a survivor eviction after the last
  // step that owed the evicted nodes anything); the composite proof already
  // covers the work, so the execution is done.
  if (exec->next_step >= exec->plan->num_steps()) {
    finish_execution(exec);
    return;
  }
  trace_.record(simulator_.now(), sim::TraceKind::kStepBegin,
                exec->jobs.front(), static_cast<std::int64_t>(exec->next_step));
  const StepTiming timing = exec->substrate->time_step(
      *exec->plan, exec->next_step, simulator_.now());
  ++report_.total_steps;
  report_.total_retunes += timing.retunes;
  report_.spectrum_reservations += timing.reservations;
  ++breakdown(exec->substrate->kind()).steps;
  exec->step_started = simulator_.now();
  exec->quiet_time += timing.quiet;
  if (timing.end) {
    simulator_.schedule_at(*timing.end, [this, exec] { on_step_end(exec); });
  } else {
    // Injecting this step's flows moved the fabric's next network event.
    std::size_t fabric = 0;
    while (fabrics_[fabric].get() != exec->substrate) ++fabric;
    arm_wake(fabric);
  }
  pump_metrics();
}

void CollectiveRuntime::on_step_end(const std::shared_ptr<Execution>& exec) {
  // Actual wall-clock of the step that just finished — under shared-fabric
  // contention this is the real duration on the shared network, not the
  // quiet prediction, so busy_time / quiet_time is the contention slowdown.
  exec->busy_time += simulator_.now() - exec->step_started;
  report_.step_time_total += simulator_.now() - exec->step_started;
  trace_.record(simulator_.now(), sim::TraceKind::kStepEnd,
                exec->jobs.front(), static_cast<std::int64_t>(exec->next_step));
  ++exec->next_step;
  if (exec->next_step >= exec->plan->num_steps()) {
    finish_execution(exec);
    return;
  }
  // The renegotiation point: every shared-medium cell this execution held
  // is released by now (transfer-end events precede the boundary), so its
  // grant can be surrendered, grown, or shrunk without a stale
  // reservation existing anywhere.
  if (renegotiate(exec)) return;  // surrendered; resume dispatches later
  run_step(exec);
}

void CollectiveRuntime::on_wake(std::size_t fabric) {
  FabricWake& wake = wakes_[fabric];
  wake.armed = false;
  wake.running = true;
  ExecutionSubstrate& substrate = *fabrics_[fabric];
  while (SubstrateExecution* plan = substrate.wake(simulator_.now())) {
    const auto it = std::find_if(
        running_execs_.begin(), running_execs_.end(),
        [plan](const auto& exec) { return exec->plan.get() == plan; });
    WRHT_CHECK(it != running_execs_.end(),
               "CollectiveRuntime: fabric woke a step no running execution "
               "owns");
    const std::shared_ptr<Execution> exec = *it;  // on_step_end may erase it
    on_step_end(exec);
  }
  wake.running = false;
  arm_wake(fabric);
}

void CollectiveRuntime::arm_wake(std::size_t fabric) {
  // Sized on first use: a runtime whose fabrics all end steps in closed
  // form never arms a wake, and its construction allocates none.
  if (wakes_.empty()) wakes_.resize(fabrics_.size());
  FabricWake& wake = wakes_[fabric];
  if (wake.running) return;
  const std::optional<util::Seconds> at = fabrics_[fabric]->next_wake();
  if (wake.armed) {
    if (at && *at == wake.at) return;
    simulator_.cancel(wake.event);
    wake.armed = false;
  }
  if (!at) return;
  wake.event = simulator_.schedule_at(*at, [this, fabric] { on_wake(fabric); });
  wake.at = *at;
  wake.armed = true;
}

bool CollectiveRuntime::probe_placement(const ExecutionSubstrate& fabric,
                                        const QueueEntry& job) {
  obs::inc(ins_.placement_probes);
  if (fabric.can_place(job.participants, 1)) return true;
  const auto busy = std::find_if(
      job.participants.begin(), job.participants.end(),
      [&fabric](topo::NodeId host) { return fabric.host_busy(host); });
  WRHT_CHECK(busy != job.participants.end(),
             "probe_placement: a refused host set with no busy host");
  job.blocker = static_cast<std::uint32_t>(busy - job.participants.begin());
  return false;
}

void CollectiveRuntime::finish_execution(
    const std::shared_ptr<Execution>& exec) {
  // Contention slowdown of the whole execution: what its steps cost on the
  // (possibly shared) fabric vs. what they would have cost alone.  Jobs
  // fused into one execution shared every step, so they share the ratio.
  const double slowdown = exec->quiet_time.value() > 0.0
                              ? exec->busy_time.value() /
                                    exec->quiet_time.value()
                              : 0.0;
  for (const JobId id : exec->jobs) {
    JobRecord& record = records_[id];
    record.state = JobState::kDone;
    record.completed = simulator_.now();
    record.contention_slowdown = slowdown;
    obs::observe(ins_.turnaround, record.turnaround().value());
    // Same slowdown definition as obs::compute_slo: turnaround over service
    // span, 1.0 for an instantaneous service.
    const double service = (record.completed - record.admitted).value();
    obs::observe(ins_.slowdown,
                 service > 0.0 ? record.turnaround().value() / service : 1.0);
    if (record.predicted_completion.value() > 0.0) {
      // Score the routing decision now that the truth is in: error
      // relative to the span the router promised, both directions equally
      // damning.  Every audited job carries its error for visibility, but
      // the aggregate folds ONE entry per execution (fused peers share
      // prediction and completion, so they share the error too — counting
      // each would weight batches by their size).
      const double span = std::max(
          (record.predicted_completion - record.admitted).value(), 1e-12);
      record.routing_error =
          std::abs((record.completed - record.predicted_completion).value()) /
          span;
      if (id == exec->jobs.front()) {
        routing_error_sum_ += record.routing_error;
        report_.routing.worst_error =
            std::max(report_.routing.worst_error, record.routing_error);
        obs::observe(ins_.routing_error, record.routing_error);
      }
    }
    completion_order_.push_back(id);
    ++report_.completed;
    report_.total_turnaround += record.turnaround();
    trace_job(sim::TraceKind::kJobComplete, id, record.band);
  }
  SubstrateBreakdown& slice = breakdown(exec->substrate->kind());
  slice.makespan = std::max(slice.makespan, simulator_.now());
  slice.busy_time += exec->busy_time;
  slice.quiet_time += exec->quiet_time;
  last_completion_ = std::max(last_completion_, simulator_.now());
  obs::inc(ins_.jobs_completed,
           static_cast<std::uint64_t>(exec->jobs.size()));
  stop_running(exec);
}

RuntimeReport CollectiveRuntime::run() {
  WRHT_REQUIRE(!started_, "CollectiveRuntime: run() called twice");
  return drive(nullptr);
}

RuntimeReport CollectiveRuntime::serve(JobSource& source) {
  WRHT_REQUIRE(!started_, "CollectiveRuntime: serve() after run()");
  return drive(&source);
}

void CollectiveRuntime::pump_source(util::Seconds floor) {
  while (source_ != nullptr) {
    std::optional<JobSpec> spec = source_->next();
    if (!spec) {
      source_ = nullptr;
      return;
    }
    WRHT_REQUIRE(spec->arrival >= floor,
                 "CollectiveRuntime: serve() source yielded arrival "
                     << spec->arrival.value() << "s after " << floor.value()
                     << "s — arrivals must be nondecreasing");
    const util::Seconds arrival = spec->arrival;
    const JobId id = ingest(std::move(*spec));
    if (records_[id].state == JobState::kRejected) continue;  // keep pulling
    // Chain: the arrival event itself pulls the NEXT spec, so exactly one
    // not-yet-arrived job exists at any instant — the event queue and the
    // source's buffering stay O(in-flight) across a million-job trace.
    simulator_.schedule_at(arrival, [this, id, arrival] {
      on_arrival(id);
      pump_source(arrival);
    });
    return;
  }
}

RuntimeReport CollectiveRuntime::drive(JobSource* source) {
  started_ = true;
  // Jobs submit()ted beforehand run too (the CLI submits warm-up jobs
  // before serve() this way); a stream chains in alongside them.
  for (const JobRecord& record : records_) {
    if (record.state != JobState::kSubmitted) continue;  // rejected
    const JobId id = record.id;
    simulator_.schedule_at(record.spec.arrival, [this, id] { on_arrival(id); });
  }
  source_ = source;
  pump_source(util::Seconds(0.0));
  if (config_.metrics) {
    // Run-start bookend: every counter track opens at t=0 with the idle
    // state, so the Chrome trace's series span the whole run.
    pump_metrics();
    config_.metrics->sampler().sample_now(simulator_.now());
  }
  // The fault stream chains in exactly like the job stream: one
  // not-yet-injected fault in the event queue at any instant.
  fault_source_ = config_.faults;
  pump_faults();
  simulator_.run();

  WRHT_CHECK(queue_.empty() && running_jobs_ == 0 && suspended_.empty(),
             "CollectiveRuntime: clock drained with "
                 << queue_.size() << " queued / " << running_jobs_
                 << " running / " << suspended_.size() << " suspended jobs");
  // The makespan is the last COMPLETION, not the drained clock: a fault or
  // its repair can land after the final completion, and phantom idle time
  // must not be billed to the workload.
  report_.makespan = last_completion_;

  // End-of-run audits: the shared electrical fabric, which certified every
  // max-min solve as it ran, must have finished every step it began (aborts
  // otherwise); the per-link peaks tell the congestion story the slowdown
  // numbers summarize.
  for (const auto& fabric : fabrics_) {
    report_.replay_checked_steps += fabric->self_check();
    if (fabric->kind() == SubstrateKind::kElectrical) {
      report_.electrical_link_peak = fabric->link_peak_utilization();
    }
  }
  if (report_.routing.decisions > 0) {
    // Every audited execution has completed by now — the drained-clock
    // check above aborts on any surviving queued/suspended job — so the
    // error sum covers exactly `decisions` entries.
    report_.routing.mean_error =
        routing_error_sum_ / static_cast<double>(report_.routing.decisions);
  }
  if (config_.metrics) {
    // Run-end bookend: a final forced snapshot so the series' last point
    // sits at the drained clock, whatever the cadence.
    pump_metrics();
    config_.metrics->sampler().sample_now(simulator_.now());
  }
  // Exact nearest-rank SLO percentiles from the job records — computed
  // whether or not a registry is installed, so the report's quantiles are
  // bit-for-bit reproducible from records() by tests.
  report_.slo = obs::compute_slo(records_);
  return report_;
}

}  // namespace wrht::runtime
