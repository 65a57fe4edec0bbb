// The electrical-fallback execution substrate: the alpha-beta/flow baseline
// fabric from src/elec serving overflow tenants when the optical spectrum
// saturates.
//
// Grant model — link capacity.  The fallback maps one host per ring
// position; an execution claims one host per participant exclusively, so
// two placed executions never share a host.  What happens BETWEEN hosts
// depends on the configured fabric:
//
//  * kStarExclusive — one full-duplex access link per host into a
//    non-blocking switch.  Every flow crosses exactly its endpoints'
//    access links, so host exclusivity makes timing each execution's steps
//    on a private quiet FlowNetwork EXACT under max-min fair sharing, not
//    an approximation.
//
//  * kTwoLevelShared — hosts hang off ToR switches whose uplinks into the
//    core are oversubscribed.  Different executions' flows SHARE those
//    uplinks, so the substrate times every in-flight step of every tenant
//    together on ONE elec::SharedFabricTimer.  A step's completion time
//    depends on what other tenants send while it is in flight, so
//    time_step() gives no end: the runtime advances the real network from
//    one of its events to the next (next_wake / wake), each wake hands back
//    the executions whose steps drained there, and the network certifies
//    every max-min solve behind those step times as it runs.
//    The quiet-network duration of each step is still computed
//    (StepFlowTimer) as the denominator of the per-job contention
//    slowdown.
//
// Schedules are the classic electrical collectives the paper benchmarks
// against: the chunked ring (bandwidth-optimal) or recursive doubling
// (latency-optimal), picked per job by the alpha-beta cost model.  Every
// execution keeps the schedule in TWO coordinate systems:
//
//  * the FUNCTIONAL schedule — transfers among the participants' ring ids.
//    This is what schedule() exposes and what the runtime's composite
//    all-reduce oracle proves; it never changes across renegotiations, so
//    an executed prefix and a rebuilt remainder always compose.
//  * the PHYSICAL schedule — the same steps remapped onto the host set
//    currently claimed.  This is what the flow timers route.
//
// At first placement the two coincide (hosts are claimed 1:1 at the
// participants' ring positions).  They diverge at a REMAPPED RESUME: BSP
// step boundaries are preemption points, a suspended execution surrenders
// its hosts, and a kResume renegotiation re-places the remainder on
// whatever host set is free then — the original positions when available,
// else any free hosts, carried over by the same schedule remap placement
// uses.  Host fungibility is also the fault story:
// the substrate refcounts its down hosts (node and ToR faults), a dead host
// leaves service as soon as no execution holds it, and the resume simply
// remaps around it, so electrical node faults cost a suspension, never
// data.  The shared fabric's max-min certificate covers remapped resumes
// for free: it checks the rates of the physical routes, which are exactly
// what the remapped remainder injected.
//
// Per-step timing is produced one step at a time so electrical steps
// interleave with optical tenants' events on the shared clock.
#include "runtime/substrate.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "coll/algorithms.hpp"
#include "coll/cost_model.hpp"
#include "elec/alphabeta.hpp"
#include "elec/schedule_runner.hpp"
#include "elec/shared_fabric.hpp"
#include "obs/metrics.hpp"
#include "runtime/down_units.hpp"
#include "util/check.hpp"

namespace wrht::runtime {

namespace {

/// Rewrite a compact-rank schedule (nodes 0..k-1) onto the participants'
/// host ids inside a `num_hosts`-wide id space.  Chunk structure is
/// untouched, so payload splitting and functional semantics carry over.
coll::Schedule remap_onto_hosts(const coll::Schedule& compact,
                                const std::vector<topo::NodeId>& hosts,
                                std::uint32_t num_hosts) {
  coll::Schedule mapped(compact.name() + "-on-hosts", num_hosts,
                        compact.num_chunks());
  for (const coll::Step& step : compact.steps()) {
    mapped.add_step();
    for (const coll::Transfer& t : step.transfers) {
      coll::Transfer placed = t;
      placed.src = hosts[t.src];
      placed.dst = hosts[t.dst];
      mapped.add_transfer(placed);
    }
  }
  return mapped;
}

/// The compact-rank steps still ahead after `steps_done` executed ones —
/// the electrical remainder rebuild (no level restructuring to do: a BSP
/// flow schedule's remainder is literally its tail).
coll::Schedule schedule_tail(const coll::Schedule& compact,
                             std::size_t steps_done) {
  coll::Schedule tail(compact.name(), compact.num_nodes(),
                      compact.num_chunks());
  const std::vector<coll::Step>& steps = compact.steps();
  for (std::size_t s = steps_done; s < steps.size(); ++s) {
    tail.add_step();
    for (const coll::Transfer& t : steps[s].transfers) {
      tail.add_transfer(t);
    }
  }
  return tail;
}

class ElectricalExecution final : public SubstrateExecution {
 public:
  [[nodiscard]] const coll::Schedule& schedule() const override {
    return functional_;
  }
  [[nodiscard]] std::size_t num_steps() const override {
    return functional_.num_steps();
  }
  /// Electrical grants are host links, not spectrum; the invalid band tells
  /// records/traces "no band held".
  [[nodiscard]] WavelengthBand band() const override { return {}; }
  [[nodiscard]] std::uint32_t grant() const override {
    return holds_hosts ? static_cast<std::uint32_t>(hosts_.size()) : 0;
  }
  [[nodiscard]] std::vector<topo::NodeId> hosts() const override {
    return hosts_;
  }

  /// Remaining steps in compact ranks 0..k-1 — the seed every further
  /// resume rebuilds its tail from.
  coll::Schedule compact_;
  /// Remaining steps among participant ring ids — what the composite
  /// all-reduce oracle proves; stable across host remaps.
  coll::Schedule functional_;
  /// Remaining steps among the claimed hosts — what the flow timers route.
  coll::Schedule physical_;
  util::Bytes payload;
  std::vector<topo::NodeId> participants;
  /// hosts_[i] carries participants[i]'s data (identity at first placement,
  /// possibly remapped after a resume).
  std::vector<topo::NodeId> hosts_;
  bool holds_hosts = false;
  /// compact_ is the whole best_compact_schedule for (participant count,
  /// payload), not a resumed tail: a kRestart plan.  Its physical step 0 is
  /// then the step predict_completion(hosts_, payload) times quietly.
  bool whole = false;
  /// kTwoLevelShared: the execution's session on the shared fabric timer.
  elec::SharedFabricTimer::SessionId session = 0;
  bool has_session = false;
};

elec::ElectricalCluster make_fallback_cluster(
    std::uint32_t num_hosts, const ElectricalFallbackConfig& config) {
  if (config.fabric == ElectricalFabric::kStarExclusive) {
    return elec::ElectricalCluster::star(num_hosts, config.link);
  }
  std::optional<elec::ElectricalCluster> tree =
      elec::ElectricalCluster::two_level_tree(num_hosts, config.hosts_per_tor,
                                              config.oversubscription,
                                              config.link);
  WRHT_REQUIRE(tree.has_value(),
               "make_electrical_substrate: bad two-level shape ("
                   << num_hosts << " hosts, " << config.hosts_per_tor
                   << " per ToR, oversubscription " << config.oversubscription
                   << ")");
  return *std::move(tree);
}

class ElectricalSubstrate final : public ExecutionSubstrate {
 public:
  ElectricalSubstrate(std::uint32_t num_hosts,
                      const ElectricalFallbackConfig& config)
      : cluster_(make_fallback_cluster(num_hosts, config)),
        timer_(cluster_),
        config_(config),
        host_busy_(num_hosts, false),
        hosts_down_(num_hosts) {
    if (config_.fabric == ElectricalFabric::kTwoLevelShared) {
      shared_.emplace(cluster_, config_.replay_audit);
    }
  }

  [[nodiscard]] SubstrateKind kind() const override {
    return SubstrateKind::kElectrical;
  }
  // Hosts are fungible: no flow is in flight at a BSP step boundary, so a
  // suspended remainder resumes on whatever hosts are free; a fused peer
  // rides the lead's host links; and there is no resize, since the grant is
  // exactly one host per participant.
  [[nodiscard]] bool grants_hosts() const override { return true; }

  [[nodiscard]] std::uint32_t largest_free_grant() const override {
    // A unit of capacity is one free host link.
    const bool any_host_free =
        std::find(host_busy_.begin(), host_busy_.end(), false) !=
        host_busy_.end();
    return any_host_free ? 1u : 0u;
  }
  [[nodiscard]] std::uint32_t free_grant_total() const override {
    std::uint32_t free = 0;
    for (const bool busy : host_busy_) free += busy ? 0u : 1u;
    return free;
  }

  [[nodiscard]] bool can_place(const std::vector<topo::NodeId>& participants,
                               std::uint32_t) const override {
    return std::none_of(
        participants.begin(), participants.end(),
        [this](topo::NodeId host) { return host_busy_[host]; });
  }
  [[nodiscard]] bool host_busy(topo::NodeId host) const override {
    return host_busy_[host];
  }
  [[nodiscard]] std::uint64_t free_epoch() const override {
    return free_epoch_;
  }

  [[nodiscard]] StepTiming time_step(SubstrateExecution& e, std::size_t step,
                                     util::Seconds now) override {
    auto& exec = static_cast<ElectricalExecution&>(e);
    StepTiming out;
    // Quiet-network BSP duration, same construction as
    // elec::run_on_electrical: the step's flow makespan on a private reset
    // network (route latency included).  On the star this IS the step —
    // host exclusivity means nobody else's flows exist on its links.  On
    // the shared fabric it is the contention-free baseline the slowdown is
    // measured against.  Timed on the PHYSICAL schedule: after a remapped
    // resume the quiet baseline belongs to the routes actually flown.
    // A routed job's first step was usually timed already, by the price
    // that sent it here.
    std::optional<util::Seconds> quiet;
    if (step == 0 && exec.whole) {
      const PriceMemo::Entry* priced = find_price(exec.hosts_, exec.payload);
      if (priced) quiet = priced->quiet_first_step;
    }
    if (!quiet) quiet = time_quiet(exec.physical_, step, exec.payload);
    WRHT_CHECK(quiet.has_value(),
               "ElectricalSubstrate: un-timeable step " << step
                                                        << " — arbitration "
                                                           "bug");
    out.quiet = *quiet;
    if (!shared_) {
      out.end = now + *quiet;
      return out;
    }
    const bool accepted = shared_->begin_step(exec.session, exec.physical_,
                                              step, exec.payload, now);
    WRHT_CHECK(accepted,
               "ElectricalSubstrate: shared fabric refused step "
                   << step << " — arbitration bug");
    return out;  // the end arrives through wake()
  }

  [[nodiscard]] std::optional<util::Seconds> next_wake() override {
    return shared_ ? shared_->next_wake() : std::nullopt;
  }

  [[nodiscard]] SubstrateExecution* wake(util::Seconds now) override {
    if (!shared_) return nullptr;
    const std::optional<elec::SharedFabricTimer::SessionId> drained =
        shared_->wake(now);
    return drained ? session_plans_.at(*drained) : nullptr;
  }

  void release(SubstrateExecution& e, util::Seconds now) override {
    auto& exec = static_cast<ElectricalExecution&>(e);
    if (!exec.holds_hosts) return;
    if (exec.has_session) {
      shared_->close_session(exec.session, now);
      session_plans_.erase(exec.session);
      exec.has_session = false;
    }
    for (const topo::NodeId host : exec.hosts_) host_busy_[host] = false;
    ++free_epoch_;
    exec.holds_hosts = false;
    if (hosts_down_.pending()) take_down_hosts();
  }

  [[nodiscard]] RenegotiationOutcome renegotiate(
      SubstrateExecution* current,
      const RenegotiationRequest& request) override {
    switch (request.kind) {
      case RenegotiationRequest::Kind::kResume:
        return resume(static_cast<const ElectricalExecution&>(*current),
                      request);
      case RenegotiationRequest::Kind::kRestart:
        return restart(request);
      case RenegotiationRequest::Kind::kGrow:
      case RenegotiationRequest::Kind::kShrink:
      case RenegotiationRequest::Kind::kEvict:
        // Grants are exactly one host per participant (no resize),
        // and an evicted participant's partial sums live in its host's
        // memory — there is no narrower remainder to rebuild in place.  The
        // runtime falls back to kRestart among the survivors.
        return {};
    }
    return {};
  }

  bool apply_fault(const FaultSpec& fault, bool repaired) override {
    std::uint64_t first = fault.subject;
    std::uint64_t last = first + 1;
    if (fault.domain == FaultDomain::kTor) {
      const std::uint64_t per_tor = std::max(1u, config_.hosts_per_tor);
      first = fault.subject * per_tor;
      last = std::min<std::uint64_t>(first + per_tor, host_busy_.size());
    } else if (fault.domain != FaultDomain::kNode) {
      return false;
    }
    for (std::uint64_t host = first; host < last; ++host) {
      if (hosts_down_.apply(host, repaired)) {
        host_busy_[host] = false;
        ++free_epoch_;
      }
    }
    take_down_hosts();
    return true;
  }

  [[nodiscard]] std::uint32_t healthy_grant(
      const SubstrateExecution& e) const override {
    // Any dead host stops the whole BSP step: there is no healthy prefix.
    const auto& exec = static_cast<const ElectricalExecution&>(e);
    for (const topo::NodeId host : exec.hosts_) {
      if (hosts_down_.down(host)) return 0;
    }
    return exec.grant();
  }

  [[nodiscard]] std::vector<double> link_peak_utilization() const override {
    return shared_ ? shared_->link_peak_utilization()
                   : std::vector<double>{};
  }

  void attach_metrics(obs::MetricsRegistry& registry) override {
    if (!shared_) return;
    shared_->attach_metrics(registry);
    quiet_solves_ = registry.counter("fabric.solves.quiet");
    solver_rounds_ = registry.counter("fabric.solver.rounds");
  }

  [[nodiscard]] std::uint64_t self_check() const override {
    if (!shared_) return 0;
    // Every solve was certified as it ran; what is left to prove is that
    // every execution ended, closing its session and any step in flight.
    WRHT_CHECK(shared_->active_sessions() == 0,
               "ElectricalSubstrate: " << shared_->active_sessions()
                                       << " shared-fabric session(s) still "
                                          "open at end of run");
    return shared_->logged_steps();
  }

  [[nodiscard]] util::Seconds predict_makespan(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t) const override {
    // The alpha-beta analytic cost of the schedule this substrate would
    // run.  On the patterns schedule_for picks (ring steps, pairwise
    // exchanges) the flow simulation and the analytic model agree exactly,
    // so this is a faithful prediction, not a bound.
    return price_memo(participants, payload).makespan;
  }

  [[nodiscard]] util::Seconds predict_completion(
      const std::vector<topo::NodeId>& participants, util::Bytes payload,
      std::uint32_t, util::Seconds now) const override {
    // Fold the live fabric state into the quiet alpha-beta prediction.  On
    // the exclusive star there is nothing to fold (host exclusivity makes
    // quiet timing exact); on the shared tree, price the first step's flows
    // at the max-min share the in-flight tenants leave them now and stretch
    // the whole run by that contention ratio.  The price forecasts neither
    // drains nor arrivals; the routing report scores what that misses.
    PriceMemo::Entry& memo = price_memo(participants, payload);
    const util::Seconds quiet = memo.makespan;
    if (!shared_) return now + quiet;
    const coll::Schedule physical = remap_onto_hosts(
        best_compact_schedule(static_cast<std::uint32_t>(participants.size()),
                              payload),
        participants, cluster_.num_hosts());
    if (!memo.quiet_first_step) {
      // An un-timeable step reads as 0: no usable baseline, like any
      // zero-length one.
      memo.quiet_first_step =
          time_quiet(physical, 0, payload).value_or(util::Seconds(0.0));
    }
    const util::Seconds quiet_step = *memo.quiet_first_step;
    const std::optional<util::Seconds> busy_end =
        shared_->predict_step_completion(physical, 0, payload, now);
    if (!busy_end || quiet_step.value() <= 0.0) return now + quiet;
    const double ratio =
        std::max(1.0, (*busy_end - now).value() / quiet_step.value());
    return now + util::Seconds(quiet.value() * ratio);
  }

 private:
  /// The routing price's answers that depend only on (participants,
  /// payload) for a fixed cluster.  Admission and the router re-ask them
  /// for every queued candidate on every placement scan, and payloads are
  /// drawn from a continuous distribution, so nearly every job is a new
  /// key: the map is cleared when it reaches kMaxEntries, which bounds it
  /// on a serve of any length while a scan's working set still hits.
  struct PriceMemo {
    static constexpr std::size_t kMaxEntries = 512;
    struct Entry {
      /// predict_makespan's answer.
      util::Seconds makespan{0.0};
      /// Quiet-network duration of the physical first step the shared
      /// fabric prices (0 when un-timeable); computed on its first use.
      std::optional<util::Seconds> quiet_first_step;
    };
    std::map<std::pair<std::vector<topo::NodeId>, std::uint64_t>, Entry>
        entries;
  };

  /// The memo entry for (participants, payload), or nullptr.
  [[nodiscard]] const PriceMemo::Entry* find_price(
      const std::vector<topo::NodeId>& participants,
      util::Bytes payload) const {
    if (!memo_) return nullptr;
    const auto cached = memo_->entries.find({participants, payload.count()});
    return cached != memo_->entries.end() ? &cached->second : nullptr;
  }

  /// The memo entry for (participants, payload), created on a miss.
  [[nodiscard]] PriceMemo::Entry& price_memo(
      const std::vector<topo::NodeId>& participants,
      util::Bytes payload) const {
    if (!memo_) memo_ = std::make_unique<PriceMemo>();
    std::pair<std::vector<topo::NodeId>, std::uint64_t> key{participants,
                                                            payload.count()};
    const auto cached = memo_->entries.find(key);
    if (cached != memo_->entries.end()) return cached->second;
    if (memo_->entries.size() >= PriceMemo::kMaxEntries) {
      memo_->entries.clear();
    }
    PriceMemo::Entry entry;
    entry.makespan =
        coll::alpha_beta_cost(
            best_compact_schedule(
                static_cast<std::uint32_t>(participants.size()), payload),
            payload, elec::alpha_beta_for(cluster_))
            .total;
    return memo_->entries.emplace(std::move(key), entry).first->second;
  }

  /// timer_.time_step, counting its max-min solves as fabric.solves.quiet
  /// and their rounds in fabric.solver.rounds.
  [[nodiscard]] std::optional<util::Seconds> time_quiet(
      const coll::Schedule& schedule, std::size_t step,
      util::Bytes payload) const {
    const std::uint64_t before = timer_.solves();
    const std::uint64_t rounds_before = timer_.rounds();
    const std::optional<util::Seconds> quiet =
        timer_.time_step(schedule, step, payload);
    obs::inc(quiet_solves_, timer_.solves() - before);
    obs::inc(solver_rounds_, timer_.rounds() - rounds_before);
    return quiet;
  }

  /// Cheapest of the baseline all-reduces for k ranks under this cluster's
  /// alpha-beta parameters: chunked ring (bandwidth-optimal) vs recursive
  /// doubling (latency-optimal; only a candidate at power-of-two k, where
  /// it needs no fold/unfold steps).
  [[nodiscard]] coll::Schedule best_compact_schedule(std::uint32_t k,
                                                     util::Bytes payload) const {
    coll::Schedule ring = coll::ring_allreduce(k);
    if ((k & (k - 1)) != 0) return ring;
    coll::Schedule doubling = coll::recursive_doubling(k);
    const coll::AlphaBetaParams ab = elec::alpha_beta_for(cluster_);
    const util::Seconds ring_cost =
        coll::alpha_beta_cost(ring, payload, ab).total;
    const util::Seconds doubling_cost =
        coll::alpha_beta_cost(doubling, payload, ab).total;
    return doubling_cost < ring_cost ? std::move(doubling) : std::move(ring);
  }

  /// kResume: re-place a suspended remainder.  Grant widths are meaningless
  /// here — the remainder needs exactly one host per participant — and the
  /// participant set never shrinks (hosts checkpoint at BSP boundaries, so
  /// a node fault costs a remap, not data; request.nodes is ignored).
  /// Preference order: the original ring positions when all free (physical
  /// == functional again), else the lowest-id free hosts (deterministic),
  /// carried by the schedule remap.
  [[nodiscard]] RenegotiationOutcome resume(
      const ElectricalExecution& current,
      const RenegotiationRequest& request) {
    const std::optional<std::vector<topo::NodeId>> hosts =
        pick_hosts(current.participants);
    if (!hosts) return {};
    return {make_plan(schedule_tail(current.compact_, request.steps_done),
                      *hosts, current.participants, current.payload)};
  }

  /// kRestart: a brand-new plan among request.nodes carrying
  /// request.payload — a first placement (on the participants' own hosts,
  /// so functional and physical coincide), the landing half of a
  /// cross-substrate migration, or a survivor restart after an eviction the
  /// remainder could not absorb.
  [[nodiscard]] RenegotiationOutcome restart(
      const RenegotiationRequest& request) {
    if (request.nodes.size() < 2) return {};
    const std::optional<std::vector<topo::NodeId>> hosts =
        pick_hosts(request.nodes);
    if (!hosts) return {};
    std::unique_ptr<SubstrateExecution> plan = make_plan(
        best_compact_schedule(static_cast<std::uint32_t>(request.nodes.size()),
                              request.payload),
        *hosts, request.nodes, request.payload);
    static_cast<ElectricalExecution&>(*plan).whole = true;
    return {std::move(plan)};
  }

  /// One free host per participant: the participants' own ring positions
  /// when all free, else the lowest-id free hosts; nullopt when the fabric
  /// cannot seat them all.
  [[nodiscard]] std::optional<std::vector<topo::NodeId>> pick_hosts(
      const std::vector<topo::NodeId>& participants) const {
    if (can_place(participants, 1)) return participants;
    std::vector<topo::NodeId> hosts;
    const std::size_t needed = participants.size();
    for (topo::NodeId h = 0; h < host_busy_.size() && hosts.size() < needed;
         ++h) {
      if (!host_busy_[h]) hosts.push_back(h);
    }
    if (hosts.size() < needed) return std::nullopt;
    return hosts;
  }

  /// Take every down host no execution holds out of service (marked busy,
  /// so no placement or resume can claim it).
  void take_down_hosts() {
    hosts_down_.sweep([this](std::size_t host) {
      if (host_busy_[host]) return false;
      host_busy_[host] = true;
      return true;
    });
  }

  /// Claim `hosts` (which must be free) and build the plan that runs
  /// `compact` for `participants` on them.  Shared tail of kResume and
  /// kRestart.
  [[nodiscard]] std::unique_ptr<SubstrateExecution> make_plan(
      const coll::Schedule& compact, const std::vector<topo::NodeId>& hosts,
      const std::vector<topo::NodeId>& participants, util::Bytes payload) {
    auto plan = std::make_unique<ElectricalExecution>();
    plan->compact_ = compact;
    plan->functional_ =
        remap_onto_hosts(compact, participants, cluster_.num_hosts());
    plan->physical_ = remap_onto_hosts(compact, hosts, cluster_.num_hosts());
    plan->payload = payload;
    plan->participants = participants;
    plan->hosts_ = hosts;
    plan->holds_hosts = true;
    if (shared_) {
      plan->session = shared_->open_session();
      plan->has_session = true;
      session_plans_[plan->session] = plan.get();
    }
    for (const topo::NodeId host : hosts) host_busy_[host] = true;
    return plan;
  }

  elec::ElectricalCluster cluster_;
  /// Quiet-network scratch timer (reset per step).  Mutable because the
  /// const routing probe predict_completion also needs a quiet baseline.
  mutable elec::StepFlowTimer timer_;
  ElectricalFallbackConfig config_;
  /// Engaged only for kTwoLevelShared.
  std::optional<elec::SharedFabricTimer> shared_;
  std::map<elec::SharedFabricTimer::SessionId, SubstrateExecution*>
      session_plans_;
  /// Claimed by an execution, or down and out of service.  Bytes, not
  /// bits: host_busy() is the placement scan's hot read, and a byte vector
  /// is 16 bytes smaller than vector<bool>, which keeps this object within
  /// glibc malloc's 1,032-byte per-thread cache (one size class more costs
  /// a few percent of the fabric's construction time).
  std::vector<std::uint8_t> host_busy_;
  /// Host frees so far (see free_epoch()).
  std::uint64_t free_epoch_ = 0;
  DownUnits hosts_down_;
  /// Allocated on the first price.
  mutable std::unique_ptr<PriceMemo> memo_;
  /// fabric.solves.quiet and fabric.solver.rounds; nullptr without a
  /// registry (shared fabric only).
  obs::Counter* quiet_solves_ = nullptr;
  obs::Counter* solver_rounds_ = nullptr;
};

// glibc malloc serves requests up to 1,032 bytes from its per-thread cache;
// one size class more measurably slows building the fabric (setup_s), so
// new per-substrate state goes behind a lazily allocated pointer.
static_assert(sizeof(ElectricalSubstrate) <= 1024,
              "ElectricalSubstrate outgrew glibc's 1,032-byte tcache class");

}  // namespace

const char* electrical_fabric_name(ElectricalFabric fabric) {
  switch (fabric) {
    case ElectricalFabric::kStarExclusive:
      return "star-exclusive";
    case ElectricalFabric::kTwoLevelShared:
      return "two-level-shared";
  }
  return "?";
}

std::unique_ptr<ExecutionSubstrate> make_electrical_substrate(
    std::uint32_t num_hosts, const ElectricalFallbackConfig& config) {
  return std::make_unique<ElectricalSubstrate>(num_hosts, config);
}

}  // namespace wrht::runtime
