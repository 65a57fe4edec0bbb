// Multi-tenant flow timing on ONE shared FlowNetwork — the electrical
// analogue of the shared optical SpectrumMap.
//
// The star fallback gives every execution exclusive host links, so each
// step runs on a private quiet network and tenants never contend — which
// hides the congestion that motivates the optical ring in the first place.
// On an oversubscribed two-level tree the ToR uplinks are genuinely shared:
// a step's completion time depends on what every other tenant is sending
// through the same uplinks at the same instant.
//
// SharedFabricTimer therefore keeps ONE long-lived FlowNetwork for the
// whole fabric and times the in-flight steps of ALL concurrent executions
// together under max-min fair sharing.  It predicts nothing: step ends come
// from the real network, advanced event by event.
//
//  * begin_step(session, ...) advances the shared network to `now` and
//    injects the step's flows next to whatever other tenants have in
//    flight.
//  * next_wake() names the instant the network next needs advancing: its
//    next flow activation or completion (now() while a drained step awaits
//    delivery).  wake(t) advances to t and hands back, one at a time in
//    ascending session order, the sessions whose step drained — found from
//    the flows that completed during the advance, not by polling sessions.
//    Arrivals and departures change the sharing; the next wake simply lands
//    wherever the real network's next event now is, so no step end is ever
//    predicted and corrected.
//  * predict_step_completion() is the congestion-aware router's price: one
//    max-min solve of a live-flows clone with the candidate step injected,
//    taken from the fabric's current state rather than a simulated future.
//    The part of that probe no candidate changes is paid once per instant:
//    a candidate's flows wait outside every solve until the first of them
//    activates, so the live flows run to that activation are a prefix all
//    candidates priced at the same instant with the same first route
//    latency share.  The timer caches those prefixes until its network
//    next changes (at most one per distinct route latency); each probe
//    copies one, injects its flows with their original activation instants
//    and runs on from there, bit for bit the run an uncached probe makes.
//
// Correctness is anchored by the max-min certificate (see flow_network.hpp):
// with `replay_audit` on, the shared network checks after every solve that
// its rates are max-min fair — each link within capacity, each flow at the
// top rate of a saturated link — and that no completion landed late, and
// aborts otherwise.  Step ends are read from those certified rates, so the
// proof covers every delivered step in O(1) memory, however long the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "coll/schedule.hpp"
#include "elec/topology.hpp"
#include "util/units.hpp"

namespace wrht::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace wrht::obs

namespace wrht::elec {

class SharedFabricTimer {
 public:
  using SessionId = std::uint32_t;

  /// `cluster` must outlive the timer.  `replay_audit` certifies every
  /// solve of the shared network (see the file comment); the certificate
  /// only reads the rates, so timing is bit-identical either way.
  explicit SharedFabricTimer(const ElectricalCluster& cluster,
                             bool replay_audit = true);

  /// Register the timer's metrics with `registry`: the steps-timed counter,
  /// the max-min solve counters "fabric.solves.{network,probe}" (the real
  /// network and the router probe — a cached prefix counted once, when
  /// built), "fabric.solves.certified" (real-network solves that passed
  /// the certificate), "fabric.solver.rounds" (progressive-filling rounds
  /// of those network and probe solves), and the
  /// "electrical.uplink_utilization" sampled gauge (utilization of the
  /// currently-hottest fabric link, refreshed on every injection/close).
  /// The registry must outlive the timer.
  void attach_metrics(obs::MetricsRegistry& registry);

  /// Register a tenant execution.  Sessions are cheap; one per execution.
  [[nodiscard]] SessionId open_session();

  /// Advance the shared network to `now` and inject the flows of `schedule`
  /// step `step` (payload split exactly as the quiet-network runner splits
  /// it) next to every other in-flight step.  The step's end is not
  /// predicted: wake() delivers it once its last flow drains (a flow-less
  /// step drains at once).  The session's previous step must have drained
  /// by `now`.  Returns false on a bad request: unknown/closed session,
  /// out-of-range step, a schedule needing more hosts than the cluster has,
  /// a clock running backwards, or a previous step still in flight.  A
  /// rejected request injects no flows; the still-in-flight case has
  /// already advanced the shared clock to `now`.
  [[nodiscard]] bool begin_step(SessionId session,
                                const coll::Schedule& schedule,
                                std::size_t step, util::Bytes payload,
                                util::Seconds now);

  /// When the shared network next needs advancing: now() while a drained
  /// step awaits delivery, else its next flow activation or completion;
  /// nullopt with nothing in flight.
  [[nodiscard]] std::optional<util::Seconds> next_wake();

  /// Advance the shared network to `now` (>= its clock; normally the
  /// instant next_wake() named) and deliver the lowest-id session whose
  /// in-flight step has drained, finalizing that step; nullopt once none is
  /// left.  Call until nullopt to take every step that ended at `now`.
  [[nodiscard]] std::optional<SessionId> wake(util::Seconds now);

  /// Close a session at `now` (its last step must have drained by then).
  void close_session(SessionId session, util::Seconds now);

  /// Congestion-aware what-if probe: the completion time `schedule` step
  /// `step` would have if its flows joined the shared fabric at `now` and
  /// kept the max-min rates they get once active.  A live-flows clone of
  /// the shared network is advanced to `now`, takes the step's flows, and
  /// runs on only until the last of them activates (one route latency);
  /// each flow is then priced at its remaining bytes over its current rate.
  /// The price reads today's contention and forecasts no drain or arrival.
  /// The clone's run up to the step's first activation comes from the
  /// per-instant prefix cache (see the file comment).  Leaves the shared
  /// network untouched; the clones do not certify.  Same rejection cases
  /// as begin_step's schedule checks (out-of-range step, too many hosts, a
  /// clock before the fabric's).
  [[nodiscard]] std::optional<util::Seconds> predict_step_completion(
      const coll::Schedule& schedule, std::size_t step, util::Bytes payload,
      util::Seconds now) const;

  [[nodiscard]] std::size_t active_sessions() const;

  /// Peak utilization (allocated rate / capacity, in [0,1]) per link of the
  /// shared network since construction.  Indexed by the cluster's link ids.
  [[nodiscard]] std::vector<double> link_peak_utilization() const;

  /// Steps begun with the certificate on (finalized or in flight).
  [[nodiscard]] std::uint64_t logged_steps() const { return logged_steps_; }

  /// When `session`'s last finalized step ended: the latest completion of
  /// its flows on the shared network, or its start for a flow-less step.
  /// A wake() that lands on the instant next_wake() named delivers exactly
  /// this instant.  Zero before the session's first step is finalized.
  [[nodiscard]] util::Seconds step_end(SessionId session) const;

 private:
  struct Session {
    bool open = false;
    /// FlowNetwork ids of the current step's flows, ascending.
    std::vector<FlowId> inflight;
    /// Flows of the current step not yet completed; the step has drained
    /// when this reaches 0.
    std::size_t flows_left = 0;
    bool has_step = false;
    /// Start/ordinal of the in-flight step.
    util::Seconds step_start{0.0};
    std::uint64_t step_number = 0;
    /// End of the last finalized step.
    util::Seconds last_end{0.0};
  };

  /// Probe prefixes for one (version_, instant): the live flows run to the
  /// instant and then to a first activation, one network per distinct
  /// first activation — at most one per distinct route latency of the
  /// cluster (two on a two-level tree, one on a star).
  struct ProbePrefixes {
    std::uint64_t version = 0;
    util::Seconds now{0.0};
    std::vector<std::pair<util::Seconds, FlowNetwork>> by_first;
    std::vector<FlowId> id_map;  // clone_live scratch
  };

  /// Advance the shared network to `to` and move every session whose last
  /// flow completed on the way onto drained_.
  void advance(util::Seconds to);
  /// Finalize the session's in-flight step: every flow must have completed
  /// on the shared network (aborts otherwise — a step boundary fired before
  /// its flows drained); records the step's end.
  void finalize_step(SessionId session_id);
  /// Take `session_id` off drained_ if it is there.
  void undrain(SessionId session_id);

  /// A copy of the live flows of the shared network run to `now` and then
  /// to `first`, taken from the prefix cache (built on a miss).
  [[nodiscard]] FlowNetwork probe_prefix(util::Seconds now,
                                         util::Seconds first) const;

  /// Refresh the uplink-utilization gauge (no-op without a registry).
  void publish_utilization();
  /// Add the real network's solves and rounds since the given readings to
  /// their counters; with the certificate on, every solve was certified
  /// (a failure aborts).
  void count_network_work(std::uint64_t solves_before,
                          std::uint64_t rounds_before);

  /// Let the network retire the storage of flows below every open
  /// session's oldest in-flight flow — nobody will query them again.
  void retire_drained();

  const ElectricalCluster* cluster_;
  FlowNetwork network_;
  std::vector<Session> sessions_;
  /// Ids of open sessions, ascending — the working set the retirement floor
  /// walks instead of every session ever opened.
  std::vector<SessionId> open_sessions_;
  /// Sessions whose step drained but was not yet delivered by wake().
  std::vector<SessionId> drained_;
  /// advance() scratch: the owning session of each flow that completed.
  std::vector<SessionId> completed_;
  std::uint64_t logged_steps_ = 0;
  /// Bumped on every change to network_ (advance, injection, retirement);
  /// a cached probe prefix is valid only at the version it was built at.
  std::uint64_t version_ = 0;
  /// predict_step_completion's prefix cache, allocated on the first probe.
  mutable std::unique_ptr<ProbePrefixes> probe_prefixes_;
  /// Metric handles; nullptr (zero-overhead emission) without a registry.
  obs::Counter* steps_timed_ = nullptr;
  obs::Counter* network_solves_ = nullptr;
  obs::Counter* probe_solves_ = nullptr;
  obs::Counter* certified_solves_ = nullptr;
  obs::Counter* solver_rounds_ = nullptr;
  obs::Gauge* uplink_utilization_ = nullptr;
};

}  // namespace wrht::elec
