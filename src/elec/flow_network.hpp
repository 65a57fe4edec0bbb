// Flow-level network simulator with max-min fair bandwidth sharing — the
// substitute for SimGrid's fluid TCP model (DESIGN.md §3).
//
// A flow traverses a fixed route of links.  At any instant, active flows
// receive the max-min fair allocation computed by progressive filling: the
// most contended link determines the fair share of the flows crossing it,
// those flows are frozen, residual capacity propagates, repeat.  Rates are
// a pure function of the active flow set, so they are re-solved only after
// a flow activates or completes; completion times are exact for the fluid
// model (no time-stepping error).
//
// Latency is modelled as an activation delay: a flow placed at time t with
// route latency L starts consuming bandwidth at t + L.
//
// A network can certify its own solves (enable_certificate()): after each
// one it checks with certify_max_min() that the rates are max-min fair, and
// at each completion that the event did not land late, and aborts naming
// the link or flow otherwise.  The check only reads the rates, and its
// memory does not grow with the run.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace wrht::elec {

using LinkId = std::uint32_t;
using FlowId = std::uint32_t;

/// "No such flow" marker (clone_live id maps, absent lookups).
inline constexpr FlowId kNoFlow = 0xFFFFFFFFu;

struct LinkSpec {
  util::Bandwidth capacity = util::gbps(10.0);
  util::Seconds latency = util::microseconds(25.0);
};

/// One flow of an allocation, as the max-min certificate reads it.
struct RatedFlow {
  std::span<const LinkId> route;
  double rate = 0.0;  // bytes/second
  FlowId id = 0;      // named in a violation
};

/// Why an allocation is not max-min fair: a link over its capacity, a flow
/// crossing no saturated link, or a flow below the top rate on every
/// saturated link it crosses.  `id` is the link's or the flow's.
struct MaxMinViolation {
  enum class Kind : std::uint8_t { kOverCapacity, kUnsaturated, kOutpaced };
  Kind kind = Kind::kOverCapacity;
  std::uint32_t id = 0;
};

/// Relative slack of the certificate.  The solver freezes every flow whose
/// link share lies within 1e-12 of the bottleneck share, so a bottleneck
/// may keep up to 1e-12 of its capacity unallocated, and summing a link's
/// rates rounds by a few ulps (elec.link_peak_max reads 1.0000000000000002
/// on a saturated uplink).  1e-9 sits three orders of magnitude above both
/// and far below any real misallocation, which is off by a whole share.
inline constexpr double kMaxMinTolerance = 1e-9;

/// The max-min optimality certificate: every link carries at most its
/// capacity, and every flow crosses a saturated link on which no flow has a
/// higher rate.  Both hold exactly for the max-min fair rates.  `capacity`
/// is indexed by link id (bytes/second); `allocated` and `top_rate` are
/// per-link scratch, grown to capacity.size() if smaller, that end up
/// holding each crossed link's rate sum (in flow, then route order) and
/// top rate.  Returns the first violation met, walking the flows in order
/// and each flow's links in route order.
[[nodiscard]] std::optional<MaxMinViolation> certify_max_min(
    std::span<const double> capacity, std::span<const RatedFlow> flows,
    std::vector<double>& allocated, std::vector<double>& top_rate);

class FlowNetwork {
 public:
  LinkId add_link(LinkSpec spec);
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  /// The latencies of `route`'s links, summed in route order.
  [[nodiscard]] util::Seconds route_latency(
      const std::vector<LinkId>& route) const;

  /// Place a flow of `bytes` over `route` starting at the current time: it
  /// activates after route_latency(route).  `tag` is the caller's opaque
  /// label, reported when the flow completes.
  FlowId add_flow(std::vector<LinkId> route, util::Bytes bytes,
                  std::uint32_t tag = 0);

  /// Place a flow that activates at `activation` (>= now()).  A flow waits
  /// outside every solve until it activates, so running a network to an
  /// instant t and only then adding a flow that activates at t reproduces,
  /// bit for bit, the run in which the same flow was added earlier with the
  /// latency that lands it on t.  The shared-fabric probe builds on this.
  FlowId add_flow_at(std::vector<LinkId> route, util::Bytes bytes,
                     util::Seconds activation, std::uint32_t tag = 0);

  /// Advance the fluid simulation until every flow has completed.
  /// Returns the simulated time reached.
  util::Seconds run();

  /// Advance the fluid simulation to `horizon` (>= now()), processing every
  /// activation and completion on the way; flows still in flight stay live.
  /// The clock lands exactly on the horizon even when the network drains
  /// earlier, so flows added afterwards activate relative to it.  This is
  /// the seam the shared-fabric timer drives: one long-lived network,
  /// advanced event by event and to each tenant's step start.  With
  /// `completed`, the tag of every flow completing on the way is appended
  /// to it, in completion order — how a caller learns which of its flows
  /// drained without polling them.
  util::Seconds run_until(util::Seconds horizon,
                          std::vector<std::uint32_t>* completed = nullptr);

  /// The next instant a flow activates or completes under the current
  /// rates (solving them first if the active set changed), or nullopt with
  /// nothing in flight.  run_until() of exactly this instant processes the
  /// event without splitting any flow's drain, so a caller that advances
  /// event by event reproduces one long run_until bit for bit.
  [[nodiscard]] std::optional<util::Seconds> next_event();

  /// Max-min solves performed since construction (a solve is skipped when
  /// the active set has not changed since the last one).  A deterministic
  /// work counter for attributing host time.
  [[nodiscard]] std::uint64_t solves() const { return solves_; }
  /// Progressive-filling rounds summed over those solves (one round fixes
  /// the flows of one bottleneck share).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Certify every later solve (see the file comment); clone_live()
  /// copies do not.
  void enable_certificate() { certify_ = true; }
  [[nodiscard]] bool certifies() const { return certify_; }

  [[nodiscard]] util::Seconds now() const { return now_; }
  [[nodiscard]] bool completed(FlowId flow) const;
  [[nodiscard]] util::Seconds completion_time(FlowId flow) const;
  /// Cumulative bytes carried by a link since construction/reset.
  [[nodiscard]] util::Bytes link_bytes(LinkId link) const;

  /// Current max-min rate of an active flow (0 while waiting/finished).
  [[nodiscard]] double current_rate(FlowId flow) const;

  /// When `flow` would complete if today's max-min rates held: its
  /// completion time once done, else now() + remaining bytes / current
  /// rate (solving the rates first if the active set changed); infinite
  /// while the flow waits to activate.  One solve, no forward run — the
  /// shared fabric's routing price.
  [[nodiscard]] util::Seconds completion_at_current_rate(FlowId flow);

  /// Highest instantaneous utilization (allocated rate / capacity) a link
  /// has seen since construction/reset, in [0, 1].  Sampled at every rate
  /// recomputation — exact for the fluid model, whose rates only change at
  /// those instants.
  [[nodiscard]] double link_peak_utilization(LinkId link) const;

  /// CURRENT utilization of a link as of the last rate recomputation, in
  /// [0, 1] — the live-congestion signal behind the observability layer's
  /// uplink-utilization gauge.
  [[nodiscard]] double link_utilization(LinkId link) const;

  /// A copy of this network holding only the flows still in flight.  The
  /// copy is the cheap substrate for what-if probes (inject into the copy,
  /// read its rates or run it forward) on long-lived networks whose
  /// completed-flow history keeps growing.  Fills `id_map` with one
  /// entry per UNRETIRED flow, indexed by (flow - id_floor()): its id in
  /// the copy, or kNoFlow if done.
  [[nodiscard]] FlowNetwork clone_live(std::vector<FlowId>& id_map) const;

  /// Flows with ids below this have been retired (storage dropped); they
  /// were all complete and may no longer be queried.
  [[nodiscard]] FlowId id_floor() const { return base_; }

  /// Drop the storage of completed flows with id < `floor` once the caller
  /// guarantees it will never query them again.  Clamped to the oldest
  /// still-live flow, so it can never retire an in-flight one; amortized so
  /// small prefixes wait until the front-erase pays for itself.  This is
  /// what keeps a month-long serving network's flow table sized to its
  /// in-flight window instead of its whole history.
  void retire_done_below(FlowId floor);

  /// Drop all flows (completed or not) and zero the clock; links persist.
  void reset();

 private:
  enum class FlowState : std::uint8_t { kWaiting, kActive, kDone };

  struct Link {
    LinkSpec spec;
    double carried_bytes = 0.0;
    double peak_utilization = 0.0;
    /// Allocated rate / capacity as of the last recompute_rates().
    double utilization = 0.0;
  };
  struct Flow {
    std::vector<LinkId> route;
    double remaining = 0.0;  // bytes
    double rate = 0.0;       // bytes/second while active
    util::Seconds activation{0.0};
    util::Seconds completion{0.0};
    std::uint32_t tag = 0;
    FlowState state = FlowState::kWaiting;
  };

  void recompute_rates();
  [[nodiscard]] util::Seconds next_event_time() const;
  void advance_to(util::Seconds when);
  void settle(std::vector<std::uint32_t>* completed);

  [[nodiscard]] Flow& flow_ref(FlowId id) { return flows_[id - base_]; }
  [[nodiscard]] const Flow& flow_ref(FlowId id) const {
    return flows_[id - base_];
  }

  std::vector<Link> links_;
  /// Each link's capacity in bytes/second, as the certificate reads it;
  /// filled at the first certified solve, so building a network costs no
  /// extra allocation.
  std::vector<double> capacity_;
  /// Storage for flows with id >= base_ (flow `id` lives at
  /// flows_[id - base_]); ids below base_ were retired.
  std::vector<Flow> flows_;
  FlowId base_ = 0;
  /// The active set changed since the last solve (activation, completion,
  /// reset); recompute_rates() is a no-op while this is false.  The flags
  /// sit in base_'s padding: ElectricalSubstrate holds two networks within
  /// 1,024 bytes.
  bool rates_stale_ = true;
  bool certify_ = false;
  /// Ids of flows not yet done, ascending (appended in id order, erased in
  /// place).  Keeps the event loop linear in the number of *live* flows,
  /// not all flows ever added (the Figure-2 harness pushes millions of
  /// flows through one network).
  std::vector<FlowId> live_;
  util::Seconds now_{0.0};
  std::uint64_t solves_ = 0;
  std::uint64_t rounds_ = 0;
  /// recompute_rates() scratch, reused across solves.  crossing_ and
  /// residual_ are indexed by link (crossing_ all zero between solves);
  /// touched_ lists the links some active flow crossed at the last solve,
  /// so a solve walks only those instead of every link of the fabric.
  /// The certificate reads the active flows through rated_ and reuses
  /// residual_ for each link's top rate.
  std::vector<double> residual_;
  std::vector<std::uint32_t> crossing_;
  std::vector<double> allocated_;
  std::vector<LinkId> touched_;
  std::vector<FlowId> unfixed_;
  std::vector<RatedFlow> rated_;
};

}  // namespace wrht::elec
