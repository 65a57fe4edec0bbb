#include "elec/flow_network.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace wrht::elec {
namespace {

// Residual bytes below this threshold count as delivered; keeps the fluid
// arithmetic robust against double rounding without affecting timing at any
// realistic message size.  The margin is sized for run_until-driven
// networks, where one flow's drain is split across several advance points
// (each tenant arrival is one) and the rounding of rate*dt accumulates per
// split: a milli-byte is still under a picosecond at any modeled link rate.
constexpr double kEpsilonBytes = 1e-3;

}  // namespace

std::optional<MaxMinViolation> certify_max_min(
    std::span<const double> capacity, std::span<const RatedFlow> flows,
    std::vector<double>& allocated, std::vector<double>& top_rate) {
  if (allocated.size() < capacity.size()) allocated.resize(capacity.size());
  if (top_rate.size() < capacity.size()) top_rate.resize(capacity.size());
  for (const RatedFlow& flow : flows) {
    for (const LinkId link : flow.route) {
      allocated[link] = 0.0;
      top_rate[link] = 0.0;
    }
  }
  for (const RatedFlow& flow : flows) {
    for (const LinkId link : flow.route) {
      allocated[link] += flow.rate;
      top_rate[link] = std::max(top_rate[link], flow.rate);
    }
  }
  for (const RatedFlow& flow : flows) {
    bool saturated = false;
    bool bottleneck = false;
    for (const LinkId link : flow.route) {
      // Phrased so that a NaN fails it.
      if (!(allocated[link] <= capacity[link] * (1 + kMaxMinTolerance))) {
        return MaxMinViolation{MaxMinViolation::Kind::kOverCapacity, link};
      }
      if (!bottleneck &&
          allocated[link] >= capacity[link] * (1 - kMaxMinTolerance)) {
        saturated = true;
        bottleneck = flow.rate >= top_rate[link] * (1 - kMaxMinTolerance);
      }
    }
    if (!bottleneck) {
      return MaxMinViolation{saturated ? MaxMinViolation::Kind::kOutpaced
                                       : MaxMinViolation::Kind::kUnsaturated,
                             flow.id};
    }
  }
  return std::nullopt;
}

LinkId FlowNetwork::add_link(LinkSpec spec) {
  WRHT_REQUIRE(spec.capacity.bytes_per_second() > 0.0,
               "FlowNetwork: link capacity must be positive, got "
                   << spec.capacity.bytes_per_second() << " B/s");
  links_.push_back(Link{spec, 0.0});
  return static_cast<LinkId>(links_.size() - 1);
}

util::Seconds FlowNetwork::route_latency(
    const std::vector<LinkId>& route) const {
  util::Seconds latency{0.0};
  for (const LinkId link : route) {
    WRHT_REQUIRE(link < links_.size(),
                 "FlowNetwork: route uses unknown link " << link);
    latency += links_[link].spec.latency;
  }
  return latency;
}

FlowId FlowNetwork::add_flow(std::vector<LinkId> route, util::Bytes bytes,
                             std::uint32_t tag) {
  const util::Seconds activation = now_ + route_latency(route);
  return add_flow_at(std::move(route), bytes, activation, tag);
}

FlowId FlowNetwork::add_flow_at(std::vector<LinkId> route, util::Bytes bytes,
                                util::Seconds activation, std::uint32_t tag) {
  for (const LinkId link : route) {
    WRHT_REQUIRE(link < links_.size(),
                 "FlowNetwork: route uses unknown link " << link);
  }
  WRHT_REQUIRE(activation >= now_,
               "FlowNetwork: flow activates at " << activation.value()
                                                 << "s, before the clock "
                                                 << now_.value() << "s");
  Flow flow;
  flow.route = std::move(route);
  flow.remaining = bytes.as_double();
  flow.activation = activation;
  flow.tag = tag;
  flows_.push_back(std::move(flow));
  const FlowId id = base_ + static_cast<FlowId>(flows_.size() - 1);
  live_.push_back(id);
  return id;
}

void FlowNetwork::recompute_rates() {
  if (!rates_stale_) return;
  rates_stale_ = false;
  ++solves_;
  if (crossing_.size() != links_.size()) {
    residual_.resize(links_.size());
    crossing_.resize(links_.size(), 0);
    allocated_.resize(links_.size());
  }
  // Links the previous solve loaded carry nothing unless re-touched below.
  for (const LinkId link : touched_) links_[link].utilization = 0.0;
  touched_.clear();

  // Progressive filling over the active flows, on the links they cross.
  unfixed_.clear();
  for (const FlowId f : live_) {
    Flow& flow = flow_ref(f);
    if (flow.state != FlowState::kActive) continue;
    flow.rate = 0.0;
    unfixed_.push_back(f);
    for (const LinkId link : flow.route) {
      if (crossing_[link]++ == 0) {
        touched_.push_back(link);
        residual_[link] = links_[link].spec.capacity.bytes_per_second();
      }
    }
  }

  while (!unfixed_.empty()) {
    ++rounds_;
    // The bottleneck link offers the smallest fair share.
    double min_share = std::numeric_limits<double>::infinity();
    for (const LinkId link : touched_) {
      if (crossing_[link] == 0) continue;
      min_share = std::min(min_share, residual_[link] / crossing_[link]);
    }
    // Flows with empty routes have no constraining link; "infinitely
    // fast" is unphysical, so forbid them instead.
    WRHT_CHECK(std::isfinite(min_share),
               "FlowNetwork: active flow with empty route");

    // Freeze every unfixed flow that crosses a bottleneck link, moving it
    // behind the flows left unfixed.  Order within a round is immaterial:
    // the test reads residuals that only the charge loop below changes,
    // and every frozen flow takes the same share, so each link sees the
    // same subtractions in any order.
    const auto frozen =
        std::partition(unfixed_.begin(), unfixed_.end(), [&](FlowId f) {
          const std::vector<LinkId>& route = flow_ref(f).route;
          return std::none_of(route.begin(), route.end(), [&](LinkId link) {
            return residual_[link] / crossing_[link] <=
                   min_share * (1 + 1e-12);
          });
        });
    WRHT_CHECK(frozen != unfixed_.end(),
               "FlowNetwork: progressive filling stalled with "
                   << unfixed_.size() << " unfixed flows");
    // Charge frozen flows against their links.
    for (auto it = frozen; it != unfixed_.end(); ++it) {
      Flow& flow = flow_ref(*it);
      flow.rate = min_share;
      // simlint-allow(float-eq): a zero share is exact (a residual clamped
      // to 0.0 below), not a computed near-miss; such flows are not charged.
      if (flow.rate == 0.0) continue;
      for (const LinkId link : flow.route) {
        residual_[link] -= flow.rate;
        if (residual_[link] < 0.0) residual_[link] = 0.0;
        --crossing_[link];
      }
    }
    unfixed_.erase(frozen, unfixed_.end());
  }

  // Rates only change here, so sampling here makes the per-link peak exact.
  for (const LinkId link : touched_) {
    crossing_[link] = 0;  // flows frozen at a zero share were never charged
  }
  if (certify_) {
    if (capacity_.size() != links_.size()) {
      capacity_.clear();
      for (const Link& link : links_) {
        capacity_.push_back(link.spec.capacity.bytes_per_second());
      }
    }
    // The active flows in live_ order, so allocated_ sums exactly as the
    // uncertified pass below would.
    rated_.clear();
    for (const FlowId f : live_) {
      const Flow& flow = flow_ref(f);
      if (flow.state == FlowState::kActive) {
        rated_.push_back(RatedFlow{flow.route, flow.rate, f});
      }
    }
    const std::optional<MaxMinViolation> v =
        certify_max_min(capacity_, rated_, allocated_, residual_);
    static constexpr const char* kWhat[] = {
        " carries more than its capacity", " crosses no saturated link",
        " is below the top rate on every saturated link it crosses"};
    WRHT_CHECK(!v, "FlowNetwork: max-min certificate failed at t="
                       << now_.value() << "s: "
                       << (v->kind == MaxMinViolation::Kind::kOverCapacity
                               ? "link "
                               : "flow ")
                       << v->id << kWhat[static_cast<int>(v->kind)]);
  } else {
    for (const LinkId link : touched_) allocated_[link] = 0.0;
    for (const FlowId f : live_) {
      const Flow& flow = flow_ref(f);
      if (flow.state != FlowState::kActive) continue;
      for (const LinkId link : flow.route) allocated_[link] += flow.rate;
    }
  }
  for (const LinkId link : touched_) {
    Link& l = links_[link];
    l.utilization = allocated_[link] / l.spec.capacity.bytes_per_second();
    l.peak_utilization = std::max(l.peak_utilization, l.utilization);
  }
}

util::Seconds FlowNetwork::next_event_time() const {
  util::Seconds next{std::numeric_limits<double>::infinity()};
  for (const FlowId f : live_) {
    const Flow& flow = flow_ref(f);
    if (flow.state == FlowState::kWaiting) {
      next = std::min(next, flow.activation);
    } else if (flow.state == FlowState::kActive && flow.rate > 0.0) {
      next = std::min(next, now_ + util::Seconds(flow.remaining / flow.rate));
    }
  }
  return next;
}

void FlowNetwork::advance_to(util::Seconds when) {
  const double dt = (when - now_).value();
  for (const FlowId f : live_) {
    Flow& flow = flow_ref(f);
    if (flow.state != FlowState::kActive) continue;
    const double moved = flow.rate * dt;
    flow.remaining -= moved;
    for (const LinkId link : flow.route) {
      links_[link].carried_bytes += moved;
    }
  }
  now_ = when;
}

void FlowNetwork::settle(std::vector<std::uint32_t>* completed) {
  bool any_done = false;
  for (const FlowId f : live_) {
    Flow& flow = flow_ref(f);
    if (flow.state == FlowState::kWaiting && flow.activation <= now_) {
      flow.state = FlowState::kActive;
      rates_stale_ = true;
    }
    if (flow.state == FlowState::kActive && flow.remaining <= kEpsilonBytes) {
      // A completion event lands when the flow's bytes run out; far below
      // zero, it landed late.
      WRHT_CHECK(!certify_ || flow.remaining >= -kEpsilonBytes,
                 "FlowNetwork: flow " << f << " overshot its completion by "
                                      << -flow.remaining << " bytes at t="
                                      << now_.value() << "s");
      flow.state = FlowState::kDone;
      flow.completion = now_;
      flow.rate = 0.0;
      any_done = true;
      rates_stale_ = true;
      if (completed) completed->push_back(flow.tag);
    }
  }
  if (any_done) {
    live_.erase(std::remove_if(live_.begin(), live_.end(),
                               [&](FlowId f) {
                                 return flow_ref(f).state == FlowState::kDone;
                               }),
                live_.end());
  }
}

util::Seconds FlowNetwork::run() {
  return run_until(util::Seconds(std::numeric_limits<double>::infinity()));
}

util::Seconds FlowNetwork::run_until(util::Seconds horizon,
                                     std::vector<std::uint32_t>* completed) {
  while (!live_.empty()) {
    recompute_rates();
    const util::Seconds when = next_event_time();
    WRHT_CHECK(std::isfinite(when.value()),
               "FlowNetwork: deadlock — " << live_.size()
                                          << " live flows, no events");
    if (when > horizon) break;
    advance_to(when);
    settle(completed);
  }
  if (std::isfinite(horizon.value()) && horizon > now_) {
    // Partial progress up to the horizon (rates were just recomputed when
    // flows are live; with none, this only moves the clock), then absorb
    // any flow the rounding of a split advance left epsilon-short.
    advance_to(horizon);
    settle(completed);
  }
  return now_;
}

std::optional<util::Seconds> FlowNetwork::next_event() {
  if (live_.empty()) return std::nullopt;
  recompute_rates();
  const util::Seconds when = next_event_time();
  WRHT_CHECK(std::isfinite(when.value()),
             "FlowNetwork: deadlock — " << live_.size()
                                        << " live flows, no events");
  return when;
}

bool FlowNetwork::completed(FlowId flow) const {
  WRHT_REQUIRE(flow >= base_,
               "FlowNetwork: querying retired flow " << flow);
  return flow_ref(flow).state == FlowState::kDone;
}

util::Seconds FlowNetwork::completion_time(FlowId flow) const {
  WRHT_REQUIRE(completed(flow),
               "FlowNetwork: flow " << flow << " has not completed");
  return flow_ref(flow).completion;
}

util::Bytes FlowNetwork::link_bytes(LinkId link) const {
  return util::Bytes(
      static_cast<std::uint64_t>(links_[link].carried_bytes + 0.5));
}

double FlowNetwork::current_rate(FlowId flow) const {
  WRHT_REQUIRE(flow >= base_,
               "FlowNetwork: querying retired flow " << flow);
  const Flow& f = flow_ref(flow);
  return f.state == FlowState::kActive ? f.rate : 0.0;
}

util::Seconds FlowNetwork::completion_at_current_rate(FlowId flow) {
  WRHT_REQUIRE(flow >= base_,
               "FlowNetwork: querying retired flow " << flow);
  const Flow& f = flow_ref(flow);
  if (f.state == FlowState::kDone) return f.completion;
  recompute_rates();
  return f.state == FlowState::kActive && f.rate > 0.0
             ? now_ + util::Seconds(f.remaining / f.rate)
             : util::Seconds(std::numeric_limits<double>::infinity());
}

double FlowNetwork::link_peak_utilization(LinkId link) const {
  return links_[link].peak_utilization;
}

double FlowNetwork::link_utilization(LinkId link) const {
  return links_[link].utilization;
}

FlowNetwork FlowNetwork::clone_live(std::vector<FlowId>& id_map) const {
  // live_ is ascending, so the copy receives the flows in the same (id)
  // order the historical whole-table walk produced — the max-min arithmetic
  // downstream is bit-identical.
  FlowNetwork copy;
  copy.links_ = links_;
  copy.touched_ = touched_;
  copy.now_ = now_;
  // The copy has the original's active set, and so its solved rates.
  copy.rates_stale_ = rates_stale_;
  id_map.assign(flows_.size(), kNoFlow);
  for (const FlowId f : live_) {
    id_map[f - base_] = static_cast<FlowId>(copy.flows_.size());
    copy.live_.push_back(static_cast<FlowId>(copy.flows_.size()));
    copy.flows_.push_back(flow_ref(f));
  }
  return copy;
}

void FlowNetwork::retire_done_below(FlowId floor) {
  const FlowId oldest_live =
      live_.empty() ? base_ + static_cast<FlowId>(flows_.size())
                    : live_.front();
  if (floor > oldest_live) floor = oldest_live;
  if (floor <= base_) return;
  const std::size_t drop = floor - base_;
  // Erasing the vector front moves every survivor, so wait until the
  // retired prefix is worth the move; memory stays bounded by the in-flight
  // window plus this slack.
  if (drop < 64 && drop * 2 < flows_.size()) return;
  flows_.erase(flows_.begin(),
               flows_.begin() + static_cast<std::ptrdiff_t>(drop));
  base_ = floor;
}

void FlowNetwork::reset() {
  flows_.clear();
  live_.clear();
  base_ = 0;
  now_ = util::Seconds(0.0);
  rates_stale_ = true;
  for (Link& link : links_) {
    link.carried_bytes = 0.0;
    link.peak_utilization = 0.0;
    link.utilization = 0.0;
  }
}

}  // namespace wrht::elec
