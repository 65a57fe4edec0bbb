#include "elec/shared_fabric.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace wrht::elec {

SharedFabricTimer::SharedFabricTimer(const ElectricalCluster& cluster,
                                     bool replay_audit)
    : cluster_(&cluster), network_(cluster.make_network()) {
  if (replay_audit) network_.enable_certificate();
}

void SharedFabricTimer::attach_metrics(obs::MetricsRegistry& registry) {
  steps_timed_ = registry.counter("fabric.steps_timed");
  network_solves_ = registry.counter("fabric.solves.network");
  probe_solves_ = registry.counter("fabric.solves.probe");
  certified_solves_ = registry.counter("fabric.solves.certified");
  solver_rounds_ = registry.counter("fabric.solver.rounds");
  uplink_utilization_ = registry.sampled_gauge("electrical.uplink_utilization");
}

void SharedFabricTimer::publish_utilization() {
  if (!uplink_utilization_) return;
  double hottest = 0.0;
  for (std::size_t l = 0; l < network_.num_links(); ++l) {
    hottest = std::max(hottest,
                       network_.link_utilization(static_cast<LinkId>(l)));
  }
  uplink_utilization_->set(hottest);
}

void SharedFabricTimer::count_network_work(std::uint64_t solves_before,
                                           std::uint64_t rounds_before) {
  const std::uint64_t solves = network_.solves() - solves_before;
  obs::inc(network_solves_, solves);
  if (network_.certifies()) obs::inc(certified_solves_, solves);
  obs::inc(solver_rounds_, network_.rounds() - rounds_before);
}

SharedFabricTimer::SessionId SharedFabricTimer::open_session() {
  sessions_.push_back(Session{});
  sessions_.back().open = true;
  const auto id = static_cast<SessionId>(sessions_.size() - 1);
  open_sessions_.push_back(id);  // new ids are largest — stays sorted
  return id;
}

std::size_t SharedFabricTimer::active_sessions() const {
  return open_sessions_.size();
}

void SharedFabricTimer::advance(util::Seconds to) {
  ++version_;
  completed_.clear();
  const std::uint64_t solves = network_.solves();
  const std::uint64_t rounds = network_.rounds();
  network_.run_until(to, &completed_);
  count_network_work(solves, rounds);
  for (const SessionId id : completed_) {
    if (--sessions_[id].flows_left == 0) drained_.push_back(id);
  }
}

void SharedFabricTimer::undrain(SessionId session_id) {
  const auto it = std::find(drained_.begin(), drained_.end(), session_id);
  if (it != drained_.end()) drained_.erase(it);
}

void SharedFabricTimer::finalize_step(SessionId session_id) {
  Session& session = sessions_[session_id];
  if (!session.has_step) return;
  util::Seconds end = session.step_start;
  for (const FlowId flow : session.inflight) {
    WRHT_CHECK(network_.completed(flow),
               "SharedFabricTimer: step boundary before its flows drained "
               "(session "
                   << session_id << " step " << session.step_number << ")");
    end = std::max(end, network_.completion_time(flow));
  }
  session.last_end = end;
  session.inflight.clear();
  session.has_step = false;
}

bool SharedFabricTimer::begin_step(SessionId session_id,
                                   const coll::Schedule& schedule,
                                   std::size_t step, util::Bytes payload,
                                   util::Seconds now) {
  if (session_id >= sessions_.size() || !sessions_[session_id].open) {
    return false;
  }
  if (step >= schedule.num_steps()) return false;
  if (schedule.num_nodes() > cluster_->num_hosts()) return false;
  if (now < network_.now()) return false;

  Session& session = sessions_[session_id];
  advance(now);
  if (session.has_step) {
    if (session.flows_left > 0) return false;
    undrain(session_id);
    finalize_step(session_id);
  }

  session.step_start = now;
  session.step_number = static_cast<std::uint64_t>(step);
  for (const coll::Transfer& t : schedule.steps()[step].transfers) {
    const util::Bytes bytes = schedule.chunk_bytes(payload, t.chunk);
    session.inflight.push_back(
        network_.add_flow(cluster_->route(t.src, t.dst), bytes, session_id));
  }
  ++version_;
  session.flows_left = session.inflight.size();
  session.has_step = true;
  // A flow-less step (e.g. a barrier round another group participates in)
  // drains at once; nobody else's sharing changed.
  if (session.flows_left == 0) drained_.push_back(session_id);
  if (network_.certifies()) ++logged_steps_;
  obs::inc(steps_timed_);
  publish_utilization();
  retire_drained();
  return true;
}

std::optional<util::Seconds> SharedFabricTimer::next_wake() {
  if (!drained_.empty()) return network_.now();
  const std::uint64_t solves = network_.solves();
  const std::uint64_t rounds = network_.rounds();
  const std::optional<util::Seconds> next = network_.next_event();
  count_network_work(solves, rounds);
  return next;
}

std::optional<SharedFabricTimer::SessionId> SharedFabricTimer::wake(
    util::Seconds now) {
  WRHT_REQUIRE(now >= network_.now(),
               "SharedFabricTimer: wake at " << now.value()
                                             << "s before the fabric clock "
                                             << network_.now().value() << "s");
  advance(now);
  if (drained_.empty()) return std::nullopt;
  const auto first = std::min_element(drained_.begin(), drained_.end());
  const SessionId id = *first;
  drained_.erase(first);
  finalize_step(id);
  return id;
}

std::optional<util::Seconds> SharedFabricTimer::predict_step_completion(
    const coll::Schedule& schedule, std::size_t step, util::Bytes payload,
    util::Seconds now) const {
  if (step >= schedule.num_steps()) return std::nullopt;
  if (schedule.num_nodes() > cluster_->num_hosts()) return std::nullopt;
  if (now < network_.now()) return std::nullopt;
  const std::vector<coll::Transfer>& transfers =
      schedule.steps()[step].transfers;
  if (transfers.empty()) return now;  // flow-less step completes instantly

  struct Candidate {
    std::vector<LinkId> route;
    util::Seconds latency{0.0};
  };
  std::vector<Candidate> candidates;
  candidates.reserve(transfers.size());
  util::Seconds first_latency{std::numeric_limits<double>::infinity()};
  util::Seconds last_latency{0.0};
  for (const coll::Transfer& t : transfers) {
    Candidate& c = candidates.emplace_back();
    c.route = cluster_->route(t.src, t.dst);
    c.latency = network_.route_latency(c.route);
    first_latency = std::min(first_latency, c.latency);
    last_latency = std::max(last_latency, c.latency);
  }
  // Until the first injected flow activates the clone runs as if it held
  // none, so that stretch is the shared prefix.  Each flow then joins at
  // the instant add_flow would have given it at `now`; the clone runs on
  // until every one is active and prices each at the max-min rate it holds
  // there: no simulated future.
  FlowNetwork probe = probe_prefix(now, now + first_latency);
  std::vector<FlowId> injected;
  injected.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const coll::Transfer& t = transfers[i];
    injected.push_back(probe.add_flow_at(
        std::move(candidates[i].route), schedule.chunk_bytes(payload, t.chunk),
        now + candidates[i].latency));
  }
  probe.run_until(now + last_latency);
  util::Seconds end = now;
  for (const FlowId flow : injected) {
    end = std::max(end, probe.completion_at_current_rate(flow));
  }
  obs::inc(probe_solves_, probe.solves());
  obs::inc(solver_rounds_, probe.rounds());
  return end;
}

FlowNetwork SharedFabricTimer::probe_prefix(util::Seconds now,
                                            util::Seconds first) const {
  if (!probe_prefixes_) probe_prefixes_ = std::make_unique<ProbePrefixes>();
  ProbePrefixes& cache = *probe_prefixes_;
  if (cache.version != version_ || cache.now != now) {
    cache.version = version_;
    cache.now = now;
    cache.by_first.clear();
  }
  const auto cached =
      std::find_if(cache.by_first.begin(), cache.by_first.end(),
                   [first](const auto& entry) { return entry.first == first; });
  if (cached != cache.by_first.end()) {
    return cached->second.clone_live(cache.id_map);
  }
  // The clone carries exactly the flows still in flight; advancing IT
  // instead of the real network keeps the probe side-effect free.
  FlowNetwork prefix = network_.clone_live(cache.id_map);
  prefix.run_until(now);
  prefix.run_until(first);
  obs::inc(probe_solves_, prefix.solves());
  obs::inc(solver_rounds_, prefix.rounds());
  return cache.by_first.emplace_back(first, std::move(prefix))
      .second.clone_live(cache.id_map);
}

void SharedFabricTimer::close_session(SessionId session_id,
                                      util::Seconds now) {
  WRHT_REQUIRE(session_id < sessions_.size() && sessions_[session_id].open,
               "SharedFabricTimer: close of unknown session " << session_id);
  Session& session = sessions_[session_id];
  advance(std::max(now, network_.now()));
  undrain(session_id);
  finalize_step(session_id);
  session.open = false;
  const auto it = std::lower_bound(open_sessions_.begin(),
                                   open_sessions_.end(), session_id);
  WRHT_CHECK(it != open_sessions_.end() && *it == session_id,
             "SharedFabricTimer: open-session index lost session "
                 << session_id);
  open_sessions_.erase(it);
  retire_drained();
  publish_utilization();
}

void SharedFabricTimer::retire_drained() {
  FlowId floor = kNoFlow;
  for (const SessionId id : open_sessions_) {
    const Session& session = sessions_[id];
    if (session.has_step && !session.inflight.empty()) {
      floor = std::min(floor, session.inflight.front());
    }
  }
  network_.retire_done_below(floor);
  ++version_;
}

std::vector<double> SharedFabricTimer::link_peak_utilization() const {
  std::vector<double> peaks(network_.num_links());
  for (std::size_t l = 0; l < peaks.size(); ++l) {
    peaks[l] = network_.link_peak_utilization(static_cast<LinkId>(l));
  }
  return peaks;
}

util::Seconds SharedFabricTimer::step_end(SessionId session) const {
  WRHT_REQUIRE(session < sessions_.size(),
               "SharedFabricTimer: step_end of unknown session " << session);
  return sessions_[session].last_end;
}

}  // namespace wrht::elec
