// The multi-tenant shared-fabric flow timer: one FlowNetwork timing every
// concurrent execution's in-flight step together, with step ends delivered
// by the real network as it advances event by event.  Covers the
// contention mechanics (a tenant joining an oversubscribed uplink slows the
// tenants already on it), a seeded differential check of every delivered
// step end against a forward run of a mirrored network, the router's
// one-solve probe price, the quiet-fabric degenerate cases (disjoint
// ToR-contained tenants never contend), a whole-horizon replay of every
// timer history into a fresh network, the certificate's bounded memory,
// rejected inputs, and the FlowNetwork seams it is built on (run_until,
// next_event, clone_live, the skipped re-solve).
#include "elec/shared_fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <set>

#include "coll/algorithms.hpp"
#include "elec/schedule_runner.hpp"
#include "obs/metrics.hpp"
#include "util/random.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

// Counting replacements for the global allocator: the bounded-memory test
// below snapshots g_allocations around a burst of fabric steps.  The
// deletes stay out of line, so the compiler never pairs an inlined free()
// with a new-expression.
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace wrht::elec {
namespace {

using util::Bytes;
using util::Seconds;

ElectricalParams test_params() {
  ElectricalParams p;
  p.link_bandwidth = util::gBps(1.0);
  p.link_latency = util::microseconds(25.0);
  return p;
}

/// 8 hosts, 2 ToRs of 4, uplinks `oversub`x undersized.
ElectricalCluster two_tor_cluster(double oversub) {
  return *ElectricalCluster::two_level_tree(8, 4, oversub, test_params());
}

/// A one-step schedule sending `bytes`-sized full-payload transfers
/// src -> dst for each listed pair, in an 8-host id space.
coll::Schedule pair_schedule(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  coll::Schedule schedule("pairs", 8, 1);
  schedule.add_step();
  for (const auto& [src, dst] : pairs) {
    schedule.add_transfer({src, dst, 0, coll::TransferOp::kReduce});
  }
  return schedule;
}

/// A SharedFabricTimer that records its history for a whole-horizon replay
/// oracle: every begin_step, wake and close_session instant (each an
/// advance of the shared network) and every injected flow.  verify_replay()
/// re-runs that sequence into a fresh network and compares each finalized
/// step's end with the timer's, bit for bit: the same arithmetic in the same
/// order.  Logging on-event wakes too is harmless, since run_until at an
/// event splits nothing.  A rejected begin_step logs nothing, so histories
/// checked here must not contain one.
class ReplayRecorder : public SharedFabricTimer {
 public:
  explicit ReplayRecorder(const ElectricalCluster& cluster)
      : SharedFabricTimer(cluster), cluster_(&cluster) {}

  [[nodiscard]] bool begin_step(SessionId session,
                                const coll::Schedule& schedule,
                                std::size_t step, Bytes payload, Seconds now) {
    if (!SharedFabricTimer::begin_step(session, schedule, step, payload,
                                       now)) {
      return false;
    }
    finalize(session);  // begin_step folded in any undelivered step
    Step logged;
    logged.start = now;
    for (const coll::Transfer& t : schedule.steps()[step].transfers) {
      logged.flows.push_back({t.src, t.dst, schedule.chunk_bytes(payload,
                                                                 t.chunk)});
    }
    in_flight_[session] = steps_.size();
    ops_.push_back({now, static_cast<std::ptrdiff_t>(steps_.size())});
    steps_.push_back(std::move(logged));
    return true;
  }

  [[nodiscard]] std::optional<SessionId> wake(Seconds now) {
    ops_.push_back({now, -1});
    const std::optional<SessionId> session = SharedFabricTimer::wake(now);
    if (session) finalize(*session);
    return session;
  }

  void close_session(SessionId session, Seconds now) {
    ops_.push_back({now, -1});
    SharedFabricTimer::close_session(session, now);
    finalize(session);
  }

  /// Replays the history; returns the steps whose end disagrees with the
  /// timer's, counting steps never finalized.
  [[nodiscard]] std::uint64_t verify_replay() const {
    FlowNetwork replay = cluster_->make_network();
    std::vector<std::vector<FlowId>> ids(steps_.size());
    for (const Op& op : ops_) {
      replay.run_until(op.time);
      if (op.step < 0) continue;
      const auto s = static_cast<std::size_t>(op.step);
      for (const Flow& flow : steps_[s].flows) {
        ids[s].push_back(
            replay.add_flow(cluster_->route(flow.src, flow.dst), flow.bytes));
      }
    }
    replay.run();
    std::uint64_t mismatches = 0;
    for (std::size_t s = 0; s < steps_.size(); ++s) {
      if (!steps_[s].end) {
        ++mismatches;
        continue;
      }
      Seconds end = steps_[s].start;
      for (const FlowId flow : ids[s]) {
        end = std::max(end, replay.completion_time(flow));
      }
      if (end != *steps_[s].end) ++mismatches;
    }
    return mismatches;
  }

 private:
  struct Flow {
    coll::NodeId src = 0;
    coll::NodeId dst = 0;
    Bytes bytes{0};
  };
  struct Step {
    Seconds start{0.0};
    std::optional<Seconds> end;  // the timer's, once finalized
    std::vector<Flow> flows;
  };
  /// An advance of the shared network, then optionally a step's injection.
  struct Op {
    Seconds time{0.0};
    std::ptrdiff_t step = -1;
  };

  /// Record the timer's end of `session`'s step if one was in flight.
  void finalize(SessionId session) {
    const auto it = in_flight_.find(session);
    if (it == in_flight_.end()) return;
    steps_[it->second].end = step_end(session);
    in_flight_.erase(it);
  }

  const ElectricalCluster* cluster_;
  std::vector<Step> steps_;
  std::vector<Op> ops_;
  std::map<SessionId, std::size_t> in_flight_;
};

/// Advance `shared` wake by wake until nothing is in flight, returning each
/// delivered session's step end (the wake instant that handed it back).
std::map<SharedFabricTimer::SessionId, Seconds> drain(ReplayRecorder& shared) {
  std::map<SharedFabricTimer::SessionId, Seconds> ends;
  while (const std::optional<Seconds> at = shared.next_wake()) {
    while (const std::optional<SharedFabricTimer::SessionId> session =
               shared.wake(*at)) {
      EXPECT_EQ(shared.step_end(*session), *at);
      ends[*session] = *at;
    }
  }
  return ends;
}

/// The test's own copy of the timer's shared network: driven through the
/// same advances and injections, it holds the same flows with the same
/// arithmetic, and a forward run of its live-flows clone forecasts when
/// each in-flight step drains — the reference the delivered ends must meet.
class MirrorNetwork {
 public:
  explicit MirrorNetwork(const ElectricalCluster& cluster)
      : cluster_(cluster), network_(cluster.make_network()) {}

  /// Mirror SharedFabricTimer::begin_step.
  void begin_step(SharedFabricTimer::SessionId session,
                  const coll::Schedule& schedule, std::size_t step,
                  Bytes payload, Seconds now) {
    network_.run_until(now);
    InFlight& in_flight = steps_[session];
    in_flight.start = now;
    in_flight.flows.clear();
    for (const coll::Transfer& t : schedule.steps()[step].transfers) {
      in_flight.flows.push_back(network_.add_flow(
          cluster_.route(t.src, t.dst), schedule.chunk_bytes(payload, t.chunk)));
    }
  }

  /// Mirror a wake (or close) that advanced the shared network to `now`.
  void advance(Seconds now) { network_.run_until(now); }

  /// The session's step was delivered.
  void end_step(SharedFabricTimer::SessionId session) {
    steps_.erase(session);
  }

  /// Forecast end of every in-flight step: a forward run of a live-flows
  /// clone; a flow that already drained keeps its recorded completion.
  [[nodiscard]] std::map<SharedFabricTimer::SessionId, Seconds> forecast()
      const {
    std::vector<FlowId> id_map;
    FlowNetwork forward = network_.clone_live(id_map);
    forward.run();
    std::map<SharedFabricTimer::SessionId, Seconds> ends;
    for (const auto& [session, in_flight] : steps_) {
      Seconds end = in_flight.start;
      for (const FlowId flow : in_flight.flows) {
        const FlowId mapped = id_map[flow - network_.id_floor()];
        end = std::max(end, mapped == kNoFlow
                                ? network_.completion_time(flow)
                                : forward.completion_time(mapped));
      }
      ends[session] = end;
    }
    return ends;
  }

 private:
  struct InFlight {
    Seconds start{0.0};
    std::vector<FlowId> flows;
  };
  const ElectricalCluster& cluster_;
  FlowNetwork network_;
  std::map<SharedFabricTimer::SessionId, InFlight> steps_;
};

TEST(SharedFabric, SoloSessionMatchesQuietTimer) {
  // One tenant alone on the shared fabric is the quiet network: every step
  // must end exactly as the per-execution StepFlowTimer's quiet model says.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  const coll::Schedule schedule = coll::ring_allreduce(8);
  const Bytes payload(8'000'000);

  StepFlowTimer quiet(cluster);
  ReplayRecorder shared(cluster);
  const SharedFabricTimer::SessionId session = shared.open_session();
  Seconds clock{0.0};
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    const std::optional<Seconds> quiet_step =
        quiet.time_step(schedule, s, payload);
    ASSERT_TRUE(quiet_step);
    ASSERT_TRUE(shared.begin_step(session, schedule, s, payload, clock));
    const std::map<SharedFabricTimer::SessionId, Seconds> ends =
        drain(shared);
    ASSERT_EQ(ends.size(), 1u);
    const Seconds end = ends.at(session);
    EXPECT_NEAR((end - clock).value(), quiet_step->value(),
                1e-12 * quiet_step->value())
        << "step " << s;
    clock = end;
  }
  shared.close_session(session, clock);
  EXPECT_EQ(shared.verify_replay(), 0u);
  EXPECT_EQ(shared.active_sessions(), 0u);
}

TEST(SharedFabric, JoiningTenantSlowsTheTenantInFlight) {
  // Tenant A sends cross-ToR alone; halfway through, tenant B starts a
  // cross-ToR flow over the SAME oversubscribed uplink.  A's step must end
  // later than it would have alone — at the instant the real network
  // drains it, which a forward run of the mirrored network taken after B
  // joined names exactly — and the final timing must replay exactly.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  // Uplink carries 4 hosts / 4.0 oversubscription = 1 GB/s.
  ReplayRecorder shared(cluster);
  MirrorNetwork mirror(cluster);
  const auto a = shared.open_session();
  const auto b = shared.open_session();

  const coll::Schedule cross_a = pair_schedule({{0, 4}});
  const coll::Schedule cross_b = pair_schedule({{1, 5}});
  const Bytes payload(1'000'000'000);  // 1 GB: ~1 s alone on the uplink

  ASSERT_TRUE(shared.begin_step(a, cross_a, 0, payload, Seconds(0.0)));
  mirror.begin_step(a, cross_a, 0, payload, Seconds(0.0));
  ASSERT_EQ(mirror.forecast().size(), 1u);
  const Seconds a_alone = mirror.forecast().at(a);
  EXPECT_NEAR(a_alone.value(), 1.0 + 100e-6, 1e-3);

  // Nothing is predicted at injection: the next wake is the network's next
  // event (A's flow activating after the route latency), not A's end.
  const std::optional<Seconds> first_wake = shared.next_wake();
  ASSERT_TRUE(first_wake);
  EXPECT_LT(*first_wake, Seconds(1e-3));
  EXPECT_FALSE(shared.wake(*first_wake));
  mirror.advance(*first_wake);

  ASSERT_TRUE(shared.begin_step(b, cross_b, 0, payload, Seconds(0.5)));
  mirror.begin_step(b, cross_b, 0, payload, Seconds(0.5));
  const std::map<SharedFabricTimer::SessionId, Seconds> forecast =
      mirror.forecast();
  ASSERT_EQ(forecast.size(), 2u);
  // A had ~0.5 GB left when B joined; the two flows then split the 1 GB/s
  // uplink, so A's remainder takes ~1 s instead of ~0.5 s.
  EXPECT_NEAR(forecast.at(a).value(), 1.5 + 100e-6, 1e-3);
  EXPECT_GT(forecast.at(a), a_alone);
  // B carries its full 1 GB at the half rate until A drains (~1 s), then
  // the remaining ~0.5 GB at full rate: ~1.5 s of transfer.
  EXPECT_NEAR(forecast.at(b).value(), 0.5 + 1.5 + 100e-6, 1e-2);

  const std::map<SharedFabricTimer::SessionId, Seconds> ends = drain(shared);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends.at(a), forecast.at(a));
  EXPECT_EQ(ends.at(b), forecast.at(b));

  shared.close_session(a, ends.at(a));
  shared.close_session(b, ends.at(b));
  EXPECT_EQ(shared.verify_replay(), 0u);

  // The saturated uplink peaked at full utilization; the idle ToR1->core
  // direction never carried these flows.
  const std::vector<double> peaks = shared.link_peak_utilization();
  EXPECT_NEAR(*std::max_element(peaks.begin(), peaks.end()), 1.0, 1e-9);
}

TEST(SharedFabric, DeliveredStepEndsMatchTheDrainForecast) {
  // Seeded multi-tenant mixes on a 4:1 fabric: tenants join mid-flight at
  // random instants with random host sets and payloads, run every step of
  // a ring all-reduce, and leave (speeding up whoever still shares their
  // uplinks).  Every step end the real network delivers must equal the
  // drain forecast — a forward run of the mirrored network — taken after
  // the last injection before it drained.  Tolerance: 0 — between
  // injections the real network advances only on its own events, exactly
  // the forward run's arithmetic.
  constexpr double kTolerance = 0.0;
  double worst_error = 0.0;
  std::uint64_t steps_checked = 0;
  std::uint64_t slowed_by_joins = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    const ElectricalCluster cluster =
        *ElectricalCluster::two_level_tree(32, 8, 4.0, test_params());
    ReplayRecorder shared(cluster);
    MirrorNetwork mirror(cluster);

    struct Tenant {
      Seconds arrival{0.0};
      coll::Schedule schedule{"unset", 2, 1};
      Bytes payload{0};
      SharedFabricTimer::SessionId session = 0;
      std::size_t step = 0;
    };
    constexpr std::size_t kTenants = 24;
    std::vector<Tenant> tenants(kTenants);
    Seconds arrival{0.0};
    for (Tenant& tenant : tenants) {
      arrival += Seconds(rng.next_double() * 2e-3);
      tenant.arrival = arrival;
      // 2..8 distinct hosts anywhere on the fabric: routes vary from
      // ToR-local to every-hop-crosses-the-core.
      const auto k = static_cast<std::uint32_t>(2 + rng.next_below(7));
      std::vector<std::uint32_t> hosts;
      while (hosts.size() < k) {
        const auto h = static_cast<std::uint32_t>(rng.next_below(32));
        if (std::find(hosts.begin(), hosts.end(), h) == hosts.end()) {
          hosts.push_back(h);
        }
      }
      const coll::Schedule compact = coll::ring_allreduce(k);
      coll::Schedule mapped("mapped", 32, compact.num_chunks());
      for (const coll::Step& step : compact.steps()) {
        mapped.add_step();
        for (coll::Transfer t : step.transfers) {
          t.src = hosts[t.src];
          t.dst = hosts[t.dst];
          mapped.add_transfer(t);
        }
      }
      tenant.schedule = std::move(mapped);
      tenant.payload = Bytes(100'000 + rng.next_below(20'000'000));
    }

    std::map<SharedFabricTimer::SessionId, std::size_t> owner;
    std::set<SharedFabricTimer::SessionId> in_flight;
    std::map<SharedFabricTimer::SessionId, Seconds> expected;
    const auto inject = [&](Tenant& tenant, Seconds now) {
      ASSERT_TRUE(shared.begin_step(tenant.session, tenant.schedule,
                                    tenant.step, tenant.payload, now));
      mirror.begin_step(tenant.session, tenant.schedule, tenant.step,
                        tenant.payload, now);
      in_flight.insert(tenant.session);
      const std::map<SharedFabricTimer::SessionId, Seconds> forecast =
          mirror.forecast();
      ASSERT_EQ(forecast.size(), in_flight.size());
      for (const auto& [id, end] : forecast) {
        const auto known = expected.find(id);
        if (known != expected.end() && id != tenant.session &&
            end > known->second) {
          ++slowed_by_joins;
        }
        expected[id] = end;
      }
    };

    std::size_t next_arrival = 0;
    std::size_t finished = 0;
    while (finished < kTenants) {
      const std::optional<Seconds> wake = shared.next_wake();
      if (next_arrival < kTenants &&
          (!wake || tenants[next_arrival].arrival < *wake)) {
        Tenant& tenant = tenants[next_arrival++];
        tenant.session = shared.open_session();
        owner[tenant.session] = static_cast<std::size_t>(&tenant -
                                                         tenants.data());
        inject(tenant, tenant.arrival);
        continue;
      }
      ASSERT_TRUE(wake);
      mirror.advance(*wake);
      while (const std::optional<SharedFabricTimer::SessionId> session =
                 shared.wake(*wake)) {
        const double error =
            std::abs((*wake - expected.at(*session)).value());
        worst_error = std::max(worst_error, error);
        EXPECT_LE(error, kTolerance)
            << "seed " << seed << " session " << *session;
        ++steps_checked;
        in_flight.erase(*session);
        expected.erase(*session);
        mirror.end_step(*session);
        Tenant& tenant = tenants[owner.at(*session)];
        if (++tenant.step < tenant.schedule.num_steps()) {
          inject(tenant, *wake);
        } else {
          shared.close_session(*session, *wake);
          ++finished;
        }
      }
    }
    EXPECT_EQ(shared.active_sessions(), 0u);
    EXPECT_EQ(shared.verify_replay(), 0u) << "seed " << seed;
  }
  std::printf("[differential] %llu step ends checked, worst |delivered - "
              "forecast| = %.3g s (tolerance %.3g s)\n",
              static_cast<unsigned long long>(steps_checked), worst_error,
              kTolerance);
  EXPECT_GE(steps_checked, 300u);
  // The mixes really contended: joins pushed in-flight steps later.
  EXPECT_GT(slowed_by_joins, 0u);
}

TEST(SharedFabric, ProbePricesTheCurrentMaxMinShare) {
  // A background tenant's 0.5 GB cross-ToR flow is alone on the 1 GB/s
  // uplink when, at t = 0.2 s, the router prices a 1 GB cross-ToR
  // candidate over the same uplink.  Once active the candidate gets half
  // the uplink; the background flow drains mid-step (~0.8 s), which the
  // price ignores: it is the activation instant plus the candidate's bytes
  // at the half share.  A forward run would answer ~1.5 s instead.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  ReplayRecorder shared(cluster);
  obs::MetricsRegistry registry;
  shared.attach_metrics(registry);
  const auto count = [&registry](const char* name) {
    const obs::Counter* counter = registry.find_counter(name);
    return counter ? counter->value() : 0u;
  };
  const auto background = shared.open_session();
  ASSERT_TRUE(shared.begin_step(background, pair_schedule({{0, 4}}), 0,
                                Bytes(500'000'000), Seconds(0.0)));
  const std::optional<Seconds> wake_before = shared.next_wake();
  const std::uint64_t solves_before = count("fabric.solves.network");

  const Seconds now(0.2);
  const std::optional<Seconds> price = shared.predict_step_completion(
      pair_schedule({{1, 5}}), 0, Bytes(1'000'000'000), now);
  ASSERT_TRUE(price);
  const double half_uplink = 1e9 / 2.0;  // bytes per second
  const Seconds activation = now + cluster.route_latency(1, 5);
  EXPECT_EQ(price->value(), (activation + Seconds(1e9 / half_uplink)).value());
  // One solve at the background flow's activation on the way to `now`,
  // one once the candidate is active: no forward run.
  EXPECT_EQ(count("fabric.solves.probe"), 2u);

  // The real network is untouched: same next event, no new solve.
  EXPECT_EQ(shared.next_wake(), wake_before);
  EXPECT_EQ(count("fabric.solves.network"), solves_before);
  const std::map<SharedFabricTimer::SessionId, Seconds> ends = drain(shared);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_NEAR(ends.at(background).value(), 0.5 + 100e-6, 1e-6);
  shared.close_session(background, ends.at(background));
  EXPECT_EQ(shared.verify_replay(), 0u);
}

/// One operation of a scripted shared-fabric history.
struct FabricOp {
  enum class Kind : std::uint8_t { kBegin, kWake, kClose };
  Kind kind = Kind::kWake;
  SharedFabricTimer::SessionId session = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;  // kBegin
  Bytes bytes{0};
  Seconds at{0.0};
};

constexpr std::uint32_t kHistorySessions = 4;

/// Apply one operation; a wake delivers every step drained by then.  Every
/// wake of the histories below lands between network events, which the
/// assertion checks.
void apply_op(ReplayRecorder& shared, const FabricOp& op) {
  switch (op.kind) {
    case FabricOp::Kind::kBegin:
      ASSERT_TRUE(shared.begin_step(op.session, pair_schedule(op.pairs), 0,
                                    op.bytes, op.at));
      break;
    case FabricOp::Kind::kWake:
      ASSERT_NE(shared.next_wake(), op.at);
      while (shared.wake(op.at)) {
      }
      break;
    case FabricOp::Kind::kClose:
      shared.close_session(op.session, op.at);
      break;
  }
}

/// A fresh timer that went through `history` and has never been probed.
ReplayRecorder cold_timer(const ElectricalCluster& cluster,
                          const std::vector<FabricOp>& history,
                          obs::MetricsRegistry& registry) {
  ReplayRecorder shared(cluster);
  shared.attach_metrics(registry);
  for (std::uint32_t s = 0; s < kHistorySessions; ++s) {
    EXPECT_EQ(shared.open_session(), s);
  }
  for (const FabricOp& op : history) apply_op(shared, op);
  return shared;
}

std::uint64_t probe_solves(const obs::MetricsRegistry& registry) {
  const obs::Counter* counter = registry.find_counter("fabric.solves.probe");
  return counter ? counter->value() : 0u;
}

TEST(SharedFabric, BatchedProbesMatchColdProbesExactly) {
  // The prefix cache shares the candidate-independent part of the router's
  // probe across every candidate priced at one instant.  On a busy 4:1
  // two-ToR fabric with off-event wakes and a delivered step in its
  // history, and a step that drains between its clock and the probe
  // instant, seven candidates mixing intra-ToR (50 us) and cross-ToR
  // (100 us) first latencies are priced back to back on one timer; each
  // price must equal, bitwise, the price a fresh timer with the identical
  // operation history and no earlier probe gives.  Then a wake, a step
  // start and a session close land at the same instant, and after each the
  // batch is priced again against fresh timers: a cached prefix never
  // outlives the network state it was built from.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  using Kind = FabricOp::Kind;
  std::vector<FabricOp> history = {
      {Kind::kBegin, 0, {{0, 4}, {1, 5}}, Bytes(60'000'000), Seconds(0.0)},
      {Kind::kBegin, 1, {{2, 3}}, Bytes(5'000'000), Seconds(0.0)},
      {Kind::kWake, 0, {}, Bytes(0), Seconds(0.004)},
      {Kind::kWake, 0, {}, Bytes(0), Seconds(0.007)},
      {Kind::kBegin, 2, {{6, 2}}, Bytes(30'000'000), Seconds(0.009)},
      // Drains at ~13 ms, between the last wake and the probe instant.
      {Kind::kBegin, 1, {{5, 6}}, Bytes(2'000'000), Seconds(0.011)},
      {Kind::kWake, 0, {}, Bytes(0), Seconds(0.0125)},
  };
  const Seconds now(0.015);
  struct Candidate {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    Bytes bytes;
  };
  const std::vector<Candidate> candidates = {
      {{{3, 7}}, Bytes(20'000'000)},
      {{{0, 1}}, Bytes(8'000'000)},
      {{{0, 1}, {3, 7}}, Bytes(10'000'000)},
      {{{5, 6}}, Bytes(4'000'000)},
      {{{7, 0}}, Bytes(12'000'000)},
      {{{2, 6}, {4, 5}}, Bytes(6'000'000)},
      {{{1, 2}, {3, 0}}, Bytes(9'000'000)},
  };

  obs::MetricsRegistry warm_registry;
  auto warm = cold_timer(cluster, history, warm_registry);
  // Prices the whole batch on the warm timer and on one fresh timer per
  // candidate; returns the warm prices.  With `shares_work`, the network
  // has events between its clock and `now` for the prefix to replay.
  const auto check_batch = [&](const char* when, bool shares_work) {
    SCOPED_TRACE(when);
    std::vector<Seconds> prices;
    std::uint64_t cold_solves = 0;
    const std::uint64_t warm_before = probe_solves(warm_registry);
    for (const Candidate& c : candidates) {
      const std::optional<Seconds> price = warm.predict_step_completion(
          pair_schedule(c.pairs), 0, c.bytes, now);
      obs::MetricsRegistry cold_registry;
      const std::optional<Seconds> cold_price =
          cold_timer(cluster, history, cold_registry)
              .predict_step_completion(pair_schedule(c.pairs), 0, c.bytes,
                                        now);
      cold_solves += probe_solves(cold_registry);
      EXPECT_TRUE(price && cold_price);
      if (!price || !cold_price) continue;
      EXPECT_EQ(price->value(), cold_price->value());
      EXPECT_GT(*price, now);
      prices.push_back(*price);
    }
    // The batch pays each shared prefix once, not once per candidate.
    const std::uint64_t warm_solves =
        probe_solves(warm_registry) - warm_before;
    EXPECT_LE(warm_solves, cold_solves);
    if (shares_work) {
      EXPECT_LT(warm_solves, cold_solves);
    }
    return prices;
  };

  const std::vector<Seconds> settled = check_batch("history", true);
  const std::vector<FabricOp> at_now = {
      {Kind::kWake, 0, {}, Bytes(0), now},
      {Kind::kBegin, 3, {{1, 6}, {2, 5}}, Bytes(40'000'000), now},
      {Kind::kClose, 1, {}, Bytes(0), now},
  };
  std::vector<Seconds> previous = settled;
  for (const FabricOp& op : at_now) {
    apply_op(warm, op);
    history.push_back(op);
    const std::vector<Seconds> prices = check_batch(
        op.kind == Kind::kWake    ? "after the wake"
        : op.kind == Kind::kBegin ? "after the step start"
                                  : "after the close",
        false);
    if (op.kind == Kind::kBegin) {
      // The new tenant crosses both uplinks, so a stale prefix would
      // have answered differently.
      EXPECT_NE(prices, previous);
    }
    previous = prices;
  }
  for (const auto& [session, end] : drain(warm)) {
    warm.close_session(session, end);
  }
  EXPECT_EQ(warm.active_sessions(), 0u);
  EXPECT_EQ(warm.verify_replay(), 0u);
}

TEST(SharedFabric, DisjointTorContainedTenantsDoNotContend) {
  // Two tenants wholly inside different ToRs never share a link: each times
  // as if alone no matter the oversubscription, and the replay agrees.
  const ElectricalCluster cluster = two_tor_cluster(8.0);
  StepFlowTimer quiet(cluster);
  ReplayRecorder shared(cluster);
  const auto a = shared.open_session();
  const auto b = shared.open_session();
  const coll::Schedule in_tor0 = pair_schedule({{0, 1}, {2, 3}});
  const coll::Schedule in_tor1 = pair_schedule({{4, 5}, {6, 7}});
  const Bytes payload(10'000'000);

  ASSERT_TRUE(shared.begin_step(a, in_tor0, 0, payload, Seconds(0.0)));
  ASSERT_TRUE(shared.begin_step(b, in_tor1, 0, payload, Seconds(0.0)));
  const std::map<SharedFabricTimer::SessionId, Seconds> ends = drain(shared);
  const std::optional<Seconds> a_quiet = quiet.time_step(in_tor0, 0, payload);
  const std::optional<Seconds> b_quiet = quiet.time_step(in_tor1, 0, payload);
  ASSERT_TRUE(a_quiet && b_quiet);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_NEAR(ends.at(a).value(), a_quiet->value(), 1e-12);
  EXPECT_NEAR(ends.at(b).value(), b_quiet->value(), 1e-12);

  shared.close_session(a, ends.at(a));
  shared.close_session(b, ends.at(b));
  EXPECT_EQ(shared.verify_replay(), 0u);
}

TEST(SharedFabric, FlowLessStepCompletesInstantly) {
  const ElectricalCluster cluster = two_tor_cluster(1.0);
  ReplayRecorder shared(cluster);
  const auto session = shared.open_session();
  coll::Schedule idle("idle", 8, 1);
  idle.add_step();  // no transfers
  ASSERT_TRUE(shared.begin_step(session, idle, 0, Bytes(1000), Seconds(2.5)));
  EXPECT_EQ(shared.next_wake(), Seconds(2.5));
  EXPECT_EQ(shared.wake(Seconds(2.5)), session);
  EXPECT_FALSE(shared.next_wake());
  shared.close_session(session, Seconds(2.5));
  EXPECT_EQ(shared.verify_replay(), 0u);
}

TEST(SharedFabric, OffEventWakesStillReplayExactly) {
  // A wake between network events splits the flows' drains; the recorder
  // logs that advance so the replay splits there too.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  ReplayRecorder shared(cluster);
  const auto a = shared.open_session();
  ASSERT_TRUE(shared.begin_step(a, pair_schedule({{0, 4}, {1, 5}}), 0,
                                Bytes(100'000'000), Seconds(0.0)));
  for (double t = 0.01; t < 0.1; t += 0.01) {
    EXPECT_FALSE(shared.wake(Seconds(t)));
  }
  const std::map<SharedFabricTimer::SessionId, Seconds> ends = drain(shared);
  ASSERT_EQ(ends.size(), 1u);
  shared.close_session(a, ends.at(a));
  EXPECT_EQ(shared.verify_replay(), 0u);
}

/// operator new calls made by `cycles` rounds of a fixed two-tenant mix on a
/// 4:1 two-ToR fabric (both tenants begin a step at the same instant, then
/// every wake is taken until both drained), after 1,000 warm-up rounds.
std::size_t cycle_allocations(bool replay_audit, std::size_t cycles) {
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  SharedFabricTimer shared(cluster, replay_audit);
  const auto a = shared.open_session();
  const auto b = shared.open_session();
  const coll::Schedule cross_a = pair_schedule({{0, 4}});
  const coll::Schedule cross_b = pair_schedule({{1, 5}, {2, 3}});
  const Bytes payload(4'000'000);
  Seconds clock{0.0};
  const auto run = [&](std::size_t rounds) {
    for (std::size_t r = 0; r < rounds; ++r) {
      EXPECT_TRUE(shared.begin_step(a, cross_a, 0, payload, clock));
      EXPECT_TRUE(shared.begin_step(b, cross_b, 0, payload, clock));
      while (const std::optional<Seconds> at = shared.next_wake()) {
        while (shared.wake(*at)) clock = *at;
      }
    }
  };
  run(1000);
  const std::size_t before = g_allocations;
  run(cycles);
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(shared.logged_steps(), replay_audit ? 2 * (1000 + cycles) : 0u);
  return allocations;
}

TEST(SharedFabric, AuditedTimerKeepsNoPerStepLog) {
  // The certificate proves each solve as it runs and keeps nothing per
  // step, so an audited timer allocates no more than an unaudited one over
  // the same 10,000 steady-state cycles: its memory does not grow with the
  // run.
  constexpr std::size_t kCycles = 10'000;
  const std::size_t audited = cycle_allocations(true, kCycles);
  const std::size_t plain = cycle_allocations(false, kCycles);
  std::printf("[allocations] %zu cycles: audited %zu, audit off %zu\n",
              kCycles, audited, plain);
  EXPECT_LE(audited, plain);
}

TEST(SharedFabric, RejectsBadRequests) {
  const ElectricalCluster cluster = two_tor_cluster(2.0);
  ReplayRecorder shared(cluster);
  const auto session = shared.open_session();
  const coll::Schedule schedule = coll::ring_allreduce(8);
  const Bytes payload(1'000'000);

  // Unknown session.
  EXPECT_FALSE(shared.begin_step(99, schedule, 0, payload, Seconds(0.0)));
  // Out-of-range step.
  EXPECT_FALSE(shared.begin_step(session, schedule, schedule.num_steps(),
                                 payload, Seconds(0.0)));
  // Schedule wider than the cluster.
  EXPECT_FALSE(shared.begin_step(session, coll::ring_allreduce(16), 0,
                                 payload, Seconds(0.0)));

  ASSERT_TRUE(shared.begin_step(session, schedule, 0, payload, Seconds(1.0)));
  // Clock running backwards.
  EXPECT_FALSE(shared.begin_step(session, schedule, 1, payload,
                                 Seconds(0.5)));
  // Next step before the previous one finished.
  EXPECT_FALSE(shared.begin_step(session, schedule, 1, payload,
                                 Seconds(1.0 + 1e-6)));
  // At the drained boundary, the next step is accepted.
  const std::map<SharedFabricTimer::SessionId, Seconds> ends = drain(shared);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_TRUE(shared.begin_step(session, schedule, 1, payload,
                                ends.at(session)));
  // A closed session refuses further steps.
  const auto other = shared.open_session();
  shared.close_session(other, ends.at(session));
  EXPECT_FALSE(shared.begin_step(other, schedule, 0, payload,
                                 ends.at(session)));
}

TEST(FlowNetwork, RunUntilSplitsMatchOneShotRun) {
  // Driving the same flow set through run_until checkpoints must complete
  // every flow at (numerically) the same instant as one uninterrupted run.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  FlowNetwork split = cluster.make_network();
  FlowNetwork whole = cluster.make_network();
  std::vector<FlowId> split_ids;
  std::vector<FlowId> whole_ids;
  for (std::uint32_t h = 0; h < 4; ++h) {
    split_ids.push_back(
        split.add_flow(cluster.route(h, 4 + h), Bytes(250'000'000)));
    whole_ids.push_back(
        whole.add_flow(cluster.route(h, 4 + h), Bytes(250'000'000)));
  }
  for (double t = 0.1; t < 2.0; t += 0.1) split.run_until(Seconds(t));
  split.run();
  whole.run();
  for (std::size_t i = 0; i < split_ids.size(); ++i) {
    ASSERT_TRUE(split.completed(split_ids[i]));
    EXPECT_NEAR(split.completion_time(split_ids[i]).value(),
                whole.completion_time(whole_ids[i]).value(), 1e-9);
  }
  // The idle clock still lands on a horizon past the last completion.
  split.run_until(Seconds(5.0));
  EXPECT_EQ(split.now(), Seconds(5.0));
}

TEST(FlowNetwork, CloneLiveCarriesOnlyInFlightFlows) {
  const ElectricalCluster cluster = two_tor_cluster(1.0);
  FlowNetwork network = cluster.make_network();
  const FlowId fast =
      network.add_flow(cluster.route(0, 1), Bytes(1'000'000));
  const FlowId slow =
      network.add_flow(cluster.route(0, 4), Bytes(1'000'000'000));
  network.run_until(Seconds(0.5));  // fast done, slow mid-flight

  std::vector<FlowId> id_map;
  FlowNetwork copy = network.clone_live(id_map);
  ASSERT_EQ(id_map.size(), 2u);
  EXPECT_EQ(id_map[fast], kNoFlow);
  ASSERT_NE(id_map[slow], kNoFlow);
  copy.run();
  // The copy's forward run predicts the original's completion.
  network.run();
  EXPECT_NEAR(copy.completion_time(id_map[slow]).value(),
              network.completion_time(slow).value(), 1e-9);
}

TEST(FlowNetwork, EventByEventAdvanceMatchesOneRunBitwise) {
  // Advancing to exactly each next_event() instant splits no drain: the
  // completions equal one uninterrupted run bit for bit, and the advances
  // report every flow's tag once.
  const ElectricalCluster cluster = two_tor_cluster(4.0);
  FlowNetwork stepped = cluster.make_network();
  FlowNetwork whole = cluster.make_network();
  std::vector<FlowId> ids;
  std::vector<std::uint32_t> tags;
  for (std::uint32_t h = 0; h < 4; ++h) {
    const Bytes bytes(50'000'000 * (h + 1));
    ids.push_back(stepped.add_flow(cluster.route(h, 4 + h), bytes, h));
    whole.add_flow(cluster.route(h, 4 + h), bytes, h);
  }
  std::uint64_t events = 0;
  while (const std::optional<Seconds> at = stepped.next_event()) {
    stepped.run_until(*at, &tags);
    ++events;
  }
  whole.run();
  EXPECT_EQ(events, 5u);  // one shared activation instant + 4 completions
  for (const FlowId id : ids) {
    EXPECT_EQ(stepped.completion_time(id), whole.completion_time(id));
  }
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(tags, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // Rates are solved once per change of the active set, however often the
  // network is asked for its next event.
  EXPECT_EQ(stepped.solves(), whole.solves());
}

}  // namespace
}  // namespace wrht::elec
