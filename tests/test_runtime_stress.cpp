// Randomized runtime stress harness: a seeded generator drives hundreds of
// jobs through the full feature space of the multi-tenant runtime — FIFO
// and priority preemption, elastic resize, batching, hybrid placement,
// substrate pinning, and both electrical fabrics (exclusive star and the
// shared oversubscribed two-level tree) —
// and then audits GLOBAL invariants over the whole run:
//
//  * every submitted job terminates (kDone or kRejected) and the report's
//    counters reconcile (per-substrate breakdowns sum to the totals);
//  * every completion was proven by the functional all-reduce oracle, and
//    on the shared fabric every step was timed on max-min solves certified
//    as they ran (the runtime aborts on either failing, so a
//    returned report is itself the verdict — the counts assert they ran);
//  * a time-ordered sweep of the trace re-checks the spectrum contract
//    after EVERY event: the wavelength bands of concurrently-running
//    optical jobs are pairwise disjoint at every instant (cells never
//    double-claimed), job lifecycles are well-formed, and no job is both
//    preempted and completed at the same timestamp.
//
// Setting WRHT_STRESS_CHAOS=1 adds a chaos axis over the SAME fixed seeds:
// a per-seed FaultInjector rides the run (all four failure domains, repairs
// enabled so suspended work can always resume) and the audits extend to the
// fail/migrate lifecycles — kJobMigrate re-claims spectrum in the band
// sweep, kJobKilled is terminal, the job ledger closes through killed_jobs,
// and MTTR/goodput reconcile with the fault counters.
//
// Seeds are FIXED so a failure reproduces bit-for-bit: the runtime is
// deterministic for a given submission set, and the generator is the
// repo's own xoshiro Rng.  Each seed prints (and flushes) a "[stress]" line
// naming its config before it runs — so an abort still names its seed —
// and a report digest after, so two builds' sweeps diff line by line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace_export.hpp"
#include "report_digest.hpp"
#include "runtime/runtime.hpp"
#include "util/random.hpp"

namespace wrht::runtime {
namespace {

constexpr std::uint32_t kRingSize = 32;

/// The chaos axis: WRHT_STRESS_CHAOS=1 injects seeded faults into every
/// stress seed (0 / unset keeps the fault-free legs byte-identical to
/// before the axis existed).
bool chaos_enabled() {
  const char* env = std::getenv("WRHT_STRESS_CHAOS");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

/// Per-seed chaos load: every failure domain enabled, MTBFs tight enough
/// that a run sees real churn, repairs ALWAYS on — permanent faults plus a
/// drained-clock liveness check would deadlock suspended work that waits
/// for capacity that never returns.
FaultInjectorConfig chaos_for_seed(std::uint64_t seed,
                                   const RuntimeConfig& config) {
  FaultInjectorConfig fc;
  fc.seed = seed ^ 0xC4A05ULL;
  fc.horizon = util::milliseconds(60.0);
  fc.transceiver_mtbf = util::milliseconds(8.0);
  fc.node_mtbf = util::milliseconds(12.0);
  fc.tor_mtbf = util::milliseconds(20.0);
  fc.wavelength_mtbf = util::milliseconds(10.0);
  fc.mttr = util::milliseconds(2.0);
  fc.ring_size = config.ring_size;
  fc.num_wavelengths = config.optical.wdm.num_wavelengths;
  const std::uint32_t hpt = std::max(1u, config.electrical.hosts_per_tor);
  fc.num_tors = (config.ring_size + hpt - 1) / hpt;
  return fc;
}

RuntimeConfig config_for_seed(util::Rng& rng) {
  RuntimeConfig config;
  config.ring_size = kRingSize;
  config.optical.wdm.num_wavelengths = 16;
  // A four-way draw, so every later draw stays where it was when the
  // harness still drew four policies: 0-1 are FIFO, 2-3 priority-preempt.
  config.policy = rng.next_below(4) < 2 ? FairnessPolicy::kFifo
                                        : FairnessPolicy::kPriorityPreempt;
  config.placement = static_cast<HybridPlacementPolicy>(rng.next_below(3));
  config.elastic_resize = rng.next_below(2) == 1;
  config.batcher.enabled = rng.next_below(4) != 0;
  // The retired fuse-window draw, still consumed for the same reason.
  if (config.batcher.enabled) (void)rng.next_below(2);
  if (config.placement != HybridPlacementPolicy::kOpticalOnly &&
      rng.next_below(2) == 1) {
    config.electrical.fabric = ElectricalFabric::kTwoLevelShared;
    config.electrical.hosts_per_tor = rng.next_below(2) == 0 ? 8u : 16u;
    config.electrical.oversubscription =
        static_cast<double>(1u << rng.next_below(3));  // 1, 2, or 4
  }
  return config;
}

JobSpec job_for_seed(util::Rng& rng) {
  JobSpec spec;
  // Mostly contiguous spans from a few alignments (so fusion actually
  // happens), sometimes a sparse random subset.
  if (rng.next_below(4) != 0) {
    const std::uint32_t len = rng.next_below(2) == 0 ? 4u : 8u;
    const std::uint32_t start =
        static_cast<std::uint32_t>(rng.next_below(4)) * 8u;
    for (std::uint32_t i = 0; i < len; ++i) {
      spec.participants.push_back((start + i) % kRingSize);
    }
  } else {
    const std::uint32_t len = 2 + static_cast<std::uint32_t>(rng.next_below(9));
    std::vector<topo::NodeId> pool(kRingSize);
    for (std::uint32_t i = 0; i < kRingSize; ++i) pool[i] = i;
    for (std::uint32_t i = 0; i < len; ++i) {
      const std::size_t pick = rng.next_below(pool.size() - i) + i;
      std::swap(pool[i], pool[pick]);
      spec.participants.push_back(pool[i]);
    }
    std::sort(spec.participants.begin(), spec.participants.end());
  }
  spec.payload = util::Bytes(64'000 + rng.next_below(16'000'000));
  spec.arrival = util::microseconds(static_cast<double>(rng.next_below(20'000)));
  spec.min_wavelengths = 1 + static_cast<std::uint32_t>(rng.next_below(2));
  spec.requested_wavelengths =
      rng.next_below(3) == 0
          ? 0u
          : spec.min_wavelengths + static_cast<std::uint32_t>(rng.next_below(6));
  (void)rng.next_double();  // the retired weight draw, kept likewise
  spec.priority = static_cast<std::int32_t>(rng.next_below(6)) - 2;
  const std::uint64_t pin_dice = rng.next_below(20);
  if (pin_dice < 3) {
    spec.pin = SubstratePin::kOpticalOnly;
  } else if (pin_dice < 6) {
    // Under kOpticalOnly placement this is an EXPECTED rejection — the
    // submit-side error path is part of the surface under stress.
    spec.pin = SubstratePin::kElectricalOnly;
  }
  // ~5% deliberately malformed specs: the reject path must hold under
  // pressure too, without disturbing any other tenant.
  if (rng.next_below(20) == 0) {
    switch (rng.next_below(3)) {
      case 0:
        spec.participants.resize(1);
        break;
      case 1:
        spec.min_wavelengths = 0;
        break;
      default:
        spec.min_wavelengths = 1000;
        break;
    }
  }
  return spec;
}

struct BandInterval {
  std::uint32_t base = 0;
  std::uint32_t width = 0;
};

/// Sweep the trace in order, re-checking the spectrum contract after every
/// event: bands of running optical jobs stay pairwise disjoint, lifecycles
/// are admit -> (preempt -> resume)* -> complete, and no job is preempted
/// and completed at the same instant.
void audit_trace(const CollectiveRuntime& rt, const sim::Trace& trace) {
  // A fused peer executes inside its lead's grant and is traced on the
  // lead's band (its kJobPlaceOptical precedes its kJobFused), so it is not
  // a second holder: every band a peer is traced on must EQUAL its lead's
  // current band, and only leads enter the disjointness sweep.
  std::map<JobId, JobId> lead_of;
  for (const sim::TraceEvent& event : trace.events()) {
    if (event.kind == sim::TraceKind::kJobFused) {
      lead_of[static_cast<JobId>(event.a)] = static_cast<JobId>(event.b);
    }
  }
  std::map<JobId, BandInterval> running_optical;
  std::map<JobId, util::Seconds> last_preempt;
  std::map<JobId, std::uint32_t> preempt_counts;
  util::Seconds clock{0.0};
  for (const sim::TraceEvent& event : trace.events()) {
    EXPECT_GE(event.time, clock) << "trace must be time-ordered";
    clock = std::max(clock, event.time);
    const auto job = static_cast<JobId>(event.a);
    const auto peer = lead_of.find(job);
    const auto claim = [&] {
      ASSERT_GE(event.c, 0) << "band event without width";
      const BandInterval band{static_cast<std::uint32_t>(event.b),
                              static_cast<std::uint32_t>(event.c)};
      if (peer == lead_of.end()) {
        running_optical[job] = band;
        return;
      }
      // The lead's event for the same execution is traced first.
      const auto lead = running_optical.find(peer->second);
      ASSERT_NE(lead, running_optical.end())
          << "fused job " << job << " claims a band its lead " << peer->second
          << " does not hold at t=" << event.time.value();
      EXPECT_EQ(band.base, lead->second.base) << "fused job " << job;
      EXPECT_EQ(band.width, lead->second.width) << "fused job " << job;
    };
    switch (event.kind) {
      case sim::TraceKind::kJobPlaceOptical:
        claim();
        break;
      case sim::TraceKind::kJobResume:
        // A resumed OPTICAL job re-claims a band; a resumed ELECTRICAL job
        // records the invalid {0, 0} band (width 0, skipped by the span
        // check below) — host claims are not spectrum.
        claim();
        break;
      case sim::TraceKind::kJobResize:
        ASSERT_TRUE(running_optical.count(
            peer == lead_of.end() ? job : peer->second))
            << "resize of a job not running optically";
        claim();
        break;
      case sim::TraceKind::kJobMigrate:
        // Cross-substrate migration: the tenant restarts on the optical
        // ring and claims the band the event carries — from here on it is
        // part of the spectrum-disjointness sweep.
        claim();
        break;
      case sim::TraceKind::kJobPreempt:
        running_optical.erase(job);
        last_preempt[job] = event.time;
        ++preempt_counts[job];
        break;
      case sim::TraceKind::kJobKilled:
        // Terminal, like complete: the band is surrendered and the job
        // must never appear again.
        running_optical.erase(job);
        EXPECT_EQ(rt.record(job).state, JobState::kFailed)
            << "kJobKilled for a job not recorded kFailed";
        break;
      case sim::TraceKind::kJobComplete:
        if (last_preempt.count(job)) {
          EXPECT_NE(last_preempt[job], event.time)
              << "job " << job
              << " both preempted and completed at the same timestamp";
        }
        running_optical.erase(job);
        break;
      default:
        break;
    }
    // THE spectrum invariant, re-checked after every event: no wavelength
    // cell is claimed by two running optical jobs at the same instant.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
    for (const auto& [id, band] : running_optical) {
      if (band.width == 0) continue;
      spans.emplace_back(band.base, band.base + band.width);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_LE(spans[i - 1].second, spans[i].first)
          << "overlapping bands at t=" << event.time.value();
    }
  }
  for (const auto& [job, count] : preempt_counts) {
    EXPECT_EQ(rt.record(job).preemptions, count)
        << "preemption record drifted from the trace for job " << job;
  }
}

void audit_report(const CollectiveRuntime& rt, const RuntimeReport& report,
                  const RuntimeConfig& config, std::uint32_t submitted) {
  EXPECT_EQ(report.submitted, submitted);
  // The ledger closes through killed_jobs under chaos (killed_jobs is 0
  // without a fault stream, so this is the old identity then).
  EXPECT_EQ(report.completed + report.rejected + report.faults.killed_jobs,
            report.submitted);
  EXPECT_EQ(report.oracle_failures, 0u);

  // Fault accounting reconciles: per-domain counts sum to the injections,
  // MTTR only exists when recoveries happened, and goodput is the wasted
  // share subtracted from 1 — never negative, 1.0 exactly when nothing was
  // thrown away.
  EXPECT_EQ(report.faults.transceiver_faults + report.faults.node_faults +
                report.faults.tor_faults + report.faults.wavelength_faults,
            report.faults.injected);
  EXPECT_LE(report.faults.recoveries, report.faults.disrupted_executions);
  EXPECT_GE(report.faults.mttr(), util::Seconds(0.0));
  EXPECT_GE(report.goodput(), 0.0);
  EXPECT_LE(report.goodput(), 1.0);
  if (report.faults.wasted_step_time > util::Seconds(0.0)) {
    EXPECT_LT(report.goodput(), 1.0);
  }
  if (report.faults.injected == 0) {
    EXPECT_EQ(report.faults.killed_jobs, 0u);
    EXPECT_EQ(report.faults.wasted_step_time, util::Seconds(0.0));
    EXPECT_EQ(report.goodput(), 1.0);
  }

  // Per-substrate breakdowns must sum to the totals.
  EXPECT_EQ(report.optical.jobs + report.electrical.jobs, report.completed);
  EXPECT_EQ(report.optical.executions + report.electrical.executions,
            report.executions);
  EXPECT_EQ(report.optical.steps + report.electrical.steps,
            report.total_steps);
  EXPECT_EQ(std::max(report.optical.makespan, report.electrical.makespan),
            report.makespan);

  // The shared fabric re-proved every one of its steps via the
  // whole-horizon flow replay; the star has nothing to replay.
  if (config.electrical.fabric == ElectricalFabric::kTwoLevelShared) {
    EXPECT_EQ(report.replay_checked_steps, report.electrical.steps);
  } else {
    EXPECT_EQ(report.replay_checked_steps, 0u);
    EXPECT_EQ(report.step_retimes, 0u);
  }

  util::Seconds last_completion{0.0};
  util::Seconds turnaround_sum{0.0};
  std::uint32_t failed_jobs = 0;
  for (JobId id = 0; id < rt.num_jobs(); ++id) {
    const JobRecord& record = rt.record(id);
    // Every job terminates, one way or the other — done, rejected, or
    // (under chaos) failed when its quorum died.
    ASSERT_TRUE(record.state == JobState::kDone ||
                record.state == JobState::kRejected ||
                record.state == JobState::kFailed)
        << "job " << id << " ended in state "
        << job_state_name(record.state);
    if (record.state == JobState::kRejected) {
      EXPECT_FALSE(record.reject_reason.empty());
      continue;
    }
    if (record.state == JobState::kFailed) {
      ++failed_jobs;
      continue;
    }
    // Every completion was oracle-proven, obeys causality, and honors its
    // pin.
    EXPECT_TRUE(record.oracle_ok) << "job " << id;
    EXPECT_GE(record.admitted, record.spec.arrival);
    EXPECT_GE(record.completed, record.admitted);
    last_completion = std::max(last_completion, record.completed);
    turnaround_sum += record.turnaround();
    if (record.spec.pin == SubstratePin::kOpticalOnly) {
      EXPECT_EQ(record.substrate, SubstrateKind::kOptical);
    }
    if (record.spec.pin == SubstratePin::kElectricalOnly) {
      EXPECT_EQ(record.substrate, SubstrateKind::kElectrical);
    }
    if (record.substrate == SubstrateKind::kElectrical) {
      // Electrical tenants are preemptible (suspend at a BSP boundary,
      // resume on whatever hosts are free), but only an electrically
      // PINNED waiter or a suspended electrical execution may evict them —
      // unless a fault forced the suspension, which happens under any
      // policy (indistinguishable per record, so gate on the run total).
      if (record.preemptions > 0 && report.faults.fault_preemptions == 0) {
        EXPECT_EQ(config.policy, FairnessPolicy::kPriorityPreempt);
      }
      // Contention slowdown has a quiet denominator: >= 1 up to fluid
      // rounding.
      EXPECT_GE(record.contention_slowdown, 1.0 - 1e-9);
    } else {
      EXPECT_EQ(record.contention_slowdown, 0.0);
    }
  }
  EXPECT_EQ(failed_jobs, report.faults.killed_jobs);
  EXPECT_EQ(report.makespan, last_completion);
  EXPECT_NEAR(report.total_turnaround.value(), turnaround_sum.value(),
              1e-9 * std::max(1.0, turnaround_sum.value()));
}

/// The observability layer under stress: the report's SLO block must equal
/// an independent recomputation from the records, the registry's counters
/// must reconcile with the report, and the per-priority max-wait gauges
/// must agree with the records (the starvation signal the fairness work
/// reads — surfaced per seed below).
void audit_slo(const CollectiveRuntime& rt, const RuntimeReport& report,
               const obs::MetricsRegistry& registry, std::uint64_t seed) {
  const obs::SloStats recomputed = obs::compute_slo(rt.records());
  EXPECT_EQ(report.slo.jobs, recomputed.jobs);
  EXPECT_EQ(report.slo.p50_turnaround, recomputed.p50_turnaround);
  EXPECT_EQ(report.slo.p99_turnaround, recomputed.p99_turnaround);
  EXPECT_EQ(report.slo.p999_turnaround, recomputed.p999_turnaround);
  EXPECT_EQ(report.slo.p50_slowdown, recomputed.p50_slowdown);
  EXPECT_EQ(report.slo.p999_slowdown, recomputed.p999_slowdown);
  EXPECT_EQ(report.slo.max_wait, recomputed.max_wait);
  EXPECT_EQ(report.slo.jobs, static_cast<std::uint64_t>(report.completed));

  EXPECT_EQ(registry.find_counter("runtime.jobs_submitted")->value(),
            report.submitted);
  EXPECT_EQ(registry.find_counter("runtime.jobs_completed")->value(),
            report.completed);
  EXPECT_EQ(registry.find_counter("runtime.jobs_rejected")->value(),
            report.rejected);
  EXPECT_EQ(registry.find_counter("runtime.preemptions")->value(),
            report.preemptions);
  EXPECT_EQ(registry.find_counter("runtime.faults_injected")->value(),
            report.faults.injected);
  EXPECT_EQ(registry.find_counter("runtime.fault_repairs")->value(),
            report.faults.repairs);
  EXPECT_EQ(registry.find_counter("runtime.fault_recoveries")->value(),
            report.faults.recoveries);
  EXPECT_EQ(registry.find_counter("runtime.jobs_killed")->value(),
            report.faults.killed_jobs);

  std::map<std::int32_t, double> expected_wait;
  for (JobId id = 0; id < rt.num_jobs(); ++id) {
    const JobRecord& record = rt.record(id);
    if (record.state != JobState::kDone) continue;
    double& wait = expected_wait[record.spec.priority];
    wait = std::max(wait, (record.admitted - record.spec.arrival).value());
  }
  std::string waits;
  for (const auto& [priority, wait] : expected_wait) {
    const obs::Gauge* gauge = registry.find_gauge(
        "runtime.max_wait_seconds.p" + std::to_string(priority));
    ASSERT_NE(gauge, nullptr) << "priority " << priority;
    EXPECT_DOUBLE_EQ(gauge->value(), wait) << "priority " << priority;
    if (!waits.empty()) waits += ' ';
    waits += 'p' + std::to_string(priority) + '=' +
             util::to_string(util::Seconds(wait));
  }
  std::printf("[seed %llu] max admission wait by priority: %s\n",
              static_cast<unsigned long long>(seed), waits.c_str());
  std::fflush(stdout);
}

/// Nightly trace artifact: WRHT_STRESS_TRACE_OUT=<path> exports the first
/// audited seed's Chrome trace (with its counter tracks) for Perfetto.
void maybe_export_trace(const CollectiveRuntime& rt,
                        const obs::MetricsRegistry& registry,
                        std::uint64_t seed) {
  static bool exported = false;
  const char* path = std::getenv("WRHT_STRESS_TRACE_OUT");
  if (exported || path == nullptr || *path == '\0') return;
  exported = true;
  ASSERT_TRUE(obs::write_chrome_trace(path, rt.trace(), rt.records(),
                                      &registry));
  std::printf("[seed %llu] trace exported to %s\n",
              static_cast<unsigned long long>(seed), path);
}

/// The completion floor a seed must clear.  The fixed per-PR seeds are
/// deterministic and known to clear 3/4, so they keep that tight
/// regression bound; arbitrary seeds get 5/8, since the generator's
/// EXPECTED reject rate is ~20% (15% electrically-pinned jobs are valid
/// rejects under optical-only placement, 5% deliberately malformed specs)
/// and an unlucky-but-legal draw must not masquerade as a runtime bug.
/// Chaos legs kill jobs and waste steps by design, so the floor relaxes to
/// half.
std::uint32_t completion_floor(std::uint32_t num_jobs, bool fixed_seed,
                               bool chaos) {
  if (chaos) return num_jobs / 2;
  return fixed_seed ? num_jobs * 3 / 4 : num_jobs * 5 / 8;
}

void run_stress_seed(std::uint64_t seed, std::uint32_t num_jobs,
                     std::uint32_t min_completed, bool chaos) {
  util::Rng rng(seed);
  obs::MetricsRegistry registry;
  RuntimeConfig config = config_for_seed(rng);
  config.metrics = &registry;
  const std::string label =
      "seed=" + std::to_string(seed) + " chaos=" + (chaos ? "1" : "0") +
      " policy=" + fairness_policy_name(config.policy) +
      " placement=" + hybrid_placement_policy_name(config.placement) +
      " fabric=" + electrical_fabric_name(config.electrical.fabric) +
      " oversub=" + std::to_string(config.electrical.oversubscription) +
      " resize=" + (config.elastic_resize ? "1" : "0") +
      " batcher=" + (config.batcher.enabled ? "1" : "0");
  SCOPED_TRACE(label);
  // Printed and flushed BEFORE the run: a WRHT_CHECK abort or a crash
  // loses buffered output, and this line is what names the failing seed.
  std::printf("[stress] %s\n", label.c_str());
  std::fflush(stdout);
  std::optional<FaultInjector> injector;
  if (chaos) {
    injector.emplace(chaos_for_seed(seed, config));
    config.faults = &*injector;
  }
  CollectiveRuntime rt(config);
  rt.trace().enable();
  for (std::uint32_t j = 0; j < num_jobs; ++j) {
    rt.submit(job_for_seed(rng));
  }
  const RuntimeReport report = rt.run();
  // The whole report in one line, so two builds' sweeps diff per seed.
  std::printf("[seed %llu] report digest %016llx\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(report_digest(report)));
  std::fflush(stdout);
  if (chaos) {
    EXPECT_GT(report.faults.injected, 0u)
        << "chaos leg injected nothing — horizon/MTBF drifted";
    std::printf(
        "[seed %llu] chaos: %u faults -> %u disruptions, %u evictions, %u "
        "restarts, %u migrations, %u killed; mttr %s goodput %.3f\n",
        static_cast<unsigned long long>(seed), report.faults.injected,
        report.faults.disrupted_executions, report.faults.evictions,
        report.faults.restarts, report.faults.migrations,
        report.faults.killed_jobs,
        util::to_string(report.faults.mttr()).c_str(), report.goodput());
    std::fflush(stdout);
  }
  // The mix must actually exercise the machinery, not degenerate into a
  // pile of rejections (the caller picks the floor, see completion_floor).
  EXPECT_GT(report.completed, min_completed);
  audit_report(rt, report, config, num_jobs);
  audit_trace(rt, rt.trace());
  audit_slo(rt, report, registry, seed);
  maybe_export_trace(rt, registry, seed);
}

class RuntimeStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeStress, InvariantsHoldOnRandomizedMix) {
  const bool chaos = chaos_enabled();
  run_stress_seed(GetParam(), 200,
                  completion_floor(200, /*fixed_seed=*/true, chaos), chaos);
}

// Fixed seeds, fixed job counts: every CI failure names its seed and
// replays deterministically.  The set was picked to cover the whole config
// lattice: both fairness policies, all three placements (0 and 7 land on
// cost-model-choice), both electrical fabrics (0 and 3 run the shared
// two-level tree), elastic resize, and batching.
INSTANTIATE_TEST_SUITE_P(FixedSeeds, RuntimeStress,
                         ::testing::Values(0ull, 0xC0FFEEull, 1ull, 2ull,
                                           3ull, 7ull, 42ull, 20260730ull));

TEST(RuntimeStress, ExtraSeedsFromEnvironment) {
  // The nightly workflow widens the sweep without forking the test file:
  // WRHT_STRESS_EXTRA_SEEDS=<n> runs n additional seeds.  The base is
  // WRHT_STRESS_SEED_BASE when set (nightly passes its run id, so each
  // night genuinely rolls fresh seeds instead of re-proving the same 64
  // forever) and a fixed offset far from the per-PR set otherwise.  A
  // failure prints the exact seed, which replays deterministically:
  //   WRHT_STRESS_EXTRA_SEEDS=1 WRHT_STRESS_SEED_BASE=<seed> ...
  // Unset or 0 skips — the per-PR legs stay fast.
  const char* env = std::getenv("WRHT_STRESS_EXTRA_SEEDS");
  const unsigned long extra = env != nullptr ? std::strtoul(env, nullptr, 10)
                                             : 0ul;
  if (extra == 0) {
    GTEST_SKIP() << "set WRHT_STRESS_EXTRA_SEEDS=<n> to widen the sweep";
  }
  const char* base_env = std::getenv("WRHT_STRESS_SEED_BASE");
  const std::uint64_t base = base_env != nullptr
                                 ? std::strtoull(base_env, nullptr, 10)
                                 : 1ull;
  for (unsigned long i = 0; i < extra; ++i) {
    // Golden-ratio stride, not +1: consecutive nightly run ids differ by
    // far less than 64, so unit-stride windows would mostly re-test the
    // previous night's seeds.  i=0 is the bare base, so replaying a
    // printed seed needs no arithmetic.
    const bool chaos = chaos_enabled();
    run_stress_seed(base + i * 0x9E3779B97F4A7C15ull, 200,
                    completion_floor(200, /*fixed_seed=*/false, chaos),
                    chaos);
    if (::testing::Test::HasFailure()) break;  // first failing seed is enough
  }
}

TEST(RuntimeStress, RegressionSeeds) {
  // Seeds a wider sweep once failed, replayed with the chaos axis each one
  // failed under (whatever WRHT_STRESS_CHAOS says):
  //  * 8652082552387635513 (chaos, optical-only; weighted-fair when found,
  //    priority since that policy was deleted) and 2576766534230484809
  //    (priority, overflow): the band sweep counted a fused peer as a
  //    second holder of its lead's band.
  //  * 1513358432138577085 and 9287422613789347101 (chaos): a survivor
  //    eviction rebuilt a remainder with no steps left, and the runtime
  //    dispatched its step 0 anyway.
  //  * 17454148547877200717 (chaos, FIFO, optical-only): a fault on an
  //    execution placed over already-dead nodes opened a recovery window
  //    without counting a disruption (15 recoveries, 14 disruptions).
  //  * 9715490654356164225, 9830067809575188193, 8259420799827600143,
  //    4147413544101951890 and 2148698493663744462 (chaos): one boundary
  //    adopted a fault remainder and then suspended it, and the resume
  //    rebuilt that remainder at its cut 0 among the original participants
  //    instead of its sub-all-reduce members ("survivor all-reduce
  //    mismatch").
  //  * 8709371129873691708 (FIFO, overflow), 6503384058600513039 (FIFO,
  //    optical-only) and 1698748163617152878 (priority, cost-model), all
  //    chaos: two survivors of a min_wavelengths = 2 job restarted on one
  //    wavelength, below the floor (the adopt-site check fired).  Lowering
  //    the floor to the survivors' cap also moved all three reports.
  struct Regression {
    std::uint64_t seed;
    bool chaos;
  };
  constexpr Regression kSeeds[] = {
      {8652082552387635513ull, true},
      {2576766534230484809ull, false},
      {1513358432138577085ull, true},
      {9287422613789347101ull, true},
      {17454148547877200717ull, true},
      {9715490654356164225ull, true},
      {9830067809575188193ull, true},
      {8259420799827600143ull, true},
      {4147413544101951890ull, true},
      {2148698493663744462ull, true},
      {8709371129873691708ull, true},
      {6503384058600513039ull, true},
      {1698748163617152878ull, true},
  };
  for (const Regression& r : kSeeds) {
    run_stress_seed(r.seed, 200,
                    completion_floor(200, /*fixed_seed=*/false, r.chaos),
                    r.chaos);
  }
}

TEST(RuntimeStress, FusedBatchSharesItsLeadsBand) {
  // Two identical small jobs queue behind a ring-filling blocker and fuse
  // into one optical execution when it completes: the peer is traced on
  // the lead's band, and the band sweep must accept that.
  RuntimeConfig config;
  config.ring_size = kRingSize;
  config.optical.wdm.num_wavelengths = 16;
  config.placement = HybridPlacementPolicy::kOpticalOnly;
  CollectiveRuntime rt(config);
  rt.trace().enable();
  JobSpec blocker;
  for (topo::NodeId node = 8; node < 20; ++node) {
    blocker.participants.push_back(node);
  }
  blocker.payload = util::megabytes(16);  // above the fuse threshold
  blocker.min_wavelengths = 16;
  rt.submit(blocker);
  for (int i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.participants = {0, 1, 2, 3};
    spec.payload = util::kilobytes(64);
    spec.arrival = util::microseconds(1.0 + i);
    rt.submit(spec);
  }
  const RuntimeReport report = rt.run();
  ASSERT_EQ(report.batches, 1u);
  ASSERT_EQ(report.executions, 2u);
  ASSERT_EQ(rt.record(1).batch_size, 2u);
  audit_trace(rt, rt.trace());
}

TEST(PriorityAging, AgedWaiterIsAdmittedWithinAHardBound) {
  // Deterministic starvation scenario: a lone low-priority job (p=-2,
  // seq 0) against a stream of FRESH full-spectrum high-priority arrivals
  // (p=+2), spaced just under one service time so the ring never idles but
  // every admission boundary sees a young rival.  Without aging the fresh
  // +2 beats the stale -2 at every boundary and the low job waits out the
  // ENTIRE stream.  With aging_half_life=H its effective priority gains
  // one class per half-life of sim-clock wait: after 4H it ties the fresh
  // stream at +2 and wins the seq tie-break at the next boundary (the
  // rivals are young — their own boost is still zero).  That bounds the
  // admission wait — asserted against the runtime.max_wait_seconds.p<prio>
  // gauges the SLO layer publishes.  (A burst-submitted stream would NOT
  // starve anyone under aging-for-all: jobs that arrived together age
  // together, preserving relative order — the starvation aging breaks is
  // specifically old-vs-fresh.)
  //
  // 16 participants keep the full-spectrum minimum under the useful cap
  // (ceil(16^2/8) = 32 >= 16), so every job genuinely needs the whole ring.
  auto hot_job = [](std::uint32_t i, util::Seconds spacing) {
    JobSpec spec;
    for (std::uint32_t n = 0; n < 16; ++n) spec.participants.push_back(n);
    spec.payload = util::megabytes(1);
    spec.requested_wavelengths = 16;
    spec.min_wavelengths = 16;
    spec.priority = 2;
    spec.arrival = util::Seconds(spacing.value() * i);
    return spec;
  };

  // Self-calibrate the per-job service time S: one hot job, empty ring.
  util::Seconds service{0.0};
  {
    RuntimeConfig config;
    config.ring_size = kRingSize;
    config.optical.wdm.num_wavelengths = 16;
    config.placement = HybridPlacementPolicy::kOpticalOnly;
    config.batcher.enabled = false;
    CollectiveRuntime alone(config);
    alone.submit(hot_job(0, util::Seconds(0.0)));
    service = alone.run().makespan;
  }
  // 90% of S: a small backlog accrues, the ring never goes idle.
  const util::Seconds spacing = util::Seconds(service.value() * 0.9);

  auto low_priority_wait = [&](util::Seconds half_life) {
    obs::MetricsRegistry registry;
    RuntimeConfig config;
    config.ring_size = kRingSize;
    config.optical.wdm.num_wavelengths = 16;
    config.policy = FairnessPolicy::kPriorityPreempt;
    config.placement = HybridPlacementPolicy::kOpticalOnly;
    config.batcher.enabled = false;
    config.aging_half_life = half_life;
    config.metrics = &registry;
    CollectiveRuntime rt(config);

    JobSpec starved;
    for (std::uint32_t n = 16; n < 32; ++n) starved.participants.push_back(n);
    starved.payload = util::megabytes(1);
    starved.requested_wavelengths = 16;
    starved.min_wavelengths = 16;
    starved.priority = -2;
    // Lands AFTER the first hot job has grabbed the spectrum (but before
    // the rest of the stream) — an arrival at t=0 would be admitted onto
    // the still-empty ring before any high-priority rival shows up.
    starved.arrival = util::microseconds(5.0);
    rt.submit(starved);
    for (std::uint32_t i = 0; i < 40; ++i) rt.submit(hot_job(i, spacing));

    const RuntimeReport report = rt.run();
    EXPECT_EQ(report.completed, 41u);
    const obs::Gauge* gauge =
        registry.find_gauge("runtime.max_wait_seconds.p-2");
    EXPECT_NE(gauge, nullptr);
    return gauge != nullptr ? gauge->value() : 0.0;
  };

  const util::Seconds half_life = util::milliseconds(1.0);
  const double starved_wait = low_priority_wait(util::Seconds(0.0));
  const double aged_wait = low_priority_wait(half_life);

  // THE hard bound: 5 half-lives to outrank the stream's running job, plus
  // one full service for the job holding the spectrum when the threshold
  // is crossed, plus one more of boundary slack.
  const double bound = 5.0 * half_life.value() + 2.0 * service.value();
  std::printf("[aging] p-2 max wait: unaged=%s aged=%s bound=%s\n",
              util::to_string(util::Seconds(starved_wait)).c_str(),
              util::to_string(util::Seconds(aged_wait)).c_str(),
              util::to_string(util::Seconds(bound)).c_str());
  EXPECT_LT(aged_wait, bound);
  // And the bound is the AGING's doing: without it the same job waits out
  // the whole stream, far past the bound.
  EXPECT_GT(starved_wait, bound);
  EXPECT_GT(starved_wait, 2.0 * aged_wait);
}

TEST(RuntimeStress, BackToBackSeedsAreIndependent) {
  // Two runs of the same seed in fresh runtimes agree event-for-event —
  // the reproducibility claim the fixed seeds depend on.
  auto completion_order = [](std::uint64_t seed) {
    util::Rng rng(seed);
    const RuntimeConfig config = config_for_seed(rng);
    CollectiveRuntime rt(config);
    for (std::uint32_t j = 0; j < 120; ++j) {
      rt.submit(job_for_seed(rng));
    }
    rt.run();
    return rt.completion_order();
  };
  EXPECT_EQ(completion_order(7ull), completion_order(7ull));
}

}  // namespace
}  // namespace wrht::runtime
