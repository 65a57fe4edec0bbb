// SpectrumPlanner property suite.
//
// Unit level: choose_base's lexicographic cost terms each pinned by a
// hand-built PlannerContext (dead slivers avoided, pending demand kept
// packable, sooner-freeing neighbors preferred, first-fit tie-break last),
// and earliest_fit's contiguity-honest availability (a fragmented pool
// whose TOTAL covers the request is not "available now").
//
// End-to-end level, on the runtime's only placement:
//
//  * on an unconstrained monotone-fill spectrum every band lands at the
//    lowest free base — first-fit's choice (cost term 5 IS first-fit's
//    rule, and nothing upstream of it discriminates);
//  * every planner placement stays pairwise band-disjoint under the same
//    per-event trace sweep the stress harness runs;
//  * fragmentation never worse than first-fit, measured where the claim is
//    actually well-defined: per DECISION, against the first-fit
//    counterfactual in the identical spectrum state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/planner.hpp"
#include "runtime/runtime.hpp"
#include "util/random.hpp"

namespace wrht::runtime {
namespace {

constexpr std::uint32_t kRingSize = 32;
constexpr std::uint32_t kWavelengths = 16;

using FreeInterval = SpectrumArbiter::FreeInterval;

// ---------------------------------------------------------------------------
// choose_base unit tests
// ---------------------------------------------------------------------------

TEST(SpectrumPlannerUnit, EmptySpectrumPlacesAtLowestBase) {
  PlannerContext ctx;
  ctx.free_intervals = {FreeInterval{0, 16}};
  ctx.total_wavelengths = 16;
  // Both ends cost the same on every term above the base tie-break (no
  // pending, both neighbors are spectrum edges) — first-fit's rule decides.
  EXPECT_EQ(SpectrumPlanner::choose_base(4, ctx), std::optional(0u));
}

TEST(SpectrumPlannerUnit, NoFittingRunReturnsNullopt) {
  PlannerContext ctx;
  ctx.free_intervals = {FreeInterval{0, 2}, FreeInterval{10, 3}};
  ctx.outstanding = {
      OutstandingBand{WavelengthBand{2, 8}, util::Seconds(5.0)},
      OutstandingBand{WavelengthBand{13, 3}, util::Seconds(7.0)}};
  ctx.total_wavelengths = 16;
  EXPECT_EQ(SpectrumPlanner::choose_base(4, ctx), std::nullopt);
}

TEST(SpectrumPlannerUnit, AvoidsCarvingADeadSliver) {
  // [0,5) and [8,16) are free; the band between them releases at t=100.
  // A width-4 band carved from [0,5) strands a 1-wide sliver no waiting
  // width (min 4) can ever use; carved from [8,16) it leaves a usable 4.
  PlannerContext ctx;
  ctx.free_intervals = {FreeInterval{0, 5}, FreeInterval{8, 8}};
  ctx.outstanding = {
      OutstandingBand{WavelengthBand{5, 3}, util::Seconds(100.0)}};
  ctx.pending_min_widths = {4};
  ctx.total_wavelengths = 16;
  const auto base = SpectrumPlanner::choose_base(4, ctx);
  ASSERT_TRUE(base.has_value());
  // Left-aligned in [8,16): the abutting band at [5,8) frees at t=100,
  // while the right end abuts the spectrum edge (never frees).
  EXPECT_EQ(*base, 8u);
}

TEST(SpectrumPlannerUnit, KeepsPendingDemandPackable) {
  // Free: [0,6) and [8,16).  A width-6 band fits either.  Carving [8,16)
  // leaves {6, 2}: the waiting width-6 job still packs into [0,6).  Carving
  // [0,6) leaves {0, 8}: the width-6 job still packs — but a width-8
  // waiter would not.  With pending {8}, the planner must leave [8,16)
  // whole.
  PlannerContext ctx;
  ctx.free_intervals = {FreeInterval{0, 6}, FreeInterval{8, 8}};
  ctx.outstanding = {
      OutstandingBand{WavelengthBand{6, 2}, util::Seconds(3.0)}};
  ctx.pending_min_widths = {8};
  ctx.total_wavelengths = 16;
  const auto base = SpectrumPlanner::choose_base(6, ctx);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(*base, 0u);
}

TEST(SpectrumPlannerUnit, PrefersTheNeighborThatFreesSooner) {
  // One free run [4,12) between two outstanding bands: [0,4) frees at
  // t=10, [12,16) frees at t=2.  A width-4 placement leaves a 4-wide
  // leftover either way (same blocked/sliver/waste) — the right alignment
  // abuts the sooner-freeing neighbor, positioning the band to grow into
  // (and re-merge with) spectrum that returns first.
  PlannerContext ctx;
  ctx.free_intervals = {FreeInterval{4, 8}};
  ctx.outstanding = {
      OutstandingBand{WavelengthBand{0, 4}, util::Seconds(10.0)},
      OutstandingBand{WavelengthBand{12, 4}, util::Seconds(2.0)}};
  ctx.total_wavelengths = 16;
  const auto base = SpectrumPlanner::choose_base(4, ctx);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(*base, 8u);
}

TEST(SpectrumPlannerUnit, BestFitBreaksTiesBeforeBase) {
  // Two free runs, both edge-bounded (equal infinite neighbor waits), no
  // pending demand: [0,8) and [10,6).  A width-6 band wastes 2 in the
  // first, 0 in the second — best fit wins over lowest base.
  PlannerContext ctx;
  ctx.free_intervals = {FreeInterval{0, 8}, FreeInterval{10, 6}};
  ctx.outstanding = {
      OutstandingBand{WavelengthBand{8, 2}, util::Seconds(50.0)}};
  ctx.total_wavelengths = 16;
  const auto base = SpectrumPlanner::choose_base(6, ctx);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(*base, 10u);
}

// ---------------------------------------------------------------------------
// earliest_fit unit tests
// ---------------------------------------------------------------------------

TEST(SpectrumPlannerUnit, EarliestFitIsNowWhenARunAlreadyFits) {
  PlannerContext ctx;
  ctx.free_intervals = {FreeInterval{0, 4}};
  ctx.total_wavelengths = 16;
  ctx.now = util::Seconds(1.5);
  EXPECT_EQ(SpectrumPlanner::earliest_fit(4, ctx), util::Seconds(1.5));
}

TEST(SpectrumPlannerUnit, FragmentedTotalIsNotContiguousAvailability) {
  // Free fragments {2, 3} total 5 >= 4, but no contiguous 4 exists: the
  // forecast must wait for the band between them ([2,10) ending t=6), not
  // credit the sum the way the old free-total walk did.
  PlannerContext ctx;
  ctx.free_intervals = {FreeInterval{0, 2}, FreeInterval{10, 3}};
  ctx.outstanding = {
      OutstandingBand{WavelengthBand{2, 8}, util::Seconds(6.0)},
      OutstandingBand{WavelengthBand{13, 3}, util::Seconds(9.0)}};
  ctx.total_wavelengths = 16;
  ctx.now = util::Seconds(1.0);
  EXPECT_EQ(SpectrumPlanner::earliest_fit(4, ctx), util::Seconds(6.0));
}

TEST(SpectrumPlannerUnit, EarliestFitMergesReleasesInPredictedOrder) {
  // Full spectrum held by four width-4 bands ending at 8, 2, 6, 4.  A
  // width-8 request needs two ADJACENT releases: after t=4 the free
  // fragments are [4,8) and [12,16) — total 8, contiguous 4 — so the
  // answer is t=6, when [8,12) bridges them into [4,16).
  PlannerContext ctx;
  ctx.outstanding = {
      OutstandingBand{WavelengthBand{0, 4}, util::Seconds(8.0)},
      OutstandingBand{WavelengthBand{4, 4}, util::Seconds(2.0)},
      OutstandingBand{WavelengthBand{8, 4}, util::Seconds(6.0)},
      OutstandingBand{WavelengthBand{12, 4}, util::Seconds(4.0)}};
  ctx.total_wavelengths = 16;
  EXPECT_EQ(SpectrumPlanner::earliest_fit(8, ctx), util::Seconds(6.0));
  // A width-4 request is served by the very first release.
  EXPECT_EQ(SpectrumPlanner::earliest_fit(4, ctx), util::Seconds(2.0));
  // Overdue predictions (end < now) release immediately, never in the past.
  ctx.now = util::Seconds(3.0);
  EXPECT_EQ(SpectrumPlanner::earliest_fit(4, ctx), util::Seconds(3.0));
}

// ---------------------------------------------------------------------------
// End-to-end: the planner inside the runtime
// ---------------------------------------------------------------------------

RuntimeConfig planner_config(std::uint32_t wavelengths = kWavelengths) {
  RuntimeConfig config;
  config.ring_size = kRingSize;
  config.optical.wdm.num_wavelengths = wavelengths;
  config.placement = HybridPlacementPolicy::kOpticalOnly;
  config.batcher.enabled = false;
  return config;
}

/// Band events (place/resume/resize) per job, in trace order.
using BandLog = std::vector<std::pair<JobId, std::pair<std::uint32_t,
                                                       std::uint32_t>>>;

BandLog band_log(const CollectiveRuntime& rt) {
  BandLog log;
  for (const sim::TraceEvent& event : rt.trace().events()) {
    if (event.kind != sim::TraceKind::kJobPlaceOptical &&
        event.kind != sim::TraceKind::kJobResume &&
        event.kind != sim::TraceKind::kJobResize) {
      continue;
    }
    log.emplace_back(static_cast<JobId>(event.a),
                     std::make_pair(static_cast<std::uint32_t>(event.b),
                                    static_cast<std::uint32_t>(event.c)));
  }
  return log;
}

TEST(SpectrumPlannerE2E, PlacesAtLowestFreeBaseOnUnconstrainedSpectrum) {
  // Eight jobs, all at t=0, total demand well under the 64-wide spectrum:
  // every placement happens on a monotone-filling spectrum (no release
  // precedes any placement), where the left end of the single free run
  // abuts the most recent band and the right end abuts the never-freeing
  // spectrum edge — the planner's cost collapses to "lowest base", which
  // IS first-fit.  So each band's base is the lowest free base: the running
  // sum of the earlier bands' widths.
  CollectiveRuntime rt(planner_config(/*wavelengths=*/64));
  rt.trace().enable();
  for (std::uint32_t j = 0; j < 8; ++j) {
    JobSpec spec;
    for (std::uint32_t n = 0; n < 8; ++n) {
      spec.participants.push_back((8 * j + n) % kRingSize);
    }
    spec.payload = util::megabytes(1 + j);
    spec.requested_wavelengths = 4 + (j % 3);
    spec.min_wavelengths = 2;
    rt.submit(spec);
  }
  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 8u);
  const BandLog log = band_log(rt);
  ASSERT_EQ(log.size(), 8u);
  std::uint32_t next_base = 0;
  for (const auto& [job, band] : log) {
    SCOPED_TRACE("job=" + std::to_string(job));
    EXPECT_EQ(band.first, next_base);
    EXPECT_GT(band.second, 0u);
    next_base += band.second;
  }
}

/// Seeded contended workload: contiguous spans over a 16-wide spectrum,
/// arrivals bunched tightly enough that the queue is never empty for long.
std::vector<JobSpec> contended_jobs(std::uint64_t seed, std::uint32_t count) {
  util::Rng rng(seed);
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  for (std::uint32_t j = 0; j < count; ++j) {
    JobSpec spec;
    const std::uint32_t len = rng.next_below(2) == 0 ? 4u : 8u;
    const std::uint32_t start =
        static_cast<std::uint32_t>(rng.next_below(4)) * 8u;
    for (std::uint32_t i = 0; i < len; ++i) {
      spec.participants.push_back((start + i) % kRingSize);
    }
    spec.payload = util::Bytes(64'000 + rng.next_below(8'000'000));
    spec.arrival =
        util::microseconds(static_cast<double>(rng.next_below(10'000)));
    // Heterogeneous FIXED widths (2, 4, or 8 of 16): bands cannot flex, so
    // packing quality directly decides whether the next wide job admits —
    // the regime where placement policy, not grant elasticity, is the
    // fragmentation story.  The useful wavelength cap ceil(len^2/8) limits
    // a 4-node span to width 2; only 8-node spans draw the wider bands.
    spec.min_wavelengths =
        len == 4 ? 2u : (1u << (1 + rng.next_below(3)));
    spec.requested_wavelengths = spec.min_wavelengths;
    spec.priority = static_cast<std::int32_t>(rng.next_below(6)) - 2;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

/// Re-check band disjointness after every event; returns the number of
/// overlapping running-band pairs seen.
std::uint32_t count_overlaps(const CollectiveRuntime& rt) {
  std::map<JobId, std::pair<std::uint32_t, std::uint32_t>> running;
  std::uint32_t overlaps = 0;

  for (const sim::TraceEvent& event : rt.trace().events()) {
    const auto job = static_cast<JobId>(event.a);
    switch (event.kind) {
      case sim::TraceKind::kJobPlaceOptical:
      case sim::TraceKind::kJobResume:
      case sim::TraceKind::kJobResize:
        running[job] = {static_cast<std::uint32_t>(event.b),
                        static_cast<std::uint32_t>(event.c)};
        break;
      case sim::TraceKind::kJobPreempt:
      case sim::TraceKind::kJobComplete:
        running.erase(job);
        break;
      default:
        break;
    }
    // Pairwise disjointness of the running bands, after every event.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
    for (const auto& [id, band] : running) {
      if (band.second == 0) continue;
      spans.emplace_back(band.first, band.first + band.second);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i - 1].second > spans[i].first) ++overlaps;
    }
  }
  return overlaps;
}

struct DecisionAudit {
  std::uint32_t decisions = 0;   // fresh placements audited
  std::uint32_t diverged = 0;    // planner base != first-fit's in same state
  std::uint32_t overridden = 0;  // joint-placement term beat best fit
  std::uint32_t regressions = 0; // best-fit decision left a SMALLER run
};

/// Per-decision fragmentation audit of a planner run: replay the trace,
/// and at every fresh placement (kJobPlaceOptical / kJobResume) rebuild the
/// free intervals the planner saw, then compare the largest free contiguous
/// block its choice left against the first-fit counterfactual in the SAME
/// state.  Whenever the planner carved the snuggest fitting interval (no
/// blocked-pending / dead-sliver override), the leftover it strands is
/// provably the smallest possible, so its post-placement largest run must
/// be >= first-fit's — any dip is a real regression.  Overridden decisions
/// deliberately trade local contiguity for keeping queued demand packable
/// and are counted, not condemned.
DecisionAudit audit_decisions(const CollectiveRuntime& rt) {
  std::map<JobId, std::pair<std::uint32_t, std::uint32_t>> running;
  DecisionAudit audit;

  // Maximal free runs of [0, kWavelengths) given the running bands.
  const auto free_intervals = [&running]() {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
    for (const auto& [id, band] : running) {
      if (band.second == 0) continue;
      spans.emplace_back(band.first, band.first + band.second);
    }
    std::sort(spans.begin(), spans.end());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> free;  // {lo, hi}
    std::uint32_t cursor = 0;
    for (const auto& [lo, hi] : spans) {
      if (lo > cursor) free.emplace_back(cursor, lo);
      cursor = std::max(cursor, hi);
    }
    if (kWavelengths > cursor) free.emplace_back(cursor, kWavelengths);
    return free;
  };

  // Largest free run after carving [base, base+width) out of `free`.
  const auto largest_after =
      [](const std::vector<std::pair<std::uint32_t, std::uint32_t>>& free,
         std::uint32_t base, std::uint32_t width) {
        std::uint32_t largest = 0;
        for (const auto& [lo, hi] : free) {
          if (base >= lo && base + width <= hi) {
            largest = std::max(largest, base - lo);
            largest = std::max(largest, hi - (base + width));
          } else {
            largest = std::max(largest, hi - lo);
          }
        }
        return largest;
      };

  for (const sim::TraceEvent& event : rt.trace().events()) {
    const auto job = static_cast<JobId>(event.a);
    const bool fresh = event.kind == sim::TraceKind::kJobPlaceOptical ||
                       event.kind == sim::TraceKind::kJobResume;
    if (fresh) {
      const auto base = static_cast<std::uint32_t>(event.b);
      const std::uint32_t width = static_cast<std::uint32_t>(event.c);
      const auto free = free_intervals();

      std::uint32_t chosen = 0;        // width of the interval carved
      std::uint32_t snuggest = 0;      // smallest fitting interval width
      std::uint32_t first_fit_base = 0;
      bool first_fit_found = false;
      for (const auto& [lo, hi] : free) {
        const std::uint32_t w = hi - lo;
        if (base >= lo && base + width <= hi) chosen = w;
        if (w >= width) {
          if (snuggest == 0 || w < snuggest) snuggest = w;
          if (!first_fit_found) {
            first_fit_base = lo;
            first_fit_found = true;
          }
        }
      }
      EXPECT_GT(chosen, 0u) << "placed band not inside a free run";
      EXPECT_TRUE(first_fit_found);
      if (chosen > 0 && first_fit_found) {
        ++audit.decisions;
        if (base != first_fit_base) ++audit.diverged;
        if (chosen == snuggest) {
          if (largest_after(free, base, width) <
              largest_after(free, first_fit_base, width)) {
            ++audit.regressions;
          }
        } else {
          ++audit.overridden;
        }
      }
    }
    switch (event.kind) {
      case sim::TraceKind::kJobPlaceOptical:
      case sim::TraceKind::kJobResume:
      case sim::TraceKind::kJobResize:
        running[job] = {static_cast<std::uint32_t>(event.b),
                        static_cast<std::uint32_t>(event.c)};
        break;
      case sim::TraceKind::kJobPreempt:
      case sim::TraceKind::kJobComplete:
        running.erase(job);
        break;
      default:
        break;
    }
  }
  return audit;
}

TEST(SpectrumPlannerE2E, PlacementsStayDisjointAndFragmentationBeatsFirstFit) {
  // The stress harness's fixed seed set with priority preemption and
  // elastic resize on (the renegotiation-heaviest configuration).  Two
  // claims:
  //
  //  1. every planner placement survives the per-event disjointness sweep;
  //  2. fragmentation is never worse than first-fit PER DECISION: at each
  //     fresh placement, in the identical spectrum state, the largest free
  //     run the planner leaves is >= the first-fit counterfactual's on
  //     every non-overridden (best-fit) choice — zero regressions allowed.
  //     This is the well-defined form of "largest-free-block never worse":
  //     a time-integral of largest-free against a separate first-fit run
  //     would compare two DIVERGENT schedules and penalize the planner for
  //     packing denser (more admitted work = less free spectrum, fragmented
  //     or not).
  const std::uint64_t seeds[] = {0ull,  0xC0FFEEull, 1ull,  2ull,
                                 3ull,  7ull,        42ull, 20260730ull};
  std::uint32_t diverged = 0;
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RuntimeConfig config = planner_config();
    config.policy = FairnessPolicy::kPriorityPreempt;
    config.elastic_resize = true;
    CollectiveRuntime rt(config);
    rt.trace().enable();
    for (JobSpec& spec : contended_jobs(seed, 60)) {
      rt.submit(std::move(spec));
    }
    const RuntimeReport report = rt.run();
    EXPECT_EQ(report.completed + report.rejected, 60u);
    EXPECT_EQ(report.oracle_failures, 0u);
    EXPECT_EQ(count_overlaps(rt), 0u);
    const DecisionAudit audit = audit_decisions(rt);
    std::printf("[seed %llu] decisions=%u diverged=%u overridden=%u\n",
                static_cast<unsigned long long>(seed), audit.decisions,
                audit.diverged, audit.overridden);
    EXPECT_GT(audit.decisions, 0u);
    EXPECT_EQ(audit.regressions, 0u);
    diverged += audit.diverged;
  }
  // The planner must actually exercise non-first-fit placements somewhere
  // in the sweep, or the per-decision claim is vacuous.
  EXPECT_GT(diverged, 0u);
}

}  // namespace
}  // namespace wrht::runtime
