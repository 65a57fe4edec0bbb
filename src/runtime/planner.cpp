#include "runtime/planner.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace wrht::runtime {

namespace {

using FreeInterval = SpectrumArbiter::FreeInterval;

/// Seconds until the outstanding band ending exactly at `edge` (when
/// `left_neighbor`) or starting exactly at `edge` (otherwise) is predicted
/// to free.  Spectrum boundaries and free-free seams (impossible: intervals
/// are maximal) have no neighbor and never free — +infinity.
double neighbor_wait(const PlannerContext& ctx, std::uint32_t edge,
                     bool left_neighbor) {
  if (left_neighbor && edge == 0) {
    return std::numeric_limits<double>::infinity();
  }
  if (!left_neighbor && edge == ctx.total_wavelengths) {
    return std::numeric_limits<double>::infinity();
  }
  for (const OutstandingBand& out : ctx.outstanding) {
    const bool abuts = left_neighbor
                           ? out.band.base + out.band.width == edge
                           : out.band.base == edge;
    if (abuts) {
      return std::max(0.0, (out.predicted_end - ctx.now).value());
    }
  }
  // No granted band abuts this edge (e.g. the neighbor is a reservation the
  // substrate has not registered, or the snapshot is partial): treat as
  // never freeing rather than guessing.
  return std::numeric_limits<double>::infinity();
}

/// How many of `pending` (minimum widths of jobs still waiting) cannot be
/// packed into `capacities` (residual free-interval widths), under greedy
/// first-fit-decreasing.  Bands are contiguous but end-carves leave
/// contiguous remainders, so an interval of width C holds any width set
/// summing to <= C — plain bin packing, and FFD is a deterministic,
/// near-optimal proxy for the joint-placement feasibility of the rest of
/// the demand.
std::uint32_t blocked_pending(std::vector<std::uint32_t> capacities,
                              std::vector<std::uint32_t> pending) {
  std::sort(pending.begin(), pending.end(),
            [](std::uint32_t a, std::uint32_t b) { return a > b; });
  std::uint32_t blocked = 0;
  for (const std::uint32_t need : pending) {
    bool placed = false;
    for (std::uint32_t& cap : capacities) {
      if (cap >= need) {
        cap -= need;
        placed = true;
        break;
      }
    }
    if (!placed) ++blocked;
  }
  return blocked;
}

struct Candidate {
  std::uint32_t base = 0;
  // Lexicographic cost, most significant first.
  std::uint32_t blocked = 0;   // pending min-widths no longer packable
  std::uint32_t sliver = 0;    // leftover too narrow for any waiting width
  std::uint32_t waste = 0;     // leftover in the chosen interval (best fit)
  double wait = 0.0;           // seconds until the abutting band frees

  /// True when this candidate is strictly cheaper.  Waste (best fit) ranks
  /// ABOVE neighbor wait: picking the snuggest interval provably maximizes
  /// the post-placement largest free run, while wait-first would split a
  /// wide run just to sit next to a soon-freeing band — measurably worse
  /// fragmentation on the stress seeds.  Wait then decides WHICH END of
  /// the chosen interval (equal waste either way), which is the elastic-
  /// grow positioning it exists for.  Doubles are compared with < both
  /// ways (never ==): equal waits fall through to the base tie-break.
  bool better_than(const Candidate& other) const {
    if (blocked != other.blocked) return blocked < other.blocked;
    if (sliver != other.sliver) return sliver < other.sliver;
    if (waste != other.waste) return waste < other.waste;
    if (wait < other.wait) return true;
    if (other.wait < wait) return false;
    return base < other.base;
  }
};

/// Insert a released band into the sorted free-interval list, merging with
/// adjacent intervals — the planner-local mirror of the arbiter's
/// index_free, operating on the forecast copy.
void merge_free(std::vector<FreeInterval>& intervals, std::uint32_t base,
                std::uint32_t width) {
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), base,
      [](std::uint32_t b, const FreeInterval& iv) { return b < iv.base; });
  if (it != intervals.begin()) {
    const auto prev = std::prev(it);
    WRHT_CHECK(prev->base + prev->width <= base,
               "SpectrumPlanner: forecast frees overlapping range at "
                   << base);
    if (prev->base + prev->width == base) {
      prev->width += width;
      if (it != intervals.end() && it->base == prev->base + prev->width) {
        prev->width += it->width;
        intervals.erase(it);
      }
      return;
    }
  }
  if (it != intervals.end() && it->base == base + width) {
    it->base = base;
    it->width += width;
    return;
  }
  intervals.insert(it, FreeInterval{base, width});
}

}  // namespace

std::optional<std::uint32_t> SpectrumPlanner::choose_base(
    std::uint32_t width, const PlannerContext& ctx) {
  WRHT_REQUIRE(width > 0, "SpectrumPlanner: zero-width placement requested");
  std::uint32_t smallest_pending = 0;
  for (const std::uint32_t w : ctx.pending_min_widths) {
    if (smallest_pending == 0 || w < smallest_pending) smallest_pending = w;
  }

  std::optional<Candidate> best;
  for (std::size_t i = 0; i < ctx.free_intervals.size(); ++i) {
    const FreeInterval& iv = ctx.free_intervals[i];
    if (iv.width < width) continue;
    const std::uint32_t leftover = iv.width - width;

    // Terms 1, 2, and 4 depend only on which interval is carved (an
    // end-carve leaves the same contiguous residual either way); compute
    // them once per interval.
    std::vector<std::uint32_t> capacities;
    capacities.reserve(ctx.free_intervals.size());
    for (std::size_t j = 0; j < ctx.free_intervals.size(); ++j) {
      capacities.push_back(j == i ? leftover : ctx.free_intervals[j].width);
    }
    const std::uint32_t blocked =
        ctx.pending_min_widths.empty()
            ? 0
            : blocked_pending(std::move(capacities), ctx.pending_min_widths);
    const std::uint32_t sliver =
        (leftover > 0 && smallest_pending > 0 && leftover < smallest_pending)
            ? leftover
            : 0;

    // Term 3 picks the end: align against whichever neighbor frees sooner.
    const auto consider = [&](std::uint32_t base, double wait) {
      const Candidate cand{base, blocked, sliver, leftover, wait};
      if (!best || cand.better_than(*best)) best = cand;
    };
    consider(iv.base, neighbor_wait(ctx, iv.base, /*left_neighbor=*/true));
    if (leftover > 0) {
      consider(iv.base + leftover,
               neighbor_wait(ctx, iv.base + iv.width,
                             /*left_neighbor=*/false));
    }
  }
  if (!best) return std::nullopt;
  return best->base;
}

util::Seconds SpectrumPlanner::earliest_fit(std::uint32_t width,
                                            const PlannerContext& ctx) {
  WRHT_REQUIRE(width > 0, "SpectrumPlanner: zero-width forecast requested");
  for (const FreeInterval& iv : ctx.free_intervals) {
    if (iv.width >= width) return ctx.now;
  }
  // Replay outstanding releases in predicted order (base breaks ties for
  // determinism; ends before `now` are overdue and release immediately),
  // merging each band back until a contiguous run fits.
  std::vector<OutstandingBand> releases = ctx.outstanding;
  std::sort(releases.begin(), releases.end(),
            [&](const OutstandingBand& a, const OutstandingBand& b) {
              const double ta = std::max(a.predicted_end, ctx.now).value();
              const double tb = std::max(b.predicted_end, ctx.now).value();
              if (ta < tb) return true;
              if (tb < ta) return false;
              return a.band.base < b.band.base;
            });
  std::vector<FreeInterval> intervals = ctx.free_intervals;
  util::Seconds when = ctx.now;
  for (const OutstandingBand& rel : releases) {
    when = std::max(rel.predicted_end, ctx.now);
    merge_free(intervals, rel.band.base, rel.band.width);
    for (const FreeInterval& iv : intervals) {
      if (iv.width >= width) return when;
    }
  }
  // Even the fully-drained spectrum cannot host `width` — callers clamp
  // widths to the spectrum, so this is a defensive floor.
  return when;
}

}  // namespace wrht::runtime
