// SLO statistics for a multi-tenant run: exact turnaround / slowdown
// percentiles, the worst admission wait, and the deadline hit rate.
//
// These are EXACT nearest-rank quantiles computed from the per-job records
// the runtime already keeps — not readbacks of the registry's bucketed
// histograms — so RuntimeReport's p50/p99/p999 match a recomputation from
// JobRecords bit for bit (tests assert this), and the block is available
// even when no MetricsRegistry is installed.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/job.hpp"
#include "util/units.hpp"

namespace wrht::obs {

struct SloStats {
  /// Completed jobs the stats cover.
  std::uint64_t jobs = 0;
  /// Turnaround = completion - arrival (queueing included).
  util::Seconds p50_turnaround{0.0};
  util::Seconds p99_turnaround{0.0};
  util::Seconds p999_turnaround{0.0};
  /// Slowdown = turnaround / (completion - admission): how much longer the
  /// job took end-to-end than its own service span.  1.0 = admitted the
  /// instant it arrived; queueing for capacity pushes it up.
  double p50_slowdown = 0.0;
  double p99_slowdown = 0.0;
  double p999_slowdown = 0.0;
  /// Worst admission wait (admission - arrival) over completed jobs.
  util::Seconds max_wait{0.0};
  /// Jobs that carried a JobSpec::deadline, and how many of those finished
  /// within it (turnaround <= deadline).
  std::uint64_t deadline_jobs = 0;
  std::uint64_t deadline_hits = 0;

  /// Hit fraction in [0, 1]; 0 when no job carried a deadline.
  [[nodiscard]] double deadline_hit_rate() const {
    return deadline_jobs == 0
               ? 0.0
               : static_cast<double>(deadline_hits) /
                     static_cast<double>(deadline_jobs);
  }
};

/// Exact nearest-rank quantile: the smallest sample such that at least
/// ceil(q * n) samples are <= it.  Takes `samples` by value (sorts a copy);
/// 0 on an empty input.  q is clamped to (0, 1].
[[nodiscard]] double exact_quantile(std::vector<double> samples, double q);

/// SloStats over the completed jobs in `records` (everything else —
/// rejected, and in a partial view queued/running — is skipped).
[[nodiscard]] SloStats compute_slo(
    const std::vector<runtime::JobRecord>& records);

}  // namespace wrht::obs
