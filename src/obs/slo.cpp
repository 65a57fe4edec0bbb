#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wrht::obs {

namespace {

// The nearest-rank quantile of an already sorted series.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, std::numeric_limits<double>::min(), 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

}  // namespace

double exact_quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return sorted_quantile(samples, q);
}

SloStats compute_slo(const std::vector<runtime::JobRecord>& records) {
  SloStats out;
  std::vector<double> turnarounds;
  std::vector<double> slowdowns;
  turnarounds.reserve(records.size());
  slowdowns.reserve(records.size());
  for (const runtime::JobRecord& record : records) {
    if (record.state != runtime::JobState::kDone) continue;
    ++out.jobs;
    const double turnaround = record.turnaround().value();
    turnarounds.push_back(turnaround);
    const double service = (record.completed - record.admitted).value();
    // Zero-duration service (degenerate but legal in tests) pins the
    // slowdown at 1: the job was never made to wait.
    slowdowns.push_back(service > 0.0 ? turnaround / service : 1.0);
    out.max_wait = std::max(out.max_wait, record.admitted -
                                              record.spec.arrival);
    if (record.spec.deadline > util::Seconds(0.0)) {
      ++out.deadline_jobs;
      if (record.turnaround() <= record.spec.deadline) ++out.deadline_hits;
    }
  }
  // Each series is sorted once and read at its three ranks.
  std::sort(turnarounds.begin(), turnarounds.end());
  std::sort(slowdowns.begin(), slowdowns.end());
  out.p50_turnaround = util::Seconds(sorted_quantile(turnarounds, 0.50));
  out.p99_turnaround = util::Seconds(sorted_quantile(turnarounds, 0.99));
  out.p999_turnaround = util::Seconds(sorted_quantile(turnarounds, 0.999));
  out.p50_slowdown = sorted_quantile(slowdowns, 0.50);
  out.p99_slowdown = sorted_quantile(slowdowns, 0.99);
  out.p999_slowdown = sorted_quantile(slowdowns, 0.999);
  return out;
}

}  // namespace wrht::obs
