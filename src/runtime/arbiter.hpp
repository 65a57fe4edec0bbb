// Spectrum arbitration between concurrent jobs.
//
// The arbiter partitions the ring's wavelength space [0, W) into disjoint
// contiguous bands, one per running job.  Each job builds its Wrht schedule
// against a private budget of band.width wavelengths and the runtime shifts
// every assignment up by band.base, so two admitted jobs can never collide
// on a (span, wavelength, direction) cell — the DES conflict rule is
// preserved by construction, with the SpectrumMap still checking every
// reservation as a backstop.
//
// The runtime places bands with the SpectrumPlanner (runtime/planner.hpp),
// claiming the exact range it chose through allocate_at(); allocate() is
// the first-fit primitive.  Queries run over a sorted free-interval
// list (O(#holes) instead of O(W) per grant/probe — the difference matters
// once a million-job run calls can_place on every admission attempt); a
// per-wavelength occupancy bitmap is maintained alongside it as the
// double-free / corruption guard.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/job.hpp"

namespace wrht::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace wrht::obs

namespace wrht::runtime {

class SpectrumArbiter {
 public:
  /// A maximal free run [base, base + width); the interval list is sorted
  /// by base, disjoint, and never adjacent (merged eagerly on release).
  struct FreeInterval {
    std::uint32_t base;
    std::uint32_t width;

    friend bool operator==(const FreeInterval&, const FreeInterval&) =
        default;
  };

  explicit SpectrumArbiter(std::uint32_t total_wavelengths);

  /// Register the arbiter's metrics with `registry`: band grant/release/
  /// grow/shrink counters and the "optical.spectrum_occupancy" sampled
  /// gauge (fraction of the spectrum inside granted bands, updated on every
  /// mutation so sampler snapshots are exact).  The registry must outlive
  /// the arbiter.
  void attach_metrics(obs::MetricsRegistry& registry);

  [[nodiscard]] std::uint32_t total() const { return total_; }
  /// Wavelengths not currently inside any granted band.
  [[nodiscard]] std::uint32_t free_total() const { return free_; }
  /// Width of the widest contiguous free run (0 when fully allocated).
  [[nodiscard]] std::uint32_t largest_free_block() const;
  [[nodiscard]] std::uint32_t bands_outstanding() const { return bands_; }

  /// First-fit allocation of a contiguous band of `width` wavelengths.
  /// Returns nullopt when no free run is wide enough.  width must be >= 1.
  [[nodiscard]] std::optional<WavelengthBand> allocate(std::uint32_t width);

  /// Placed allocation: claim exactly [base, base + width).  Returns
  /// nullopt when any wavelength of the range is taken (the caller's
  /// placement went stale) — the planner's chosen placements land here.
  [[nodiscard]] std::optional<WavelengthBand> allocate_at(std::uint32_t base,
                                                          std::uint32_t width);

  /// The maximal free runs, sorted by base.
  [[nodiscard]] const std::vector<FreeInterval>& free_intervals() const {
    return free_intervals_;
  }

  /// Return a band obtained from allocate().  Aborts on a band that is not
  /// currently allocated exactly as given (double-free / corruption guard).
  void release(const WavelengthBand& band);

  /// Elastic resize, upward half: widen `band` in place into adjacent free
  /// wavelengths (above first, then below) until it reaches `max_width` or
  /// runs out of free neighbors.  Returns the possibly-larger band; the
  /// caller's old band handle is superseded.
  [[nodiscard]] WavelengthBand grow(const WavelengthBand& band,
                                    std::uint32_t max_width);

  /// Elastic resize, downward half: give back the outer wavelengths of
  /// `band`, keeping exactly `keep` (which must be a non-empty sub-range of
  /// `band`).
  void shrink_to(const WavelengthBand& band, const WavelengthBand& keep);

  /// Width of the widest contiguous free run if `also_free` were released —
  /// the what-if probe behind shrink-under-pressure: shrink only when the
  /// surrendered range would actually make a starved job admissible.
  [[nodiscard]] std::uint32_t largest_free_block_assuming(
      const WavelengthBand& also_free) const;

 private:
  /// Refresh the occupancy gauge after a mutation (no-op when no registry
  /// is attached).
  void publish_occupancy();

  /// Remove [base, base + width) from the free-interval list.  The range
  /// must lie inside a single interval (it is free by the caller's check).
  void index_take(std::uint32_t base, std::uint32_t width);
  /// Add [base, base + width) back, merging with adjacent intervals.
  void index_free(std::uint32_t base, std::uint32_t width);

  std::uint32_t total_;
  std::uint32_t free_;
  std::uint32_t bands_ = 0;
  std::vector<bool> taken_;  // per wavelength; double-free / corruption guard
  std::vector<FreeInterval> free_intervals_;
  /// Metric handles; nullptr (zero-overhead emission) without a registry.
  obs::Counter* allocations_ = nullptr;
  obs::Counter* releases_ = nullptr;
  obs::Counter* grows_ = nullptr;
  obs::Counter* shrinks_ = nullptr;
  obs::Gauge* occupancy_ = nullptr;
};

}  // namespace wrht::runtime
