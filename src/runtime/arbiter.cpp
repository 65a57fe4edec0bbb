#include "runtime/arbiter.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace wrht::runtime {

void SpectrumArbiter::attach_metrics(obs::MetricsRegistry& registry) {
  allocations_ = registry.counter("spectrum.band_allocations");
  releases_ = registry.counter("spectrum.band_releases");
  grows_ = registry.counter("spectrum.band_grows");
  shrinks_ = registry.counter("spectrum.band_shrinks");
  occupancy_ = registry.sampled_gauge("optical.spectrum_occupancy");
  publish_occupancy();
}

void SpectrumArbiter::publish_occupancy() {
  obs::set(occupancy_, 1.0 - static_cast<double>(free_) /
                                 static_cast<double>(total_));
}

SpectrumArbiter::SpectrumArbiter(std::uint32_t total_wavelengths)
    : total_(total_wavelengths), free_(total_wavelengths) {
  WRHT_REQUIRE(total_wavelengths > 0,
               "SpectrumArbiter: need at least one wavelength");
  taken_.assign(total_wavelengths, false);
  free_intervals_.push_back(FreeInterval{0, total_wavelengths});
}

void SpectrumArbiter::index_take(std::uint32_t base, std::uint32_t width) {
  const auto it = std::upper_bound(
      free_intervals_.begin(), free_intervals_.end(), base,
      [](std::uint32_t b, const FreeInterval& iv) { return b < iv.base; });
  WRHT_CHECK(it != free_intervals_.begin(),
             "SpectrumArbiter: interval index lost range at " << base);
  const auto iv = std::prev(it);
  WRHT_CHECK(iv->base <= base && base + width <= iv->base + iv->width,
             "SpectrumArbiter: taking [" << base << ", " << base + width
                                         << ") outside free interval ["
                                         << iv->base << ", "
                                         << iv->base + iv->width << ")");
  const std::uint32_t left = base - iv->base;
  const std::uint32_t right = (iv->base + iv->width) - (base + width);
  if (left == 0 && right == 0) {
    free_intervals_.erase(iv);
  } else if (left == 0) {
    iv->base = base + width;
    iv->width = right;
  } else if (right == 0) {
    iv->width = left;
  } else {
    iv->width = left;
    free_intervals_.insert(std::next(iv),
                           FreeInterval{base + width, right});
  }
}

void SpectrumArbiter::index_free(std::uint32_t base, std::uint32_t width) {
  auto it = std::upper_bound(
      free_intervals_.begin(), free_intervals_.end(), base,
      [](std::uint32_t b, const FreeInterval& iv) { return b < iv.base; });
  // Merge with the interval ending exactly at `base`...
  if (it != free_intervals_.begin()) {
    const auto prev = std::prev(it);
    if (prev->base + prev->width == base) {
      prev->width += width;
      // ...and with the one starting exactly at the new end.
      if (it != free_intervals_.end() && it->base == prev->base + prev->width) {
        prev->width += it->width;
        free_intervals_.erase(it);
      }
      return;
    }
    WRHT_CHECK(prev->base + prev->width <= base,
               "SpectrumArbiter: freeing already-free range at " << base);
  }
  if (it != free_intervals_.end() && it->base == base + width) {
    it->base = base;
    it->width += width;
    return;
  }
  free_intervals_.insert(it, FreeInterval{base, width});
}

std::uint32_t SpectrumArbiter::largest_free_block() const {
  std::uint32_t best = 0;
  for (const FreeInterval& iv : free_intervals_) {
    best = std::max(best, iv.width);
  }
  return best;
}

std::optional<WavelengthBand> SpectrumArbiter::allocate(std::uint32_t width) {
  WRHT_REQUIRE(width > 0, "SpectrumArbiter: zero-width band requested");
  // First fit == the lowest-based interval wide enough; intervals are
  // sorted by base.
  const auto fit = std::find_if(
      free_intervals_.begin(), free_intervals_.end(),
      [width](const FreeInterval& iv) { return iv.width >= width; });
  if (fit == free_intervals_.end()) return std::nullopt;
  const std::uint32_t base = fit->base;
  for (std::uint32_t i = base; i < base + width; ++i) taken_[i] = true;
  index_take(base, width);
  free_ -= width;
  ++bands_;
  obs::inc(allocations_);
  publish_occupancy();
  return WavelengthBand{base, width};
}

std::optional<WavelengthBand> SpectrumArbiter::allocate_at(
    std::uint32_t base, std::uint32_t width) {
  WRHT_REQUIRE(width > 0, "SpectrumArbiter: zero-width band requested");
  if (base + width > total_) return std::nullopt;
  for (std::uint32_t i = base; i < base + width; ++i) {
    if (taken_[i]) return std::nullopt;
  }
  for (std::uint32_t i = base; i < base + width; ++i) taken_[i] = true;
  index_take(base, width);
  free_ -= width;
  ++bands_;
  obs::inc(allocations_);
  publish_occupancy();
  return WavelengthBand{base, width};
}

void SpectrumArbiter::release(const WavelengthBand& band) {
  WRHT_REQUIRE(band.valid() && band.base + band.width <= total_,
               "SpectrumArbiter: releasing bogus band ["
                   << band.base << ", " << band.base + band.width << ")");
  for (std::uint32_t i = band.base; i < band.base + band.width; ++i) {
    WRHT_CHECK(taken_[i],
               "SpectrumArbiter: double release of wavelength " << i);
    taken_[i] = false;
  }
  index_free(band.base, band.width);
  free_ += band.width;
  --bands_;
  obs::inc(releases_);
  publish_occupancy();
}

WavelengthBand SpectrumArbiter::grow(const WavelengthBand& band,
                                     std::uint32_t max_width) {
  WRHT_REQUIRE(band.valid() && band.base + band.width <= total_,
               "SpectrumArbiter: growing bogus band ["
                   << band.base << ", " << band.base + band.width << ")");
  for (std::uint32_t i = band.base; i < band.base + band.width; ++i) {
    // Same corruption guard as release()/shrink_to(): a stale band whose
    // cells are free would silently absorb them as "adjacent" spectrum.
    WRHT_CHECK(taken_[i],
               "SpectrumArbiter: growing unallocated wavelength " << i);
  }
  WavelengthBand out = band;
  // Upward first, then downward — identical to the cell-by-cell walk: the
  // free cells directly above `band` are exactly the low end of the
  // interval starting at band.base + band.width (if any), and symmetrically
  // below.
  while (out.width < max_width && out.base + out.width < total_ &&
         !taken_[out.base + out.width]) {
    taken_[out.base + out.width] = true;
    ++out.width;
    --free_;
  }
  while (out.width < max_width && out.base > 0 && !taken_[out.base - 1]) {
    --out.base;
    taken_[out.base] = true;
    ++out.width;
    --free_;
  }
  if (out.width != band.width) {
    const std::uint32_t above = out.base + out.width -
                                (band.base + band.width);
    if (above > 0) index_take(band.base + band.width, above);
    const std::uint32_t below = band.base - out.base;
    if (below > 0) index_take(out.base, below);
    obs::inc(grows_);
    publish_occupancy();
  }
  return out;
}

void SpectrumArbiter::shrink_to(const WavelengthBand& band,
                                const WavelengthBand& keep) {
  WRHT_REQUIRE(band.valid() && keep.valid() && keep.base >= band.base &&
                   keep.base + keep.width <= band.base + band.width,
               "SpectrumArbiter: shrink keep ["
                   << keep.base << ", " << keep.base + keep.width
                   << ") not inside [" << band.base << ", "
                   << band.base + band.width << ")");
  for (std::uint32_t i = band.base; i < band.base + band.width; ++i) {
    if (i >= keep.base && i < keep.base + keep.width) continue;
    WRHT_CHECK(taken_[i],
               "SpectrumArbiter: shrink of unallocated wavelength " << i);
    taken_[i] = false;
    ++free_;
  }
  if (keep.width != band.width) {
    const std::uint32_t left = keep.base - band.base;
    if (left > 0) index_free(band.base, left);
    const std::uint32_t right = (band.base + band.width) -
                                (keep.base + keep.width);
    if (right > 0) index_free(keep.base + keep.width, right);
    obs::inc(shrinks_);
    publish_occupancy();
  }
}

std::uint32_t SpectrumArbiter::largest_free_block_assuming(
    const WavelengthBand& also_free) const {
  // `also_free` is a granted band (every cell taken), so the hypothetical
  // free run it creates is also_free itself joined with the intervals
  // touching its two edges; every other free run is unchanged.
  std::uint32_t joined = also_free.width;
  std::uint32_t best = 0;
  for (const FreeInterval& iv : free_intervals_) {
    best = std::max(best, iv.width);
    if (iv.base + iv.width == also_free.base) joined += iv.width;
    if (iv.base == also_free.base + also_free.width) joined += iv.width;
  }
  return std::max(best, joined);
}

}  // namespace wrht::runtime
