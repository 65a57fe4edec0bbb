#include "runtime/arbiter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/random.hpp"

namespace wrht::runtime {
namespace {

TEST(Arbiter, FirstFitAllocatesDisjointBands) {
  SpectrumArbiter arbiter(16);
  const auto a = arbiter.allocate(8);
  const auto b = arbiter.allocate(4);
  const auto c = arbiter.allocate(4);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->base, 0u);
  EXPECT_EQ(b->base, 8u);
  EXPECT_EQ(c->base, 12u);
  EXPECT_EQ(arbiter.free_total(), 0u);
  EXPECT_EQ(arbiter.largest_free_block(), 0u);
  EXPECT_EQ(arbiter.bands_outstanding(), 3u);
}

TEST(Arbiter, RefusesWhenNoRunFits) {
  SpectrumArbiter arbiter(8);
  ASSERT_TRUE(arbiter.allocate(8));
  EXPECT_FALSE(arbiter.allocate(1));
}

TEST(Arbiter, FragmentationBlocksWideBand) {
  SpectrumArbiter arbiter(12);
  const auto a = arbiter.allocate(4);   // [0, 4)
  const auto b = arbiter.allocate(4);   // [4, 8)
  const auto c = arbiter.allocate(4);   // [8, 12)
  ASSERT_TRUE(a && b && c);
  arbiter.release(*a);
  arbiter.release(*c);
  // 8 wavelengths free, but the widest contiguous run is 4.
  EXPECT_EQ(arbiter.free_total(), 8u);
  EXPECT_EQ(arbiter.largest_free_block(), 4u);
  EXPECT_FALSE(arbiter.allocate(6));
  const auto d = arbiter.allocate(4);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->base, 0u);  // first fit reuses the low gap
}

TEST(Arbiter, ReleaseMergesAdjacentGaps) {
  SpectrumArbiter arbiter(12);
  const auto a = arbiter.allocate(4);
  const auto b = arbiter.allocate(4);
  ASSERT_TRUE(a && b);
  arbiter.release(*a);
  arbiter.release(*b);
  EXPECT_EQ(arbiter.largest_free_block(), 12u);
  const auto wide = arbiter.allocate(12);
  ASSERT_TRUE(wide);
  EXPECT_EQ(wide->base, 0u);
}

TEST(ArbiterResize, GrowClaimsAdjacentFreeSpectrum) {
  SpectrumArbiter arbiter(16);
  const auto a = arbiter.allocate(4);  // [0, 4)
  const auto b = arbiter.allocate(4);  // [4, 8)
  ASSERT_TRUE(a && b);
  // Nothing free next to a while b holds [4, 8).
  EXPECT_EQ(arbiter.grow(*a, 8), *a);
  arbiter.release(*b);
  const WavelengthBand grown = arbiter.grow(*a, 8);
  EXPECT_EQ(grown.base, 0u);
  EXPECT_EQ(grown.width, 8u);
  EXPECT_EQ(arbiter.free_total(), 8u);
  // The grown band releases as one unit.
  arbiter.release(grown);
  EXPECT_EQ(arbiter.free_total(), 16u);
  EXPECT_EQ(arbiter.bands_outstanding(), 0u);
}

TEST(ArbiterResize, GrowExtendsDownwardWhenUpwardIsBlocked) {
  SpectrumArbiter arbiter(16);
  const auto low = arbiter.allocate(4);   // [0, 4)
  const auto mid = arbiter.allocate(4);   // [4, 8)
  const auto top = arbiter.allocate(8);   // [8, 16)
  ASSERT_TRUE(low && mid && top);
  arbiter.release(*low);
  const WavelengthBand grown = arbiter.grow(*mid, 6);
  EXPECT_EQ(grown.base, 2u);
  EXPECT_EQ(grown.width, 6u);
}

TEST(ArbiterResize, ShrinkReturnsOuterWavelengths) {
  SpectrumArbiter arbiter(16);
  const auto band = arbiter.allocate(12);  // [0, 12)
  ASSERT_TRUE(band);
  const WavelengthBand keep{band->base, 4};
  arbiter.shrink_to(*band, keep);
  EXPECT_EQ(arbiter.free_total(), 12u);
  // The freed run is immediately allocatable.
  const auto next = arbiter.allocate(8);
  ASSERT_TRUE(next);
  EXPECT_EQ(next->base, 4u);
  arbiter.release(keep);
  arbiter.release(*next);
  EXPECT_EQ(arbiter.free_total(), 16u);
}

TEST(ArbiterResize, WhatIfProbeSeesMergedRun) {
  SpectrumArbiter arbiter(16);
  const auto a = arbiter.allocate(8);   // [0, 8)
  const auto b = arbiter.allocate(8);   // [8, 16)
  ASSERT_TRUE(a && b);
  arbiter.release(*b);
  // Freeing the top half of a would merge with [8, 16) into a 12-run.
  EXPECT_EQ(arbiter.largest_free_block(), 8u);
  EXPECT_EQ(arbiter.largest_free_block_assuming(WavelengthBand{4, 4}), 12u);
  // The probe must not mutate anything.
  EXPECT_EQ(arbiter.largest_free_block(), 8u);
  EXPECT_EQ(arbiter.free_total(), 8u);
}

/// Per-wavelength occupancy model the arbiter's interval index must agree
/// with: free runs, first fit, and in-place grow are plain scans over it.
class BitmapModel {
 public:
  explicit BitmapModel(std::uint32_t total) : taken_(total, false) {}

  [[nodiscard]] std::vector<SpectrumArbiter::FreeInterval> runs(
      std::optional<WavelengthBand> also_free = std::nullopt) const {
    std::vector<SpectrumArbiter::FreeInterval> out;
    const auto total = static_cast<std::uint32_t>(taken_.size());
    std::uint32_t run = 0;
    for (std::uint32_t lambda = 0; lambda <= total; ++lambda) {
      const bool free =
          lambda < total &&
          (!taken_[lambda] ||
           (also_free && lambda >= also_free->base &&
            lambda < also_free->base + also_free->width));
      if (free) {
        ++run;
      } else if (run > 0) {
        out.push_back(SpectrumArbiter::FreeInterval{lambda - run, run});
        run = 0;
      }
    }
    return out;
  }

  [[nodiscard]] std::uint32_t largest(
      std::optional<WavelengthBand> also_free = std::nullopt) const {
    std::uint32_t best = 0;
    for (const auto& iv : runs(also_free)) best = std::max(best, iv.width);
    return best;
  }

  [[nodiscard]] std::uint32_t free_total() const {
    return static_cast<std::uint32_t>(
        std::count(taken_.begin(), taken_.end(), false));
  }

  [[nodiscard]] std::optional<std::uint32_t> first_fit(
      std::uint32_t width) const {
    for (const auto& iv : runs()) {
      if (iv.width >= width) return iv.base;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool range_free(std::uint32_t base,
                                std::uint32_t width) const {
    if (base + width > taken_.size()) return false;
    for (std::uint32_t i = base; i < base + width; ++i) {
      if (taken_[i]) return false;
    }
    return true;
  }

  void set(std::uint32_t base, std::uint32_t width, bool taken) {
    for (std::uint32_t i = base; i < base + width; ++i) taken_[i] = taken;
  }

  /// Upward first, then downward, one free neighbor at a time.
  [[nodiscard]] WavelengthBand grow(WavelengthBand band,
                                    std::uint32_t max_width) {
    while (band.width < max_width && band.base + band.width < taken_.size() &&
           !taken_[band.base + band.width]) {
      taken_[band.base + band.width] = true;
      ++band.width;
    }
    while (band.width < max_width && band.base > 0 &&
           !taken_[band.base - 1]) {
      --band.base;
      taken_[band.base] = true;
      ++band.width;
    }
    return band;
  }

 private:
  std::vector<bool> taken_;
};

// Random allocate / allocate_at / release / grow / shrink_to sequences,
// with every query checked against the bitmap model after every operation.
TEST(ArbiterReference, MatchesBitmapModelUnderRandomOperations) {
  for (const std::uint32_t total : {1u, 7u, 64u}) {
    SCOPED_TRACE(total);
    util::Rng rng(total);
    SpectrumArbiter arbiter(total);
    BitmapModel model(total);
    std::vector<WavelengthBand> bands;
    const auto random_width = [&rng, total] {
      return static_cast<std::uint32_t>(rng.next_below(total)) + 1;
    };
    const auto random_band = [&rng, &bands] {
      return static_cast<std::size_t>(rng.next_below(bands.size()));
    };
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t kind = bands.empty() ? rng.next_below(2)
                                               : rng.next_below(5);
      if (kind == 0) {
        const std::uint32_t width = random_width();
        const std::optional<std::uint32_t> base = model.first_fit(width);
        const std::optional<WavelengthBand> got = arbiter.allocate(width);
        ASSERT_EQ(got.has_value(), base.has_value());
        if (got) {
          ASSERT_EQ(got->base, *base);
          ASSERT_EQ(got->width, width);
          model.set(got->base, width, true);
          bands.push_back(*got);
        }
      } else if (kind == 1) {
        const auto base = static_cast<std::uint32_t>(rng.next_below(total));
        const std::uint32_t width = random_width();
        const bool fits = model.range_free(base, width);
        const std::optional<WavelengthBand> got =
            arbiter.allocate_at(base, width);
        ASSERT_EQ(got.has_value(), fits);
        if (got) {
          ASSERT_EQ(*got, (WavelengthBand{base, width}));
          model.set(base, width, true);
          bands.push_back(*got);
        }
      } else if (kind == 2) {
        const std::size_t i = random_band();
        arbiter.release(bands[i]);
        model.set(bands[i].base, bands[i].width, false);
        bands.erase(bands.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (kind == 3) {
        const std::size_t i = random_band();
        const std::uint32_t max_width = std::max(bands[i].width,
                                                 random_width());
        const WavelengthBand want = model.grow(bands[i], max_width);
        bands[i] = arbiter.grow(bands[i], max_width);
        ASSERT_EQ(bands[i], want);
      } else {
        const std::size_t i = random_band();
        const WavelengthBand band = bands[i];
        const auto keep_width =
            static_cast<std::uint32_t>(rng.next_below(band.width)) + 1;
        const auto keep_base =
            band.base + static_cast<std::uint32_t>(
                            rng.next_below(band.width - keep_width + 1));
        const WavelengthBand keep{keep_base, keep_width};
        arbiter.shrink_to(band, keep);
        model.set(band.base, band.width, false);
        model.set(keep.base, keep.width, true);
        bands[i] = keep;
      }

      ASSERT_EQ(arbiter.free_intervals(), model.runs());
      ASSERT_EQ(arbiter.largest_free_block(), model.largest());
      ASSERT_EQ(arbiter.free_total(), model.free_total());
      ASSERT_EQ(arbiter.bands_outstanding(), bands.size());
      for (const WavelengthBand& band : bands) {
        ASSERT_EQ(arbiter.largest_free_block_assuming(band),
                  model.largest(band));
      }
    }
  }
}

TEST(ArbiterDeath, DoubleReleaseAborts) {
  SpectrumArbiter arbiter(8);
  const auto a = arbiter.allocate(4);
  ASSERT_TRUE(a);
  arbiter.release(*a);
  EXPECT_DEATH(arbiter.release(*a), "double release");
}

}  // namespace
}  // namespace wrht::runtime
