#include "optical/spectrum.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

namespace {
std::size_t g_allocations = 0;
}  // namespace

// Counting replacements for the global allocator: the zero-allocation test
// below snapshots g_allocations around a burst of spectrum operations.
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wrht::optical {
namespace {

using topo::Arc;
using topo::Direction;
using topo::RingTopology;

TEST(Spectrum, FreshMapIsFree) {
  const RingTopology ring(8);
  const SpectrumMap spectrum(ring, 4);
  const Arc arc = ring.arc(0, 4, Direction::kClockwise);
  for (WavelengthId lambda = 0; lambda < 4; ++lambda) {
    EXPECT_TRUE(spectrum.is_free(arc, lambda));
  }
  EXPECT_EQ(spectrum.first_free(arc).value(), 0u);
  EXPECT_EQ(spectrum.wavelengths_in_use(), 0u);
}

TEST(Spectrum, ReserveBlocksOverlappingArc) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 4);
  spectrum.reserve(ring.arc(0, 3, Direction::kClockwise), 0);
  // Overlapping arc: lambda 0 busy, lambda 1 free.
  const Arc overlapping = ring.arc(2, 5, Direction::kClockwise);
  EXPECT_FALSE(spectrum.is_free(overlapping, 0));
  EXPECT_TRUE(spectrum.is_free(overlapping, 1));
  EXPECT_EQ(spectrum.first_free(overlapping).value(), 1u);
}

TEST(Spectrum, DisjointArcReusesWavelength) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 4);
  spectrum.reserve(ring.arc(0, 3, Direction::kClockwise), 0);
  const Arc disjoint = ring.arc(4, 7, Direction::kClockwise);
  EXPECT_TRUE(spectrum.is_free(disjoint, 0));
}

TEST(Spectrum, OppositeDirectionIsSeparateWaveguide) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  spectrum.reserve(ring.arc(0, 4, Direction::kClockwise), 0);
  EXPECT_TRUE(
      spectrum.is_free(ring.arc(4, 0, Direction::kCounterClockwise), 0));
}

TEST(Spectrum, ReleaseRestoresFreedom) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  const Arc arc = ring.arc(1, 6, Direction::kClockwise);
  spectrum.reserve(arc, 1);
  EXPECT_FALSE(spectrum.is_free(arc, 1));
  spectrum.release(arc, 1);
  EXPECT_TRUE(spectrum.is_free(arc, 1));
  EXPECT_EQ(spectrum.wavelengths_in_use(), 0u);
}

TEST(Spectrum, FirstFreeExhaustion) {
  const RingTopology ring(4);
  SpectrumMap spectrum(ring, 2);
  const Arc arc = ring.arc(0, 2, Direction::kClockwise);
  spectrum.reserve(arc, 0);
  spectrum.reserve(arc, 1);
  EXPECT_FALSE(spectrum.first_free(arc).has_value());
}

TEST(Spectrum, UsageCountsSpans) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  spectrum.reserve(ring.arc(0, 3, Direction::kClockwise), 0);  // 3 spans
  spectrum.reserve(ring.arc(5, 7, Direction::kClockwise), 0);  // 2 spans
  EXPECT_EQ(spectrum.usage(0), 5u);
  EXPECT_EQ(spectrum.usage(1), 0u);
  EXPECT_EQ(spectrum.occupied_cells(Direction::kClockwise), 5u);
  EXPECT_EQ(spectrum.occupied_cells(Direction::kCounterClockwise), 0u);
  EXPECT_EQ(spectrum.wavelengths_in_use(), 1u);
}

TEST(Spectrum, ClearResetsEverything) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  spectrum.reserve(ring.arc(0, 3, Direction::kClockwise), 0);
  spectrum.clear();
  EXPECT_EQ(spectrum.wavelengths_in_use(), 0u);
  EXPECT_TRUE(spectrum.is_free(ring.arc(0, 3, Direction::kClockwise), 0));
}

TEST(Spectrum, OutOfRangeWavelengthNeverFree) {
  const RingTopology ring(4);
  const SpectrumMap spectrum(ring, 2);
  EXPECT_FALSE(spectrum.is_free(ring.arc(0, 1, Direction::kClockwise), 7));
}

TEST(SpectrumDeathTest, ReserveRejectsOutOfRangeWavelength) {
  // Wavelength 4 of 4 would alias span 1's wavelength 0 and write past the
  // per-wavelength usage counts.
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 4);
  const Arc arc{Direction::kClockwise, 0, 1};
  EXPECT_DEATH(spectrum.reserve(arc, 4), "wavelength 4 outside 4 wavelengths");
}

TEST(SpectrumDeathTest, ReleaseRejectsOutOfRangeWavelength) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 4);
  spectrum.reserve(Arc{Direction::kClockwise, 1, 1}, 0);
  EXPECT_DEATH(spectrum.release(Arc{Direction::kClockwise, 0, 1}, 4),
               "wavelength 4 outside 4 wavelengths");
}

TEST(Spectrum, ArcWalksMakeNoHeapAllocations) {
  const RingTopology ring(64);
  SpectrumMap spectrum(ring, 16);
  const Arc cw = ring.arc(60, 10, Direction::kClockwise);         // wraps
  const Arc ccw = ring.arc(5, 40, Direction::kCounterClockwise);  // wraps
  const Arc full{Direction::kClockwise, 7, 64};
  std::size_t reserved = 0;
  std::size_t free_found = 0;
  const std::size_t before = g_allocations;
  for (int round = 0; round < 100; ++round) {
    for (const Arc& arc : {cw, ccw, full}) {
      for (WavelengthId lambda = 0; lambda < 16; ++lambda) {
        if (spectrum.is_free(arc, lambda)) ++free_found;
        if (spectrum.try_reserve(arc, lambda)) {
          ++reserved;
          if (spectrum.first_free(arc).has_value()) ++free_found;
          spectrum.release(arc, lambda);
        }
      }
    }
  }
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(reserved, 100u * 3 * 16);
  EXPECT_GT(free_found, 0u);
}

TEST(Spectrum, NestedArcsOneSide) {
  // The Wrht left-side pattern: arcs [k..rep) all ending at the same node
  // pairwise conflict, so they consume one wavelength each.
  const RingTopology ring(16);
  SpectrumMap spectrum(ring, 8);
  const topo::NodeId rep = 8;
  for (topo::NodeId member = 4; member < rep; ++member) {
    const Arc arc = ring.arc(member, rep, Direction::kClockwise);
    const auto lambda = spectrum.first_free(arc);
    ASSERT_TRUE(lambda.has_value());
    spectrum.reserve(arc, *lambda);
  }
  EXPECT_EQ(spectrum.wavelengths_in_use(), 4u);
}

}  // namespace
}  // namespace wrht::optical
