#include "optical/spectrum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "util/random.hpp"

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
  // A one-word mask per (direction, lambda) on 64 spans, and three words
  // (the last one partial) on 130.
  struct Case {
    std::uint32_t nodes;
    WavelengthId lambdas;
  };
  for (const Case c : {Case{64, 16}, Case{130, 128}}) {
    const RingTopology ring(c.nodes);
    SpectrumMap spectrum(ring, c.lambdas);
    const std::uint32_t n = c.nodes;
    const Arc cw = ring.arc(n - 4, 10, Direction::kClockwise);       // wraps
    const Arc ccw = ring.arc(5, n - 24, Direction::kCounterClockwise);  // wraps
    const Arc full{Direction::kClockwise, 7, n};
    std::size_t reserved = 0;
    std::size_t free_found = 0;
    const std::size_t before = g_allocations;
    for (int round = 0; round < 100; ++round) {
      for (const Arc& arc : {cw, ccw, full}) {
        for (WavelengthId lambda = 0; lambda < c.lambdas; ++lambda) {
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
    EXPECT_EQ(allocations, 0u) << n << " nodes";
    EXPECT_EQ(reserved, 100u * 3 * c.lambdas) << n << " nodes";
    EXPECT_GT(free_found, 0u) << n << " nodes";
  }
}

// The span-by-span map the word-parallel one replaced: one bit per
// (direction, span, lambda), every arc walked one span at a time.  Kept
// here as the reference of the differential test below.
class ReferenceMap {
 public:
  ReferenceMap(const RingTopology& ring, std::uint32_t num_wavelengths)
      : ring_(&ring),
        num_wavelengths_(num_wavelengths),
        occupied_(std::size_t{2} * ring.num_spans() * num_wavelengths),
        usage_(num_wavelengths, 0) {}

  bool is_free(const Arc& arc, WavelengthId lambda) const {
    if (lambda >= num_wavelengths_) return false;
    for (const topo::SpanId span : ring_->spans(arc)) {
      if (occupied_[cell(arc.direction, span, lambda)]) return false;
    }
    return true;
  }
  std::optional<WavelengthId> first_free(const Arc& arc) const {
    for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
      if (is_free(arc, lambda)) return lambda;
    }
    return std::nullopt;
  }
  void reserve(const Arc& arc, WavelengthId lambda) {
    for (const topo::SpanId span : ring_->spans(arc)) {
      occupied_[cell(arc.direction, span, lambda)] = true;
      ++usage_[lambda];
    }
  }
  void release(const Arc& arc, WavelengthId lambda) {
    for (const topo::SpanId span : ring_->spans(arc)) {
      occupied_[cell(arc.direction, span, lambda)] = false;
      --usage_[lambda];
    }
  }
  std::uint32_t wavelengths_in_use() const {
    std::uint32_t used = 0;
    for (const std::uint32_t u : usage_) used += u > 0 ? 1 : 0;
    return used;
  }
  std::uint64_t occupied_cells(Direction dir) const {
    std::uint64_t count = 0;
    for (topo::SpanId span = 0; span < ring_->num_spans(); ++span) {
      for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
        if (occupied_[cell(dir, span, lambda)]) ++count;
      }
    }
    return count;
  }
  std::uint32_t usage(WavelengthId lambda) const {
    return lambda < num_wavelengths_ ? usage_[lambda] : 0;
  }

 private:
  std::size_t cell(Direction dir, topo::SpanId span,
                   WavelengthId lambda) const {
    return (static_cast<std::size_t>(dir) * ring_->num_spans() + span) *
               num_wavelengths_ +
           lambda;
  }

  const RingTopology* ring_;
  std::uint32_t num_wavelengths_;
  std::vector<bool> occupied_;
  std::vector<std::uint32_t> usage_;
};

TEST(Spectrum, MatchesSpanBySpanReferenceOnRandomSequences) {
  // Random reserve / try_reserve / release / probe sequences on rings whose
  // span count is below, at and above one and two 64-bit words, against the
  // reference map.  Arcs run both ways, wrap past span N-1, and include
  // empty and full-ring (length N) arcs.
  util::Rng rng(0x5bec7);
  for (const std::uint32_t nodes : {2u, 3u, 63u, 64u, 65u, 130u}) {
    for (const WavelengthId lambdas : {1u, 63u, 64u, 65u, 128u}) {
      const RingTopology ring(nodes);
      SpectrumMap spectrum(ring, lambdas);
      ReferenceMap reference(ring, lambdas);
      std::vector<std::pair<Arc, WavelengthId>> held;
      const auto random_arc = [&] {
        const Direction dir = rng.next_below(2) == 0
                                  ? Direction::kClockwise
                                  : Direction::kCounterClockwise;
        const auto first = static_cast<topo::SpanId>(rng.next_below(nodes));
        // One arc in eight spans the whole ring; the rest are short enough
        // to leave room for reuse.
        const auto length = static_cast<std::uint32_t>(
            rng.next_below(8) == 0 ? nodes
                                   : rng.next_below(nodes / 2 + 2) % (nodes + 1));
        return Arc{dir, first, length};
      };
      const auto random_lambda = [&] {
        // Now and then one past the end: is_free and usage say no, 0.
        return static_cast<WavelengthId>(rng.next_below(lambdas + 2));
      };
      for (int op = 0; op < 3000; ++op) {
        const std::uint64_t kind = rng.next_below(10);
        if (kind < 3) {  // first-fit claim, as the builder does
          const Arc arc = random_arc();
          const auto lambda = spectrum.first_free(arc);
          ASSERT_EQ(lambda, reference.first_free(arc));
          if (lambda.has_value()) {
            spectrum.reserve(arc, *lambda);
            reference.reserve(arc, *lambda);
            held.emplace_back(arc, *lambda);
          }
        } else if (kind < 5) {  // check-and-claim, as the runtime does
          const Arc arc = random_arc();
          const WavelengthId lambda = random_lambda();
          const bool free = reference.is_free(arc, lambda);
          ASSERT_EQ(spectrum.try_reserve(arc, lambda), free);
          if (free) {
            reference.reserve(arc, lambda);
            held.emplace_back(arc, lambda);
          }
        } else if (kind < 8 && !held.empty()) {
          const std::size_t pick = rng.next_below(held.size());
          const auto [arc, lambda] = held[pick];
          held[pick] = held.back();
          held.pop_back();
          spectrum.release(arc, lambda);
          reference.release(arc, lambda);
        } else if (kind == 8) {
          const Arc arc = random_arc();
          const WavelengthId lambda = random_lambda();
          ASSERT_EQ(spectrum.is_free(arc, lambda),
                    reference.is_free(arc, lambda));
          ASSERT_EQ(spectrum.usage(lambda), reference.usage(lambda));
        } else if (rng.next_below(50) == 0) {
          spectrum.clear();
          reference = ReferenceMap(ring, lambdas);
          held.clear();
        }
        ASSERT_EQ(spectrum.wavelengths_in_use(),
                  reference.wavelengths_in_use());
        if (kind != 9) continue;
        for (const Direction dir :
             {Direction::kClockwise, Direction::kCounterClockwise}) {
          ASSERT_EQ(spectrum.occupied_cells(dir),
                    reference.occupied_cells(dir))
              << nodes << " nodes, " << lambdas << " lambdas, op " << op;
        }
      }
      for (WavelengthId lambda = 0; lambda < lambdas; ++lambda) {
        EXPECT_EQ(spectrum.usage(lambda), reference.usage(lambda));
      }
    }
  }
}

TEST(SpectrumDeathTest, ConflictNamesTheFirstTakenSpanInTraversalOrder) {
  // A counter-clockwise arc from span 1 down through 0 to 126 of a 130-span
  // ring walks 1, 0, 129, 128, 127, 126: with spans 127 and 0 taken, the
  // first it meets is 0, and on release the first still free is 1.
  const RingTopology ring(130);
  SpectrumMap spectrum(ring, 2);
  spectrum.reserve(Arc{Direction::kCounterClockwise, 127, 1}, 1);
  spectrum.reserve(Arc{Direction::kCounterClockwise, 0, 1}, 1);
  const Arc arc{Direction::kCounterClockwise, 1, 6};
  EXPECT_DEATH(spectrum.reserve(arc, 1),
               "wavelength 1 already taken on span 0 \\(ccw\\)");
  EXPECT_DEATH(spectrum.release(arc, 1),
               "releasing free wavelength 1 on span 1");
}

TEST(SpectrumDeathTest, ArcOutsideTheRingIsRejected) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  const Arc too_long{Direction::kClockwise, 0, 9};
  EXPECT_DEATH((void)spectrum.first_free(too_long),
               "arc \\(first 0, length 9\\) outside 8 spans");
  EXPECT_DEATH(spectrum.reserve(Arc{Direction::kClockwise, 8, 1}, 0),
               "arc \\(first 8, length 1\\) outside 8 spans");
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
