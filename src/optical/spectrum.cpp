#include "optical/spectrum.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace wrht::optical {

namespace {

constexpr std::uint32_t kWordBits = 64;
constexpr std::uint64_t kAllBits = ~std::uint64_t{0};

// The words of a span bitmask that an arc touches.  The arc's spans
// start..start+length-1 (mod N) are bit positions [start, stop) plus, when
// the arc wraps past span N-1, [0, wrap).  Each of those ranges is a run of
// words first..last, `head` holding the arc's bits of word first and `tail`
// those of word last (the same bits when first == last).
class ArcWords {
 public:
  ArcWords(const topo::RingTopology& ring, const topo::Arc& arc) {
    const std::uint32_t start = ring.arc_start(arc);
    const std::uint32_t end = start + arc.length;
    const std::uint32_t stop = std::min(end, ring.num_spans());
    add(start, stop);
    add(0, end - stop);
  }

  // Calls visit(word, bits) for each touched word, `bits` being the arc's
  // positions in it, until a call returns false.  Returns whether every
  // call returned true.
  template <typename Visit>
  bool all_of(Visit visit) const {
    for (std::uint32_t i = 0; i < runs_; ++i) {
      const Run& r = run_[i];
      for (std::uint32_t w = r.first; w <= r.last; ++w) {
        const std::uint64_t bits =
            w == r.first ? r.head : (w == r.last ? r.tail : kAllBits);
        if (!visit(w, bits)) return false;
      }
    }
    return true;
  }

 private:
  struct Run {
    std::uint32_t first;
    std::uint32_t last;
    std::uint64_t head;
    std::uint64_t tail;
  };

  void add(std::uint32_t lo, std::uint32_t hi) {
    if (lo >= hi) return;
    Run& r = run_[runs_++];
    r.first = lo / kWordBits;
    r.last = (hi - 1) / kWordBits;
    r.head = kAllBits << (lo % kWordBits);
    r.tail = kAllBits >> (kWordBits - 1 - (hi - 1) % kWordBits);
    if (r.first == r.last) r.head = r.tail = r.head & r.tail;
  }

  Run run_[2];
  std::uint32_t runs_ = 0;
};

// The arc check of RingTopology::spans as one inline compare; a bad arc
// goes through spans() itself, which aborts naming it.
void require_arc(const topo::RingTopology& ring, const topo::Arc& arc) {
  if (arc.first >= ring.num_spans() || arc.length > ring.num_spans())
      [[unlikely]] {
    (void)ring.spans(arc);
  }
}

bool all_clear(const std::uint64_t* mask, const ArcWords& arc) {
  return arc.all_of([mask](std::uint32_t w, std::uint64_t bits) {
    return (mask[w] & bits) == 0;
  });
}

}  // namespace

SpectrumMap::SpectrumMap(const topo::RingTopology& ring,
                         std::uint32_t num_wavelengths)
    : ring_(&ring),
      num_wavelengths_(num_wavelengths),
      words_per_mask_((ring.num_spans() + kWordBits - 1) / kWordBits) {
  WRHT_REQUIRE(num_wavelengths > 0,
               "SpectrumMap: need at least one wavelength");
  occupied_.assign(std::size_t{2} * num_wavelengths * words_per_mask_, 0);
  usage_.assign(num_wavelengths, 0);
}

std::size_t SpectrumMap::mask_at(topo::Direction dir,
                                 WavelengthId lambda) const {
  return (static_cast<std::size_t>(dir) * num_wavelengths_ + lambda) *
         words_per_mask_;
}

bool SpectrumMap::occupied(topo::Direction dir, topo::SpanId span,
                           WavelengthId lambda) const {
  const std::size_t word = mask_at(dir, lambda) + span / kWordBits;
  return (occupied_[word] >> (span % kWordBits)) & 1;
}

void SpectrumMap::require_wavelength(WavelengthId lambda) const {
  WRHT_REQUIRE(lambda < num_wavelengths_, "SpectrumMap: wavelength "
                                              << lambda << " outside "
                                              << num_wavelengths_
                                              << " wavelengths");
}

bool SpectrumMap::is_free(const topo::Arc& arc, WavelengthId lambda) const {
  if (lambda >= num_wavelengths_) return false;
  require_arc(*ring_, arc);
  return all_clear(&occupied_[mask_at(arc.direction, lambda)],
                   ArcWords(*ring_, arc));
}

std::optional<WavelengthId> SpectrumMap::first_free(
    const topo::Arc& arc) const {
  require_arc(*ring_, arc);
  const ArcWords words(*ring_, arc);
  for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
    if (all_clear(&occupied_[mask_at(arc.direction, lambda)], words)) {
      return lambda;
    }
  }
  return std::nullopt;
}

void SpectrumMap::reserve(const topo::Arc& arc, WavelengthId lambda) {
  if (try_reserve(arc, lambda)) [[likely]] return;
  require_wavelength(lambda);
  // Name the first taken span in traversal order.
  for (const topo::SpanId span : ring_->spans(arc)) {
    WRHT_REQUIRE(!occupied(arc.direction, span, lambda),
                 "SpectrumMap: wavelength "
                     << lambda << " already taken on span " << span << " ("
                     << topo::direction_name(arc.direction) << ")");
  }
}

bool SpectrumMap::try_reserve(const topo::Arc& arc, WavelengthId lambda) {
  if (lambda >= num_wavelengths_) return false;
  require_arc(*ring_, arc);
  const ArcWords words(*ring_, arc);
  std::uint64_t* m = &occupied_[mask_at(arc.direction, lambda)];
  if (!all_clear(m, words)) return false;
  words.all_of([m](std::uint32_t w, std::uint64_t b) {
    m[w] |= b;
    return true;
  });
  usage_[lambda] += arc.length;
  return true;
}

void SpectrumMap::release(const topo::Arc& arc, WavelengthId lambda) {
  require_wavelength(lambda);
  require_arc(*ring_, arc);
  const ArcWords words(*ring_, arc);
  std::uint64_t* m = &occupied_[mask_at(arc.direction, lambda)];
  const bool held = words.all_of([m](std::uint32_t w, std::uint64_t b) {
    return (m[w] & b) == b;
  });
  if (!held) [[unlikely]] {
    // Name the first free span in traversal order.
    for (const topo::SpanId span : ring_->spans(arc)) {
      WRHT_REQUIRE(occupied(arc.direction, span, lambda),
                   "SpectrumMap: releasing free wavelength "
                       << lambda << " on span " << span);
    }
  }
  words.all_of([m](std::uint32_t w, std::uint64_t b) {
    m[w] &= ~b;
    return true;
  });
  usage_[lambda] -= arc.length;
}

std::uint32_t SpectrumMap::wavelengths_in_use() const {
  std::uint32_t used = 0;
  for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
    if (usage_[lambda] > 0) ++used;
  }
  return used;
}

std::uint64_t SpectrumMap::occupied_cells(topo::Direction dir) const {
  const auto begin = occupied_.begin() + mask_at(dir, 0);
  const auto end = begin + std::size_t{num_wavelengths_} * words_per_mask_;
  std::uint64_t count = 0;
  for (auto w = begin; w != end; ++w) count += std::popcount(*w);
  return count;
}

std::uint32_t SpectrumMap::usage(WavelengthId lambda) const {
  return lambda < num_wavelengths_ ? usage_[lambda] : 0;
}

void SpectrumMap::clear() {
  std::fill(occupied_.begin(), occupied_.end(), 0);
  std::fill(usage_.begin(), usage_.end(), 0);
}

}  // namespace wrht::optical
