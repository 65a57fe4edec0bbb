// Per-span, per-wavelength occupancy of the two counter-rotating waveguides.
//
// The ring has no wavelength conversion, so a transfer keeps one wavelength
// end to end: λ is usable on an arc only if λ is free on every span of the
// arc, and a claim takes λ on all of them.  The map rejects double-booking,
// which is exactly the wavelength-conflict rule of a WDM ring.
//
// Layout: one span bitmask per (direction, λ), ⌈N/64⌉ `uint64_t` words
// where bit s of the mask is span s.  An arc is an increasing circular
// interval of spans (RingTopology::arc_start), so it is one masked range
// of bits, or two when it wraps past span N-1.  "λ free on the arc" is an
// AND per word, a claim or release an OR or AND-NOT per word, First Fit a
// scan over λ with one such test each, and an occupancy count a popcount.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "topo/ring.hpp"

namespace wrht::optical {

using WavelengthId = std::uint32_t;

class SpectrumMap {
 public:
  SpectrumMap(const topo::RingTopology& ring, std::uint32_t num_wavelengths);

  [[nodiscard]] std::uint32_t num_wavelengths() const {
    return num_wavelengths_;
  }

  /// Is `lambda` free on every span of `arc`?
  [[nodiscard]] bool is_free(const topo::Arc& arc, WavelengthId lambda) const;

  /// Smallest wavelength free along the whole arc, if any (First Fit probe).
  [[nodiscard]] std::optional<WavelengthId> first_free(
      const topo::Arc& arc) const;

  /// Claim `lambda` along `arc`.  Aborts if any span is already taken
  /// (callers must check is_free first; a conflict here is a logic error)
  /// or if `lambda` is not below num_wavelengths().
  void reserve(const topo::Arc& arc, WavelengthId lambda);

  /// Atomic check-and-claim: reserve `lambda` along `arc` iff every span is
  /// free, otherwise change nothing and return false.  Lets multi-job
  /// callers (the runtime's spectrum arbitration) detect a double-booking
  /// and report it instead of dying inside the map.
  [[nodiscard]] bool try_reserve(const topo::Arc& arc, WavelengthId lambda);

  /// Release `lambda` along `arc`.  Aborts if any span was not reserved or
  /// if `lambda` is not below num_wavelengths().
  void release(const topo::Arc& arc, WavelengthId lambda);

  /// Number of wavelengths with at least one occupied span.
  [[nodiscard]] std::uint32_t wavelengths_in_use() const;

  /// Occupied (span, lambda) pairs on the given waveguide direction.
  [[nodiscard]] std::uint64_t occupied_cells(topo::Direction dir) const;

  /// Total usage count of `lambda` across both waveguides (for Best Fit).
  [[nodiscard]] std::uint32_t usage(WavelengthId lambda) const;

  void clear();

 private:
  void require_wavelength(WavelengthId lambda) const;
  /// Index in occupied_ of the span bitmask of (dir, lambda), whose
  /// words_per_mask_ words follow one another.
  [[nodiscard]] std::size_t mask_at(topo::Direction dir,
                                    WavelengthId lambda) const;
  [[nodiscard]] bool occupied(topo::Direction dir, topo::SpanId span,
                              WavelengthId lambda) const;

  const topo::RingTopology* ring_;
  std::uint32_t num_wavelengths_;
  std::uint32_t words_per_mask_;         // ⌈num_spans / 64⌉
  std::vector<std::uint64_t> occupied_;  // [dir][lambda][span word]
  std::vector<std::uint32_t> usage_;     // per lambda, both directions
};

}  // namespace wrht::optical
