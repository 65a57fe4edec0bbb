#include "optical/spectrum.hpp"

#include "util/check.hpp"

namespace wrht::optical {

SpectrumMap::SpectrumMap(const topo::RingTopology& ring,
                         std::uint32_t num_wavelengths)
    : ring_(&ring), num_wavelengths_(num_wavelengths) {
  WRHT_REQUIRE(num_wavelengths > 0,
               "SpectrumMap: need at least one wavelength");
  occupied_.assign(std::size_t{2} * ring.num_spans() * num_wavelengths, false);
  usage_.assign(num_wavelengths, 0);
}

std::size_t SpectrumMap::cell(topo::Direction dir, topo::SpanId span,
                              WavelengthId lambda) const {
  return (static_cast<std::size_t>(dir) * ring_->num_spans() + span) *
             num_wavelengths_ +
         lambda;
}

void SpectrumMap::require_wavelength(WavelengthId lambda) const {
  WRHT_REQUIRE(lambda < num_wavelengths_, "SpectrumMap: wavelength "
                                              << lambda << " outside "
                                              << num_wavelengths_
                                              << " wavelengths");
}

bool SpectrumMap::is_free(const topo::Arc& arc, WavelengthId lambda) const {
  if (lambda >= num_wavelengths_) return false;
  for (const topo::SpanId span : ring_->spans(arc)) {
    if (occupied_[cell(arc.direction, span, lambda)]) return false;
  }
  return true;
}

std::optional<WavelengthId> SpectrumMap::first_free(
    const topo::Arc& arc) const {
  for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
    if (is_free(arc, lambda)) return lambda;
  }
  return std::nullopt;
}

void SpectrumMap::reserve(const topo::Arc& arc, WavelengthId lambda) {
  require_wavelength(lambda);
  for (const topo::SpanId span : ring_->spans(arc)) {
    const std::size_t c = cell(arc.direction, span, lambda);
    WRHT_REQUIRE(!occupied_[c],
                 "SpectrumMap: wavelength "
                     << lambda << " already taken on span " << span << " ("
                     << topo::direction_name(arc.direction) << ")");
    occupied_[c] = true;
    ++usage_[lambda];
  }
}

bool SpectrumMap::try_reserve(const topo::Arc& arc, WavelengthId lambda) {
  if (!is_free(arc, lambda)) return false;
  reserve(arc, lambda);
  return true;
}

void SpectrumMap::release(const topo::Arc& arc, WavelengthId lambda) {
  require_wavelength(lambda);
  for (const topo::SpanId span : ring_->spans(arc)) {
    const std::size_t c = cell(arc.direction, span, lambda);
    WRHT_REQUIRE(occupied_[c], "SpectrumMap: releasing free wavelength "
                                   << lambda << " on span " << span);
    occupied_[c] = false;
    --usage_[lambda];
  }
}

std::uint32_t SpectrumMap::wavelengths_in_use() const {
  std::uint32_t used = 0;
  for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
    if (usage_[lambda] > 0) ++used;
  }
  return used;
}

std::uint64_t SpectrumMap::occupied_cells(topo::Direction dir) const {
  std::uint64_t count = 0;
  for (topo::SpanId span = 0; span < ring_->num_spans(); ++span) {
    for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
      if (occupied_[cell(dir, span, lambda)]) ++count;
    }
  }
  return count;
}

std::uint32_t SpectrumMap::usage(WavelengthId lambda) const {
  return lambda < num_wavelengths_ ? usage_[lambda] : 0;
}

void SpectrumMap::clear() {
  occupied_.assign(occupied_.size(), false);
  usage_.assign(usage_.size(), 0);
}

}  // namespace wrht::optical
