// Fault bookkeeping shared by the execution substrates: which of a fabric's
// units (ring positions, wavelengths, hosts) are down, and which of the down
// ones have been taken out of service.
//
// Down states are refcounted, because fault schedules overlap: a node can
// fail on its own and again with its ToR, and only the LAST repair may
// bring it back.  A down unit leaves service only when no grant holds it,
// so the set also tracks the down units still waiting for their holders to
// release them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace wrht::runtime {

class DownUnits {
 public:
  explicit DownUnits(std::size_t units)
      : count_(units, 0), out_(units, false) {}

  [[nodiscard]] bool down(std::size_t unit) const { return count_[unit] != 0; }
  /// Some down unit is still in service (a holder has not released it) —
  /// the one check a fault-free release pays.
  [[nodiscard]] bool pending() const { return pending_ != 0; }

  /// Count one more fault (repaired == false) or one repair on `unit`.
  /// Returns true when a repair brought an out-of-service unit back: the
  /// caller must then return it to its pool.
  bool apply(std::size_t unit, bool repaired) {
    WRHT_REQUIRE(unit < count_.size(),
                 "apply_fault: unit " << unit << " out of range");
    if (!repaired) {
      if (count_[unit]++ == 0) ++pending_;
      return false;
    }
    WRHT_CHECK(count_[unit] > 0, "apply_fault: repair without a fault");
    if (--count_[unit] != 0) return false;
    if (out_[unit]) {
      out_[unit] = false;
      return true;
    }
    --pending_;
    return false;
  }

  /// Take every down unit that `take(unit)` accepts (it is free, and the
  /// caller has removed it from its pool) out of service.
  template <typename Take>
  void sweep(Take take) {
    for (std::size_t unit = 0; pending_ != 0 && unit < count_.size();
         ++unit) {
      if (count_[unit] != 0 && !out_[unit] && take(unit)) {
        out_[unit] = true;
        --pending_;
      }
    }
  }

 private:
  std::vector<std::uint32_t> count_;
  std::vector<bool> out_;
  /// Down units not yet out of service.
  std::uint32_t pending_ = 0;
};

}  // namespace wrht::runtime
