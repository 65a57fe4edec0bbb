// Fault injection for the multi-tenant runtime.
//
// Hardware failures are EVENTS ON THE SIM CLOCK, not a separate mechanism:
// a FaultSource yields FaultSpecs in nondecreasing time order (mirroring
// JobSource for job specs), the runtime schedules each injection and repair
// as ordinary simulator events, and every disruption a fault causes flows
// through the same typed RenegotiationRequest entry point that preemption
// and elastic resize already use — a node loss is a kEvict (survivor
// rebuild on the same band) or a kRestart, a ToR loss is a kRestart on the
// other substrate (migration), a wavelength loss is a kShrink.  Detection
// is at BSP step boundaries: a running execution finishes its in-flight
// step, then the runtime reconciles it against its substrate's fault state
// (each substrate books the faults that hit its own units).
//
// Two sources exist: FaultInjector draws merged per-domain Poisson
// processes from a seed (chaos mode — MTBF per failure domain fleet-wide,
// uniform subject choice, exponential repair), and ScriptedFaultSource
// replays an explicit list (tests, examples, recorded traces).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/random.hpp"
#include "util/units.hpp"

namespace wrht::runtime {

/// What failed.  Domains are independent Poisson processes in the injector;
/// each substrate books the domains that name its units.
enum class FaultDomain : std::uint8_t {
  /// One ring position's optics (micro-ring transceiver): the node leaves
  /// OPTICAL service but its electrical host keeps working — light crosses
  /// the dark position untouched, so optical survivors rebuild around it.
  kTransceiver,
  /// A whole node: the ring position AND its electrical host go down.
  kNode,
  /// An electrical ToR switch: every host hanging off it goes down at once.
  /// Optical service is unaffected, which is what makes cross-substrate
  /// migration the natural response.
  kTor,
  /// One wavelength degrades out of the shared spectrum (laser drift,
  /// ring-resonator detuning).  Holders of a band covering it shrink or
  /// suspend at their next boundary.
  kWavelength,
};

[[nodiscard]] const char* fault_domain_name(FaultDomain domain);

/// One fault: `subject` (node id for kTransceiver/kNode, ToR index for
/// kTor, wavelength index for kWavelength) fails at `at` and — when
/// `repair_after` is positive — returns to service at `at + repair_after`.
/// Zero repair_after means the fault is permanent for the run.
struct FaultSpec {
  FaultDomain domain = FaultDomain::kNode;
  std::uint32_t subject = 0;
  util::Seconds at{0.0};
  util::Seconds repair_after{0.0};
};

/// Pull-based stream of faults, the chaos counterpart of JobSource.  Specs
/// MUST be yielded in nondecreasing `at` order (the runtime aborts
/// otherwise — out-of-order injections would warp the clock).
class FaultSource {
 public:
  virtual ~FaultSource() = default;
  /// The next fault, or nullopt when the stream is exhausted.
  virtual std::optional<FaultSpec> next() = 0;
};

/// Shape of the stochastic fault load.  An MTBF of zero disables that
/// domain; a nonzero MTBF is FLEET-WIDE mean time between failures (the
/// per-domain Poisson rate is 1/mtbf regardless of fleet size), with the
/// subject drawn uniformly per fault.
struct FaultInjectorConfig {
  std::uint64_t seed = 1;
  /// No faults are injected at or past this time (0 = no faults at all).
  util::Seconds horizon{0.0};
  util::Seconds transceiver_mtbf{0.0};
  util::Seconds node_mtbf{0.0};
  util::Seconds tor_mtbf{0.0};
  util::Seconds wavelength_mtbf{0.0};
  /// Mean repair time, exponentially distributed per fault; zero makes
  /// every fault permanent.
  util::Seconds mttr{0.0};
  /// Subject spaces: ring positions (kTransceiver/kNode), wavelengths,
  /// ToR switches.  A domain with a zero subject space is disabled even
  /// when its MTBF is set.
  std::uint32_t ring_size = 0;
  std::uint32_t num_wavelengths = 0;
  std::uint32_t num_tors = 0;
};

/// Seeded stochastic fault source: one Poisson process per enabled domain,
/// merged in time order.  Each domain draws from its OWN derived-seed Rng
/// with a fixed consumption pattern (gap, subject, repair), so a domain's
/// fault stream is byte-identical for a given seed no matter which other
/// domains are enabled — the same replay-determinism discipline the
/// workload generator keeps for job streams.
class FaultInjector final : public FaultSource {
 public:
  explicit FaultInjector(const FaultInjectorConfig& config);

  std::optional<FaultSpec> next() override;

 private:
  struct Process {
    FaultDomain domain;
    double rate = 0.0;          // faults per second, fleet-wide
    std::uint32_t subjects = 0; // uniform subject space
    util::Rng rng;
    std::optional<FaultSpec> pending;
  };

  void advance(Process& process);

  util::Seconds horizon_{0.0};
  util::Seconds mttr_{0.0};
  std::vector<Process> processes_;
};

/// Replays an explicit fault list (tests, examples, recorded chaos traces).
/// The list must be in nondecreasing `at` order.
class ScriptedFaultSource final : public FaultSource {
 public:
  explicit ScriptedFaultSource(std::vector<FaultSpec> faults);

  std::optional<FaultSpec> next() override;

 private:
  std::vector<FaultSpec> faults_;
  std::size_t cursor_ = 0;
};

}  // namespace wrht::runtime
