#include "runtime/substrate.hpp"

#include "util/check.hpp"

namespace wrht::runtime {

const char* renegotiation_kind_name(RenegotiationRequest::Kind kind) {
  switch (kind) {
    case RenegotiationRequest::Kind::kResume:
      return "resume";
    case RenegotiationRequest::Kind::kGrow:
      return "grow";
    case RenegotiationRequest::Kind::kShrink:
      return "shrink";
    case RenegotiationRequest::Kind::kEvict:
      return "evict";
    case RenegotiationRequest::Kind::kRestart:
      return "restart";
  }
  return "?";
}

std::unique_ptr<SubstrateExecution> ExecutionSubstrate::place(
    const std::vector<topo::NodeId>& participants, util::Bytes payload,
    std::uint32_t grant) {
  RenegotiationOutcome placed = renegotiate(
      nullptr,
      RenegotiationRequest::restart(participants, payload, grant, grant));
  // Admission promised this grant (a free run of the width, or the
  // participants' own free hosts); a refusal or a remap onto other hosts
  // is an admission/fabric disagreement.
  WRHT_CHECK(placed.accepted(), "ExecutionSubstrate: placement of a "
                                    << grant << "-unit grant refused — "
                                    << "arbitration bug");
  const std::vector<topo::NodeId> hosts = placed.plan->hosts();
  WRHT_CHECK(hosts.empty() || hosts == participants,
             "ExecutionSubstrate: placement on busy hosts — arbitration bug");
  return std::move(placed.plan);
}

// Inheritable defaults: the what-if probe reports the plain free capacity
// (releasing nothing frees nothing extra); no ring position loses its data.

std::uint32_t ExecutionSubstrate::free_grant_if_kept(const SubstrateExecution&,
                                                     std::uint32_t) const {
  return largest_free_grant();
}

bool ExecutionSubstrate::node_down(topo::NodeId) const { return false; }

}  // namespace wrht::runtime
