// Correctness oracle for every collective: one seeded run of the schedule
// on small-integer payload vectors through the FunctionalExecutor, checked
// against what the collective promises about each node's final state.
// Small integers keep double arithmetic exact, so every comparison is
// equality, not tolerance.  A failure names the first broken promise:
// "schedule '<name>': <what> at node N element E".
//
// A proof pays per participant, not per ring node.  It materialises a
// payload row only for a node that is a transfer endpoint or carries a
// promise other than "equals its own initial vector"; an untouched node
// promised its own vector holds by construction, since no transfer writes
// it.  Node i's payload is drawn from its own (seed, i) stream, so the
// verdict and the message of a subset proof do not depend on ring size.
// The whole-ring contracts (every form below except the *_among ones)
// read or promise something of every node, so they still touch all of them.
#pragma once

#include <string>
#include <vector>

#include "coll/schedule.hpp"

namespace wrht::coll {

struct OracleResult {
  bool ok = true;
  std::string message;
};

/// Every node id a caller names (root, contributor, recipient) must be below
/// the schedule's num_nodes(); the oracle aborts otherwise.
class Oracle {
 public:
  /// Every node ends with the element-wise sum of all initial vectors.
  static OracleResult verify_allreduce(const Schedule& schedule,
                                       std::size_t payload_len);

  /// Every node ends with the root's initial vector.
  static OracleResult verify_broadcast(const Schedule& schedule, NodeId root,
                                       std::size_t payload_len);

  /// The root ends with the element-wise sum of all initial vectors
  /// (other nodes' final contents are unspecified).
  static OracleResult verify_reduce(const Schedule& schedule, NodeId root,
                                    std::size_t payload_len);

  /// Node i ends with the root's chunk i (chunks = N).
  static OracleResult verify_scatter(const Schedule& schedule, NodeId root,
                                     std::size_t payload_len);

  /// The root's chunk i ends equal to node i's initial chunk i.
  static OracleResult verify_gather(const Schedule& schedule, NodeId root,
                                    std::size_t payload_len);

  /// Every node's chunk i ends equal to node i's initial chunk i.
  static OracleResult verify_allgather(const Schedule& schedule,
                                       std::size_t payload_len);

  /// Node i's chunk i ends equal to the sum over nodes of initial chunk i.
  static OracleResult verify_reduce_scatter(const Schedule& schedule,
                                            std::size_t payload_len);

  /// All-reduce restricted to a subset: every participant ends with the
  /// element-wise sum over the participants' initial vectors, and every
  /// non-participant's vector is untouched (elastic-membership schedules).
  /// The survivor form below with recipients = participants.
  static OracleResult verify_allreduce_among(
      const Schedule& schedule, const std::vector<NodeId>& participants,
      std::size_t payload_len);

  /// Fault variant: the sum is taken over `contributors`, but only
  /// `recipients` (a subset of the contributors — the survivors of a
  /// mid-flight eviction) must end holding it.  Nodes outside the
  /// contributor set must be untouched; evicted contributors' final state
  /// is unspecified (their hardware is gone).
  static OracleResult verify_allreduce_among(
      const Schedule& schedule, const std::vector<NodeId>& contributors,
      const std::vector<NodeId>& recipients, std::size_t payload_len);
};

}  // namespace wrht::coll
