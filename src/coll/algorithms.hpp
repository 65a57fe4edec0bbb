// Baseline all-reduce schedule builders.
//
// Every builder returns a Schedule in the shared IR; the tests prove each
// one with coll::Oracle::verify_allreduce, and timing comes from the
// electrical/optical simulators or the analytic cost models.
//
//   ring_allreduce        Patarasuk & Yuan bandwidth-optimal ring:
//                         N chunks, 2(N-1) steps, each node moves ~2D/N bytes
//                         per step.  The paper's "E-Ring" and "O-Ring".
//   recursive_doubling    log2(N) pairwise-exchange steps on the full vector
//                         (the paper's "RD"); non-powers-of-two handled with
//                         the standard fold/unfold pre- and post-steps.
//   halving_doubling      Rabenseifner reduce-scatter (recursive halving) +
//                         all-gather (recursive doubling); bandwidth optimal
//                         with log2(N) + log2(N) steps.
//   binomial_tree         reduce to a root then broadcast; 2*ceil(log2 N)
//                         steps on the full vector.
//   direct_allreduce      single-step all-to-all exchange of full vectors.
//   naive_ring            unchunked sequential ring reduce + broadcast
//                         (2(N-1) serial steps on the full vector).
#pragma once

#include "coll/schedule.hpp"

namespace wrht::coll {

[[nodiscard]] Schedule ring_allreduce(std::uint32_t num_nodes);
[[nodiscard]] Schedule recursive_doubling(std::uint32_t num_nodes);
[[nodiscard]] Schedule halving_doubling(std::uint32_t num_nodes);
[[nodiscard]] Schedule binomial_tree(std::uint32_t num_nodes);
[[nodiscard]] Schedule direct_allreduce(std::uint32_t num_nodes);
[[nodiscard]] Schedule naive_ring(std::uint32_t num_nodes);

/// Two-level hierarchical all-reduce (the NCCL/Horovod pattern): nodes are
/// cut into consecutive groups of `group_size`; each group binomial-reduces
/// to its leader, the leaders run recursive doubling among themselves, and
/// each leader binomial-broadcasts back into its group.  Groups work in
/// parallel within each step.  group_size >= 1; group_size >= num_nodes
/// degenerates to binomial_tree-like behaviour with a single group.
[[nodiscard]] Schedule hierarchical_allreduce(std::uint32_t num_nodes,
                                              std::uint32_t group_size);

}  // namespace wrht::coll
