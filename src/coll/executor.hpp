// Functional executor: runs a Schedule on real payload vectors.
//
// Each materialised node holds a payload vector; transfers within a step
// read the *pre-step* values (MPI superstep semantics: all sends of a step
// are posted against the state at the start of the step), then reductions
// and copies are applied.  Only nodes that some transfer touches need a
// vector: a node no transfer names keeps its contents, so the store holds
// rows for a chosen subset of the schedule's nodes.  It carries the data
// semantics only; coll::Oracle runs it on seeded payloads and checks each
// collective's promises about the result.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "coll/schedule.hpp"

namespace wrht::coll {

/// Elements [begin, end) of a payload vector.
struct ChunkRange {
  std::size_t begin;
  std::size_t end;
};

/// The elements chunk `chunk` of `schedule` covers in a payload of
/// `payload_len` elements.
[[nodiscard]] inline ChunkRange chunk_range(const Schedule& schedule,
                                            std::size_t payload_len,
                                            ChunkId chunk) {
  const std::uint64_t offset =
      split_part_offset(payload_len, schedule.num_chunks(), chunk);
  const std::uint64_t size =
      split_part_size(payload_len, schedule.num_chunks(), chunk);
  return ChunkRange{static_cast<std::size_t>(offset),
                    static_cast<std::size_t>(offset + size)};
}

/// Payload vectors for some of a schedule's nodes in one flat row-major
/// buffer: row k is node `nodes[k]`'s vector, elements
/// [k * payload_len, (k + 1) * payload_len) of `values`.
struct NodePayloads {
  std::vector<NodeId> nodes;  // strictly increasing
  std::size_t payload_len = 0;
  std::vector<double> values;

  /// The row holding `node`'s vector; aborts if `node` has none.
  [[nodiscard]] std::size_t row_of(NodeId node) const;
  [[nodiscard]] std::span<double> row(NodeId node) {
    return {values.data() + row_of(node) * payload_len, payload_len};
  }
  [[nodiscard]] std::span<const double> row(NodeId node) const {
    return {values.data() + row_of(node) * payload_len, payload_len};
  }
};

class FunctionalExecutor {
 public:
  /// Executes `schedule` in place on `payloads`, which must hold a row for
  /// every transfer endpoint, with payload_len >= num_chunks.  Aborts on a
  /// shape mismatch or a transfer touching a node without a row.
  static void run(const Schedule& schedule, NodePayloads& payloads);
};

}  // namespace wrht::coll
