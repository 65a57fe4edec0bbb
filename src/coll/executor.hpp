// Functional executor: runs a Schedule on real payload vectors.
//
// Each node holds a payload vector; transfers within a step read the
// *pre-step* values (MPI superstep semantics: all sends of a step are posted
// against the state at the start of the step), then reductions and copies
// are applied.  It carries the data semantics only; coll::Oracle runs it on
// seeded payloads and checks each collective's promises about the result.
#pragma once

#include <cstddef>
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

class FunctionalExecutor {
 public:
  /// Executes `schedule` in place on `node_data` (one vector per node, all
  /// the same length, length >= num_chunks).  Aborts on shape mismatch.
  static void run(const Schedule& schedule,
                  std::vector<std::vector<double>>& node_data);
};

}  // namespace wrht::coll
