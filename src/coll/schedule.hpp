// Schedule intermediate representation for collective operations.
//
// A Schedule is a sequence of synchronous steps; each step is a set of
// point-to-point transfers that execute concurrently.  A transfer moves one
// *chunk* (a contiguous slice of the payload vector; the builder picks the
// chunk granularity) from src to dst and either accumulates into the
// destination buffer (kReduce) or overwrites it (kCopy).
//
// The IR carries real data semantics, so any schedule can be executed by the
// FunctionalExecutor on actual payload vectors, and coll::Oracle checks the
// result against the collective's mathematical definition.  Timing layers
// (electrical flow simulation, optical DES, analytic alpha-beta) consume the
// same IR.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace wrht::coll {

using NodeId = std::uint32_t;
using ChunkId = std::uint32_t;

enum class TransferOp : std::uint8_t {
  kReduce,  // dst_chunk += src_chunk (element-wise)
  kCopy,    // dst_chunk  = src_chunk
};

[[nodiscard]] const char* transfer_op_name(TransferOp op);

struct Transfer {
  NodeId src = 0;
  NodeId dst = 0;
  ChunkId chunk = 0;
  TransferOp op = TransferOp::kReduce;

  friend bool operator==(const Transfer&, const Transfer&) = default;
};

struct Step {
  std::vector<Transfer> transfers;
};

class Schedule {
 public:
  /// Empty placeholder (0 nodes, 1 chunk) so schedule-holding value types
  /// (AnnotatedSchedule, WrhtBuild, the runtime's Execution) are default
  /// constructible; real schedules use the validating named constructor.
  Schedule() : num_nodes_(0), num_chunks_(1) {}
  Schedule(std::string name, std::uint32_t num_nodes, std::uint32_t num_chunks);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::uint32_t num_chunks() const { return num_chunks_; }
  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }
  [[nodiscard]] std::size_t num_steps() const { return steps_.size(); }
  [[nodiscard]] std::size_t total_transfers() const;

  Step& add_step();
  void add_transfer(Transfer t);  // into the most recent step

  /// Bytes of chunk `chunk` when a payload of `total` bytes is split into
  /// num_chunks() nearly-equal chunks (the first `total % num_chunks` chunks
  /// are one byte larger).
  [[nodiscard]] util::Bytes chunk_bytes(util::Bytes total,
                                        ChunkId chunk) const;

  /// Sum over all transfers of the transferred bytes for a given payload.
  [[nodiscard]] util::Bytes total_traffic(util::Bytes payload) const;

  /// Human-readable step-by-step dump (for the explorer example and debug).
  [[nodiscard]] std::string to_string() const;

 private:
  std::string name_;
  std::uint32_t num_nodes_;
  std::uint32_t num_chunks_;
  std::vector<Step> steps_;
};

/// Nearly-equal integer split helper shared with the executors: size of part
/// `index` when `total` items are split into `parts` parts.
[[nodiscard]] std::uint64_t split_part_size(std::uint64_t total,
                                            std::uint32_t parts,
                                            std::uint32_t index);

/// Offset of part `index` under the same split.
[[nodiscard]] std::uint64_t split_part_offset(std::uint64_t total,
                                              std::uint32_t parts,
                                              std::uint32_t index);

}  // namespace wrht::coll
