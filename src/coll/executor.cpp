#include "coll/executor.hpp"

#include <algorithm>
#include <functional>

#include "util/check.hpp"

namespace wrht::coll {

std::size_t NodePayloads::row_of(NodeId node) const {
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
  WRHT_REQUIRE(it != nodes.end() && *it == node,
               "NodePayloads: node " << node << " has no payload row");
  return static_cast<std::size_t>(it - nodes.begin());
}

void FunctionalExecutor::run(const Schedule& schedule,
                             NodePayloads& payloads) {
  WRHT_REQUIRE(payloads.values.size() ==
                   payloads.nodes.size() * payloads.payload_len,
               "FunctionalExecutor: " << payloads.values.size()
                                      << " payload values for "
                                      << payloads.nodes.size() << " rows of "
                                      << payloads.payload_len);
  WRHT_REQUIRE(std::adjacent_find(payloads.nodes.begin(), payloads.nodes.end(),
                                  std::greater_equal<>()) ==
                   payloads.nodes.end(),
               "FunctionalExecutor: payload rows not in increasing node order");
  WRHT_REQUIRE(payloads.payload_len >= schedule.num_chunks(),
               "FunctionalExecutor: payload length "
                   << payloads.payload_len << " < num_chunks "
                   << schedule.num_chunks());

  std::vector<double> staged;  // flattened pre-step copies of sent chunks
  std::vector<ChunkRange> ranges;
  for (const Step& step : schedule.steps()) {
    // Snapshot every sent chunk before mutating anything, so simultaneous
    // exchanges (e.g. recursive doubling pairs) see pre-step values.
    staged.clear();
    ranges.clear();
    for (const Transfer& t : step.transfers) {
      const ChunkRange r = chunk_range(schedule, payloads.payload_len, t.chunk);
      ranges.push_back(r);
      const std::span<const double> src = payloads.row(t.src);
      staged.insert(staged.end(), src.begin() + static_cast<std::ptrdiff_t>(r.begin),
                    src.begin() + static_cast<std::ptrdiff_t>(r.end));
    }

    std::size_t cursor = 0;
    for (std::size_t k = 0; k < step.transfers.size(); ++k) {
      const Transfer& t = step.transfers[k];
      const ChunkRange r = ranges[k];
      const std::span<double> dst = payloads.row(t.dst);
      if (t.op == TransferOp::kReduce) {
        for (std::size_t e = r.begin; e < r.end; ++e) {
          dst[e] += staged[cursor++];
        }
      } else {
        for (std::size_t e = r.begin; e < r.end; ++e) {
          dst[e] = staged[cursor++];
        }
      }
    }
  }
}

}  // namespace wrht::coll
