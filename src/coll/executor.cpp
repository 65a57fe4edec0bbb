#include "coll/executor.hpp"

#include "util/check.hpp"

namespace wrht::coll {

void FunctionalExecutor::run(const Schedule& schedule,
                             std::vector<std::vector<double>>& node_data) {
  WRHT_REQUIRE(node_data.size() == schedule.num_nodes(),
               "FunctionalExecutor: " << node_data.size()
                                      << " payload vectors for "
                                      << schedule.num_nodes() << " nodes");
  const std::size_t payload_len = node_data.empty() ? 0 : node_data[0].size();
  for (const auto& v : node_data) {
    WRHT_REQUIRE(v.size() == payload_len,
                 "FunctionalExecutor: ragged payload vectors");
  }
  WRHT_REQUIRE(payload_len >= schedule.num_chunks(),
               "FunctionalExecutor: payload length "
                   << payload_len << " < num_chunks "
                   << schedule.num_chunks());

  std::vector<double> staged;  // flattened pre-step copies of sent chunks
  for (const Step& step : schedule.steps()) {
    // Snapshot every sent chunk before mutating anything, so simultaneous
    // exchanges (e.g. recursive doubling pairs) see pre-step values.
    staged.clear();
    std::vector<ChunkRange> ranges;
    ranges.reserve(step.transfers.size());
    for (const Transfer& t : step.transfers) {
      const ChunkRange r = chunk_range(schedule, payload_len, t.chunk);
      ranges.push_back(r);
      const std::vector<double>& src = node_data[t.src];
      staged.insert(staged.end(), src.begin() + static_cast<std::ptrdiff_t>(r.begin),
                    src.begin() + static_cast<std::ptrdiff_t>(r.end));
    }

    std::size_t cursor = 0;
    for (std::size_t k = 0; k < step.transfers.size(); ++k) {
      const Transfer& t = step.transfers[k];
      const ChunkRange r = ranges[k];
      std::vector<double>& dst = node_data[t.dst];
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
