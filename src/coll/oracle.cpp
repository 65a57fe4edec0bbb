#include "coll/oracle.hpp"

#include <algorithm>
#include <initializer_list>
#include <numeric>
#include <span>

#include "coll/executor.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace wrht::coll {
namespace {

using Row = std::span<const double>;

// Every proof draws node i's payload from the stream seeded (kSeed, i), so a
// node's values do not depend on which other nodes the proof materialises.
constexpr std::uint64_t kSeed = 7;

// What a collective promises about one node's final state: elements
// `range` equal the same elements of `expected`.  A node whose promise has
// no `expected` is unspecified.
struct Promise {
  const double* expected = nullptr;
  ChunkRange range{0, 0};
  const char* what = "";
};

// Which nodes a contract reads or makes a promise about.
enum class Reach {
  kEveryNode,   // whole-ring contracts: sums, gathers or promises over all
  kNamedNodes,  // only the named ones; the rest must keep their own vector
};

// One collective's promises, stated against the run's initial payloads,
// over the nodes the proof materialised.
struct Contract {
  const Schedule& schedule;
  std::size_t payload_len;
  const NodePayloads& initial;
  std::vector<Promise> promises;  // one per row of `initial`
  std::vector<double> derived;    // a sum or a gathered vector, if needed

  [[nodiscard]] NodeId num_nodes() const { return schedule.num_nodes(); }
  [[nodiscard]] ChunkRange whole() const { return {0, payload_len}; }
  [[nodiscard]] ChunkRange chunk(NodeId i) const {
    return chunk_range(schedule, payload_len, i);
  }
  // Chunks 0 .. N-1, the ones some node owns.
  [[nodiscard]] ChunkRange owned() const {
    return {0, chunk(num_nodes() - 1).end};
  }
  [[nodiscard]] Row initial_of(NodeId node) const { return initial.row(node); }

  void promise(NodeId node, Row expected, ChunkRange range, const char* what) {
    promises[initial.row_of(node)] = Promise{expected.data(), range, what};
  }
  void leave_unspecified(NodeId node) {
    promises[initial.row_of(node)] = Promise{};
  }

  // `derived` := the element-wise sum of `nodes`' initial vectors.
  Row sum_over(std::span<const NodeId> nodes) {
    derived.assign(payload_len, 0.0);
    for (const NodeId node : nodes) {
      const Row row = initial_of(node);
      for (std::size_t e = 0; e < payload_len; ++e) derived[e] += row[e];
    }
    return derived;
  }

  Row sum_over_all() { return sum_over(initial.nodes); }

  // `derived` := node i's initial chunk i in slot i, for every node i.
  Row own_chunks() {
    derived.assign(payload_len, 0.0);
    for (NodeId owner = 0; owner < num_nodes(); ++owner) {
      const ChunkRange r = chunk(owner);
      const Row row = initial_of(owner);
      for (std::size_t e = r.begin; e < r.end; ++e) derived[e] = row[e];
    }
    return derived;
  }
};

OracleResult mismatch(const Schedule& schedule, const std::string& what,
                      NodeId node, std::size_t element) {
  return OracleResult{
      false, "schedule '" + schedule.name() + "': " + what + " at node " +
                 std::to_string(node) + " element " + std::to_string(element)};
}

// The nodes a proof materialises: every node for a whole-ring contract;
// otherwise the transfer endpoints and the named nodes.  A node outside
// both is never written, so it holds its own initial vector by construction.
std::vector<NodeId> materialised(
    const Schedule& schedule, Reach reach,
    std::initializer_list<std::span<const NodeId>> named) {
  std::vector<NodeId> nodes;
  if (reach == Reach::kEveryNode) {
    nodes.resize(schedule.num_nodes());
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
    return nodes;
  }
  for (const Step& step : schedule.steps()) {
    for (const Transfer& t : step.transfers) {
      nodes.push_back(t.src);
      nodes.push_back(t.dst);
    }
  }
  for (const std::span<const NodeId> group : named) {
    nodes.insert(nodes.end(), group.begin(), group.end());
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

// The one proof.  Draws seeded small-integer payloads for the materialised
// nodes, keeps the initial copy for `state` to state the collective's
// promises against, runs the schedule once, and reports the first broken
// promise in node order.  `named` holds every node id the caller passed in
// (roots, contributors, recipients).
template <typename State>
OracleResult prove(const Schedule& schedule, std::size_t payload_len,
                   Reach reach,
                   std::initializer_list<std::span<const NodeId>> named,
                   State&& state) {
  const NodeId n = schedule.num_nodes();
  for (const std::span<const NodeId> nodes : named) {
    for (const NodeId node : nodes) {
      WRHT_REQUIRE(node < n, "Oracle: node " << node << " outside schedule '"
                                             << schedule.name() << "' of "
                                             << n << " nodes");
    }
  }
  NodePayloads data{materialised(schedule, reach, named), payload_len, {}};
  data.values.reserve(data.nodes.size() * payload_len);
  for (const NodeId node : data.nodes) {
    util::Rng rng((kSeed << 32) | node);
    for (std::size_t e = 0; e < payload_len; ++e) {
      data.values.push_back(static_cast<double>(rng.next_below(1000)));
    }
  }
  const NodePayloads initial = data;
  Contract contract{schedule, payload_len, initial,
                    std::vector<Promise>(data.nodes.size()), {}};
  state(contract);

  FunctionalExecutor::run(schedule, data);
  for (std::size_t k = 0; k < data.nodes.size(); ++k) {
    const Promise& p = contract.promises[k];
    if (p.expected == nullptr) continue;
    const double* final_row = data.values.data() + k * payload_len;
    for (std::size_t e = p.range.begin; e < p.range.end; ++e) {
      if (final_row[e] != p.expected[e]) {
        return mismatch(schedule, p.what, data.nodes[k], e);
      }
    }
  }
  return OracleResult{};
}

}  // namespace

OracleResult Oracle::verify_allreduce(const Schedule& schedule,
                                      std::size_t payload_len) {
  return prove(schedule, payload_len, Reach::kEveryNode, {}, [](Contract& c) {
    const Row sum = c.sum_over_all();
    for (NodeId node = 0; node < c.num_nodes(); ++node) {
      c.promise(node, sum, c.whole(), "all-reduce mismatch");
    }
  });
}

OracleResult Oracle::verify_broadcast(const Schedule& schedule, NodeId root,
                                      std::size_t payload_len) {
  return prove(schedule, payload_len, Reach::kEveryNode, {{&root, 1}},
               [root](Contract& c) {
                 for (NodeId node = 0; node < c.num_nodes(); ++node) {
                   c.promise(node, c.initial_of(root), c.whole(),
                             "broadcast mismatch");
                 }
               });
}

OracleResult Oracle::verify_reduce(const Schedule& schedule, NodeId root,
                                   std::size_t payload_len) {
  return prove(schedule, payload_len, Reach::kEveryNode, {{&root, 1}},
               [root](Contract& c) {
                 c.promise(root, c.sum_over_all(), c.whole(),
                           "reduce mismatch");
               });
}

OracleResult Oracle::verify_scatter(const Schedule& schedule, NodeId root,
                                    std::size_t payload_len) {
  return prove(schedule, payload_len, Reach::kEveryNode, {{&root, 1}},
               [root](Contract& c) {
                 for (NodeId node = 0; node < c.num_nodes(); ++node) {
                   c.promise(node, c.initial_of(root), c.chunk(node),
                             "scatter mismatch");
                 }
               });
}

OracleResult Oracle::verify_gather(const Schedule& schedule, NodeId root,
                                   std::size_t payload_len) {
  return prove(schedule, payload_len, Reach::kEveryNode, {{&root, 1}},
               [root](Contract& c) {
                 c.promise(root, c.own_chunks(), c.owned(), "gather mismatch");
               });
}

OracleResult Oracle::verify_allgather(const Schedule& schedule,
                                      std::size_t payload_len) {
  return prove(schedule, payload_len, Reach::kEveryNode, {}, [](Contract& c) {
    const Row gathered = c.own_chunks();
    for (NodeId node = 0; node < c.num_nodes(); ++node) {
      c.promise(node, gathered, c.owned(), "allgather mismatch");
    }
  });
}

OracleResult Oracle::verify_reduce_scatter(const Schedule& schedule,
                                           std::size_t payload_len) {
  return prove(schedule, payload_len, Reach::kEveryNode, {}, [](Contract& c) {
    const Row sum = c.sum_over_all();
    for (NodeId node = 0; node < c.num_nodes(); ++node) {
      c.promise(node, sum, c.chunk(node), "reduce-scatter mismatch");
    }
  });
}

OracleResult Oracle::verify_allreduce_among(
    const Schedule& schedule, const std::vector<NodeId>& participants,
    std::size_t payload_len) {
  return verify_allreduce_among(schedule, participants, participants,
                                payload_len);
}

OracleResult Oracle::verify_allreduce_among(
    const Schedule& schedule, const std::vector<NodeId>& contributors,
    const std::vector<NodeId>& recipients, std::size_t payload_len) {
  return prove(
      schedule, payload_len, Reach::kNamedNodes, {contributors, recipients},
      [&](Contract& c) {
        for (const NodeId node : c.initial.nodes) {
          c.promise(node, c.initial_of(node), c.whole(),
                    "non-participant was written");
        }
        // Evicted contributors (contributor, not recipient): unspecified.
        for (const NodeId node : contributors) c.leave_unspecified(node);
        const Row sum = c.sum_over(contributors);
        for (const NodeId node : recipients) {
          c.promise(node, sum, c.whole(), "survivor all-reduce mismatch");
        }
      });
}

}  // namespace wrht::coll
