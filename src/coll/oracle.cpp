#include "coll/oracle.hpp"

#include <initializer_list>
#include <span>

#include "coll/executor.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace wrht::coll {
namespace {

using Payloads = std::vector<std::vector<double>>;

// Every proof draws its payloads from this one seed.
constexpr std::uint64_t kSeed = 7;

// What a collective promises about one node's final state: elements
// `range` equal the same elements of `*expected`.  A node whose promise has
// no `expected` is unspecified.
struct Promise {
  const std::vector<double>* expected = nullptr;
  ChunkRange range{0, 0};
  const char* what = "";
};

// One collective's promises, stated against the run's initial payloads.
struct Contract {
  const Schedule& schedule;
  std::size_t payload_len;
  const Payloads& initial;
  std::vector<Promise> promises;  // one per node
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

  void promise(NodeId node, const std::vector<double>& expected,
               ChunkRange range, const char* what) {
    promises[node] = Promise{&expected, range, what};
  }

  // `derived` := the element-wise sum of `nodes`' initial vectors.
  const std::vector<double>& sum_over(std::span<const NodeId> nodes) {
    derived.assign(payload_len, 0.0);
    for (const NodeId node : nodes) {
      for (std::size_t e = 0; e < payload_len; ++e) {
        derived[e] += initial[node][e];
      }
    }
    return derived;
  }

  const std::vector<double>& sum_over_all() {
    derived.assign(payload_len, 0.0);
    for (const auto& vector : initial) {
      for (std::size_t e = 0; e < payload_len; ++e) derived[e] += vector[e];
    }
    return derived;
  }

  // `derived` := node i's initial chunk i in slot i, for every node i.
  const std::vector<double>& own_chunks() {
    derived.assign(payload_len, 0.0);
    for (NodeId owner = 0; owner < num_nodes(); ++owner) {
      const ChunkRange r = chunk(owner);
      for (std::size_t e = r.begin; e < r.end; ++e) {
        derived[e] = initial[owner][e];
      }
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

// The one proof.  Draws seeded small-integer payloads, keeps the initial
// copy for `state` to state the collective's promises against, runs the
// schedule once, and reports the first broken promise.  `named` holds every
// node id the caller passed in (roots, contributors, recipients).
template <typename State>
OracleResult prove(const Schedule& schedule, std::size_t payload_len,
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
  util::Rng rng(kSeed);
  Payloads data(n);
  for (auto& vector : data) {
    vector.resize(payload_len);
    for (double& x : vector) x = static_cast<double>(rng.next_below(1000));
  }
  const Payloads initial = data;
  Contract contract{schedule, payload_len, initial, std::vector<Promise>(n),
                    {}};
  state(contract);

  FunctionalExecutor::run(schedule, data);
  for (NodeId node = 0; node < n; ++node) {
    const Promise& p = contract.promises[node];
    if (p.expected == nullptr) continue;
    for (std::size_t e = p.range.begin; e < p.range.end; ++e) {
      if (data[node][e] != (*p.expected)[e]) {
        return mismatch(schedule, p.what, node, e);
      }
    }
  }
  return OracleResult{};
}

}  // namespace

OracleResult Oracle::verify_allreduce(const Schedule& schedule,
                                      std::size_t payload_len) {
  return prove(schedule, payload_len, {}, [](Contract& c) {
    const auto& sum = c.sum_over_all();
    for (NodeId node = 0; node < c.num_nodes(); ++node) {
      c.promise(node, sum, c.whole(), "all-reduce mismatch");
    }
  });
}

OracleResult Oracle::verify_broadcast(const Schedule& schedule, NodeId root,
                                      std::size_t payload_len) {
  return prove(schedule, payload_len, {{&root, 1}}, [root](Contract& c) {
    for (NodeId node = 0; node < c.num_nodes(); ++node) {
      c.promise(node, c.initial[root], c.whole(), "broadcast mismatch");
    }
  });
}

OracleResult Oracle::verify_reduce(const Schedule& schedule, NodeId root,
                                   std::size_t payload_len) {
  return prove(schedule, payload_len, {{&root, 1}}, [root](Contract& c) {
    c.promise(root, c.sum_over_all(), c.whole(), "reduce mismatch");
  });
}

OracleResult Oracle::verify_scatter(const Schedule& schedule, NodeId root,
                                    std::size_t payload_len) {
  return prove(schedule, payload_len, {{&root, 1}}, [root](Contract& c) {
    for (NodeId node = 0; node < c.num_nodes(); ++node) {
      c.promise(node, c.initial[root], c.chunk(node), "scatter mismatch");
    }
  });
}

OracleResult Oracle::verify_gather(const Schedule& schedule, NodeId root,
                                   std::size_t payload_len) {
  return prove(schedule, payload_len, {{&root, 1}}, [root](Contract& c) {
    c.promise(root, c.own_chunks(), c.owned(), "gather mismatch");
  });
}

OracleResult Oracle::verify_allgather(const Schedule& schedule,
                                      std::size_t payload_len) {
  return prove(schedule, payload_len, {}, [](Contract& c) {
    const auto& gathered = c.own_chunks();
    for (NodeId node = 0; node < c.num_nodes(); ++node) {
      c.promise(node, gathered, c.owned(), "allgather mismatch");
    }
  });
}

OracleResult Oracle::verify_reduce_scatter(const Schedule& schedule,
                                           std::size_t payload_len) {
  return prove(schedule, payload_len, {}, [](Contract& c) {
    const auto& sum = c.sum_over_all();
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
      schedule, payload_len, {contributors, recipients}, [&](Contract& c) {
        for (NodeId node = 0; node < c.num_nodes(); ++node) {
          c.promise(node, c.initial[node], c.whole(),
                    "non-participant was written");
        }
        // Evicted contributors (contributor, not recipient): unspecified.
        for (const NodeId node : contributors) c.promises[node] = Promise{};
        const auto& sum = c.sum_over(contributors);
        for (const NodeId node : recipients) {
          c.promise(node, sum, c.whole(), "survivor all-reduce mismatch");
        }
      });
}

}  // namespace wrht::coll
