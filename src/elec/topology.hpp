// Electrical cluster topologies for the flow simulator.
//
// Two shapes, both trees: a star (every host on one switch) and a two-level
// tree (hosts -> ToR switches -> one core switch).  A tree has exactly one
// route per host pair, so routes are computed from the link-id layout:
//
//   * every duplex link is an "up" link (towards the core) at an even id,
//     with its "down" link at the next id;
//   * ToR t's uplink pair is at 2t;
//   * host h's access pair is at 2 * num_tors + 2h (num_tors is 0 on a star).
//
// Link ids are the link ids of every FlowNetwork the cluster instantiates,
// so a route can be handed straight to add_flow.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "elec/flow_network.hpp"
#include "util/units.hpp"

namespace wrht::elec {

struct ElectricalParams {
  util::Bandwidth link_bandwidth = util::gbps(10.0);
  util::Seconds link_latency = util::microseconds(25.0);
};

class ElectricalCluster {
 public:
  /// num_hosts hosts, each with one full-duplex link to a single switch.
  static ElectricalCluster star(std::uint32_t num_hosts,
                                const ElectricalParams& params);

  /// Two-level tree: hosts -> ToR switches -> one core switch, with the
  /// ToR uplink carrying `oversubscription` x less bandwidth per host.
  /// Rejects a bad shape — fewer than 2 hosts, zero hosts per ToR, or a
  /// non-positive (or non-finite) oversubscription — by returning nullopt,
  /// so a caller wiring user-supplied config can surface the error instead
  /// of dying inside the library.
  static std::optional<ElectricalCluster> two_level_tree(
      std::uint32_t num_hosts, std::uint32_t hosts_per_tor,
      double oversubscription, const ElectricalParams& params);

  [[nodiscard]] std::uint32_t num_hosts() const { return num_hosts_; }
  /// Directed links: two per duplex link.
  [[nodiscard]] std::size_t num_links() const { return link_specs_.size(); }

  /// Link ids along the route from host a to host b (a != b): up from a,
  /// across the core if a and b sit under different ToRs, down to b.
  [[nodiscard]] std::vector<LinkId> route(std::uint32_t host_a,
                                          std::uint32_t host_b) const;

  /// A FlowNetwork with this cluster's links, in link-id order.
  [[nodiscard]] FlowNetwork make_network() const;

  /// Per-hop latency of the route between two hosts.
  [[nodiscard]] util::Seconds route_latency(std::uint32_t host_a,
                                            std::uint32_t host_b) const;

  /// The access-link spec hosts were built with (identical for all hosts in
  /// every topology this class constructs).
  [[nodiscard]] const ElectricalParams& host_params() const {
    return host_params_;
  }

 private:
  std::uint32_t num_hosts_ = 0;
  std::uint32_t num_tors_ = 0;       // 0 on a star
  std::uint32_t hosts_per_tor_ = 0;  // unused on a star
  ElectricalParams host_params_;
  std::vector<LinkSpec> link_specs_;  // indexed by link id
};

}  // namespace wrht::elec
