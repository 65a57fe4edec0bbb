#include "elec/topology.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/math.hpp"

namespace wrht::elec {

ElectricalCluster ElectricalCluster::star(std::uint32_t num_hosts,
                                          const ElectricalParams& params) {
  WRHT_REQUIRE(num_hosts >= 2, "ElectricalCluster::star needs >= 2 hosts, got "
                                   << num_hosts);
  ElectricalCluster cluster;
  cluster.num_hosts_ = num_hosts;
  cluster.host_params_ = params;
  cluster.link_specs_.assign(
      2 * std::size_t{num_hosts},
      LinkSpec{params.link_bandwidth, params.link_latency});
  return cluster;
}

std::optional<ElectricalCluster> ElectricalCluster::two_level_tree(
    std::uint32_t num_hosts, std::uint32_t hosts_per_tor,
    double oversubscription, const ElectricalParams& params) {
  if (num_hosts < 2 || hosts_per_tor == 0 || oversubscription <= 0.0 ||
      !std::isfinite(oversubscription)) {
    return std::nullopt;
  }
  ElectricalCluster cluster;
  cluster.num_hosts_ = num_hosts;
  cluster.num_tors_ = static_cast<std::uint32_t>(
      util::ceil_div(num_hosts, hosts_per_tor));
  cluster.hosts_per_tor_ = hosts_per_tor;
  cluster.host_params_ = params;
  for (std::uint32_t t = 0; t < cluster.num_tors_; ++t) {
    // Uplink sized for the ToR's hosts, divided by the oversubscription.
    const std::uint32_t tor_hosts =
        std::min(hosts_per_tor, num_hosts - t * hosts_per_tor);
    const LinkSpec uplink{
        params.link_bandwidth * (tor_hosts / oversubscription),
        params.link_latency};
    cluster.link_specs_.insert(cluster.link_specs_.end(), 2, uplink);
  }
  cluster.link_specs_.insert(
      cluster.link_specs_.end(), 2 * std::size_t{num_hosts},
      LinkSpec{params.link_bandwidth, params.link_latency});
  return cluster;
}

std::vector<LinkId> ElectricalCluster::route(std::uint32_t host_a,
                                             std::uint32_t host_b) const {
  WRHT_REQUIRE(host_a < num_hosts_ && host_b < num_hosts_ && host_a != host_b,
               "ElectricalCluster::route: bad hosts " << host_a << ","
                                                      << host_b);
  const LinkId up_a = 2 * (num_tors_ + host_a);
  const LinkId down_b = 2 * (num_tors_ + host_b) + 1;
  if (num_tors_ == 0) return {up_a, down_b};
  const LinkId tor_a = host_a / hosts_per_tor_;
  const LinkId tor_b = host_b / hosts_per_tor_;
  if (tor_a == tor_b) return {up_a, down_b};
  return {up_a, 2 * tor_a, 2 * tor_b + 1, down_b};
}

FlowNetwork ElectricalCluster::make_network() const {
  FlowNetwork network;
  for (const LinkSpec& spec : link_specs_) {
    network.add_link(spec);
  }
  return network;
}

util::Seconds ElectricalCluster::route_latency(std::uint32_t host_a,
                                               std::uint32_t host_b) const {
  util::Seconds total{0.0};
  for (const LinkId link : route(host_a, host_b)) {
    total += link_specs_[link].latency;
  }
  return total;
}

}  // namespace wrht::elec
