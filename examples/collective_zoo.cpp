// Tour of the collective-primitive library: run broadcast, reduce, scatter,
// gather, all-gather and reduce-scatter on both substrates, verifying each
// against its oracle before timing it.  Demonstrates the full public API
// beyond all-reduce.  Exits 1 if any verdict prints FAIL.
//
//   $ ./examples/collective_zoo --nodes 32 --payload-mb 64
#include <cstdio>
#include <functional>

#include "coll/oracle.hpp"
#include "coll/primitives.hpp"
#include "elec/schedule_runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "wrht/executor.hpp"
#include "wrht/primitives.hpp"

int main(int argc, char** argv) {
  using namespace wrht;
  util::CliParser cli("Run every collective primitive on both substrates.");
  cli.add_flag("nodes", "32", "number of nodes");
  cli.add_flag("payload-mb", "64", "payload size in MB");
  cli.add_flag("wavelengths", "16", "optical wavelengths per waveguide");
  cli.add_flag("root", "0", "root node for rooted collectives");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<std::uint32_t>(cli.get_int("nodes"));
  const auto root = static_cast<coll::NodeId>(cli.get_int("root")) % n;
  const util::Bytes payload =
      util::megabytes(static_cast<std::uint64_t>(cli.get_int("payload-mb")));
  const auto w = static_cast<std::uint32_t>(cli.get_int("wavelengths"));

  const elec::ElectricalCluster cluster =
      elec::ElectricalCluster::star(n, elec::ElectricalParams{});
  const topo::RingTopology ring(n);
  optical::OpticalParams optical;
  optical.wdm.num_wavelengths = std::max(w, 64u);  // generous for annotation

  struct Entry {
    const char* name;
    coll::Schedule schedule;
    std::function<coll::OracleResult()> oracle;
  };
  const std::size_t len = std::max<std::size_t>(4 * n, 128);
  std::vector<Entry> zoo;
  zoo.push_back({"broadcast (binomial)", coll::broadcast_binomial(n, root),
                 [&] {
                   return coll::Oracle::verify_broadcast(
                       coll::broadcast_binomial(n, root), root, len);
                 }});
  zoo.push_back({"broadcast (pipelined ring)",
                 coll::broadcast_ring_pipelined(n, root), [&] {
                   return coll::Oracle::verify_broadcast(
                       coll::broadcast_ring_pipelined(n, root), root, len);
                 }});
  zoo.push_back({"reduce (binomial)", coll::reduce_binomial(n, root), [&] {
                   return coll::Oracle::verify_reduce(
                       coll::reduce_binomial(n, root), root, len);
                 }});
  zoo.push_back({"scatter (binomial)", coll::scatter_binomial(n, root), [&] {
                   return coll::Oracle::verify_scatter(
                       coll::scatter_binomial(n, root), root, len);
                 }});
  zoo.push_back({"gather (binomial)", coll::gather_binomial(n, root), [&] {
                   return coll::Oracle::verify_gather(
                       coll::gather_binomial(n, root), root, len);
                 }});
  zoo.push_back({"allgather (ring)", coll::allgather_ring(n), [&] {
                   return coll::Oracle::verify_allgather(
                       coll::allgather_ring(n), len);
                 }});
  zoo.push_back({"allgather (bruck)", coll::allgather_bruck(n), [&] {
                   return coll::Oracle::verify_allgather(
                       coll::allgather_bruck(n), len);
                 }});
  zoo.push_back({"reduce-scatter (ring)", coll::reduce_scatter_ring(n), [&] {
                   return coll::Oracle::verify_reduce_scatter(
                       coll::reduce_scatter_ring(n), len);
                 }});

  std::printf("Collective zoo — N=%u, root=%u, payload %s\n\n", n, root,
              util::to_string(payload).c_str());
  util::Table table(
      {"primitive", "steps", "verified", "electrical", "optical ring"});
  bool all_ok = true;
  for (const Entry& entry : zoo) {
    const coll::OracleResult verdict = entry.oracle();
    all_ok = all_ok && verdict.ok;
    const double electrical =
        elec::run_on_electrical(entry.schedule, cluster, payload)
            .total.value();
    std::string optical_time = "(needs more lambdas)";
    if (const auto annotated = core::annotate_on_ring(
            entry.schedule, ring, optical.wdm.num_wavelengths)) {
      optical_time = util::to_string(util::Seconds(
          core::run_on_optical(*annotated, optical, payload).total.value()));
    }
    table.add_row({entry.name, std::to_string(entry.schedule.num_steps()),
                   verdict.ok ? "PASS" : "FAIL",
                   util::to_string(util::Seconds(electrical)), optical_time});
  }

  // The Wrht-native rooted primitives.
  core::WrhtParams wrht_params;
  wrht_params.num_wavelengths = w;
  const core::WrhtReduceBuild wrht_reduce =
      core::build_wrht_reduce(n, wrht_params);
  const core::WrhtBroadcastBuild wrht_bcast =
      core::build_wrht_broadcast(n, root, wrht_params);
  const auto reduce_ok =
      coll::Oracle::verify_reduce(wrht_reduce.annotated.schedule,
                                  wrht_reduce.root, len);
  const auto bcast_ok = coll::Oracle::verify_broadcast(
      wrht_bcast.annotated.schedule, root, len);
  table.add_separator();
  table.add_row(
      {"wrht reduce", std::to_string(wrht_reduce.annotated.schedule.num_steps()),
       reduce_ok.ok ? "PASS" : "FAIL", "-",
       util::to_string(util::Seconds(
           core::run_on_optical(wrht_reduce.annotated, optical, payload)
               .total.value()))});
  table.add_row(
      {"wrht broadcast",
       std::to_string(wrht_bcast.annotated.schedule.num_steps()),
       bcast_ok.ok ? "PASS" : "FAIL", "-",
       util::to_string(util::Seconds(
           core::run_on_optical(wrht_bcast.annotated, optical, payload)
               .total.value()))});
  std::fputs(table.render().c_str(), stdout);
  return all_ok && reduce_ok.ok && bcast_ok.ok ? 0 : 1;
}
