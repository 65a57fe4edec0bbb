// The step-boundary rebuild seam: rebuild_wrht_remainder must, for ANY cut
// point and ANY new wavelength budget it accepts, produce a remainder whose
// composition with the already-executed prefix is still a correct all-reduce
// (proven with the functional oracle), and must refuse budgets that cannot
// carry the mirrors the executed tree levels are owed.
#include "wrht/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "coll/oracle.hpp"

namespace wrht::core {
namespace {

std::vector<topo::NodeId> every_other(std::uint32_t ring_size) {
  std::vector<topo::NodeId> nodes;
  for (std::uint32_t i = 0; i < ring_size; i += 2) nodes.push_back(i);
  return nodes;
}

WrhtParams params_for(std::uint32_t wavelengths) {
  WrhtParams params;
  params.num_wavelengths = wavelengths;
  return params;
}

// Appends the first `count` steps of `from` to `out`.
void append_steps(coll::Schedule& out, const coll::Schedule& from,
                  std::size_t count) {
  for (std::size_t s = 0; s < count; ++s) {
    out.add_step();
    for (const coll::Transfer& t : from.steps()[s].transfers) {
      out.add_transfer(t);
    }
  }
}

// The schedule an execution actually runs after a renegotiation at
// `steps_done`: the original prefix followed by the rebuilt remainder.
coll::Schedule compose(const coll::Schedule& prefix, std::size_t steps_done,
                       const coll::Schedule& remainder) {
  coll::Schedule out("composite", prefix.num_nodes(), 1);
  append_steps(out, prefix, steps_done);
  append_steps(out, remainder, remainder.num_steps());
  return out;
}

// `all` without the nodes in `removed`.
std::vector<topo::NodeId> minus(const std::vector<topo::NodeId>& all,
                                const std::vector<topo::NodeId>& removed) {
  std::vector<topo::NodeId> kept;
  for (const topo::NodeId node : all) {
    if (std::find(removed.begin(), removed.end(), node) == removed.end()) {
      kept.push_back(node);
    }
  }
  return kept;
}

// The first node of `candidates` whose eviction at `cut` of `build` the
// seam accepts at `wavelengths`, with that remainder; nullopt when none is.
std::optional<std::pair<topo::NodeId, WrhtBuild>> first_evictable(
    const WrhtBuild& build, std::size_t cut,
    const std::vector<topo::NodeId>& candidates, std::uint32_t ring_size,
    std::uint32_t wavelengths) {
  for (const topo::NodeId node : candidates) {
    std::optional<WrhtBuild> rebuilt = rebuild_wrht_remainder(
        build, cut, {node}, ring_size, params_for(wavelengths));
    if (rebuilt) return std::make_pair(node, std::move(*rebuilt));
  }
  return std::nullopt;
}

TEST(Rebuild, FreshBuildCarriesMirroredBroadcastLevels) {
  const WrhtBuild build = build_wrht(32, params_for(4));
  ASSERT_EQ(build.broadcast_levels.size(), build.reduce_levels.size());
  EXPECT_EQ(build.annotated.schedule.num_steps(),
            build.reduce_step_count() + build.broadcast_levels.size());
  // Broadcast runs top-down: first mirror is the LAST reduce level.
  for (std::size_t i = 0; i < build.reduce_levels.size(); ++i) {
    const WrhtLevel& mirror = build.broadcast_levels[i];
    const WrhtLevel& level =
        build.reduce_levels[build.reduce_levels.size() - 1 - i];
    ASSERT_EQ(mirror.groups.size(), level.groups.size());
    EXPECT_EQ(mirror.groups.front().rep(), level.groups.front().rep());
  }
}

TEST(Rebuild, EveryCutPointAndBudgetStaysCorrect) {
  const std::uint32_t ring_size = 32;
  const std::vector<topo::NodeId> participants = every_other(ring_size);
  for (const std::uint32_t w_old : {2u, 4u, 8u}) {
    const WrhtBuild build =
        build_wrht_among(participants, ring_size, params_for(w_old));
    const std::size_t total = build.annotated.schedule.num_steps();
    ASSERT_GE(total, 2u);
    for (std::size_t cut = 0; cut < total; ++cut) {
      for (const std::uint32_t w_new : {1u, 2u, 8u, 32u}) {
        const std::optional<WrhtBuild> rebuilt = rebuild_wrht_remainder(
            build, cut, {}, ring_size, params_for(w_new));
        if (w_new >= w_old) {
          // A budget at least as wide as the original can always recolor
          // the inherited mirrors.
          ASSERT_TRUE(rebuilt)
              << "w_old=" << w_old << " cut=" << cut << " w_new=" << w_new;
        }
        if (!rebuilt) continue;
        EXPECT_LE(rebuilt->annotated.wavelengths_required, w_new);
        const coll::Schedule composite = compose(
            build.annotated.schedule, cut, rebuilt->annotated.schedule);
        const coll::OracleResult verdict =
            coll::Oracle::verify_allreduce_among(composite, participants, 24);
        EXPECT_TRUE(verdict.ok)
            << "w_old=" << w_old << " cut=" << cut << " w_new=" << w_new
            << ": " << verdict.message;
      }
    }
  }
}

TEST(Rebuild, WiderBudgetCollapsesRemainingLevels) {
  // 24 participants on 2 wavelengths: groups of 5, two tree levels plus two
  // mirrors.  After the first step a 64-wavelength band merges the surviving
  // representatives in one all-to-all instead of finishing the tree.
  const std::uint32_t ring_size = 32;
  std::vector<topo::NodeId> participants(24);
  std::iota(participants.begin(), participants.end(), 0);
  const WrhtBuild narrow =
      build_wrht_among(participants, ring_size, params_for(2));
  const std::size_t total = narrow.annotated.schedule.num_steps();
  const std::size_t cut = 1;
  const std::optional<WrhtBuild> wide =
      rebuild_wrht_remainder(narrow, cut, {}, ring_size, params_for(64));
  ASSERT_TRUE(wide);
  EXPECT_LT(wide->annotated.schedule.num_steps(), total - cut);
  EXPECT_TRUE(wide->merged_with_all_to_all);
}

TEST(Rebuild, NarrowBudgetBelowMirrorDemandIsRefused) {
  // 17 participants in one group: the reduce step and its mirror each need
  // floor(17/2) = 8 wavelengths.  After the reduce step completed, a
  // 2-wavelength band cannot carry the owed mirror — the seam must say so
  // rather than emit an unrunnable schedule.
  const std::uint32_t ring_size = 20;
  std::vector<topo::NodeId> participants(17);
  std::iota(participants.begin(), participants.end(), 0);
  const WrhtBuild build =
      build_wrht_among(participants, ring_size, params_for(8));
  ASSERT_EQ(build.reduce_levels.size(), 1u);
  EXPECT_FALSE(rebuild_wrht_remainder(build, 1, {}, ring_size, params_for(2)));
  EXPECT_TRUE(rebuild_wrht_remainder(build, 1, {}, ring_size, params_for(8)));
}

TEST(Rebuild, ComposesAcrossRepeatedRenegotiations) {
  // Renegotiate twice: narrow -> wide after one step, then wide -> narrow
  // after one more.  The rebuilt build must itself be rebuildable, and the
  // three-schedule composition must still be the all-reduce.
  const std::uint32_t ring_size = 32;
  const std::vector<topo::NodeId> participants = every_other(ring_size);
  const WrhtBuild first =
      build_wrht_among(participants, ring_size, params_for(2));
  ASSERT_GE(first.annotated.schedule.num_steps(), 2u);
  const std::optional<WrhtBuild> second =
      rebuild_wrht_remainder(first, 1, {}, ring_size, params_for(16));
  ASSERT_TRUE(second);
  ASSERT_GE(second->annotated.schedule.num_steps(), 2u);
  const std::optional<WrhtBuild> third =
      rebuild_wrht_remainder(*second, 1, {}, ring_size, params_for(8));
  ASSERT_TRUE(third);

  coll::Schedule composite("twice", ring_size, 1);
  append_steps(composite, first.annotated.schedule, 1);
  append_steps(composite, second->annotated.schedule, 1);
  append_steps(composite, third->annotated.schedule,
               third->annotated.schedule.num_steps());
  const coll::OracleResult verdict =
      coll::Oracle::verify_allreduce_among(composite, participants, 24);
  EXPECT_TRUE(verdict.ok) << verdict.message;
}

TEST(Rebuild, NestedRemaindersComposeAtEveryCut) {
  // Two renegotiations deep, the second at EVERY cut of the first's
  // remainder, cut 0 included: prefix(B, c), then prefix(R, c'), then
  // rebuild(R, c') must deliver the sum over B's participants to every
  // node neither rebuild evicted.  At c' = 0 of a reduce-stage remainder
  // only R's sub-all-reduce members hold partial sums; a rebuild that
  // re-reduced B's participants there would count survivors twice.
  struct Shape {
    std::uint32_t ring_size;
    std::vector<topo::NodeId> participants;
  };
  std::vector<topo::NodeId> thirds;
  for (topo::NodeId node = 0; node < 24; ++node) {
    if (node % 3 != 2) thirds.push_back(node);
  }
  std::vector<topo::NodeId> contiguous(17);
  std::iota(contiguous.begin(), contiguous.end(), 0);
  const Shape shapes[] = {
      {32, every_other(32)}, {24, thirds}, {20, contiguous}};
  std::size_t proven_at_cut_zero = 0;
  std::size_t proven_evicting = 0;
  for (const Shape& shape : shapes) {
    const std::vector<topo::NodeId>& everyone = shape.participants;
    for (const std::uint32_t w_old : {1u, 2u, 8u}) {
      const WrhtBuild build =
          build_wrht_among(everyone, shape.ring_size, params_for(w_old));
      for (std::size_t cut = 0; cut < build.annotated.schedule.num_steps();
           ++cut) {
        for (const std::uint32_t w_mid : {1u, 64u}) {
          // The remainder at this cut, plain and (when some eviction is
          // accepted) with one node evicted.
          std::vector<std::pair<std::vector<topo::NodeId>, WrhtBuild>> mids;
          if (std::optional<WrhtBuild> plain = rebuild_wrht_remainder(
                  build, cut, {}, shape.ring_size, params_for(w_mid))) {
            mids.emplace_back(std::vector<topo::NodeId>{}, std::move(*plain));
          }
          if (auto evicting = first_evictable(build, cut, everyone,
                                              shape.ring_size, w_mid)) {
            mids.emplace_back(std::vector<topo::NodeId>{evicting->first},
                              std::move(evicting->second));
          }
          for (const auto& [evicted_mid, mid] : mids) {
            const std::size_t mid_steps = mid.annotated.schedule.num_steps();
            for (std::size_t cut2 = 0; cut2 < mid_steps; ++cut2) {
              const std::vector<topo::NodeId> live =
                  minus(everyone, evicted_mid);
              std::vector<std::pair<std::vector<topo::NodeId>, WrhtBuild>>
                  lasts;
              for (const std::uint32_t w_new : {2u, 64u}) {
                if (std::optional<WrhtBuild> plain = rebuild_wrht_remainder(
                        mid, cut2, {}, shape.ring_size, params_for(w_new))) {
                  lasts.emplace_back(std::vector<topo::NodeId>{},
                                     std::move(*plain));
                }
              }
              if (auto evicting = first_evictable(mid, cut2, live,
                                                  shape.ring_size, 64)) {
                lasts.emplace_back(std::vector<topo::NodeId>{evicting->first},
                                   std::move(evicting->second));
              }
              for (const auto& [evicted_last, last] : lasts) {
                coll::Schedule composite("nested", shape.ring_size, 1);
                append_steps(composite, build.annotated.schedule, cut);
                append_steps(composite, mid.annotated.schedule, cut2);
                append_steps(composite, last.annotated.schedule,
                             last.annotated.schedule.num_steps());
                const coll::OracleResult verdict =
                    coll::Oracle::verify_allreduce_among(
                        composite, everyone, minus(live, evicted_last), 24);
                ASSERT_TRUE(verdict.ok)
                    << "ring=" << shape.ring_size << " w_old=" << w_old
                    << " cut=" << cut << " w_mid=" << w_mid
                    << " evicted_mid=" << evicted_mid.size()
                    << " cut2=" << cut2
                    << " evicted_last=" << evicted_last.size() << ": "
                    << verdict.message;
                if (cut2 == 0) ++proven_at_cut_zero;
                if (!evicted_mid.empty() || !evicted_last.empty()) {
                  ++proven_evicting;
                }
              }
            }
          }
        }
      }
    }
  }
  // The sweep must actually reach the nested cut 0 and the eviction paths.
  EXPECT_GT(proven_at_cut_zero, 50u);
  EXPECT_GT(proven_evicting, 50u);
}

}  // namespace
}  // namespace wrht::core
