#include "wrht/builder.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"
#include "util/math.hpp"

namespace wrht::core {
namespace {

struct StepAssembly {
  std::vector<coll::Transfer> transfers;
  std::vector<topo::Arc> arcs;
};

// Assign wavelengths for one assembled step and append it to the schedule.
// Returns false (leaving the schedule untouched) when the step does not
// color within `max_wavelengths`.
bool try_commit_step(AnnotatedSchedule& annotated,
                     const topo::RingTopology& ring, StepAssembly step,
                     std::uint32_t max_wavelengths,
                     optical::FitPolicy policy) {
  const optical::AssignmentResult assignment =
      optical::assign_wavelengths_longest_first(ring, step.arcs,
                                                max_wavelengths, policy);
  if (!assignment.ok) return false;
  annotated.schedule.add_step();
  std::vector<PathAssignment> paths;
  paths.reserve(step.arcs.size());
  for (std::size_t i = 0; i < step.transfers.size(); ++i) {
    annotated.schedule.add_transfer(step.transfers[i]);
    paths.push_back(PathAssignment{step.arcs[i], {assignment.lambda[i]}});
  }
  annotated.paths.push_back(std::move(paths));
  annotated.lambda_per_step.push_back(assignment.wavelengths_used);
  annotated.wavelengths_required =
      std::max(annotated.wavelengths_required, assignment.wavelengths_used);
  return true;
}

// Aborting flavor for steps the builder has already proven feasible.
void commit_step(AnnotatedSchedule& annotated, const topo::RingTopology& ring,
                 StepAssembly step, std::uint32_t max_wavelengths,
                 optical::FitPolicy policy) {
  const std::size_t arcs = step.arcs.size();
  WRHT_CHECK(try_commit_step(annotated, ring, std::move(step), max_wavelengths,
                             policy),
             "build_wrht: feasible step failed wavelength assignment ("
                 << arcs << " arcs, " << max_wavelengths << " wavelengths)");
}

// The mirrored broadcast step of one tree level: the representative copies
// the result back to its members along the reversed intra-group arcs.
StepAssembly broadcast_step_for_level(const topo::RingTopology& ring,
                                      const WrhtLevel& level) {
  StepAssembly step;
  for (const Group& group : level.groups) {
    const topo::NodeId rep = group.rep();
    for (const topo::NodeId member : group.members) {
      if (member == rep) continue;
      step.transfers.push_back(
          coll::Transfer{rep, member, 0, coll::TransferOp::kCopy});
      step.arcs.push_back(intra_group_arc(ring, rep, member));
    }
  }
  return step;
}

// Assemble the all-to-all exchange among `active` nodes (direction-balanced
// routing, per the Liang & Shen bound) and test whether it colors within
// `max_wavelengths`.
std::optional<StepAssembly> try_all_to_all(const topo::RingTopology& ring,
                                           const std::vector<topo::NodeId>& active,
                                           std::uint32_t max_wavelengths,
                                           optical::FitPolicy policy) {
  StepAssembly step;
  for (const topo::NodeId i : active) {
    for (const topo::NodeId j : active) {
      if (i == j) continue;
      step.transfers.push_back(
          coll::Transfer{i, j, 0, coll::TransferOp::kReduce});
    }
  }
  step.arcs = optical::balanced_all_to_all_arcs(ring, active);
  const optical::AssignmentResult probe =
      optical::assign_wavelengths_longest_first(ring, step.arcs,
                                                max_wavelengths, policy);
  if (!probe.ok) return std::nullopt;
  return step;
}

}  // namespace

std::uint32_t default_group_size(std::uint32_t num_nodes,
                                 std::uint32_t num_wavelengths) {
  // floor(m/2) <= w  <=>  m <= 2w + 1; never larger than the node count and
  // never below the minimum useful group of 2.
  const std::uint32_t cap = 2 * num_wavelengths + 1;
  return std::max(2u, std::min(num_nodes, cap));
}

std::uint32_t all_to_all_wavelength_bound(std::uint32_t k) {
  return static_cast<std::uint32_t>(
      util::ceil_div(std::uint64_t{k} * k, 8));
}

bool all_to_all_merge_fits(const topo::RingTopology& ring,
                           const std::vector<topo::NodeId>& active,
                           std::uint32_t num_wavelengths,
                           optical::FitPolicy policy) {
  const std::vector<topo::Arc> arcs =
      optical::balanced_all_to_all_arcs(ring, active);
  return optical::assign_wavelengths_longest_first(ring, arcs,
                                                   num_wavelengths, policy)
      .ok;
}

std::uint32_t predicted_steps(std::uint32_t num_nodes,
                              std::uint32_t group_size,
                              std::uint32_t num_wavelengths,
                              bool allow_merge) {
  WRHT_REQUIRE(num_nodes >= 2 && group_size >= 2,
               "predicted_steps: need N >= 2, m >= 2; got N=" << num_nodes
                                                              << " m="
                                                              << group_size);
  const topo::RingTopology ring(num_nodes);
  std::vector<topo::NodeId> active(num_nodes);
  std::iota(active.begin(), active.end(), 0);
  std::uint32_t tree_levels = 0;
  while (active.size() > 1) {
    if (allow_merge &&
        all_to_all_wavelength_bound(
            static_cast<std::uint32_t>(active.size())) <= num_wavelengths &&
        all_to_all_merge_fits(ring, active, num_wavelengths,
                              optical::FitPolicy::kFirstFit)) {
      return 2 * tree_levels + 1;  // merge: levels + all-to-all + levels
    }
    std::vector<topo::NodeId> reps;
    for (const Group& group : partition_into_groups(active, group_size)) {
      reps.push_back(group.rep());
    }
    active = std::move(reps);
    ++tree_levels;
  }
  return 2 * tree_levels;  // reduce to root + mirrored broadcast
}

WrhtBuild build_wrht_among(const std::vector<topo::NodeId>& participants,
                           std::uint32_t ring_size, const WrhtParams& params) {
  WRHT_REQUIRE(participants.size() >= 2,
               "build_wrht: need at least 2 participants, got "
                   << participants.size());
  WRHT_REQUIRE(std::is_sorted(participants.begin(), participants.end()) &&
                   std::adjacent_find(participants.begin(),
                                      participants.end()) ==
                       participants.end() &&
               participants.back() < ring_size,
               "build_wrht: participants must be ascending, unique ring "
               "positions below ring size "
                   << ring_size);
  WRHT_REQUIRE(params.num_wavelengths > 0,
               "build_wrht: need at least 1 wavelength");
  const std::uint32_t m = params.forced_group_size.value_or(
      default_group_size(static_cast<std::uint32_t>(participants.size()),
                         params.num_wavelengths));
  WRHT_REQUIRE(m >= 2, "build_wrht: group size must be >= 2, got " << m);
  WRHT_REQUIRE(m / 2 <= params.num_wavelengths,
               "build_wrht: group size " << m << " needs floor(m/2)=" << m / 2
                                         << " wavelengths but only "
                                         << params.num_wavelengths
                                         << " available");

  const topo::RingTopology ring(ring_size);
  WrhtBuild build;
  build.annotated =
      AnnotatedSchedule{coll::Schedule("wrht", ring_size, 1), {}, 0, {}};
  build.group_size_m = m;
  build.partial_holders = participants;

  std::vector<topo::NodeId> active = participants;

  // ---- Reduce stage -------------------------------------------------------
  while (active.size() > 1) {
    if (params.allow_all_to_all_merge &&
        all_to_all_wavelength_bound(
            static_cast<std::uint32_t>(active.size())) <=
            params.num_wavelengths) {
      std::optional<StepAssembly> merge = try_all_to_all(
          ring, active, params.num_wavelengths, params.fit_policy);
      if (merge.has_value()) {
        build.final_rep_count_mstar =
            static_cast<std::uint32_t>(active.size());
        commit_step(build.annotated, ring, std::move(*merge),
                    params.num_wavelengths, params.fit_policy);
        build.merged_with_all_to_all = true;
        break;
      }
      // The bound admitted the step but the heuristic coloring did not fit;
      // fall through to another tree level (never wrong, possibly slower).
    }

    WrhtLevel level;
    level.groups = partition_into_groups(active, m);

    StepAssembly step;
    std::vector<topo::NodeId> reps;
    reps.reserve(level.groups.size());
    for (const Group& group : level.groups) {
      const topo::NodeId rep = group.rep();
      reps.push_back(rep);
      for (const topo::NodeId member : group.members) {
        if (member == rep) continue;
        step.transfers.push_back(
            coll::Transfer{member, rep, 0, coll::TransferOp::kReduce});
        step.arcs.push_back(intra_group_arc(ring, member, rep));
      }
    }
    commit_step(build.annotated, ring, std::move(step),
                params.num_wavelengths, params.fit_policy);
    build.reduce_levels.push_back(std::move(level));
    active = std::move(reps);
  }
  if (!build.merged_with_all_to_all) build.final_rep_count_mstar = 1;

  // ---- Broadcast stage ----------------------------------------------------
  // Mirror every tree level top-down; the all-to-all merge step (if any)
  // needs no mirror because it leaves all its participants with the result.
  for (auto level = build.reduce_levels.rbegin();
       level != build.reduce_levels.rend(); ++level) {
    commit_step(build.annotated, ring, broadcast_step_for_level(ring, *level),
                params.num_wavelengths, params.fit_policy);
    build.broadcast_levels.push_back(*level);
  }

  return build;
}

std::optional<WrhtBuild> rebuild_wrht_remainder(
    const WrhtBuild& build, std::size_t steps_done,
    const std::vector<topo::NodeId>& evicted, std::uint32_t ring_size,
    const WrhtParams& params) {
  const std::size_t total_steps = build.annotated.schedule.num_steps();
  WRHT_REQUIRE(steps_done < total_steps,
               "rebuild_wrht_remainder: " << steps_done << " of " << total_steps
                                          << " steps done — nothing left to "
                                             "rebuild");
  WRHT_REQUIRE(params.num_wavelengths > 0,
               "rebuild_wrht_remainder: need >= 1 wavelength");

  const std::size_t num_reduce = build.reduce_levels.size();
  const std::size_t reduce_steps = build.reduce_step_count();
  const topo::RingTopology ring(ring_size);

  // Completed tree levels k, and the mirrors the remainder still owes.  In
  // the reduce stage (k levels done, merge not yet fired) the owed mirrors
  // are the LAST k + inherited entries of broadcast_levels, i.e. everything
  // from index num_reduce - k on; once the broadcast stage started, they are
  // simply the unexecuted tail.
  std::size_t completed_levels = 0;
  std::size_t first_owed_mirror = 0;
  if (steps_done < reduce_steps) {
    completed_levels = std::min(steps_done, num_reduce);
    first_owed_mirror = num_reduce - completed_levels;
  } else {
    completed_levels = num_reduce;
    first_owed_mirror = steps_done - reduce_steps;
  }

  const auto is_evicted = [&evicted](topo::NodeId node) {
    return std::find(evicted.begin(), evicted.end(), node) != evicted.end();
  };

  WrhtBuild out;
  out.annotated =
      AnnotatedSchedule{coll::Schedule("wrht", ring_size, 1), {}, 0, {}};
  out.group_size_m = build.group_size_m;
  out.final_rep_count_mstar = 1;

  if (steps_done < reduce_steps) {
    // Survivors holding partial sums: the reps of the last completed level
    // (the build's own partial holders when no level completed yet — for a
    // remainder those are its sub-all-reduce members, not the original
    // participants).  The fresh sub-all-reduce among them is sized for the
    // NEW budget, so it may use fewer (wider band) or more (narrower band)
    // levels than the original.
    std::vector<topo::NodeId> active = completed_levels == 0
                                           ? build.partial_holders
                                           : std::vector<topo::NodeId>{};
    if (completed_levels != 0) {
      for (const Group& group :
           build.reduce_levels[completed_levels - 1].groups) {
        active.push_back(group.rep());
      }
    }
    // An evicted node still holding a live subtree partial takes those
    // contributions down with it — the remainder cannot complete the sum
    // over all participants, so the caller must restart among survivors.
    for (const topo::NodeId node : active) {
      if (is_evicted(node)) return std::nullopt;
    }
    WrhtParams sub_params = params;
    sub_params.forced_group_size.reset();
    out = build_wrht_among(active, ring_size, sub_params);
  }

  // Recolor the owed mirrors of the original tree for the new budget,
  // stripping evicted nodes from their delivery sets.  Each mirror needs
  // floor(group/2) wavelengths with spatial reuse, so a band narrower than
  // an already-executed level's demand cannot carry them — report that
  // instead of committing a half-usable schedule.
  for (std::size_t i = first_owed_mirror; i < build.broadcast_levels.size();
       ++i) {
    const WrhtLevel& level = build.broadcast_levels[i];
    WrhtLevel kept;
    for (const Group& group : level.groups) {
      if (is_evicted(group.rep())) {
        // A dead representative with surviving members would orphan their
        // delivery; refuse so the caller restarts among survivors.  A group
        // whose membership died entirely is simply dropped.
        for (const topo::NodeId member : group.members) {
          if (!is_evicted(member)) return std::nullopt;
        }
        continue;
      }
      Group survivor_group;
      for (const topo::NodeId member : group.members) {
        if (member != group.rep() && is_evicted(member)) continue;
        if (member == group.rep()) {
          survivor_group.rep_index = survivor_group.members.size();
        }
        survivor_group.members.push_back(member);
      }
      kept.groups.push_back(std::move(survivor_group));
    }
    bool has_transfers = false;
    for (const Group& group : kept.groups) {
      if (group.size() > 1) has_transfers = true;
    }
    if (!has_transfers) continue;  // every recipient of this mirror is gone
    if (!try_commit_step(out.annotated, ring,
                         broadcast_step_for_level(ring, kept),
                         params.num_wavelengths, params.fit_policy)) {
      return std::nullopt;
    }
    out.broadcast_levels.push_back(std::move(kept));
  }
  return out;
}

WrhtBuild build_wrht(std::uint32_t num_nodes, const WrhtParams& params) {
  WRHT_REQUIRE(num_nodes >= 2,
               "build_wrht: need at least 2 nodes, got " << num_nodes);
  std::vector<topo::NodeId> everyone(num_nodes);
  std::iota(everyone.begin(), everyone.end(), 0);
  return build_wrht_among(everyone, num_nodes, params);
}

}  // namespace wrht::core
