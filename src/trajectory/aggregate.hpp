// Multi-trajectory aggregation: pairwise matches become a pose graph; the
// largest connected component is placed into one global frame (key-frames
// act as the "anchor points" of §III.B.I).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "trajectory/matching.hpp"

namespace crowdmap::trajectory {

/// Outcome of one pairwise comparison, reduced to exactly what the pose
/// graph consumes. This is the unit the artifact cache stores: replaying a
/// stored decision reproduces the same MatchEdge bit for bit, because edges
/// are built from these fields alone (anchors themselves are discarded).
struct PairDecision {
  bool matched = false;
  Pose2 b_to_a;
  double s3 = 0.0;
  std::size_t anchor_count = 0;
};

/// Shared runtime resources for aggregation, owned by the caller (the
/// planner lends its pool and its artifact cache's pair seam). Every member
/// is optional; the default runs the exact serial legacy path.
struct AggregationRuntime {
  /// Fans the O(N^2) pairwise matching out over the pool (plus the calling
  /// thread). Results are merged per-pair in index order, so any worker
  /// count — including nullptr — produces bit-identical edges.
  common::ThreadPool* pool = nullptr;
  /// Pair-decision seam for the artifact cache (the planner wires these to
  /// content-addressed lookups; see src/core/stage_artifacts.hpp). When
  /// `pair_lookup(i, j)` returns a decision it is used verbatim and the
  /// match is never computed; otherwise the computed decision is offered to
  /// `pair_store`. Keeping the hooks as plain functions keeps this library
  /// free of any cache dependency.
  std::function<std::optional<PairDecision>(std::size_t, std::size_t)>
      pair_lookup;
  std::function<void(std::size_t, std::size_t, const PairDecision&)> pair_store;
};

/// Aggregation method selector (Fig. 7(a) compares the two).
enum class AggregationMethod { kSequenceBased, kSingleImage };

struct AggregationConfig {
  MatchConfig match;
  AggregationMethod method = AggregationMethod::kSequenceBased;
  /// Pose-graph relaxation sweeps after spanning-tree placement (0 disables);
  /// averages each trajectory's pose over all incident edges so one noisy
  /// edge cannot skew a whole chain.
  int relaxation_sweeps = 40;
  /// Edges whose transform disagrees with the relaxed poses by more than
  /// this are discarded as wrong merges, and placement reruns once.
  double edge_outlier_dist = 3.0;   // meters
  double edge_outlier_angle = 0.4;  // radians
};

/// An accepted pairwise match in the pose graph.
struct MatchEdge {
  std::size_t a = 0;  // trajectory indices
  std::size_t b = 0;
  Pose2 b_to_a;
  double s3 = 0.0;
  std::size_t anchor_count = 0;
};

/// Result of aggregating a set of trajectories.
struct AggregationResult {
  /// Per-trajectory transform into the global frame; nullopt for
  /// trajectories that never matched the main component.
  std::vector<std::optional<Pose2>> global_pose;
  std::vector<MatchEdge> edges;
  std::size_t placed_count = 0;

  /// All placed motion-trace points in the global frame.
  [[nodiscard]] std::vector<Vec2> global_points(
      std::span<const Trajectory> trajectories) const;
};

/// Aggregates trajectories: O(n^2) pairwise matching, union of accepted
/// matches, then BFS placement of the largest component from its root.
/// `runtime` supplies the optional worker pool and pair-decision seam; the
/// result does not depend on either (same edges, same poses, bit for bit).
[[nodiscard]] AggregationResult aggregate_trajectories(
    std::span<const Trajectory> trajectories, const AggregationConfig& config,
    const AggregationRuntime& runtime = {});

/// Places an edge set without matching: spanning tree, relaxation and
/// outlier rejection. aggregate_trajectories() ends here, and WiFi-based
/// aggregation (wifi/walkie_markie) places its own edges through it.
[[nodiscard]] AggregationResult place_edges(std::size_t n,
                                            std::vector<MatchEdge> edges,
                                            const AggregationConfig& config);

}  // namespace crowdmap::trajectory
