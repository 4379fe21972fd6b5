// What one floor-plan build returns (paper §II): the floor plan, the
// intermediate results of the three cloud sub-processes (indoor path
// modeling, room layout modeling, floor plan modeling), diagnostics, the
// degradation report and the build's span tree. core::IncrementalPlanner
// produces them; api::Client hands them out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "core/config.hpp"
#include "floorplan/floorplan.hpp"
#include "geometry/pose2.hpp"
#include "mapping/occupancy.hpp"
#include "mapping/skeleton.hpp"
#include "obs/trace.hpp"
#include "room/layout.hpp"
#include "trajectory/aggregate.hpp"

namespace crowdmap::core {

/// Optional output frame: the evaluation harness passes the rigid transform
/// aligning the planner's arbitrary global frame onto ground truth plus the
/// ground-truth grid, so output rasters are directly comparable (the paper
/// overlays reconstructions on the surveyed plan the same way).
struct WorldFrame {
  geometry::Pose2 global_to_world;
  geometry::Aabb extent;
};

/// Artifact-cache traffic of one build: how much of each stage was served
/// from the content-addressed cache instead of recomputed. All zeros when
/// caching is disabled — reuse never changes the result bytes, only where
/// they came from.
struct CacheReuseStats {
  std::size_t pairs_reused = 0;
  std::size_t pairs_total = 0;
  std::size_t rooms_reused = 0;
  std::size_t rooms_total = 0;
  bool skeleton_reused = false;
  bool arrange_reused = false;
  std::uint64_t artifact_hits = 0;    // this build's lookups that hit
  std::uint64_t artifact_misses = 0;  // this build's lookups that missed
  /// Entries the floor's cache dropped (FIFO pressure, fault-forced evicts)
  /// over its lifetime up to the end of this build.
  std::uint64_t artifact_invalidations = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Data-quality counts of one build: the build's own (a floor built
/// concurrently with another never sees the other's work). Its stage
/// timings are the stage spans in PipelineResult::trace.
struct PipelineDiagnostics {
  std::size_t videos_ingested = 0;        // kept + dropped
  std::size_t trajectories_kept = 0;      // the corpus the build ran over
  std::size_t trajectories_dropped = 0;   // unqualified-data filter
  std::size_t trajectories_placed = 0;    // in the main aggregated component
  std::size_t match_edges = 0;
  std::size_t panoramas_attempted = 0;
  std::size_t panoramas_stitched = 0;
  std::size_t rooms_reconstructed = 0;
  /// Artifact-cache reuse during this build (all zeros when disabled).
  CacheReuseStats cache;
};

/// One reconstructed room before floor-plan merge, with provenance.
struct ReconstructedRoom {
  room::RoomLayout layout;
  geometry::Vec2 camera_global;   // where the panorama was taken
  geometry::Vec2 center_global;   // implied room center
  double orientation_global = 0.0;
  std::size_t trajectory_index = 0;
  int true_room_id = -1;          // evaluation only
};

/// One degradation decision made during a build: a stage (or one work item
/// of a stage) failed and the planner substituted a reduced result instead
/// of aborting. Events are merged in stage/item order, so the list is
/// deterministic at any thread count.
struct DegradationEvent {
  std::string stage;   // "aggregate", "skeleton", "panorama", "layout", ...
  common::Error error; // code "fault.injected" or "stage.exception"
  std::string detail;  // item identity ("candidate 3 of trajectory 7")
  /// What the planner did about it.
  enum class Action { kSalvaged, kLost, kSkipped } action = Action::kLost;
};

/// Itemized account of what a degraded build salvaged and lost — the paper's
/// crowdsourcing premise means partial results beat no results, but only if
/// the caller can see what is missing.
struct DegradationReport {
  std::vector<DegradationEvent> events;
  std::size_t rooms_lost = 0;       // candidates that produced no room
  std::size_t rooms_salvaged = 0;   // single-keyframe fallback layouts
  std::size_t uploads_lost_decode = 0;  // filled in by CrowdMapService
  std::size_t sensor_dropouts = 0;      // filled in by CrowdMapService

  [[nodiscard]] bool degraded() const noexcept {
    return !events.empty() || uploads_lost_decode > 0 || sensor_dropouts > 0;
  }
  /// Canonical one-line-per-event rendering; byte-stable across runs and
  /// thread counts, so chaos tests compare reports with string equality.
  [[nodiscard]] std::string to_string() const;
};

/// Full result of one build.
struct PipelineResult {
  floorplan::FloorPlan plan;
  trajectory::AggregationResult aggregation;
  mapping::PathSkeleton skeleton;
  /// The accumulated occupancy evidence (coverage analysis reads it).
  mapping::OccupancyGrid occupancy{geometry::Aabb{{0, 0}, {1, 1}}, 1.0};
  std::vector<ReconstructedRoom> rooms;
  PipelineDiagnostics diagnostics;
  /// What this build salvaged/lost under faults; empty on a clean build.
  DegradationReport degradation;
  /// Span tree of this build: one "run" span with the four stage spans
  /// beneath it. The planner's crowdmap_stage_seconds and
  /// crowdmap_plan_refresh_seconds observations are these durations.
  obs::SpanRecord trace;
};

}  // namespace crowdmap::core
