// Cache keying and payload codecs for the planner's artifact seams
// (docs/INCREMENTAL.md). Each cacheable stage gets two things here:
//
//   * a key builder hashing the stage's *complete* input set — the content
//     keys of the trajectories it reads plus the slice of PipelineConfig
//     that can change its output (and nothing more, so an irrelevant config
//     edit does not invalidate the world);
//   * an encode/decode pair for the stage's output, built on io::serialize's
//     Writer/Reader so doubles round-trip through exact bit patterns and a
//     replayed artifact is byte-identical to recomputation.
//
// Every key folds in kArtifactSchemaVersion: bumping it on any payload or
// preimage change orphans all previously stored artifacts at once instead of
// decoding them wrongly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "core/config.hpp"
#include "floorplan/floorplan.hpp"
#include "io/serialize.hpp"
#include "mapping/occupancy.hpp"
#include "mapping/skeleton.hpp"
#include "room/layout.hpp"
#include "room/panorama_select.hpp"
#include "trajectory/aggregate.hpp"
#include "trajectory/trajectory.hpp"

namespace crowdmap::core {

/// Bump on ANY change to a key preimage or payload layout below.
inline constexpr std::uint64_t kArtifactSchemaVersion = 1;

// ---------------------------------------------------------- content keys ---

/// Content key of one extracted trajectory: the identity every downstream
/// stage key derives from. Hashes the serialized trajectory plus the
/// full-precision key-frame pixels (encode_trajectory quantizes them to
/// 8 bits; the stitcher consumes the exact floats, so the key must too).
[[nodiscard]] cache::ArtifactKey trajectory_content_key(
    const trajectory::Trajectory& traj);

// ------------------------------------------------------------- pair seam ---

/// Key of one pairwise match decision: both trajectories' content keys plus
/// everything MatchConfig-shaped that steers the comparison. Relaxation and
/// outlier parameters are excluded on purpose — they act downstream in
/// place_edges, which always runs live.
[[nodiscard]] cache::ArtifactKey pair_decision_key(
    const cache::ArtifactKey& content_a, const cache::ArtifactKey& content_b,
    const trajectory::AggregationConfig& config);

[[nodiscard]] io::Bytes encode_pair_decision(
    const trajectory::PairDecision& decision);
/// nullopt on malformed payload (caller treats it as a cache miss).
[[nodiscard]] std::optional<trajectory::PairDecision> decode_pair_decision(
    const io::Bytes& data);

// ------------------------------------------------------------- room seam ---

/// Cached outcome of one panorama candidate: stitch + layout estimation, up
/// to but excluding placement (placement depends on the aggregation poses
/// and is cheap, so it stays live). The flags replay the live path's
/// panoramas_stitched tally and layout outcome exactly.
struct RoomArtifact {
  bool stitched = false;    // panorama coverage cleared the 0.95 gate
  bool has_layout = false;  // estimate_layout returned a value
  room::RoomLayout layout;  // valid iff has_layout
};

/// Key of one candidate's stitch+layout work: the trajectory's content key,
/// the candidate (key-frame subset + cell center), the stitcher parameters
/// and the *effective* layout config (hypothesis cap already applied;
/// scoring_shards excluded — it is result-independent work granularity).
[[nodiscard]] cache::ArtifactKey room_artifact_key(
    const cache::ArtifactKey& content, const room::PanoramaCandidate& candidate,
    const vision::StitchParams& stitch, const room::LayoutConfig& layout);

[[nodiscard]] io::Bytes encode_room_artifact(const RoomArtifact& artifact);
[[nodiscard]] std::optional<RoomArtifact> decode_room_artifact(
    const io::Bytes& data);

// --------------------------------------------------------- skeleton seam ---

/// Key of the skeleton stage: the occupancy grid *content* (extent, cell
/// size, every access count's bit pattern) plus SkeletonConfig. Keyed on the
/// rasterized grid rather than on the placed trajectories so any input
/// change that rasterizes identically still hits.
[[nodiscard]] cache::ArtifactKey skeleton_key(const mapping::OccupancyGrid& grid,
                                              const mapping::SkeletonConfig& config);

[[nodiscard]] io::Bytes encode_skeleton(const mapping::PathSkeleton& skeleton);
[[nodiscard]] std::optional<mapping::PathSkeleton> decode_skeleton(
    const io::Bytes& data);

// ---------------------------------------------------------- arrange seam ---

/// Key of the arrangement stage: the pre-arrangement room placements, the
/// hallway raster content and ArrangeConfig.
[[nodiscard]] cache::ArtifactKey arrange_key(
    const std::vector<floorplan::PlacedRoom>& rooms,
    const geometry::BoolRaster& hallway, const floorplan::ArrangeConfig& config);

[[nodiscard]] io::Bytes encode_placed_rooms(
    const std::vector<floorplan::PlacedRoom>& rooms);
[[nodiscard]] std::optional<std::vector<floorplan::PlacedRoom>>
decode_placed_rooms(const io::Bytes& data);

}  // namespace crowdmap::core
