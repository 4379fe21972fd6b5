// Crowd campaign generation: a population of simulated users performing
// room-visit and hallway-walk tasks across a building at different times of
// day — the stand-in for the paper's 25 users / 301 videos dataset (§V).
#pragma once

#include <functional>
#include <vector>

#include "sim/scene.hpp"
#include "sim/spec.hpp"
#include "sim/user_sim.hpp"

namespace crowdmap::sim {

/// Post-generation damage applied to a deterministic subset of uploads —
/// the crowd-sourcing failure modes the cloud backend must survive (videos
/// cut short mid-walk, IMU streams that die before the camera does).
/// Decisions come from a non-advancing `Rng::stream` keyed by video id, so
/// enabling these never perturbs the base campaign's draw sequence: the
/// undamaged videos are bit-identical to an adversarial-free run.
struct AdversarialOptions {
  double truncate_fraction = 0.0;  // chance a video keeps only a head prefix
  double dropout_fraction = 0.0;   // chance a video loses its IMU tail
  std::size_t min_keep_frames = 4; // frames never truncated away

  [[nodiscard]] bool enabled() const noexcept {
    return truncate_fraction > 0.0 || dropout_fraction > 0.0;
  }
};

struct CampaignOptions {
  int users = 8;                    // distinct simulated contributors
  int room_videos_per_room = 1;     // SRS+walk-out visits per room
  int hallway_walks = 24;           // hallway-only SWS videos
  double night_fraction = 0.3;      // recordings under night lighting
  double junk_fraction = 0.05;      // unqualified (shaky) uploads
  double hallway_distance = 12.0;   // meters walked after leaving a room
  AdversarialOptions adversarial;   // deliberate capture damage (off by default)
  SimOptions sim;
};

/// A generated dataset: ground truth + all uploads.
struct Campaign {
  FloorPlanSpec spec;
  Scene scene;
  std::vector<SensorRichVideo> videos;

  [[nodiscard]] std::size_t frame_count() const noexcept {
    std::size_t n = 0;
    for (const auto& v : videos) n += v.frames.size();
    return n;
  }
};

/// Generates a deterministic campaign for a building.
[[nodiscard]] Campaign generate_campaign(const FloorPlanSpec& spec,
                                         const CampaignOptions& options,
                                         std::uint64_t seed);

/// Streaming variant: invokes `sink` once per generated video instead of
/// accumulating them. Raw frames dominate memory (a full campaign holds
/// hundreds of MB of pixels), so pipelines should consume videos one at a
/// time and keep only extracted features.
///
/// Threading: rendering fans out over the hardware threads (at most
/// `options.users` at once). The sink runs on the calling thread, in
/// `video_id` order 0..N-1, and at most `options.users` rendered videos wait
/// for it. The videos are the same bytes at any core count. An exception
/// from the sink propagates after rendering has stopped; no later video
/// reaches the sink.
void generate_campaign_streaming(
    const FloorPlanSpec& spec, const CampaignOptions& options, std::uint64_t seed,
    const std::function<void(SensorRichVideo&&)>& sink);

}  // namespace crowdmap::sim
