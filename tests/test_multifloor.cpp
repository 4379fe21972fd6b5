// Tests for the multi-floor decomposition (paper §VI): the service routes
// each upload by its Task-1 (building, floor) annotation, and each floor is
// an independent 1-floor reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "api/v2.hpp"
#include "common/rng.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"

namespace ap = crowdmap::api;
namespace co = crowdmap::core;
namespace cs = crowdmap::sim;
namespace cc = crowdmap::common;

namespace {

constexpr const char* kBuilding = "tower";

/// Small two-floor campaign: floor 1 uses one random building, floor 2
/// another (different wall seeds, like a real building's distinct floors).
/// Both campaigns number their videos from 0, and an upload's identity is
/// its video id, so floor 2's ids are moved past floor 1's.
std::vector<cs::SensorRichVideo> two_floor_campaign() {
  std::vector<cs::SensorRichVideo> videos;
  cc::Rng rng(401);
  for (int floor = 1; floor <= 2; ++floor) {
    const auto spec = cs::random_building(2, rng);
    cs::CampaignOptions options;
    options.users = 2;
    options.room_videos_per_room = 1;
    options.hallway_walks = 4;
    options.junk_fraction = 0.0;
    options.sim.fps = 3.0;
    cs::generate_campaign_streaming(
        spec, options, 500 + static_cast<std::uint64_t>(floor),
        [&videos, floor](cs::SensorRichVideo&& video) {
          video.building = kBuilding;
          video.floor = floor;
          video.video_id += 1000 * (floor - 1);
          videos.push_back(std::move(video));
        });
  }
  return videos;
}

ap::Client make_client() {
  ap::ClientOptions options;
  options.config = co::PipelineConfig::fast_profile();
  return ap::Client(std::move(options));
}

void submit_all(ap::Client& client,
                const std::vector<cs::SensorRichVideo>& videos) {
  for (const auto& video : videos) {
    EXPECT_TRUE(client.submit_video(video).status.ok());
  }
  client.drain();
}

co::PipelineResult build(ap::Client& client, int floor,
                         std::optional<co::WorldFrame> frame = std::nullopt) {
  auto response = client.build_plan({kBuilding, floor, frame, {}});
  EXPECT_TRUE(response.status.ok());
  return std::move(response.result);
}

}  // namespace

TEST(MultiFloor, RoutesUploadsByFloor) {
  const auto videos = two_floor_campaign();
  auto client = make_client();
  submit_all(client, videos);
  for (int floor = 1; floor <= 2; ++floor) {
    std::set<int> want;
    for (const auto& video : videos) {
      if (video.floor == floor) want.insert(video.video_id);
    }
    std::set<int> got;
    for (const auto& traj : client.trajectories(kBuilding, floor)) {
      got.insert(traj.video_id);
    }
    EXPECT_FALSE(got.empty()) << "floor " << floor;
    // Every kept trajectory is one of this floor's uploads.
    EXPECT_TRUE(std::includes(want.begin(), want.end(), got.begin(), got.end()))
        << "floor " << floor;
  }
  EXPECT_TRUE(client.trajectories(kBuilding, 3).empty());
}

TEST(MultiFloor, RunsEveryFloorIndependently) {
  auto client = make_client();
  submit_all(client, two_floor_campaign());
  for (int floor = 1; floor <= 2; ++floor) {
    const auto result = build(client, floor);
    EXPECT_GT(result.diagnostics.trajectories_kept, 0u) << "floor " << floor;
    EXPECT_GT(result.skeleton.raster.count_set(), 0u) << "floor " << floor;
  }
}

TEST(MultiFloor, EmptyPipelineRunsToNothing) {
  auto client = make_client();
  EXPECT_TRUE(client.trajectories(kBuilding, 1).empty());
  const auto result = build(client, 1);
  EXPECT_EQ(result.diagnostics.trajectories_kept, 0u);
  EXPECT_TRUE(result.plan.rooms.empty());
  EXPECT_EQ(result.plan.hallway.count_set(), 0u);
}

TEST(MultiFloor, PerFloorWorldFrames) {
  auto client = make_client();
  submit_all(client, two_floor_campaign());
  co::WorldFrame f1;
  f1.extent = {{-5, -5}, {45, 25}};
  const auto first = build(client, 1, f1);
  const auto second = build(client, 2);
  EXPECT_NEAR(first.plan.hallway.extent().min.x, -5.0, 1e-9);
  // Floor 2 had no frame: its extent is data-derived, not the given one.
  EXPECT_NE(second.plan.hallway.extent().min.x, -5.0);
}
