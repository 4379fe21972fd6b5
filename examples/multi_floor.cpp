// Multi-floor reconstruction (paper §VI): uploads annotated with their
// (building, floor) (Task 1) route to independent 1-floor reconstructions,
// which a stairwell links.
//
//   $ ./build/examples/multi_floor
#include <iostream>

#include "api/v2.hpp"
#include "eval/harness.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"

int main() {
  using namespace crowdmap;

  // Floor 1 = Lab1's layout, floor 2 = Lab2's (standing in for two floors of
  // one building; each floor has its own wall appearance).
  api::ClientOptions client_options;
  client_options.config = core::PipelineConfig::fast_profile();
  api::Client client(std::move(client_options));
  const std::string building = "lab";
  const std::vector<std::pair<int, sim::FloorPlanSpec>> floors = {
      {1, sim::lab1()}, {2, sim::lab2()}};

  for (const auto& [floor_no, spec] : floors) {
    sim::CampaignOptions options;
    options.users = 4;
    options.room_videos_per_room = 1;
    options.hallway_walks = 12;
    options.sim.fps = 3.0;
    std::cout << "Recording floor " << floor_no << " (" << spec.rooms.size()
              << " rooms)...\n";
    sim::generate_campaign_streaming(
        spec, options, 0xF100u + static_cast<std::uint64_t>(floor_no),
        [&, floor_no = floor_no](sim::SensorRichVideo&& video) {
          // The Task-1 annotation. Each floor's campaign numbers its videos
          // from 0, and an upload's identity is its video id, so floor 2's
          // ids move past floor 1's.
          video.building = building;
          video.floor = floor_no;
          video.video_id += 1000 * (floor_no - 1);
          (void)client.submit_video(video);
        });
  }

  // The stairwell connecting the floors (a known reference point).
  const geometry::Vec2 stairs{20.0, 8.0};

  for (const auto& [floor_no, spec] : floors) {
    const auto response =
        client.build_plan({building, floor_no, std::nullopt, {}});
    const auto& d = response.result.diagnostics;
    std::cout << "\n=== Floor " << floor_no << " ===\n"
              << "  trajectories placed: " << d.trajectories_placed << "/"
              << d.trajectories_kept << "\n"
              << "  rooms reconstructed: " << d.rooms_reconstructed << "\n"
              << "  hallway skeleton:    "
              << eval::fmt(response.result.skeleton.area(), 0) << " m^2\n";
  }
  std::cout << "\nFloors link at the stairwell near (" << stairs.x << ", "
            << stairs.y
            << "); navigation across floors chains the per-floor plans "
               "through it.\n";
  return 0;
}
