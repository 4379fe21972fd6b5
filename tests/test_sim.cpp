// Tests for the simulation substrate: buildings, scene rendering, routing,
// user simulation and campaign generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "imaging/ncc.hpp"
#include "sensors/heading.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "sim/scene.hpp"
#include "sim/spec.hpp"
#include "sim/user_sim.hpp"

namespace cs = crowdmap::sim;
namespace cc = crowdmap::common;
using crowdmap::geometry::Vec2;

// ------------------------------------------------------------- buildings ---

TEST(Buildings, AllThreeAreWellFormed) {
  for (const auto& spec : {cs::lab1(), cs::lab2(), cs::gym()}) {
    EXPECT_FALSE(spec.hallways.empty());
    EXPECT_FALSE(spec.rooms.empty());
    EXPECT_GT(spec.hallway_area(), 10.0);
    for (const auto& room : spec.rooms) {
      EXPECT_GT(room.area(), 4.0);
      // The door sits on the room boundary.
      double min_edge_dist = 1e18;
      for (const auto& edge : room.footprint().edges()) {
        min_edge_dist = std::min(
            min_edge_dist, crowdmap::geometry::distance_point_segment(room.door, edge));
      }
      EXPECT_LT(min_edge_dist, 0.1) << spec.name << " room " << room.id;
      // The door opens onto a hallway: its outward neighborhood touches one.
      EXPECT_TRUE(spec.in_hallway(room.door + (room.door - room.center).normalized() * 0.5))
          << spec.name << " room " << room.id;
    }
  }
}

TEST(Buildings, RoomsDoNotOverlapEachOther) {
  for (const auto& spec : {cs::lab1(), cs::lab2(), cs::gym()}) {
    for (std::size_t i = 0; i < spec.rooms.size(); ++i) {
      for (std::size_t j = i + 1; j < spec.rooms.size(); ++j) {
        const auto inter = crowdmap::geometry::clip_convex(
            spec.rooms[i].footprint(), spec.rooms[j].footprint());
        EXPECT_LT(inter.area(), 0.01)
            << spec.name << " rooms " << spec.rooms[i].id << "," << spec.rooms[j].id;
      }
    }
  }
}

TEST(Buildings, RoomsDoNotIntrudeHallways) {
  for (const auto& spec : {cs::lab1(), cs::lab2(), cs::gym()}) {
    for (const auto& room : spec.rooms) {
      // Room center must be outside every hallway.
      EXPECT_FALSE(spec.in_hallway(room.center)) << spec.name << room.id;
    }
  }
}

TEST(Buildings, RandomBuildingRespectsRoomCount) {
  cc::Rng rng(71);
  const auto spec = cs::random_building(6, rng);
  EXPECT_EQ(spec.rooms.size(), 6u);
  EXPECT_THROW((void)cs::random_building(0, rng), std::invalid_argument);
}

TEST(Buildings, CorridorAxisAlignedOnly) {
  EXPECT_THROW((void)cs::corridor({0, 0}, {3, 4}, 2.0), std::invalid_argument);
  const auto h = cs::corridor({0, 0}, {10, 0}, 2.0);
  EXPECT_NEAR(h.area(), 20.0, 1e-9);
}

TEST(FloorPlanSpec, ExtentCoversEverything) {
  const auto spec = cs::lab1();
  const auto box = spec.extent(2.0);
  for (const auto& room : spec.rooms) {
    EXPECT_TRUE(box.contains(room.center));
  }
  EXPECT_THROW((void)cs::FloorPlanSpec{}.extent(), std::logic_error);
}

TEST(FloorPlanSpec, HallwayRasterMatchesArea) {
  const auto spec = cs::lab2();
  const auto raster = spec.hallway_raster(0.25);
  EXPECT_NEAR(raster.set_area(), spec.hallway_area(0.25), 1.0);
}

TEST(FloorPlanSpec, RoomLookup) {
  const auto spec = cs::lab1();
  EXPECT_EQ(spec.room_by_id(spec.rooms[2].id).id, spec.rooms[2].id);
  EXPECT_THROW((void)spec.room_by_id(99999), std::out_of_range);
}

// ---------------------------------------------------------------- scene ---

TEST(ValueNoise, RangeAndDeterminism) {
  for (double x = -3; x < 3; x += 0.37) {
    for (double y = -3; y < 3; y += 0.41) {
      const double v = cs::value_noise(x, y, 77);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      EXPECT_EQ(v, cs::value_noise(x, y, 77));
    }
  }
  EXPECT_NE(cs::value_noise(0.5, 0.5, 1), cs::value_noise(0.5, 0.5, 2));
}

TEST(ValueNoise, Continuity) {
  const double eps = 1e-4;
  for (double x = 0.1; x < 2.0; x += 0.3) {
    EXPECT_NEAR(cs::value_noise(x, 0.7, 5), cs::value_noise(x + eps, 0.7, 5), 0.01);
  }
}

TEST(Scene, RaycastHitsRoomWall) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 81);
  const auto& room = spec.rooms[0];
  // Ray from the room center along +x must hit within the room's half-width
  // (allowing for wall clutter).
  const auto hit = scene.raycast(room.center, {1, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_LE(hit->distance, room.width / 2 + 0.1);
}

TEST(Scene, RaycastEscapesOutside) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 82);
  const auto hit = scene.raycast({-100, -100}, {-1, 0});
  EXPECT_FALSE(hit.has_value());
}

TEST(Scene, WallsIncludeRoomsAndHallways) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 83);
  // At least 4 per room + 4 per hallway.
  EXPECT_GE(scene.walls().size(), spec.rooms.size() * 4 + spec.hallways.size() * 4);
}

TEST(Scene, TextureDeterministicAndBounded) {
  const auto scene = cs::Scene::from_spec(cs::lab1(), 84);
  const auto& wall = scene.walls().front();
  for (double s = 0.1; s < wall.seg.length(); s += 0.3) {
    for (double v = 0.05; v < 1.0; v += 0.13) {
      const double t = scene.wall_texture(wall, s, v);
      EXPECT_GE(t, 0.0);
      EXPECT_LE(t, 1.0);
      EXPECT_EQ(t, scene.wall_texture(wall, s, v));
    }
  }
}

TEST(Scene, RenderProducesStructuredImage) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 85);
  cs::CameraIntrinsics intr;
  cc::Rng rng(1);
  const auto img = scene.render({spec.rooms[0].center, 0.0}, intr,
                                cs::Lighting::day(), rng);
  EXPECT_EQ(img.width(), intr.width);
  EXPECT_EQ(img.height(), intr.height);
  const auto gray = img.to_gray();
  EXPECT_GT(gray.stddev(), 0.05f);  // walls/floor/ceiling structure
  EXPECT_GT(gray.mean(), 0.2f);     // auto-exposure keeps it visible
}

TEST(Scene, NightFramesAreNoisierNotDarker) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 86);
  cs::CameraIntrinsics intr;
  cc::Rng rng1(2);
  cc::Rng rng2(2);
  const auto day = scene.render({spec.rooms[0].center, 0.5}, intr,
                                cs::Lighting::day(), rng1).to_gray();
  const auto night = scene.render({spec.rooms[0].center, 0.5}, intr,
                                  cs::Lighting::night(), rng2).to_gray();
  // Auto-exposure: means comparable.
  EXPECT_NEAR(day.mean(), night.mean(), 0.15);
}

TEST(Scene, NearbyPosesLookSimilarFarPosesDiffer) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 87);
  cs::CameraIntrinsics intr;
  cc::Rng rng(3);
  const Vec2 hall_point{10, 0};
  const auto base = scene.render({hall_point, 0.0}, intr, cs::Lighting::day(), rng)
                        .to_gray();
  const auto near_img =
      scene.render({hall_point + Vec2{0.1, 0.0}, 0.02}, intr, cs::Lighting::day(), rng)
          .to_gray();
  const auto far_img =
      scene.render({hall_point + Vec2{12.0, 0.0}, 0.0}, intr, cs::Lighting::day(), rng)
          .to_gray();
  const double near_sim = crowdmap::imaging::normalized_cross_correlation(base, near_img);
  const double far_sim = crowdmap::imaging::normalized_cross_correlation(base, far_img);
  EXPECT_GT(near_sim, far_sim);
  EXPECT_GT(near_sim, 0.7);
}

// --------------------------------------------------------------- router ---

TEST(Router, SnapOntoCenterline) {
  const auto spec = cs::lab1();
  const cs::HallwayRouter router(spec);
  const Vec2 snapped = router.snap({10.0, 0.9});
  EXPECT_NEAR(snapped.y, 0.0, 1e-9);
  EXPECT_NEAR(snapped.x, 10.0, 1e-9);
}

TEST(Router, RouteAlongSingleCorridor) {
  const auto spec = cs::lab1();
  const cs::HallwayRouter router(spec);
  const auto route = router.route({2, 0}, {30, 0});
  ASSERT_GE(route.size(), 2u);
  EXPECT_NEAR(route.front().x, 2.0, 0.1);
  EXPECT_NEAR(route.back().x, 30.0, 0.1);
  double len = 0;
  for (std::size_t i = 1; i < route.size(); ++i) {
    len += route[i].distance_to(route[i - 1]);
  }
  EXPECT_NEAR(len, 28.0, 0.5);  // no detours
}

TEST(Router, RouteAroundCorner) {
  const auto spec = cs::lab2();  // L-shape
  const cs::HallwayRouter router(spec);
  const auto route = router.route({2, 0}, {30, 15});
  ASSERT_GE(route.size(), 3u);  // must pass the corner at (30, 0)
  double len = 0;
  for (std::size_t i = 1; i < route.size(); ++i) {
    len += route[i].distance_to(route[i - 1]);
  }
  EXPECT_NEAR(len, 28.0 + 15.0, 1.0);
}

TEST(Router, RandomPointOnNetwork) {
  const auto spec = cs::gym();
  const cs::HallwayRouter router(spec);
  cc::Rng rng(91);
  for (int i = 0; i < 50; ++i) {
    const Vec2 p = router.random_point(rng);
    EXPECT_LT(p.distance_to(router.snap(p)), 1e-6);
  }
}

// ------------------------------------------------------------- user sim ---

namespace {

cs::UserSimulator make_user(const cs::Scene& scene, const cs::FloorPlanSpec& spec,
                            std::uint64_t seed = 95) {
  cs::SimOptions options;
  options.fps = 3.0;
  return cs::UserSimulator(scene, spec, options, cc::Rng(seed));
}

}  // namespace

TEST(UserSim, RoomVisitProducesFramesAndImu) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 95);
  auto user = make_user(scene, spec);
  const auto video = user.room_visit(spec.rooms[0], 8.0, cs::Lighting::day());
  EXPECT_GT(video.frames.size(), 20u);
  EXPECT_GT(video.imu.samples.size(), 1000u);
  EXPECT_EQ(video.true_room_id, spec.rooms[0].id);
  EXPECT_FALSE(video.junk);
  // Frame times strictly increasing and within IMU span.
  for (std::size_t i = 1; i < video.frames.size(); ++i) {
    EXPECT_GT(video.frames[i].t, video.frames[i - 1].t);
  }
}

TEST(UserSim, SrsSpinsApproximatelyFullCircle) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 96);
  auto user = make_user(scene, spec);
  const auto video = user.room_visit(spec.rooms[1], 6.0, cs::Lighting::day());
  // Gyro integration over the SRS segment recovers >= 2*pi total rotation.
  const double rotation = crowdmap::sensors::integrated_rotation(video.imu);
  EXPECT_GT(std::abs(rotation), 1.8 * cc::kPi);
}

TEST(UserSim, HallwayWalkStaysInHallwayNeighborhood) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 97);
  auto user = make_user(scene, spec);
  const auto video = user.hallway_walk_between({2, 0}, {30, 0}, cs::Lighting::day());
  EXPECT_EQ(video.true_room_id, -1);
  for (const auto& frame : video.frames) {
    // Lateral spread keeps users within ~1 m of the corridor.
    EXPECT_LT(std::abs(frame.true_pose.position.y), 1.3);
  }
}

TEST(UserSim, JunkVideoIsMarked) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 98);
  auto user = make_user(scene, spec);
  const auto junk = user.junk_video(cs::Lighting::day());
  EXPECT_TRUE(junk.junk);
}

TEST(UserSim, RoomWanderStaysInsideRoom) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 99);
  auto user = make_user(scene, spec);
  const auto video = user.room_wander(spec.rooms[0], cs::Lighting::day());
  EXPECT_EQ(video.true_room_id, spec.rooms[0].id);
  const auto footprint = spec.rooms[0].footprint();
  for (const auto& frame : video.frames) {
    EXPECT_TRUE(footprint.contains(frame.true_pose.position));
  }
}

// --------------------------------------------------------------- campaign ---

TEST(Campaign, GeneratesExpectedVideoCount) {
  cs::CampaignOptions options;
  options.room_videos_per_room = 1;
  options.hallway_walks = 5;
  options.sim.fps = 2.0;
  options.sim.camera.width = 60;
  options.sim.camera.height = 80;
  const auto spec = cs::lab1();
  const auto campaign = cs::generate_campaign(spec, options, 101);
  EXPECT_EQ(campaign.videos.size(), spec.rooms.size() + 5);
  EXPECT_GT(campaign.frame_count(), 100u);
}

TEST(Campaign, StreamingMatchesBatch) {
  cs::CampaignOptions options;
  options.room_videos_per_room = 0;
  options.hallway_walks = 3;
  options.sim.fps = 2.0;
  options.sim.camera.width = 60;
  options.sim.camera.height = 80;
  const auto spec = cs::lab2();
  const auto batch = cs::generate_campaign(spec, options, 103);
  std::vector<std::size_t> streamed_sizes;
  cs::generate_campaign_streaming(spec, options, 103,
                                  [&](cs::SensorRichVideo&& v) {
                                    streamed_sizes.push_back(v.frames.size());
                                  });
  ASSERT_EQ(streamed_sizes.size(), batch.videos.size());
  for (std::size_t i = 0; i < streamed_sizes.size(); ++i) {
    EXPECT_EQ(streamed_sizes[i], batch.videos[i].frames.size());
  }
}

TEST(Campaign, AdversarialDamageIsScopedAndDeterministic) {
  cs::CampaignOptions options;
  options.room_videos_per_room = 0;
  options.hallway_walks = 6;
  options.junk_fraction = 0.0;
  options.sim.fps = 2.0;
  options.sim.camera.width = 60;
  options.sim.camera.height = 80;
  const auto spec = cs::lab1();
  const auto clean = cs::generate_campaign(spec, options, 109);

  cs::CampaignOptions damaged_options = options;
  damaged_options.adversarial.truncate_fraction = 1.0;  // every video cut
  const auto damaged = cs::generate_campaign(spec, damaged_options, 109);
  ASSERT_EQ(damaged.videos.size(), clean.videos.size());
  for (std::size_t i = 0; i < damaged.videos.size(); ++i) {
    const auto& before = clean.videos[i];
    const auto& after = damaged.videos[i];
    // Truncation only removes the tail — the surviving head is untouched
    // (the adversarial draws come from a non-advancing per-video stream).
    EXPECT_LT(after.frames.size(), before.frames.size());
    EXPECT_GE(after.frames.size(),
              damaged_options.adversarial.min_keep_frames);
    EXPECT_EQ(after.frames.front().t, before.frames.front().t);
    // The IMU tail is trimmed to the surviving capture.
    ASSERT_FALSE(after.imu.samples.empty());
    EXPECT_LE(after.imu.samples.back().t, after.frames.back().t);
  }

  // Same seed + same adversarial plan -> identical damage.
  const auto again = cs::generate_campaign(spec, damaged_options, 109);
  for (std::size_t i = 0; i < damaged.videos.size(); ++i) {
    EXPECT_EQ(again.videos[i].frames.size(), damaged.videos[i].frames.size());
    EXPECT_EQ(again.videos[i].imu.samples.size(),
              damaged.videos[i].imu.samples.size());
  }
}

TEST(Campaign, DeterministicInSeed) {
  cs::CampaignOptions options;
  options.room_videos_per_room = 0;
  options.hallway_walks = 2;
  options.sim.fps = 2.0;
  options.sim.camera.width = 60;
  options.sim.camera.height = 80;
  const auto spec = cs::lab1();
  const auto a = cs::generate_campaign(spec, options, 107);
  const auto b = cs::generate_campaign(spec, options, 107);
  ASSERT_EQ(a.videos.size(), b.videos.size());
  for (std::size_t i = 0; i < a.videos.size(); ++i) {
    ASSERT_EQ(a.videos[i].imu.samples.size(), b.videos[i].imu.samples.size());
    EXPECT_EQ(a.videos[i].imu.samples.back().compass,
              b.videos[i].imu.samples.back().compass);
  }
}

// ------------------------------------------------ parallel campaign render ---

namespace {

// Damage rule of the adversarial options, restated from their contract: a
// per-video stream decides truncation (keep a 40-80% head, at least
// min_keep_frames) and then IMU dropout (the IMU dies 50-90% of the way in).
// Returns whether either kind of damage fired.
bool reference_damage(cs::SensorRichVideo& video,
                      const cs::AdversarialOptions& adv, cc::Rng adv_rng) {
  bool damaged = false;
  auto trim_imu_after = [&video](double cutoff) {
    auto& samples = video.imu.samples;
    while (!samples.empty() && samples.back().t > cutoff) samples.pop_back();
  };
  if (adv_rng.chance(adv.truncate_fraction) &&
      video.frames.size() > adv.min_keep_frames) {
    const double frac = adv_rng.uniform(0.4, 0.8);
    const std::size_t keep = std::max(
        adv.min_keep_frames,
        static_cast<std::size_t>(frac *
                                 static_cast<double>(video.frames.size())));
    if (keep < video.frames.size()) {
      video.frames.resize(keep);
      trim_imu_after(video.frames.back().t);
      damaged = true;
    }
  }
  if (adv_rng.chance(adv.dropout_fraction) && !video.frames.empty()) {
    const double span = video.frames.back().t - video.frames.front().t;
    trim_imu_after(video.frames.front().t + adv_rng.uniform(0.5, 0.9) * span);
    damaged = true;
  }
  return damaged;
}

struct SerialCampaign {
  std::vector<cs::SensorRichVideo> videos;
  int damaged = 0;
};

// The campaign as one serial loop over the public Scene / UserSimulator API:
// every draw of the campaign Rng interleaved with rendering, upload by
// upload. The parallel generator must reproduce it byte for byte.
SerialCampaign serial_reference(const cs::FloorPlanSpec& spec,
                                const cs::CampaignOptions& options,
                                std::uint64_t seed) {
  const cs::Scene scene = cs::Scene::from_spec(spec, seed);
  cc::Rng rng(seed);
  std::vector<cs::UserSimulator> users;
  for (int u = 0; u < std::max(options.users, 1); ++u) {
    cs::SimOptions sim = options.sim;
    cc::Rng user_rng = rng.stream(0x5EED0000u + static_cast<std::uint64_t>(u));
    sim.walk_speed *= user_rng.uniform(0.85, 1.15);
    sim.step_frequency *= user_rng.uniform(0.92, 1.08);
    users.emplace_back(scene, spec, sim, user_rng.fork());
  }
  auto lighting = [&] {
    return rng.chance(options.night_fraction) ? cs::Lighting::night()
                                              : cs::Lighting::day();
  };
  SerialCampaign out;
  auto finish = [&](cs::SensorRichVideo video) {
    const int id = static_cast<int>(out.videos.size());
    video.user_id = id % static_cast<int>(users.size());
    video.video_id = id;
    if (options.adversarial.enabled() &&
        reference_damage(video, options.adversarial,
                         rng.stream(0xADB10000u +
                                    static_cast<std::uint64_t>(id)))) {
      ++out.damaged;
    }
    out.videos.push_back(std::move(video));
  };
  auto next_user = [&]() -> cs::UserSimulator& {
    return users[out.videos.size() % users.size()];
  };
  for (const auto& room : spec.rooms) {
    for (int k = 0; k < options.room_videos_per_room; ++k) {
      cs::UserSimulator& user = next_user();
      finish(user.room_visit(room, options.hallway_distance, lighting()));
    }
  }
  for (int k = 0; k < options.hallway_walks; ++k) {
    cs::UserSimulator& user = next_user();
    finish(rng.chance(options.junk_fraction) ? user.junk_video(lighting())
                                             : user.hallway_walk(lighting()));
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// First field where two videos differ ("" when identical). Doubles and
// floats compare by bit pattern; structs compare field by field, never as
// raw memory (Lighting carries padding).
std::string first_difference(const cs::SensorRichVideo& a,
                             const cs::SensorRichVideo& b) {
  if (a.video_id != b.video_id) return "video_id";
  if (a.user_id != b.user_id) return "user_id";
  if (a.building != b.building || a.floor != b.floor) return "building/floor";
  if (bits(a.lighting.lux) != bits(b.lighting.lux) ||
      a.lighting.incandescent != b.lighting.incandescent) {
    return "lighting";
  }
  if (a.junk != b.junk) return "junk";
  if (a.true_room_id != b.true_room_id) return "true_room_id";
  if (a.frames.size() != b.frames.size()) return "frame count";
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    const auto& fa = a.frames[f];
    const auto& fb = b.frames[f];
    const std::string at = "frame " + std::to_string(f) + " ";
    if (bits(fa.t) != bits(fb.t)) return at + "t";
    if (bits(fa.true_pose.position.x) != bits(fb.true_pose.position.x) ||
        bits(fa.true_pose.position.y) != bits(fb.true_pose.position.y) ||
        bits(fa.true_pose.theta) != bits(fb.true_pose.theta)) {
      return at + "true_pose";
    }
    if (fa.image.width() != fb.image.width() ||
        fa.image.height() != fb.image.height()) {
      return at + "image size";
    }
    for (int y = 0; y < fa.image.height(); ++y) {
      for (int x = 0; x < fa.image.width(); ++x) {
        for (int c = 0; c < 3; ++c) {
          if (bits(fa.image.at(x, y)[c]) != bits(fb.image.at(x, y)[c])) {
            return at + "pixel (" + std::to_string(x) + ", " +
                   std::to_string(y) + ")";
          }
        }
      }
    }
  }
  if (bits(a.imu.sample_rate_hz) != bits(b.imu.sample_rate_hz)) {
    return "imu rate";
  }
  if (a.imu.samples.size() != b.imu.samples.size()) return "imu count";
  for (std::size_t i = 0; i < a.imu.samples.size(); ++i) {
    const auto& sa = a.imu.samples[i];
    const auto& sb = b.imu.samples[i];
    if (bits(sa.t) != bits(sb.t) ||
        bits(sa.accel_magnitude) != bits(sb.accel_magnitude) ||
        bits(sa.gyro_z) != bits(sb.gyro_z) ||
        bits(sa.compass) != bits(sb.compass)) {
      return "imu sample " + std::to_string(i);
    }
  }
  return "";
}

// Small frames, junk uploads, both kinds of damage, and a user count that
// does not divide the upload count (so the last render window is partial).
cs::CampaignOptions mixed_campaign_options() {
  cs::CampaignOptions options;
  options.users = 3;
  options.room_videos_per_room = 1;
  options.hallway_walks = 7;
  options.junk_fraction = 0.3;
  options.night_fraction = 0.5;
  options.adversarial.truncate_fraction = 0.4;
  options.adversarial.dropout_fraction = 0.4;
  options.sim.fps = 2.0;
  options.sim.imu_rate_hz = 50.0;
  options.sim.camera.width = 40;
  options.sim.camera.height = 56;
  return options;
}

}  // namespace

TEST(Campaign, ParallelRenderMatchesSerialReference) {
  const auto options = mixed_campaign_options();
  const auto spec = cs::lab1();
  constexpr std::uint64_t kSeed = 113;
  const SerialCampaign reference = serial_reference(spec, options, kSeed);
  const auto users = static_cast<std::size_t>(options.users);
  ASSERT_NE(reference.videos.size() % users, 0u);
  // The case must exercise what it claims to.
  EXPECT_TRUE(std::any_of(reference.videos.begin(), reference.videos.end(),
                          [](const auto& v) { return v.junk; }));
  EXPECT_TRUE(std::any_of(reference.videos.begin(), reference.videos.end(),
                          [](const auto& v) { return v.lighting.incandescent; }));
  EXPECT_GT(reference.damaged, 0);

  // The sink contract rides along: calling thread, video_id order (the
  // reference numbers its videos 0..N-1, so a reordering shows as a diff).
  const auto caller = std::this_thread::get_id();
  bool on_caller = true;
  std::vector<cs::SensorRichVideo> videos;
  cs::generate_campaign_streaming(spec, options, kSeed,
                                  [&](cs::SensorRichVideo&& v) {
                                    on_caller = on_caller &&
                                        std::this_thread::get_id() == caller;
                                    videos.push_back(std::move(v));
                                  });
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(videos.size(), reference.videos.size());
  for (std::size_t i = 0; i < reference.videos.size(); ++i) {
    EXPECT_EQ(first_difference(videos[i], reference.videos[i]), "")
        << "video " << i;
  }
}

TEST(Campaign, SinkExceptionStopsDelivery) {
  const auto options = mixed_campaign_options();
  const auto spec = cs::lab1();
  // Video 4 sits mid-window: its window-mates are already rendered.
  constexpr int kThrowAt = 4;
  std::vector<int> delivered;
  EXPECT_THROW(cs::generate_campaign_streaming(
                   spec, options, 131,
                   [&](cs::SensorRichVideo&& v) {
                     delivered.push_back(v.video_id);
                     if (v.video_id == kThrowAt) {
                       throw std::runtime_error("sink refused the upload");
                     }
                   }),
               std::runtime_error);
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kThrowAt + 1));
  for (int i = 0; i <= kThrowAt; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], i);
  }
}
