// Tests for room layout modeling: covering-frame selection, the rectangle
// distance model, boundary detection and the full layout estimator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "room/layout.hpp"
#include "room/panorama_select.hpp"
#include "sim/buildings.hpp"
#include "sim/user_sim.hpp"
#include "trajectory/trajectory.hpp"
#include "vision/panorama.hpp"

namespace cr = crowdmap::room;
namespace cs = crowdmap::sim;
namespace cc = crowdmap::common;
using crowdmap::geometry::Vec2;

// --------------------------------------------------------- frame selection ---

TEST(CoveringFrames, DenseRingThinnedButCovering) {
  std::vector<double> headings;
  for (int i = 0; i < 72; ++i) headings.push_back(i * cc::kTwoPi / 72);
  const auto kept = cr::select_covering_frames(headings);
  EXPECT_LT(kept.size(), 72u);       // redundant frames dropped
  EXPECT_GE(kept.size(), 9u);        // but enough to cover 360/54.4
  // Kept set still covers the circle.
  std::vector<double> kept_headings;
  for (const auto i : kept) kept_headings.push_back(headings[i]);
  const auto check = crowdmap::vision::check_angular_coverage(kept_headings, 0.9495);
  EXPECT_TRUE(check.full_cover);
}

TEST(CoveringFrames, GapFailsSelection) {
  std::vector<double> headings;
  for (int i = 0; i < 20; ++i) headings.push_back(i * 0.15);  // only ~3 rad
  EXPECT_TRUE(cr::select_covering_frames(headings).empty());
}

TEST(CoveringFrames, EmptyInput) {
  EXPECT_TRUE(cr::select_covering_frames({}).empty());
}

TEST(PanoramaCandidates, SrsSegmentDetected) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 161);
  cs::SimOptions options;
  options.fps = 3.0;
  cs::UserSimulator user(scene, spec, options, cc::Rng(161));
  const auto video = user.room_visit(spec.rooms[0], 8.0, cs::Lighting::day());
  const auto traj = crowdmap::trajectory::extract_trajectory(video);
  const auto candidates = cr::find_panorama_candidates(traj);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_GE(candidates[0].keyframe_indices.size(), 6u);
  // The cell center in the local frame sits near the local origin (the
  // recording starts at the stand point).
  EXPECT_LT(candidates[0].cell_center.norm(), 2.0);
}

TEST(PanoramaCandidates, WalkOnlyTrajectoryHasNone) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 162);
  cs::SimOptions options;
  options.fps = 3.0;
  cs::UserSimulator user(scene, spec, options, cc::Rng(162));
  const auto video = user.hallway_walk_between({2, 0}, {30, 0}, cs::Lighting::day());
  const auto traj = crowdmap::trajectory::extract_trajectory(video);
  EXPECT_TRUE(cr::find_panorama_candidates(traj).empty());
}

// ------------------------------------------------------ rectangle geometry ---

TEST(RectDistance, SquareFromCenter) {
  cr::LayoutHypothesis hyp;
  hyp.width = 4.0;
  hyp.depth = 4.0;
  // Axis directions hit the walls at 2 m; diagonal at 2*sqrt(2).
  EXPECT_NEAR(cr::rect_boundary_distance(hyp, 0.0), 2.0, 1e-9);
  EXPECT_NEAR(cr::rect_boundary_distance(hyp, cc::kPi / 2), 2.0, 1e-9);
  EXPECT_NEAR(cr::rect_boundary_distance(hyp, cc::kPi), 2.0, 1e-9);
  EXPECT_NEAR(cr::rect_boundary_distance(hyp, cc::kPi / 4), 2.0 * std::sqrt(2.0),
              1e-9);
}

TEST(RectDistance, OffsetCamera) {
  cr::LayoutHypothesis hyp;
  hyp.width = 6.0;
  hyp.depth = 4.0;
  hyp.camera_offset = {2.0, 0.0};
  EXPECT_NEAR(cr::rect_boundary_distance(hyp, 0.0), 1.0, 1e-9);   // near wall
  EXPECT_NEAR(cr::rect_boundary_distance(hyp, cc::kPi), 5.0, 1e-9);  // far wall
}

TEST(RectDistance, OrientationRotates) {
  cr::LayoutHypothesis hyp;
  hyp.width = 8.0;
  hyp.depth = 2.0;
  hyp.orientation = cc::kPi / 2;
  // Looking along +x now crosses the short (depth) direction.
  EXPECT_NEAR(cr::rect_boundary_distance(hyp, 0.0), 1.0, 1e-9);
}

TEST(RectDistance, ConsistentWithPolygonRaycast) {
  cc::Rng rng(163);
  for (int trial = 0; trial < 50; ++trial) {
    cr::LayoutHypothesis hyp;
    hyp.width = rng.uniform(2, 10);
    hyp.depth = rng.uniform(2, 10);
    hyp.orientation = rng.uniform(0, cc::kPi / 2);
    hyp.camera_offset = {hyp.width * rng.uniform(-0.3, 0.3),
                         hyp.depth * rng.uniform(-0.3, 0.3)};
    const double angle = rng.uniform(0, cc::kTwoPi);
    const double dist = cr::rect_boundary_distance(hyp, angle);
    // Oracle: ray against the room polygon's edges, camera at the offset
    // point inside the room.
    const auto poly = crowdmap::geometry::Polygon::oriented_rectangle(
        {0, 0}, hyp.width, hyp.depth, hyp.orientation);
    const Vec2 cam = hyp.camera_offset.rotated(hyp.orientation);
    double oracle = 1e9;
    for (const auto& edge : poly.edges()) {
      if (const auto hit = crowdmap::geometry::ray_segment(
              cam, Vec2::from_angle(angle), edge)) {
        oracle = std::min(oracle, hit->distance);
      }
    }
    EXPECT_NEAR(dist, oracle, 1e-6) << "trial " << trial;
  }
}

TEST(PredictBoundaryRow, FartherWallHigherInImage) {
  cr::LayoutHypothesis near_room;
  near_room.width = 3.0;
  near_room.depth = 3.0;
  cr::LayoutHypothesis far_room;
  far_room.width = 12.0;
  far_room.depth = 12.0;
  const double near_row = cr::predict_boundary_row(near_room, 0.0, 64, 90, 1.5, 0.2);
  const double far_row = cr::predict_boundary_row(far_room, 0.0, 64, 90, 1.5, 0.2);
  EXPECT_GT(near_row, far_row);  // closer wall -> boundary lower in frame
}

// ------------------------------------------------------------ estimator ---

namespace {

/// Renders and stitches a clean panorama inside a given room of a
/// single-room world, then estimates the layout.
std::optional<cr::RoomLayout> estimate_for_room(double width, double depth,
                                                Vec2 cam_offset,
                                                std::uint64_t seed,
                                                int hypotheses = 3000) {
  cs::FloorPlanSpec spec;
  spec.name = "single";
  spec.feature_density = 0.8;
  cs::RoomSpec room;
  room.id = 1;
  room.center = {0, 0};
  room.width = width;
  room.depth = depth;
  room.door = {0, -depth / 2};
  spec.rooms.push_back(room);
  spec.hallways.push_back(cs::corridor({-8, -depth / 2 - 1.2}, {8, -depth / 2 - 1.2}, 2.4));
  const auto scene = cs::Scene::from_spec(spec, seed);

  cs::CameraIntrinsics intr;
  cc::Rng rng(seed);
  std::vector<crowdmap::vision::PanoFrame> frames;
  const Vec2 cam = room.center + cam_offset;
  for (int i = 0; i < 16; ++i) {
    const double heading = i * cc::kTwoPi / 16;
    crowdmap::vision::PanoFrame frame;
    frame.image = scene.render({cam, heading}, intr, cs::Lighting::day(), rng).to_gray();
    frame.heading = heading;
    frames.push_back(std::move(frame));
  }
  crowdmap::vision::StitchParams sp;
  sp.output_width = 512;
  sp.output_height = 128;
  const auto pano = crowdmap::vision::stitch_panorama(std::move(frames), sp);

  cr::LayoutConfig config;
  config.hypotheses = hypotheses;
  config.focal_px = cr::panorama_focal_px(intr.width, intr.height, sp);
  return cr::estimate_layout(pano.image, config);
}

}  // namespace

TEST(LayoutEstimator, RecoversSquareRoom) {
  const auto layout = estimate_for_room(5.0, 5.0, {0, 0}, 171);
  ASSERT_TRUE(layout.has_value());
  EXPECT_NEAR(layout->area(), 25.0, 6.0);
  EXPECT_NEAR(layout->aspect_ratio() > 1 ? layout->aspect_ratio()
                                         : 1.0 / layout->aspect_ratio(),
              1.0, 0.25);
}

TEST(LayoutEstimator, RecoversElongatedRoom) {
  const auto layout = estimate_for_room(8.0, 4.0, {0, 0}, 173);
  ASSERT_TRUE(layout.has_value());
  EXPECT_NEAR(layout->area(), 32.0, 8.0);
  const double aspect = std::max(layout->aspect_ratio(), 1.0 / layout->aspect_ratio());
  EXPECT_NEAR(aspect, 2.0, 0.5);
}

TEST(LayoutEstimator, HandlesOffCenterCamera) {
  const auto layout = estimate_for_room(6.0, 5.0, {1.2, -0.8}, 175);
  ASSERT_TRUE(layout.has_value());
  EXPECT_NEAR(layout->area(), 30.0, 8.0);
  // The camera offset should be recovered roughly (room frame ambiguity
  // resolved by magnitude only).
  EXPECT_NEAR(layout->camera_offset.norm(), std::hypot(1.2, 0.8), 1.0);
}

TEST(LayoutEstimator, RejectsBlankPanorama) {
  EXPECT_FALSE(cr::estimate_layout(crowdmap::imaging::Image(512, 128, 0.5f), {})
                   .has_value());
  EXPECT_FALSE(cr::estimate_layout(crowdmap::imaging::Image(), {}).has_value());
}

TEST(LayoutEstimator, BoundaryDetectionCoversColumns) {
  cs::FloorPlanSpec spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 177);
  cs::CameraIntrinsics intr;
  cc::Rng rng(177);
  std::vector<crowdmap::vision::PanoFrame> frames;
  for (int i = 0; i < 16; ++i) {
    const double heading = i * cc::kTwoPi / 16;
    frames.push_back({scene.render({spec.rooms[0].center, heading}, intr,
                                   cs::Lighting::day(), rng)
                          .to_gray(),
                      heading});
  }
  crowdmap::vision::StitchParams sp;
  sp.output_width = 512;
  sp.output_height = 128;
  const auto pano = crowdmap::vision::stitch_panorama(std::move(frames), sp);
  const double focal = cr::panorama_focal_px(intr.width, intr.height, sp);
  const double horizon = sp.output_height / 2.0 - focal * std::tan(0.15);
  const auto boundary = cr::detect_floor_boundary(pano.image, horizon);
  int valid = 0;
  for (const double b : boundary) valid += !std::isnan(b);
  EXPECT_GT(static_cast<double>(valid) / boundary.size(), 0.8);
}
