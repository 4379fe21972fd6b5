// Tests for trajectory extraction, LCSS and resampling.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/buildings.hpp"
#include "sim/user_sim.hpp"
#include "trajectory/lcss.hpp"
#include "trajectory/serialize.hpp"
#include "trajectory/trajectory.hpp"

namespace ct = crowdmap::trajectory;
namespace cs = crowdmap::sim;
namespace cc = crowdmap::common;
using crowdmap::geometry::Vec2;

// ------------------------------------------------------------------ LCSS ---

namespace {

std::vector<Vec2> straight_line(int n, double spacing, Vec2 origin = {},
                                double heading = 0.0) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(origin + Vec2::from_angle(heading) * (i * spacing));
  }
  return pts;
}

}  // namespace

TEST(Lcss, IdenticalSequencesFullLength) {
  const auto a = straight_line(20, 0.5);
  EXPECT_EQ(ct::lcss_length(a, a, {}), 20u);
}

TEST(Lcss, EmptySequences) {
  const auto a = straight_line(5, 0.5);
  EXPECT_EQ(ct::lcss_length(a, {}, {}), 0u);
  EXPECT_EQ(ct::lcss_length({}, a, {}), 0u);
}

TEST(Lcss, DistantSequencesZero) {
  const auto a = straight_line(20, 0.5);
  const auto b = straight_line(20, 0.5, {100, 100});
  EXPECT_EQ(ct::lcss_length(a, b, {}), 0u);
}

TEST(Lcss, EpsilonControlsTolerance) {
  const auto a = straight_line(20, 0.5);
  auto b = a;
  for (auto& p : b) p.y += 1.0;  // offset by 1 m
  ct::LcssParams tight;
  tight.epsilon = 0.5;
  ct::LcssParams loose;
  loose.epsilon = 1.5;
  EXPECT_EQ(ct::lcss_length(a, b, tight), 0u);
  EXPECT_EQ(ct::lcss_length(a, b, loose), 20u);
}

TEST(Lcss, DeltaWindowLimitsIndexSkew) {
  const auto a = straight_line(30, 0.5);
  // b equals a but its indices are shifted by 12 (prefix removed).
  std::vector<Vec2> b(a.begin() + 12, a.end());
  ct::LcssParams params;
  params.delta = 4;
  // Without index alignment, matching points sit 12 indices apart -> the
  // delta window blocks most of them.
  const auto raw = ct::lcss_length(a, b, params, 0);
  // With the offset correcting the skew, everything matches.
  const auto aligned = ct::lcss_length(a, b, params, 12);
  EXPECT_EQ(aligned, 18u);
  EXPECT_LT(raw, aligned);
}

TEST(Lcss, SubsetRelation) {
  // LCSS(a, b) <= min(|a|, |b|).
  cc::Rng rng(111);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> a;
    std::vector<Vec2> b;
    for (int i = 0; i < 15; ++i) {
      a.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
      b.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
    }
    const auto len = ct::lcss_length(a, b, {});
    EXPECT_LE(len, 15u);
  }
}

TEST(SimilarityS3, TransformCandidatesMaximize) {
  const auto a = straight_line(20, 0.5);
  // b is a rotated/translated copy of a.
  const crowdmap::geometry::Pose2 t{{3, -2}, 0.8};
  std::vector<Vec2> b;
  for (const auto p : a) b.push_back(t.inverse().apply(p));
  // Candidate 1 is wrong, candidate 2 is the truth.
  std::vector<ct::TransformCandidate> candidates;
  candidates.push_back({crowdmap::geometry::Pose2{{50, 50}, 0.0}, 0});
  candidates.push_back({t, 0});
  const double s3 = ct::similarity_s3(a, b, candidates, {});
  EXPECT_NEAR(s3, 1.0, 1e-9);
  EXPECT_EQ(ct::similarity_s3(a, b, {}, {}), 0.0);
}

TEST(Resample, UniformSpacing) {
  const auto line = straight_line(3, 5.0);  // 0, 5, 10
  const auto resampled = ct::resample_polyline(line, 1.0);
  ASSERT_GE(resampled.size(), 10u);
  for (std::size_t i = 1; i < resampled.size() - 1; ++i) {
    EXPECT_NEAR(resampled[i].distance_to(resampled[i - 1]), 1.0, 1e-6);
  }
}

TEST(Resample, KeepsEndpoint) {
  const auto line = straight_line(2, 3.3);
  const auto resampled = ct::resample_polyline(line, 1.0);
  EXPECT_LT(resampled.back().distance_to(line.back()), 0.5);
}

TEST(Resample, DegenerateInputs) {
  EXPECT_TRUE(ct::resample_polyline({}, 1.0).empty());
  EXPECT_TRUE(ct::resample_polyline(straight_line(5, 1.0), 0.0).empty());
}

// ------------------------------------------------------------ extraction ---

namespace {

cs::SensorRichVideo make_walk_video(std::uint64_t seed = 121) {
  const auto spec = cs::lab1();
  static const auto scene = cs::Scene::from_spec(spec, 120);
  cs::SimOptions options;
  options.fps = 3.0;
  cs::UserSimulator user(scene, spec, options, cc::Rng(seed));
  return user.hallway_walk_between({2, 0}, {20, 0}, cs::Lighting::day());
}

/// The serialized trajectory followed by every key frame's raw gray floats
/// (encode_trajectory quantizes the pixels).
std::string fingerprint(const ct::Trajectory& traj) {
  const auto bytes = ct::encode_trajectory(traj);
  std::string out(bytes.begin(), bytes.end());
  for (const auto& kf : traj.keyframes) {
    const auto& pixels = kf.gray.data();
    out.append(reinterpret_cast<const char*>(pixels.data()),
               pixels.size() * sizeof(float));
  }
  return out;
}

}  // namespace

TEST(Extraction, ProducesKeyframesWithDescriptors) {
  const auto video = make_walk_video();
  const auto traj = ct::extract_trajectory(video);
  EXPECT_GT(traj.keyframes.size(), 5u);
  EXPECT_FALSE(traj.points.empty());
  for (const auto& kf : traj.keyframes) {
    EXPECT_FALSE(kf.cheap.color_hist.empty());
    EXPECT_FALSE(kf.gray.empty());
  }
}

TEST(Extraction, RespectsKeyframeBudget) {
  const auto video = make_walk_video(122);
  ct::ExtractionConfig config;
  config.max_keyframes = 0;  // no budget
  const auto unbounded = ct::extract_trajectory(video, config);
  ASSERT_GT(unbounded.keyframes.size(), 6u);
  for (const std::size_t budget : {std::size_t{1}, std::size_t{6}}) {
    config.max_keyframes = budget;
    const auto traj = ct::extract_trajectory(video, config);
    EXPECT_LE(traj.keyframes.size(), budget);
    if (budget == 1) {
      // A budget of one keeps exactly the first selected frame.
      ASSERT_EQ(traj.keyframes.size(), 1u);
      EXPECT_EQ(traj.keyframes[0].frame_index,
                unbounded.keyframes[0].frame_index);
    }
  }
}

TEST(Extraction, PoolSizeDoesNotChangeTheTrajectory) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 127);
  cs::SimOptions options;
  options.fps = 3.0;
  cs::UserSimulator user(scene, spec, options, cc::Rng(127));
  std::vector<cs::SensorRichVideo> videos;
  videos.push_back(user.hallway_walk_between({2, 0}, {20, 0}, cs::Lighting::day()));
  videos.push_back(
      user.hallway_walk_between({20, 0}, {2, 0}, cs::Lighting::night()));
  videos.push_back(user.room_visit(spec.rooms[0], 4.0, cs::Lighting::day()));
  // Every third frame washed out to a flat field, as a hard motion blur
  // leaves it: the unqualified-data gate must drop those.
  auto blurred = user.hallway_walk_between({2, 0}, {20, 0}, cs::Lighting::day());
  for (std::size_t i = 0; i < blurred.frames.size(); i += 3) {
    auto& image = blurred.frames[i].image;
    image = crowdmap::imaging::ColorImage(image.width(), image.height(),
                                          {0.5f, 0.5f, 0.5f});
  }
  videos.push_back(std::move(blurred));

  cc::ThreadPool one(1);
  cc::ThreadPool four(4);
  for (std::size_t v = 0; v < videos.size(); ++v) {
    const auto& video = videos[v];
    const auto serial = ct::extract_trajectory(video);
    ASSERT_GT(serial.keyframes.size(), 1u) << "video " << v;
    if (v == 3) {
      for (const auto& kf : serial.keyframes) EXPECT_NE(kf.frame_index % 3, 0u);
    }
    const std::string expected = fingerprint(serial);
    EXPECT_TRUE(fingerprint(ct::extract_trajectory(video, {}, &one)) == expected)
        << "1-worker pool, video " << v;
    EXPECT_TRUE(fingerprint(ct::extract_trajectory(video, {}, &four)) ==
                expected)
        << "4-worker pool, video " << v;
    // The pool's only worker runs the extraction itself, so no helper can
    // start: the calling task drains both loops alone.
    auto saturated =
        one.submit([&video, &one] { return ct::extract_trajectory(video, {}, &one); });
    EXPECT_TRUE(fingerprint(saturated.get()) == expected)
        << "saturated pool, video " << v;
  }
}

TEST(Extraction, KeyframeTimesMonotone) {
  const auto traj = ct::extract_trajectory(make_walk_video(123));
  for (std::size_t i = 1; i < traj.keyframes.size(); ++i) {
    EXPECT_GT(traj.keyframes[i].t, traj.keyframes[i - 1].t);
  }
}

TEST(Extraction, DeadReckonedEndpointNearTruthDirection) {
  const auto video = make_walk_video(124);
  const auto traj = ct::extract_trajectory(video);
  // The walk is 18 m along +x; dead reckoning should recover the bulk of it
  // in roughly the right direction (local frame starts at compass heading).
  const Vec2 end = traj.points.back().position;
  EXPECT_GT(end.norm(), 10.0);
  EXPECT_LT(end.norm(), 26.0);
}

TEST(Extraction, MetadataCarriedThrough) {
  auto video = make_walk_video(125);
  video.user_id = 9;
  video.true_room_id = 42;
  const auto traj = ct::extract_trajectory(video);
  EXPECT_EQ(traj.user_id, 9);
  EXPECT_EQ(traj.true_room_id, 42);
  EXPECT_EQ(traj.building, "Lab1");
}

TEST(Extraction, KeyframeRatioHelper) {
  const auto video = make_walk_video(126);
  const auto traj = ct::extract_trajectory(video);
  const double ratio = ct::keyframe_ratio(traj, video.frames.size());
  EXPECT_GT(ratio, 0.0);
  EXPECT_LE(ratio, 1.0);
  EXPECT_EQ(ct::keyframe_ratio(traj, 0), 0.0);
}

TEST(TrackAt, InterpolatesBetweenPoints) {
  std::vector<crowdmap::sensors::TrackPoint> track;
  track.push_back({{0, 0}, 0.0, 0.0});
  track.push_back({{10, 0}, 10.0, 0.0});
  const auto mid = ct::track_at(track, 5.0);
  EXPECT_NEAR(mid.position.x, 5.0, 1e-9);
  // Clamps outside the range.
  EXPECT_NEAR(ct::track_at(track, -5.0).position.x, 0.0, 1e-9);
  EXPECT_NEAR(ct::track_at(track, 50.0).position.x, 10.0, 1e-9);
}
