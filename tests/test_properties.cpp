// Parameterized property sweeps (TEST_P) over the system's core invariants:
// geometry, LCSS, SURF matching, dead reckoning, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/v2.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "geometry/polygon.hpp"
#include "floorplan/serialize.hpp"
#include "sensors/serialize.hpp"
#include "room/layout.hpp"
#include "sensors/dead_reckoning.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "trajectory/lcss.hpp"
#include "vision/matcher.hpp"
#include "vision/surf.hpp"

namespace cg = crowdmap::geometry;
namespace cc = crowdmap::common;
using cg::Vec2;

// ---------------------------------------------- polygon clipping algebra ---

class PolygonClipProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolygonClipProperty, IntersectionIsCommutativeAndBounded) {
  cc::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = cg::Polygon::oriented_rectangle(
        {rng.uniform(-5, 5), rng.uniform(-5, 5)}, rng.uniform(1, 6),
        rng.uniform(1, 6), rng.uniform(0, 3));
    const auto b = cg::Polygon::oriented_rectangle(
        {rng.uniform(-5, 5), rng.uniform(-5, 5)}, rng.uniform(1, 6),
        rng.uniform(1, 6), rng.uniform(0, 3));
    const double ab = cg::clip_convex(a, b).area();
    const double ba = cg::clip_convex(b, a).area();
    EXPECT_NEAR(ab, ba, 1e-6);
    EXPECT_LE(ab, std::min(a.area(), b.area()) + 1e-6);
    EXPECT_GE(ab, -1e-12);
  }
}

TEST_P(PolygonClipProperty, SelfIntersectionIsIdentity) {
  cc::Rng rng(GetParam() ^ 0xABCD);
  const auto a = cg::Polygon::oriented_rectangle(
      {rng.uniform(-5, 5), rng.uniform(-5, 5)}, rng.uniform(1, 6),
      rng.uniform(1, 6), rng.uniform(0, 3));
  EXPECT_NEAR(cg::clip_convex(a, a).area(), a.area(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolygonClipProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ------------------------------------------------------- LCSS invariants ---

class LcssProperty : public ::testing::TestWithParam<double> {};

TEST_P(LcssProperty, RigidMotionInvariantUnderMatchingTransform) {
  // LCSS(a, T(a)) under candidate transform T recovers the full length for
  // any rigid T — the property S3's translation search relies on.
  const double angle = GetParam();
  cc::Rng rng(99);
  std::vector<Vec2> a;
  for (int i = 0; i < 25; ++i) {
    a.push_back({i * 0.5, rng.normal(0.0, 0.3)});
  }
  const cg::Pose2 t{{rng.uniform(-8, 8), rng.uniform(-8, 8)}, angle};
  std::vector<Vec2> b;
  for (const auto p : a) b.push_back(t.inverse().apply(p));
  const double s3 =
      crowdmap::trajectory::similarity_s3(a, b, {{t, 0}}, {});
  EXPECT_NEAR(s3, 1.0, 1e-9) << "angle " << angle;
}

TEST_P(LcssProperty, MonotoneInEpsilon) {
  const double angle = GetParam();
  cc::Rng rng(101);
  std::vector<Vec2> a;
  std::vector<Vec2> b;
  for (int i = 0; i < 30; ++i) {
    const Vec2 p{i * 0.4, 0.0};
    a.push_back(p);
    b.push_back(p.rotated(angle * 0.02) + Vec2{rng.normal(0, 0.3), rng.normal(0, 0.3)});
  }
  std::size_t prev = 0;
  for (const double eps : {0.2, 0.5, 1.0, 2.0, 4.0}) {
    crowdmap::trajectory::LcssParams params;
    params.epsilon = eps;
    const auto len = crowdmap::trajectory::lcss_length(a, b, params);
    EXPECT_GE(len, prev);
    prev = len;
  }
}

INSTANTIATE_TEST_SUITE_P(Angles, LcssProperty,
                         ::testing::Values(-2.0, -0.5, 0.0, 0.9, 2.7));

// ------------------------------------------ SURF translation equivariance ---

class SurfShiftProperty : public ::testing::TestWithParam<int> {};

TEST_P(SurfShiftProperty, MatchesRecoverShift) {
  const int shift = GetParam();
  cc::Rng rng(7);
  crowdmap::imaging::Image img(160, 120, 0.5f);
  for (int blob = 0; blob < 30; ++blob) {
    const int bx = rng.uniform_int(20, 139);
    const int by = rng.uniform_int(20, 99);
    const float v = rng.chance(0.5) ? 0.9f : 0.1f;
    for (int dy = -3; dy <= 3; ++dy) {
      for (int dx = -3; dx <= 3; ++dx) {
        if (dx * dx + dy * dy <= 9) img.at(bx + dx, by + dy) = v;
      }
    }
  }
  crowdmap::imaging::Image shifted(160, 120, 0.5f);
  for (int y = 0; y < 120; ++y) {
    for (int x = 0; x < 160; ++x) shifted.at(x, y) = img.at_clamped(x + shift, y);
  }
  const auto f1 = crowdmap::vision::detect_and_describe(img);
  const auto f2 = crowdmap::vision::detect_and_describe(shifted);
  const auto matches = crowdmap::vision::mutual_nn_matches(f1, f2, 0.4, 0.8);
  ASSERT_GT(matches.size(), 4u) << "shift " << shift;
  int consistent = 0;
  for (const auto& m : matches) {
    const double dx = f1[m.index1].keypoint.x - f2[m.index2].keypoint.x;
    if (std::abs(dx - shift) < 3.0) ++consistent;
  }
  EXPECT_GT(static_cast<double>(consistent) / matches.size(), 0.6)
      << "shift " << shift;
}

INSTANTIATE_TEST_SUITE_P(Shifts, SurfShiftProperty,
                         ::testing::Values(2, 5, 9, 14));

// -------------------------------------------- dead reckoning equivariance ---

class DeadReckoningProperty : public ::testing::TestWithParam<double> {};

TEST_P(DeadReckoningProperty, HeadingRotatesTrackRigidly) {
  const double heading = GetParam();
  auto make_stream = [](double h) {
    crowdmap::sensors::ImuStream stream;
    for (double t = 0.0; t < 8.0; t += 0.01) {
      crowdmap::sensors::ImuSample s;
      s.t = t;
      s.accel_magnitude = 9.81 + 3.5 * std::sin(2 * cc::kPi * 1.8 * t);
      s.gyro_z = 0.0;
      s.compass = h;
      stream.samples.push_back(s);
    }
    return stream;
  };
  const auto base = crowdmap::sensors::dead_reckon(make_stream(0.0));
  const auto rotated = crowdmap::sensors::dead_reckon(make_stream(heading));
  ASSERT_EQ(base.size(), rotated.size());
  // Endpoints related by the rotation.
  const Vec2 expected = base.back().position.rotated(heading);
  EXPECT_NEAR(rotated.back().position.x, expected.x, 1e-6);
  EXPECT_NEAR(rotated.back().position.y, expected.y, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Headings, DeadReckoningProperty,
                         ::testing::Values(0.5, 1.57, -2.2, 3.1));

// --------------------------------------- rect distance closes the polygon ---

class RectDistanceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RectDistanceProperty, PerimeterIntegralMatchesArea) {
  // Shoelace over the ray-cast boundary recovers the rectangle's area: the
  // distance function describes a closed, correct boundary.
  cc::Rng rng(GetParam());
  crowdmap::room::LayoutHypothesis hyp;
  hyp.width = rng.uniform(2, 10);
  hyp.depth = rng.uniform(2, 10);
  hyp.orientation = rng.uniform(0, cc::kPi / 2);
  hyp.camera_offset = {hyp.width * rng.uniform(-0.3, 0.3),
                       hyp.depth * rng.uniform(-0.3, 0.3)};
  const int n = 2048;
  double area2 = 0.0;
  Vec2 prev;
  Vec2 first;
  for (int i = 0; i <= n; ++i) {
    const double angle = i * cc::kTwoPi / n;
    const double d = crowdmap::room::rect_boundary_distance(hyp, angle);
    // Boundary point relative to the camera, then to the room center.
    const Vec2 p = Vec2::from_angle(angle) * d;
    if (i == 0) {
      first = p;
    } else {
      area2 += prev.cross(p);
    }
    prev = p;
  }
  area2 += prev.cross(first);
  EXPECT_NEAR(std::abs(area2) / 2.0, hyp.width * hyp.depth,
              hyp.width * hyp.depth * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectDistanceProperty,
                         ::testing::Values(3u, 5u, 8u, 13u, 21u));

// ----------------------------------------------- serialization round trip ---

class SerializationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializationProperty, ImuRoundTripExact) {
  cc::Rng rng(GetParam());
  crowdmap::sensors::ImuStream stream;
  stream.sample_rate_hz = rng.uniform(50, 200);
  const int n = rng.uniform_int(0, 500);
  for (int i = 0; i < n; ++i) {
    stream.samples.push_back({rng.uniform(0, 100), rng.normal(9.81, 3),
                              rng.normal(0, 1), rng.uniform(-3.14, 3.14)});
  }
  const auto decoded = crowdmap::sensors::decode_imu(crowdmap::sensors::encode_imu(stream));
  ASSERT_EQ(decoded.samples.size(), stream.samples.size());
  for (std::size_t i = 0; i < decoded.samples.size(); ++i) {
    EXPECT_EQ(decoded.samples[i].t, stream.samples[i].t);
    EXPECT_EQ(decoded.samples[i].accel_magnitude,
              stream.samples[i].accel_magnitude);
    EXPECT_EQ(decoded.samples[i].gyro_z, stream.samples[i].gyro_z);
    EXPECT_EQ(decoded.samples[i].compass, stream.samples[i].compass);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ------------------------------------- incremental upload-order invariance ---

TEST(IncrementalProperty, AnyUploadInterleavingMatchesTheBatchBuild) {
  // Property: for any permutation of the campaign, and with build_plan calls
  // interleaved at arbitrary points between submissions, the final plan is
  // byte-identical to the batch build (all uploads, one build). Seeded
  // Fisher-Yates permutations keep the sweep reproducible.
  namespace ap = crowdmap::api;
  namespace cs = crowdmap::sim;
  namespace co = crowdmap::core;

  cc::Rng campaign_rng(0xF1A7);
  const auto spec = cs::random_building(2, campaign_rng);
  cs::CampaignOptions options;
  options.users = 2;
  options.room_videos_per_room = 1;
  options.hallway_walks = 4;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;
  std::vector<cs::SensorRichVideo> videos;
  cs::generate_campaign_streaming(spec, options, 0xF1A7,
                                  [&videos](cs::SensorRichVideo&& video) {
                                    videos.push_back(std::move(video));
                                  });
  ASSERT_GE(videos.size(), 3u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  const auto build_bytes = [&](ap::Client& client) {
    const auto response = client.build_plan({building, floor, std::nullopt, {}});
    const auto bytes = crowdmap::floorplan::encode_floorplan(response.result.plan);
    return std::string(bytes.begin(), bytes.end());
  };
  const auto fresh_client = [] {
    ap::ClientOptions client_options;
    client_options.config = co::PipelineConfig::fast_profile();
    return ap::Client(std::move(client_options));
  };

  auto batch = fresh_client();
  for (const auto& video : videos) {
    ASSERT_TRUE(batch.submit_video(video).status.ok());
  }
  const std::string reference = build_bytes(batch);
  ASSERT_FALSE(reference.empty());

  for (const std::uint64_t perm_seed : {11u, 23u}) {
    cc::Rng rng(perm_seed);
    std::vector<std::size_t> order(videos.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }

    auto client = fresh_client();
    for (const auto index : order) {
      ASSERT_TRUE(client.submit_video(videos[index]).status.ok());
      // Sometimes build mid-stream: partial builds must not perturb the
      // final plan (their artifacts are either reused or invalidated).
      if (rng.uniform_int(0, 2) == 0) (void)build_bytes(client);
    }
    EXPECT_EQ(build_bytes(client), reference) << "permutation " << perm_seed;
  }
}
