// Tests for the Wi-Fi propagation substrate and the Walkie-Markie-style
// baseline.
#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "trajectory/aggregate.hpp"
#include "sim/buildings.hpp"
#include "sim/scene.hpp"
#include "wifi/model.hpp"
#include "wifi/walkie_markie.hpp"

namespace cw = crowdmap::wifi;
namespace cs = crowdmap::sim;
namespace cc = crowdmap::common;
using crowdmap::geometry::Vec2;

namespace {

cw::WifiModel lab_model(int n_aps = 6, std::uint64_t seed = 0x31F1) {
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, seed);
  std::vector<crowdmap::geometry::Segment> walls;
  for (const auto& wall : scene.walls()) walls.push_back(wall.seg);
  return cw::WifiModel(cw::place_access_points(spec, n_aps, seed),
                       std::move(walls), {}, seed);
}

}  // namespace

TEST(WifiModel, ApPlacementOnHallways) {
  const auto spec = cs::lab1();
  const auto aps = cw::place_access_points(spec, 6, 1);
  ASSERT_EQ(aps.size(), 6u);
  for (const auto& ap : aps) {
    EXPECT_TRUE(spec.in_hallway(ap.position)) << ap.id;
  }
}

TEST(WifiModel, RssiDecaysWithDistance) {
  const auto model = lab_model();
  const auto& ap = model.access_points().front();
  cc::Rng rng(2);
  double near = 0.0;
  double far = 0.0;
  for (int k = 0; k < 50; ++k) {
    near += model.rssi(ap, ap.position + Vec2{1, 0}, rng);
    far += model.rssi(ap, ap.position + Vec2{15, 0}, rng);
  }
  EXPECT_GT(near / 50, far / 50 + 10.0);
}

TEST(WifiModel, SensitivityFloor) {
  const auto model = lab_model();
  const auto& ap = model.access_points().front();
  cc::Rng rng(3);
  const double level = model.rssi(ap, ap.position + Vec2{500, 500}, rng);
  EXPECT_EQ(level, model.params().sensitivity_dbm);
}

TEST(WifiModel, ShadowingIsPositionStable) {
  const auto model = lab_model();
  const auto& ap = model.access_points().front();
  const Vec2 p = ap.position + Vec2{5, 0};
  // Average out measurement noise at one position twice: the stable
  // component (path loss + shadowing) must agree.
  auto mean_at = [&](std::uint64_t seed) {
    cc::Rng rng(seed);
    double acc = 0.0;
    for (int k = 0; k < 200; ++k) acc += model.rssi(ap, p, rng);
    return acc / 200;
  };
  EXPECT_NEAR(mean_at(4), mean_at(5), 1.0);
}

TEST(WifiModel, ScanCoversAllAps) {
  const auto model = lab_model(5);
  cc::Rng rng(6);
  EXPECT_EQ(model.scan({10, 0}, rng).size(), 5u);
}

TEST(WalkieMarkie, MarksAtClosestApproach) {
  const auto model = lab_model(6, 0x31F1);
  const auto pool = crowdmap::bench::make_walk_pool(cs::lab1(), 2, 0.0, 0x31F2);
  cc::Rng rng(7);
  for (const auto& traj : pool) {
    const auto marks = cw::detect_marks(traj, model, rng);
    for (const auto& mark : marks) {
      // The marked key-frame's true position is close to the AP — closer
      // than the trajectory's endpoints are.
      const auto& ap = model.access_points()[static_cast<std::size_t>(mark.ap_id)];
      const double at_mark =
          traj.keyframes[mark.keyframe_index].true_position.distance_to(ap.position);
      const double at_start =
          traj.keyframes.front().true_position.distance_to(ap.position);
      const double at_end =
          traj.keyframes.back().true_position.distance_to(ap.position);
      EXPECT_LT(at_mark, std::max(at_start, at_end) + 1.0);
    }
  }
}

TEST(WalkieMarkie, AggregatesOverlappingWalks) {
  const auto model = lab_model(8, 0x31F1);
  const auto pool = crowdmap::bench::make_walk_pool(cs::lab1(), 10, 0.0, 0x31F3);
  cc::Rng rng(8);
  const auto result = cw::aggregate_by_wifi_marks(pool, model, {}, rng);
  // Wi-Fi marks are coarse but should still connect a fair share.
  EXPECT_GE(result.placed_count, pool.size() / 2);
}

TEST(WalkieMarkie, CoarserThanVisualAnchors) {
  // The motivating comparison: placement error via Wi-Fi marks should be
  // clearly worse than via CrowdMap's visual key-frame anchors on the same
  // pool.
  const auto model = lab_model(8, 0x31F1);
  const auto pool = crowdmap::bench::make_walk_pool(cs::lab1(), 10, 0.0, 0x31F4);
  cc::Rng rng(9);
  const auto wifi = cw::aggregate_by_wifi_marks(pool, model, {}, rng);
  const auto visual = crowdmap::trajectory::aggregate_trajectories(pool, {});

  auto mean_error = [&](const crowdmap::trajectory::AggregationResult& result) {
    const auto align = crowdmap::floorplan::align_to_truth(pool, result);
    if (!align) return 1e9;
    double err = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!result.global_pose[i]) continue;
      for (const auto& kf : pool[i].keyframes) {
        err += align->apply(result.global_pose[i]->apply(kf.position))
                   .distance_to(kf.true_position);
        ++n;
      }
    }
    return n ? err / n : 1e9;
  };
  EXPECT_LT(mean_error(visual), mean_error(wifi));
}
