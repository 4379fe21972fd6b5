// Tests for the parallel execution layer: parallel_for semantics (coverage,
// nesting, exceptions), task groups sharing one pool (isolation, teardown,
// observers), the bounded S2 memo cache, and the headline guarantee — the
// pipeline produces bit-identical results at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/mathutil.hpp"
#include "common/memo_cache.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "room/layout.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "sim/user_sim.hpp"
#include "trajectory/aggregate.hpp"
#include "trajectory/matching.hpp"
#include "vision/panorama.hpp"

namespace cc = crowdmap::common;
namespace co = crowdmap::core;
namespace cr = crowdmap::room;
namespace cs = crowdmap::sim;
namespace ct = crowdmap::trajectory;

// ------------------------------------------------------------ parallel_for ---

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  cc::ThreadPool pool(3);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  cc::parallel_for(&pool, n, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, NullPoolRunsSerially) {
  std::size_t sum = 0;
  cc::parallel_for(nullptr, 100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ParallelFor, GrainCoversTail) {
  cc::ThreadPool pool(2);
  const std::size_t n = 1003;  // not a multiple of the grain
  std::vector<std::atomic<int>> visits(n);
  cc::parallel_for(
      &pool, n,
      [&](std::size_t i) { visits[i].fetch_add(1, std::memory_order_relaxed); },
      64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  cc::ThreadPool pool(2);
  cc::parallel_for(&pool, 0, [&](std::size_t) { FAIL(); });
}

TEST(ParallelFor, NestingOnASharedPoolCompletes) {
  // Every outer iteration runs its own inner parallel_for on the SAME pool.
  // With future-joining fan-out this deadlocks once all workers block in
  // outer iterations; caller participation guarantees progress.
  cc::ThreadPool pool(3);
  const std::size_t outer = 8;
  const std::size_t inner = 200;
  std::atomic<std::size_t> total{0};
  cc::parallel_for(&pool, outer, [&](std::size_t) {
    cc::parallel_for(&pool, inner, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), outer * inner);
}

TEST(ParallelFor, FirstExceptionPropagates) {
  cc::ThreadPool pool(2);
  EXPECT_THROW(
      cc::parallel_for(&pool, 1000,
                       [&](std::size_t i) {
                         if (i == 137) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives and stays usable.
  auto future = pool.submit([] { return 42; });
  EXPECT_EQ(future.get(), 42);
}

// -------------------------------------------------------------- TaskGroup ---

TEST(TaskGroup, WaitDrainsQueue) {
  cc::ThreadPool pool(2);
  cc::TaskGroup group(pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    group.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  group.wait();
  EXPECT_EQ(done.load(), 16);
  EXPECT_EQ(group.pending(), 0u);
}

TEST(TaskGroup, QueueObserverMayCallBackIntoTheGroup) {
  // The observer fires outside the group lock, so calling pending() (which
  // takes that lock) from inside it must not deadlock.
  cc::ThreadPool pool(2);
  cc::TaskGroup group(pool);
  std::atomic<std::size_t> observed{0};
  group.set_queue_observer([&group, &observed](std::size_t) {
    observed.fetch_add(group.pending() + 1, std::memory_order_relaxed);
  });
  for (int i = 0; i < 64; ++i) group.submit([] {});
  group.wait();
  EXPECT_GE(observed.load(), 64u);
}

TEST(TaskGroup, TaskObserverSeesEveryTask) {
  cc::ThreadPool pool(2);
  cc::TaskGroup group(pool);
  std::atomic<int> tasks_observed{0};
  group.set_task_observer([&](double seconds) {
    EXPECT_GE(seconds, 0.0);
    tasks_observed.fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < 20; ++i) group.submit([] {});
  group.wait();
  EXPECT_EQ(tasks_observed.load(), 20);
}

TEST(TaskGroup, WaitIgnoresAnotherGroupsBlockedTask) {
  cc::ThreadPool pool(2);
  cc::TaskGroup blocked(pool);
  cc::TaskGroup quick(pool);
  std::promise<void> started;
  std::promise<void> release;
  std::atomic<bool> released{false};
  blocked.submit([&, gate = release.get_future().share()] {
    started.set_value();
    gate.wait();
    released = true;
  });
  started.get_future().wait();
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) quick.submit([&done] { done.fetch_add(1); });
  quick.wait();  // must not wait for `blocked`'s task
  EXPECT_EQ(done.load(), 8);
  EXPECT_FALSE(released.load());
  EXPECT_EQ(blocked.pending(), 0u);
  release.set_value();
  blocked.wait();
  EXPECT_TRUE(released.load());
}

TEST(TaskGroup, DestructionDropsQueuedTasksAndWaitsForTheRunningOne) {
  cc::ThreadPool pool(1);
  auto group = std::make_unique<cc::TaskGroup>(pool);
  std::promise<void> started;
  std::promise<void> release;
  std::atomic<bool> running_finished{false};
  std::atomic<int> queued_ran{0};
  group->submit([&, gate = release.get_future().share()] {
    started.set_value();
    gate.wait();
    running_finished = true;
  });
  for (int i = 0; i < 4; ++i) group->submit([&queued_ran] { ++queued_ran; });
  started.get_future().wait();
  EXPECT_EQ(group->pending(), 4u);

  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    group.reset();
    destroyed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load()) << "returned while a task was still running";
  release.set_value();
  destroyer.join();
  EXPECT_TRUE(running_finished.load());
  // The pool runs on; the dropped tasks' pool slots find nothing to run.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
  EXPECT_EQ(queued_ran.load(), 0);
}

TEST(TaskGroup, ThrowingTaskNeitherBlocksWaitNorKillsTheWorker) {
  cc::ThreadPool pool(1);
  cc::TaskGroup group(pool);
  std::atomic<int> done{0};
  group.submit([] { throw std::runtime_error("boom"); });
  group.submit([&done] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 1);
  group.submit([&done] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 2);
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(TaskGroup, TaskRunningParallelForOnASaturatedPoolCompletes) {
  // Two workers: one blocked in another group, one running the group task.
  // No worker is free to run that task's parallel_for helpers, so the task
  // drains the loop itself, as a refresh on a node's group does.
  cc::ThreadPool pool(2);
  cc::TaskGroup other(pool);
  cc::TaskGroup group(pool);
  std::promise<void> other_started;
  std::promise<void> release;
  other.submit([&other_started, gate = release.get_future().share()] {
    other_started.set_value();
    gate.wait();
  });
  other_started.get_future().wait();
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  group.submit([&] {
    cc::parallel_for(&pool, n, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  group.wait();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
  release.set_value();
  other.wait();
}

// ------------------------------------------------------- BoundedMemoCache ---

TEST(BoundedMemoCache, HitAndMissCounting) {
  cc::BoundedMemoCache cache(64, 4);
  EXPECT_FALSE(cache.lookup(7).has_value());
  cache.insert(7, 1.5);
  const auto hit = cache.lookup(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BoundedMemoCache, GetOrComputeComputesOnce) {
  cc::BoundedMemoCache cache(64);
  int computed = 0;
  const auto compute = [&] {
    ++computed;
    return 3.25;
  };
  EXPECT_EQ(cache.get_or_compute(42, compute), 3.25);
  EXPECT_EQ(cache.get_or_compute(42, compute), 3.25);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BoundedMemoCache, EvictionBoundsTheFootprint) {
  cc::BoundedMemoCache cache(32, 4);
  for (std::uint64_t k = 0; k < 10000; ++k) cache.insert(k, double(k));
  // FIFO eviction keeps each shard at its slice of the capacity.
  EXPECT_LE(cache.size(), cache.capacity() + 4);  // ceil rounding per shard
  // Recently inserted keys are still present.
  EXPECT_TRUE(cache.lookup(9999).has_value());
}

TEST(BoundedMemoCache, ConcurrentMixedTraffic) {
  cc::BoundedMemoCache cache(256, 8);
  cc::ThreadPool pool(3);
  cc::parallel_for(&pool, 4000, [&](std::size_t i) {
    const std::uint64_t key = i % 97;
    const double value = cache.get_or_compute(key, [&] { return double(key) * 2; });
    EXPECT_EQ(value, double(key) * 2);
  });
  EXPECT_EQ(cache.hits() + cache.misses(), 4000u);
  EXPECT_LE(cache.size(), cache.capacity() + 8);
}

// -------------------------------------------------------- S2 cache scores ---

namespace {

std::vector<ct::Trajectory> campaign_trajectories(int rooms, std::uint64_t seed) {
  cc::Rng rng(seed);
  const auto spec = cs::random_building(rooms, rng);
  cs::CampaignOptions options;
  options.users = 3;
  options.room_videos_per_room = 1;
  options.hallway_walks = 8;
  options.junk_fraction = 0.0;
  options.night_fraction = 0.2;
  options.sim.fps = 3.0;
  std::vector<ct::Trajectory> out;
  cs::generate_campaign_streaming(spec, options, seed,
                                  [&out](cs::SensorRichVideo&& video) {
                                    out.push_back(ct::extract_trajectory(video));
                                  });
  return out;
}

}  // namespace

TEST(S2Cache, CachedScoresAreBitIdentical) {
  const auto trajectories = campaign_trajectories(3, 611);
  ASSERT_TRUE(ct::s2_cache_usable(trajectories));
  const ct::MatchConfig config;
  cc::BoundedMemoCache cache(1 << 12);

  bool compared_any = false;
  for (std::size_t a = 0; a < trajectories.size(); ++a) {
    for (std::size_t b = a + 1; b < trajectories.size(); ++b) {
      const auto plain =
          ct::find_anchors(trajectories[a], trajectories[b], config, nullptr);
      const auto cached =
          ct::find_anchors(trajectories[a], trajectories[b], config, &cache);
      ASSERT_EQ(plain.size(), cached.size());
      for (std::size_t k = 0; k < plain.size(); ++k) {
        EXPECT_EQ(plain[k].kf_a, cached[k].kf_a);
        EXPECT_EQ(plain[k].kf_b, cached[k].kf_b);
        EXPECT_EQ(plain[k].s1, cached[k].s1);
        EXPECT_EQ(plain[k].s2, cached[k].s2);  // bit-equal, not approximately
        compared_any = true;
      }
    }
  }
  EXPECT_TRUE(compared_any);
  EXPECT_GT(cache.misses(), 0u);

  // A second pass over the same pairs is served from the cache.
  const auto misses_before = cache.misses();
  for (std::size_t a = 0; a < trajectories.size(); ++a) {
    for (std::size_t b = a + 1; b < trajectories.size(); ++b) {
      (void)ct::find_anchors(trajectories[a], trajectories[b], config, &cache);
    }
  }
  EXPECT_EQ(cache.misses(), misses_before);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(S2Cache, DuplicateVideoIdsDisableTheCache) {
  auto trajectories = campaign_trajectories(2, 613);
  ASSERT_GE(trajectories.size(), 2u);
  trajectories[1].video_id = trajectories[0].video_id;
  EXPECT_FALSE(ct::s2_cache_usable(trajectories));
}

TEST(S2Cache, KeyIsCollisionFreeForSmallIdentities) {
  // Real campaigns use tiny video ids and frame indices; the key derivation
  // must not alias distinct identities in that regime. (A raw hash_combine
  // of the small integers did: its (a<<6) term steps by 64 per video_id,
  // which a ~64-frame shift can cancel — e.g. (v12, f79) vs (v13, f14).)
  ct::Trajectory a;
  ct::Trajectory b;
  a.keyframes.resize(1);
  b.keyframes.resize(1);
  const ct::MatchConfig config;
  std::unordered_set<std::uint64_t> keys;
  constexpr int kVideos = 16;
  constexpr std::size_t kFrames = 80;
  keys.reserve(kVideos * kFrames * kVideos * kFrames);
  for (int va = 0; va < kVideos; ++va) {
    a.video_id = va;
    for (std::size_t fa = 0; fa < kFrames; ++fa) {
      a.keyframes[0].frame_index = fa;
      for (int vb = 0; vb < kVideos; ++vb) {
        b.video_id = vb;
        for (std::size_t fb = 0; fb < kFrames; ++fb) {
          b.keyframes[0].frame_index = fb;
          keys.insert(ct::s2_cache_key(a, 0, b, 0, config));
        }
      }
    }
  }
  EXPECT_EQ(keys.size(),
            static_cast<std::size_t>(kVideos) * kFrames * kVideos * kFrames);
}

// -------------------------------------------------- layout shard determinism ---

TEST(LayoutSharding, PoolDoesNotChangeTheLayout) {
  // Render a small room panorama and run the sharded sweep serially and on a
  // pool: the winning layout must match bit for bit.
  cs::FloorPlanSpec spec;
  spec.name = "single";
  spec.feature_density = 0.8;
  cs::RoomSpec room;
  room.id = 1;
  room.center = {0, 0};
  room.width = 5.0;
  room.depth = 4.0;
  room.door = {0, -2.0};
  spec.rooms.push_back(room);
  spec.hallways.push_back(cs::corridor({-8, -3.2}, {8, -3.2}, 2.4));
  const auto scene = cs::Scene::from_spec(spec, 617);

  cs::CameraIntrinsics intr;
  cc::Rng rng(617);
  std::vector<crowdmap::vision::PanoFrame> frames;
  for (int i = 0; i < 16; ++i) {
    const double heading = i * cc::kTwoPi / 16;
    crowdmap::vision::PanoFrame frame;
    frame.image =
        scene.render({{0, 0}, heading}, intr, cs::Lighting::day(), rng).to_gray();
    frame.heading = heading;
    frames.push_back(std::move(frame));
  }
  crowdmap::vision::StitchParams sp;
  sp.output_width = 512;
  sp.output_height = 128;
  const auto pano = crowdmap::vision::stitch_panorama(std::move(frames), sp);

  cr::LayoutConfig config;
  config.hypotheses = 3000;
  const double frame_focal = intr.width / (2.0 * std::tan(sp.fov / 2.0));
  config.focal_px = frame_focal * sp.output_height / intr.height;

  const auto serial = cr::estimate_layout(pano.image, config, nullptr);
  cc::ThreadPool pool(3);
  const auto pooled = cr::estimate_layout(pano.image, config, &pool);
  // The shard count only partitions the scoring work; one shard must pick
  // the same winner as the default sixteen.
  cr::LayoutConfig one_shard = config;
  one_shard.scoring_shards = 1;
  const auto unsharded = cr::estimate_layout(pano.image, one_shard, nullptr);
  ASSERT_EQ(serial.has_value(), pooled.has_value());
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(unsharded.has_value());
  for (const auto* other : {&*pooled, &*unsharded}) {
    EXPECT_EQ(serial->width, other->width);
    EXPECT_EQ(serial->depth, other->depth);
    EXPECT_EQ(serial->orientation, other->orientation);
    EXPECT_EQ(serial->camera_offset.x, other->camera_offset.x);
    EXPECT_EQ(serial->camera_offset.y, other->camera_offset.y);
    EXPECT_EQ(serial->score, other->score);
  }
}

// ----------------------------------------------------- pipeline determinism ---

namespace {

co::PipelineResult run_small_campaign(std::size_t threads) {
  cc::Rng rng(223);
  const auto spec = cs::random_building(4, rng);
  cs::CampaignOptions options;
  options.users = 3;
  options.room_videos_per_room = 1;
  options.hallway_walks = 8;
  options.junk_fraction = 0.0;
  options.night_fraction = 0.2;
  options.sim.fps = 3.0;

  co::PipelineConfig config = co::PipelineConfig::fast_profile();
  config.parallel.threads = threads;
  co::CrowdMapPipeline pipeline(config);
  cs::generate_campaign_streaming(
      spec, options, 223,
      [&pipeline](cs::SensorRichVideo&& video) { pipeline.ingest(video); });
  return pipeline.run();
}

}  // namespace

TEST(PipelineDeterminism, FourThreadsMatchSerialBitForBit) {
  const auto serial = run_small_campaign(1);
  const auto parallel = run_small_campaign(4);

  // Aggregation: identical placement and identical pose graph.
  ASSERT_EQ(serial.aggregation.global_pose.size(),
            parallel.aggregation.global_pose.size());
  for (std::size_t i = 0; i < serial.aggregation.global_pose.size(); ++i) {
    const auto& a = serial.aggregation.global_pose[i];
    const auto& b = parallel.aggregation.global_pose[i];
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) continue;
    EXPECT_EQ(a->position.x, b->position.x);
    EXPECT_EQ(a->position.y, b->position.y);
    EXPECT_EQ(a->theta, b->theta);
  }
  ASSERT_EQ(serial.aggregation.edges.size(), parallel.aggregation.edges.size());
  for (std::size_t e = 0; e < serial.aggregation.edges.size(); ++e) {
    const auto& a = serial.aggregation.edges[e];
    const auto& b = parallel.aggregation.edges[e];
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.s3, b.s3);
    EXPECT_EQ(a.b_to_a.position.x, b.b_to_a.position.x);
    EXPECT_EQ(a.b_to_a.position.y, b.b_to_a.position.y);
    EXPECT_EQ(a.b_to_a.theta, b.b_to_a.theta);
  }

  // Rooms: same rooms, same layouts, bit for bit.
  ASSERT_EQ(serial.rooms.size(), parallel.rooms.size());
  for (std::size_t r = 0; r < serial.rooms.size(); ++r) {
    const auto& a = serial.rooms[r];
    const auto& b = parallel.rooms[r];
    EXPECT_EQ(a.trajectory_index, b.trajectory_index);
    EXPECT_EQ(a.layout.width, b.layout.width);
    EXPECT_EQ(a.layout.depth, b.layout.depth);
    EXPECT_EQ(a.layout.orientation, b.layout.orientation);
    EXPECT_EQ(a.layout.score, b.layout.score);
    EXPECT_EQ(a.center_global.x, b.center_global.x);
    EXPECT_EQ(a.center_global.y, b.center_global.y);
  }

  // Final plan: identical placement after force-directed arrangement.
  ASSERT_EQ(serial.plan.rooms.size(), parallel.plan.rooms.size());
  for (std::size_t r = 0; r < serial.plan.rooms.size(); ++r) {
    const auto& a = serial.plan.rooms[r];
    const auto& b = parallel.plan.rooms[r];
    EXPECT_EQ(a.center.x, b.center.x);
    EXPECT_EQ(a.center.y, b.center.y);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.orientation, b.orientation);
  }

  // Occupancy and skeleton rasters derive from the identical poses.
  EXPECT_EQ(serial.skeleton.raster.count_set(),
            parallel.skeleton.raster.count_set());

  // The serial run had no pool but the same S2 cache semantics: both runs see
  // only misses on their first (and only) aggregation round.
  EXPECT_EQ(serial.diagnostics.s2_cache_hits + serial.diagnostics.s2_cache_misses,
            parallel.diagnostics.s2_cache_hits +
                parallel.diagnostics.s2_cache_misses);
}
