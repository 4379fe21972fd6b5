// Parallel hot-path speedups: pairwise aggregation fan-out, sharded layout
// scoring and one upload's extraction, at 1 / 2 / 4 threads.
//
// Emits BENCH_parallel.json lines: per-stage wall-clock at each thread count,
// the threads=4 vs threads=1 speedup ratios, and the host's core count (a speedup can only materialize when the hardware has
// cores to spend — single-core CI runners will report ~1x by construction).
#include <cstddef>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "room/layout.hpp"
#include "room/panorama_select.hpp"
#include "trajectory/aggregate.hpp"
#include "trajectory/trajectory.hpp"
#include "vision/panorama.hpp"

namespace {

constexpr const char* kBench = "parallel";
constexpr int kRepeats = 3;

// threads counts the calling thread; the pool supplies the rest.
crowdmap::common::ThreadPool* pool_for(
    std::size_t threads, std::unique_ptr<crowdmap::common::ThreadPool>& owner) {
  if (threads <= 1) return nullptr;
  owner = std::make_unique<crowdmap::common::ThreadPool>(threads - 1);
  return owner.get();
}

}  // namespace

int main() {
  using namespace crowdmap;

  const std::size_t cores = std::thread::hardware_concurrency();
  bench::emit_bench_scalar(kBench, "hardware_concurrency",
                           static_cast<double>(cores));

  const auto spec = sim::lab1();
  std::cout << "# generating 14 trajectories...\n";
  const auto walk_pool = bench::make_walk_pool(spec, 14, 0.2, 0xA11);

  // ---- Pairwise aggregation fan-out.
  common::Stopwatch timer;
  std::vector<double> agg_means;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::unique_ptr<common::ThreadPool> owner;
    trajectory::AggregationRuntime runtime;
    runtime.pool = pool_for(threads, owner);
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r) {
      timer.restart();
      (void)trajectory::aggregate_trajectories(walk_pool, {}, runtime);
      samples.push_back(timer.elapsed_seconds());
    }
    bench::emit_bench_json(kBench,
                           "aggregate_threads" + std::to_string(threads),
                           samples);
    agg_means.push_back(common::summarize(samples).mean);
  }
  bench::emit_bench_scalar(kBench, "aggregate_speedup_t4",
                           agg_means.front() / agg_means.back());

  // ---- Sharded hypothesis scoring.
  const auto scene = sim::Scene::from_spec(spec, 0xA12);
  sim::CameraIntrinsics intr;
  common::Rng rng(0xA12);
  std::vector<vision::PanoFrame> frames;
  for (int i = 0; i < 16; ++i) {
    const double heading = i * common::kTwoPi / 16;
    vision::PanoFrame frame;
    frame.image =
        scene.render({spec.rooms[0].center, heading}, intr, sim::Lighting::day(), rng)
            .to_gray();
    frame.heading = heading;
    frames.push_back(std::move(frame));
  }
  vision::StitchParams sp;
  sp.output_width = 512;
  sp.output_height = 128;
  const auto pano = vision::stitch_panorama(std::move(frames), sp);

  room::LayoutConfig layout_config;
  layout_config.hypotheses = 20000;  // the paper's full sweep
  layout_config.focal_px = room::panorama_focal_px(intr.width, intr.height, sp);

  std::vector<double> layout_means;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::unique_ptr<common::ThreadPool> owner;
    common::ThreadPool* pool = pool_for(threads, owner);
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r) {
      timer.restart();
      (void)room::estimate_layout(pano.image, layout_config, pool);
      samples.push_back(timer.elapsed_seconds());
    }
    bench::emit_bench_json(kBench, "layout_threads" + std::to_string(threads),
                           samples);
    layout_means.push_back(common::summarize(samples).mean);
  }
  bench::emit_bench_scalar(kBench, "layout_speedup_t4",
                           layout_means.front() / layout_means.back());

  // ---- One upload's extraction: per-frame probes and per-key-frame
  // descriptors fan out on the pool (the arrival path of a warm refresh).
  sim::UserSimulator user(scene, spec, {}, common::Rng(0xA13));
  const auto upload = user.hallway_walk(sim::Lighting::day());
  std::vector<double> extract_means;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::unique_ptr<common::ThreadPool> owner;
    common::ThreadPool* pool = pool_for(threads, owner);
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r) {
      timer.restart();
      (void)trajectory::extract_trajectory(upload, {}, pool);
      samples.push_back(timer.elapsed_seconds());
    }
    bench::emit_bench_json(kBench, "extract_threads" + std::to_string(threads),
                           samples);
    extract_means.push_back(common::summarize(samples).mean);
  }
  bench::emit_bench_scalar(kBench, "extract_speedup_t4",
                           extract_means.front() / extract_means.back());
  return 0;
}
