// Cloud-backend robustness overhead: what the fault-injection harness and
// the hardened ingest front door cost when nothing is failing.
//
// Emits BENCH_service.json lines:
//   - should_fire latency, disarmed vs armed-but-muzzled (probability 1,
//     budget 0: the full hash + budget path runs on every call, nothing
//     fires) — the per-interrogation price of the instrumentation,
//   - ingest chunk throughput through the hardened IngestService (checksum
//     validation, duplicate idempotency, logical-clock session sweeping),
//   - end-to-end build_floor_plan latency with faults disarmed vs muzzled,
//     plus their ratio. The acceptance bar for the robustness PR is a ratio
//     of ~1.0: the disabled path must be free (docs/ROBUSTNESS.md).
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cloud/chunking.hpp"
#include "cloud/docstore.hpp"
#include "cloud/ingest.hpp"
#include "common/fault.hpp"
#include "common/stopwatch.hpp"
#include "core/incremental.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "trajectory/trajectory.hpp"

namespace {

constexpr const char* kBench = "service";
constexpr int kRepeats = 5;

/// Armed plan that can never fire: every interrogation runs the full hash +
/// budget-denial path, so timing it against the disarmed injector isolates
/// the harness overhead.
crowdmap::common::FaultPlan muzzled_plan() {
  crowdmap::common::FaultPlan plan;
  plan.seed = 0xBEEF;
  for (const auto point : crowdmap::common::all_fault_points()) {
    plan.settings.push_back(
        crowdmap::common::FaultSetting{point, 1.0, /*budget=*/0});
  }
  return plan;
}

}  // namespace

int main() {
  using namespace crowdmap;

  // ---- should_fire: disarmed vs armed-but-muzzled, ns per interrogation.
  {
    constexpr std::uint64_t kCalls = 4'000'000;
    common::FaultInjector disarmed;
    common::FaultInjector muzzled(muzzled_plan());
    common::Stopwatch timer;
    for (auto* injector : {&disarmed, &muzzled}) {
      std::vector<double> samples;
      std::uint64_t sink = 0;
      for (int r = 0; r < kRepeats; ++r) {
        timer.restart();
        for (std::uint64_t key = 0; key < kCalls; ++key) {
          sink += injector->should_fire(common::faults::kDecodeFail, key);
        }
        samples.push_back(timer.elapsed_seconds() / kCalls * 1e9);
      }
      if (sink != 0) std::cout << "# unexpected fires: " << sink << "\n";
      bench::emit_bench_json(kBench,
                             injector == &disarmed
                                 ? "should_fire_disarmed_ns"
                                 : "should_fire_muzzled_ns",
                             samples);
    }
  }

  // ---- Ingest front door: chunks/sec through checksum validation,
  // duplicate accounting and the session sweep.
  {
    constexpr std::size_t kUploads = 64;
    constexpr std::size_t kBlobBytes = 64 * 1024;
    constexpr std::size_t kChunkBytes = 4 * 1024;
    std::vector<std::vector<cloud::Chunk>> uploads;
    common::Rng rng(0x1A6E57);
    for (std::size_t u = 0; u < kUploads; ++u) {
      cloud::Blob blob(kBlobBytes);
      for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_u64());
      uploads.push_back(cloud::split_into_chunks(
          blob, "bench" + std::to_string(u), kChunkBytes));
    }
    const double total_chunks =
        static_cast<double>(kUploads * (kBlobBytes / kChunkBytes));

    common::Stopwatch timer;
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r) {
      cloud::DocumentStore store;
      cloud::IngestService ingest(store);
      for (std::size_t u = 0; u < kUploads; ++u) {
        ingest.open_session("bench" + std::to_string(u), "Bench", 1);
      }
      timer.restart();
      for (const auto& chunks : uploads) {
        for (const auto& chunk : chunks) (void)ingest.deliver(chunk);
      }
      samples.push_back(total_chunks / timer.elapsed_seconds());
    }
    bench::emit_bench_json(kBench, "ingest_chunks_per_sec", samples);
  }

  // ---- build_floor_plan latency, faults disarmed vs muzzled.
  {
    common::Rng rng(0xFA0175);
    const auto spec = sim::random_building(3, rng);
    sim::CampaignOptions options;
    options.users = 3;
    options.room_videos_per_room = 1;
    options.hallway_walks = 6;
    options.junk_fraction = 0.0;
    options.sim.fps = 3.0;

    double disarmed_mean = 0.0;
    double muzzled_mean = 0.0;
    for (const bool armed : {false, true}) {
      core::PipelineConfig config = core::PipelineConfig::fast_profile();
      if (armed) config.faults = muzzled_plan();
      common::Stopwatch timer;
      std::vector<double> samples;
      for (int r = 0; r < kRepeats; ++r) {
        // A cold build: the first refresh of a fresh planner. The
        // api::Client path is measured separately by micro_incremental.
        core::IncrementalPlanner planner(config);
        sim::generate_campaign_streaming(
            spec, options, 0xFA0175, [&planner](sim::SensorRichVideo&& video) {
              (void)planner.ingest(trajectory::extract_trajectory(
                  video, planner.config().extraction));
            });
        timer.restart();
        const auto result = planner.refresh();
        samples.push_back(timer.elapsed_seconds());
        if (result.degradation.degraded()) {
          std::cout << "# unexpected degradation in muzzled run\n";
        }
      }
      bench::emit_bench_json(kBench,
                             armed ? "pipeline_run_seconds_muzzled"
                                   : "pipeline_run_seconds_disarmed",
                             samples);
      (armed ? muzzled_mean : disarmed_mean) =
          common::summarize(samples).mean;
    }
    bench::emit_bench_scalar(kBench, "fault_overhead_ratio",
                             muzzled_mean / disarmed_mean);
  }
  return 0;
}
