// Incremental recomputation payoff: what the artifact cache + dependency
// tracked planner buy when one new upload lands on a built campaign.
//
// Scenario (the crowdsourcing steady state): a ~50-video campaign is built;
// one more walk is uploaded; the plan is refreshed. The cold baseline
// rebuilds the whole corpus from scratch in a fresh backend; the warm path
// refreshes through api::Client, replaying every artifact the new upload
// did not invalidate. Both paths must serialize byte-identical plans —
// checked here on every run, not just in the test suite.
//
// Emits BENCH_incremental.json lines:
//   - cold_build_seconds: full rebuild, fresh backend, per repeat,
//   - warm_refresh_seconds: one-upload refresh on the warmed backend,
//   - incremental_speedup_ratio: cold median / warm median (the PR's
//     acceptance bar is >= 5x; `--check` exits non-zero below that).
//
// The committed baseline lives in bench/baselines/BENCH_incremental.json.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/v2.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "floorplan/serialize.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"

namespace {

constexpr const char* kBench = "incremental";
constexpr int kRepeats = 3;
constexpr double kRequiredSpeedup = 5.0;

using crowdmap::api::Client;
using crowdmap::api::ClientOptions;

std::vector<crowdmap::sim::SensorRichVideo> campaign() {
  namespace cs = crowdmap::sim;
  crowdmap::common::Rng rng(0x50C1A1);
  const auto spec = cs::random_building(6, rng);
  cs::CampaignOptions options;
  options.users = 8;
  options.room_videos_per_room = 2;  // 12 room visits + 38 walks = 50 videos
  options.hallway_walks = 38;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;
  std::vector<cs::SensorRichVideo> videos;
  cs::generate_campaign_streaming(spec, options, 0x50C1A1,
                                  [&videos](cs::SensorRichVideo&& video) {
                                    videos.push_back(std::move(video));
                                  });
  return videos;
}

Client fresh_client() {
  ClientOptions options;
  options.config = crowdmap::core::PipelineConfig::fast_profile();
  return Client(std::move(options));
}

std::string build_bytes(Client& client, const std::string& building,
                        int floor, double* seconds) {
  crowdmap::common::Stopwatch timer;
  const auto response = client.build_plan({building, floor, std::nullopt, {}});
  if (seconds != nullptr) *seconds = timer.elapsed_seconds();
  const auto bytes = crowdmap::floorplan::encode_floorplan(response.result.plan);
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crowdmap;

  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  const auto videos = campaign();
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;
  std::cout << "# campaign: " << videos.size() << " videos, building "
            << building << "\n";

  std::vector<double> cold_samples;
  std::vector<double> warm_samples;
  std::string cold_plan;
  std::string warm_plan;

  for (int r = 0; r < kRepeats; ++r) {
    // Cold: every upload lands in a fresh backend, then one full build.
    auto cold = fresh_client();
    for (const auto& video : videos) {
      if (!cold.submit_video(video).status.ok()) {
        std::cerr << "upload rejected in cold run\n";
        return 1;
      }
    }
    double cold_seconds = 0.0;
    cold_plan = build_bytes(cold, building, floor, &cold_seconds);
    cold_samples.push_back(cold_seconds);

    // Warm: all but the last upload built first (unmeasured), then the last
    // upload lands and only the refresh is timed.
    auto warm = fresh_client();
    for (std::size_t v = 0; v + 1 < videos.size(); ++v) {
      if (!warm.submit_video(videos[v]).status.ok()) {
        std::cerr << "upload rejected in warm run\n";
        return 1;
      }
    }
    (void)build_bytes(warm, building, floor, nullptr);
    if (!warm.submit_video(videos.back()).status.ok()) {
      std::cerr << "final upload rejected in warm run\n";
      return 1;
    }
    double warm_seconds = 0.0;
    warm_plan = build_bytes(warm, building, floor, &warm_seconds);
    warm_samples.push_back(warm_seconds);

    if (warm_plan != cold_plan) {
      std::cerr << "FAIL: warm refresh and cold rebuild diverged (repeat "
                << r << ")\n";
      return 1;
    }
  }
  std::cout << "# warm refresh byte-identical to cold rebuild across "
            << kRepeats << " repeats\n";

  bench::emit_bench_json(kBench, "cold_build_seconds", cold_samples);
  bench::emit_bench_json(kBench, "warm_refresh_seconds", warm_samples);

  const double cold_median = common::summarize(cold_samples).median;
  const double warm_median = common::summarize(warm_samples).median;
  const double ratio = warm_median > 0.0 ? cold_median / warm_median : 0.0;
  bench::emit_bench_scalar(kBench, "incremental_speedup_ratio", ratio);

  if (check && ratio < kRequiredSpeedup) {
    std::cerr << "FAIL: incremental speedup " << ratio << "x is below the "
              << kRequiredSpeedup << "x acceptance bar\n";
    return 1;
  }
  return 0;
}
