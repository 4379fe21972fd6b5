#include "eval/harness.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

#include "api/v2.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"

namespace crowdmap::eval {

geometry::BoolRaster truth_hallway_raster(const DatasetSpec& dataset,
                                          double cell_size) {
  return dataset.building.hallway_raster(cell_size);
}

ExperimentRun run_experiment(const DatasetSpec& dataset,
                             const core::PipelineConfig& config) {
  ExperimentRun run;
  run.dataset = dataset;

  api::ClientOptions options;
  options.config = config;
  api::Client client(std::move(options));
  if (!config.storage.dir.empty()) {
    // Replay whatever an earlier (possibly crashed) run left in the store
    // before this campaign's uploads land on top of it.
    if (auto recovered = client.recover_storage(); !recovered.ok()) {
      CROWDMAP_LOG(kWarn, "eval")
          << "storage recovery failed: " << recovered.error().message;
    }
  }
  std::string building = dataset.building.name;
  int floor = 1;
  bool have_target = false;
  sim::generate_campaign_streaming(
      dataset.building, dataset.options, dataset.seed,
      [&](sim::SensorRichVideo&& video) {
        if (!have_target) {
          building = video.building;
          floor = video.floor;
          have_target = true;
        }
        (void)client.submit_video(video);
      });
  client.drain();

  // First pass: build in the backend's own frame to estimate the alignment
  // onto ground truth, then rebuild in the truth frame so rasters are
  // directly comparable (the paper's overlay step). The second build replays
  // the first's frame-independent artifacts from the cache.
  const auto plan0 = client.build_plan({building, floor, std::nullopt, {}});
  run.trajectories = client.trajectories(building, floor);
  const auto alignment =
      floorplan::align_to_truth(run.trajectories, plan0.result.aggregation);
  run.global_to_truth = alignment.value_or(geometry::Pose2{});

  core::WorldFrame frame;
  frame.global_to_world = run.global_to_truth;
  frame.extent = dataset.building.extent();
  auto final_build = client.build_plan({building, floor, frame, {}});
  run.result = std::move(final_build.result);
  run.cache = final_build.cache;

  // Table I metrics: cut room paths (the paper does this manually), align
  // residually, compare.
  std::vector<geometry::Polygon> room_polys;
  for (const auto& room : dataset.building.rooms) {
    room_polys.push_back(room.footprint());
  }
  const auto truth = truth_hallway_raster(dataset, config.grid_cell_size);
  run.hallway =
      mapping::hallway_shape_metrics(run.result.skeleton, truth, room_polys);

  // Fig. 8 metrics: rooms are already in the truth frame (identity residual).
  run.room_errors = floorplan::evaluate_rooms(run.result.plan, dataset.building,
                                              geometry::Pose2{});
  run.metrics = std::move(final_build.metrics);
  run.flight = client.flight_dump();
  if (!config.storage.dir.empty()) {
    if (auto status = client.checkpoint_storage(); !status.ok()) {
      CROWDMAP_LOG(kWarn, "eval")
          << "storage checkpoint failed: " << status.error().message;
    }
  }
  run.durability = client.stats().durability;
  return run;
}

void print_table_row(std::ostream& out, const std::vector<std::string>& cells,
                     int cell_width) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out << " | ";
    out << std::left << std::setw(cell_width) << cells[i];
  }
  out << '\n';
}

void print_cdf(std::ostream& out, const std::string& name,
               const std::vector<double>& samples, std::size_t rows) {
  out << "# CDF: " << name << " (n=" << samples.size() << ")\n";
  if (samples.empty()) return;
  const common::EmpiricalCdf cdf(samples);
  out << cdf.to_table(rows);
  const auto s = common::summarize(samples);
  out << "# mean=" << s.mean << " median=" << s.median << " p90=" << s.p90
      << " max=" << s.max << "\n";
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string pct(double ratio, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << ratio * 100.0 << '%';
  return out.str();
}

}  // namespace crowdmap::eval
