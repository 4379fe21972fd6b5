// Quickstart: reconstruct a small building's floor plan from simulated
// crowdsourced sensor-rich videos and print the result next to ground truth.
//
//   $ ./build/examples/quickstart
//
// Walks through the whole public API: build a world, run a crowd campaign,
// submit the uploads through api::Client to the floor planner, evaluate
// against ground truth.
#include <iostream>

#include "eval/datasets.hpp"
#include "eval/harness.hpp"

int main() {
  using namespace crowdmap;

  // A small campaign on the Lab1 building (scale < 1 shrinks the dataset so
  // the example finishes in seconds).
  const eval::DatasetSpec dataset = eval::lab1_dataset(/*scale=*/0.5);
  std::cout << "Building: " << dataset.building.name << " with "
            << dataset.building.rooms.size() << " rooms\n";

  core::PipelineConfig config = core::PipelineConfig::fast_profile();
  const eval::ExperimentRun run = eval::run_experiment(dataset, config);

  const auto& d = run.result.diagnostics;
  std::cout << "Uploads ingested:      " << d.videos_ingested << "\n"
            << "Trajectories kept:     " << d.trajectories_kept
            << " (dropped " << d.trajectories_dropped << " unqualified)\n"
            << "Trajectories placed:   " << d.trajectories_placed << " via "
            << d.match_edges << " match edges\n"
            << "Panoramas stitched:    " << d.panoramas_stitched << " / "
            << d.panoramas_attempted << "\n"
            << "Rooms reconstructed:   " << d.rooms_reconstructed << "\n";

  std::cout << "\nHallway shape vs ground truth (Table I metrics):\n"
            << "  precision = " << eval::pct(run.hallway.precision) << "\n"
            << "  recall    = " << eval::pct(run.hallway.recall) << "\n"
            << "  F-measure = " << eval::pct(run.hallway.f_measure) << "\n";

  if (!run.room_errors.empty()) {
    double area = 0.0;
    double aspect = 0.0;
    double loc = 0.0;
    for (const auto& e : run.room_errors) {
      area += e.area_error;
      aspect += e.aspect_error;
      loc += e.location_error_m;
    }
    const double n = static_cast<double>(run.room_errors.size());
    std::cout << "\nRoom metrics over " << run.room_errors.size() << " rooms:\n"
              << "  mean area error     = " << eval::pct(area / n) << "\n"
              << "  mean aspect error   = " << eval::pct(aspect / n) << "\n"
              << "  mean location error = " << eval::fmt(loc / n, 2) << " m\n";
  }

  std::cout << "\nReconstructed floor plan (# hallway, R room):\n"
            << run.result.plan.to_ascii(90);

  std::cout << "\nStage timings:";
  for (const auto& stage : run.result.trace.find("run")->children) {
    std::cout << ' ' << stage.name << '=' << eval::fmt(stage.duration_seconds, 1)
              << 's';
  }
  std::cout << '\n';
  return 0;
}
