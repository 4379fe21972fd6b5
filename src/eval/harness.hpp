// Shared experiment harness: runs a dataset end-to-end through the pipeline,
// aligns the result onto ground truth, and computes the paper's metrics.
// Every bench binary builds on these helpers so that Table I and Figs. 6–9
// are regenerated from one code path.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cloud/durable_store.hpp"
#include "core/result.hpp"
#include "eval/datasets.hpp"
#include "floorplan/eval.hpp"
#include "geometry/raster.hpp"
#include "mapping/skeleton.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace crowdmap::eval {

/// Everything an experiment needs about one end-to-end run.
struct ExperimentRun {
  DatasetSpec dataset;
  core::PipelineResult result;
  geometry::Pose2 global_to_truth;       // Kabsch alignment used for output
  geometry::OverlapMetrics hallway;      // Table I metrics
  std::vector<floorplan::RoomError> room_errors;  // Fig. 8 metrics
  std::vector<trajectory::Trajectory> trajectories;  // kept extracted data
  /// Artifact reuse of the final (truth-frame) build: the harness builds
  /// twice — once to estimate the alignment, once in the truth frame — and
  /// the second build replays the first's pair artifacts from the cache.
  core::CacheReuseStats cache;
  /// Dump of the backend's metrics registry at the end of the run, so
  /// experiment records carry their counters and stage latencies (export
  /// with obs::to_prometheus; the spans they were observed from are in
  /// result.trace).
  obs::MetricsSnapshot metrics;
  /// Flight-recorder dump taken after the final build (std::nullopt when
  /// config.flight.enabled == false). Its one rendering is the Perfetto
  /// timeline obs::to_trace_event_json(result.trace, &*flight).
  std::optional<obs::FlightDump> flight;
  /// Durable-store facts (enabled == false when config.storage.dir is
  /// empty). When enabled, the harness recovers before submitting and
  /// checkpoints after the final build (docs/DURABILITY.md).
  cloud::DurabilityStats durability;
};

/// Streams the dataset's videos through the api::v2 backend (cluster.nodes sizes the topology) and evaluates
/// the result against ground truth. The alignment onto the truth frame is
/// estimated from key-frame correspondences (the paper's max-cover overlay).
[[nodiscard]] ExperimentRun run_experiment(const DatasetSpec& dataset,
                                           const core::PipelineConfig& config);

/// Ground-truth hallway raster on the dataset's grid (matching the
/// pipeline's WorldFrame so rasters are cell-comparable).
[[nodiscard]] geometry::BoolRaster truth_hallway_raster(
    const DatasetSpec& dataset, double cell_size);

// ------------------------------------------------------------- printing ---

/// Prints a fixed-width table row ("cell1 | cell2 | ...").
void print_table_row(std::ostream& out, const std::vector<std::string>& cells,
                     int cell_width = 14);

/// Prints "x\tF(x)" rows of an empirical CDF at n quantiles, with a header.
void print_cdf(std::ostream& out, const std::string& name,
               const std::vector<double>& samples, std::size_t rows = 11);

/// Formats a double with fixed precision.
[[nodiscard]] std::string fmt(double value, int precision = 3);
/// Formats a ratio as a percentage string.
[[nodiscard]] std::string pct(double ratio, int precision = 1);

}  // namespace crowdmap::eval
