// crowdmap_cli — run CrowdMap on a synthetic building and write artifacts.
//
//   crowdmap_cli [--building lab1|lab2|gym|random] [--rooms N] [--scale S]
//                [--seed N] [--config FILE] [--fast]
//                [--svg OUT.svg] [--pgm OUT.pgm] [--plan OUT.cmplan]
//                [--ascii] [--metrics-out OUT.prom] [--trace]
//                [--trace-out OUT.json]
//
// Prints the Table-I metrics and room-error summary; optionally writes an
// SVG floor plan, a PGM of the hallway skeleton, the binary plan, the
// pipeline's metrics registry in Prometheus text format, and the run
// timeline with the flight-recorder black box as a Perfetto/chrome://tracing
// JSON.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/config_file.hpp"
#include "common/fault.hpp"
#include "core/config_overrides.hpp"
#include "eval/datasets.hpp"
#include "eval/harness.hpp"
#include "mapping/coverage.hpp"
#include "io/image_io.hpp"
#include "floorplan/serialize.hpp"
#include "obs/export.hpp"
#include "obs/trace_export.hpp"
#include "sim/buildings.hpp"

namespace {

void usage() {
  std::cout <<
      "usage: crowdmap_cli [options]\n"
      "  --building NAME   lab1 (default) | lab2 | gym | random\n"
      "  --rooms N         rooms for --building random (default 6)\n"
      "  --scale S         campaign scale factor (default 1.0)\n"
      "  --seed N          simulation seed override\n"
      "  --config FILE     key=value pipeline overrides (--help-config lists keys)\n"
      "  --help-config     list every supported --config key and exit\n"
      "  --fast            fast pipeline profile (capped layout hypotheses)\n"
      "  --threads N       one backend pool per client (0 = all cores, 1 = one\n"
      "                    extraction worker, serial extraction and a serial\n"
      "                    planner)\n"
      "  --nodes N         simulated cluster nodes (default 1; docs/CLUSTER.md)\n"
      "  --faults SEED:SPEC  chaos plan, e.g. 42:decode.fail=0.2,stage.panorama_fail=0.1@3\n"
      "  --storage-dir DIR durable store: recover on start, checkpoint at end\n"
      "  --svg FILE        write the reconstructed plan as SVG\n"
      "  --pgm FILE        write the hallway skeleton as PGM\n"
      "  --plan FILE       write the binary floor plan\n"
      "  --ascii           print the ASCII floor plan\n"
      "  --coverage        print coverage analysis + suggested walk tasks\n"
      "  --metrics-out F   write the pipeline metrics (Prometheus text) to F\n"
      "  --trace           print the pipeline trace tree (per-stage timings)\n"
      "  --trace-out F     write spans + flight events as Perfetto trace JSON\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crowdmap;

  std::string building = "lab1";
  int random_rooms = 6;
  double scale = 1.0;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool fast = false;
  long threads = -1;
  long cluster_nodes = -1;
  bool ascii = false;
  bool coverage = false;
  bool trace = false;
  std::string config_path;
  std::string faults_spec;
  std::string storage_dir;
  std::string svg_path;
  std::string pgm_path;
  std::string plan_path;
  std::string metrics_path;
  std::string trace_out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--building") {
      building = next();
    } else if (arg == "--rooms") {
      random_rooms = std::stoi(next());
    } else if (arg == "--scale") {
      scale = std::stod(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
      have_seed = true;
    } else if (arg == "--config") {
      config_path = next();
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--threads") {
      threads = std::stol(next());
      if (threads < 0) {
        std::cerr << "--threads must be >= 0\n";
        return 2;
      }
    } else if (arg == "--nodes") {
      cluster_nodes = std::stol(next());
      if (cluster_nodes < 1) {
        std::cerr << "--nodes must be >= 1\n";
        return 2;
      }
    } else if (arg == "--faults") {
      faults_spec = next();
    } else if (arg == "--storage-dir") {
      storage_dir = next();
    } else if (arg == "--ascii") {
      ascii = true;
    } else if (arg == "--coverage") {
      coverage = true;
    } else if (arg == "--svg") {
      svg_path = next();
    } else if (arg == "--pgm") {
      pgm_path = next();
    } else if (arg == "--plan") {
      plan_path = next();
    } else if (arg == "--metrics-out") {
      metrics_path = next();
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-out") {
      trace_out_path = next();
    } else if (arg == "--help-config") {
      std::cout << "supported --config keys (key = value per line):\n"
                << core::config_key_help();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    }
  }

  eval::DatasetSpec dataset;
  if (building == "lab1") {
    dataset = eval::lab1_dataset(scale);
  } else if (building == "lab2") {
    dataset = eval::lab2_dataset(scale);
  } else if (building == "gym") {
    dataset = eval::gym_dataset(scale);
  } else if (building == "random") {
    dataset = eval::lab1_dataset(scale);
    common::Rng rng(have_seed ? seed : 0xC11u);
    dataset.building = sim::random_building(random_rooms, rng);
    dataset.name = dataset.building.name;
  } else {
    std::cerr << "unknown building: " << building << "\n";
    return 2;
  }
  if (have_seed) dataset.seed = seed;

  core::PipelineConfig config =
      fast ? core::PipelineConfig::fast_profile() : core::PipelineConfig{};
  if (threads >= 0) config.parallel.threads = static_cast<std::size_t>(threads);
  if (!config_path.empty()) {
    auto file = common::ConfigFile::try_load(config_path);
    if (!file.ok()) {
      std::cerr << "config error: " << file.error().message << "\n";
      return 2;
    }
    try {
      core::apply_config_overrides(config, file.value());
    } catch (const std::exception& e) {
      std::cerr << "config error: " << e.what() << "\n";
      return 2;
    }
  }
  if (!faults_spec.empty()) {
    auto plan = common::parse_fault_plan(faults_spec);
    if (!plan.ok()) {
      std::cerr << "--faults error: " << plan.error().message << "\n";
      return 2;
    }
    config.faults = std::move(plan).take();
  }
  if (!storage_dir.empty()) config.storage.dir = storage_dir;
  if (cluster_nodes >= 1) {
    config.cluster.nodes = static_cast<std::size_t>(cluster_nodes);
  }

  std::cout << "Reconstructing " << dataset.name << " (seed " << dataset.seed
            << ", scale " << scale << ")...\n";
  const auto run = eval::run_experiment(dataset, config);

  const auto& d = run.result.diagnostics;
  std::cout << "uploads " << d.videos_ingested << "  placed "
            << d.trajectories_placed << "/" << d.trajectories_kept
            << "  rooms " << d.rooms_reconstructed << "/"
            << dataset.building.rooms.size() << "\n";
  std::cout << "hallway  P=" << eval::pct(run.hallway.precision)
            << "  R=" << eval::pct(run.hallway.recall)
            << "  F=" << eval::pct(run.hallway.f_measure) << "\n";
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
    std::cout << "rooms    area=" << eval::pct(area / n)
              << "  aspect=" << eval::pct(aspect / n)
              << "  location=" << eval::fmt(loc / n, 2) << " m\n";
  }

  if (run.result.degradation.degraded()) {
    std::cout << run.result.degradation.to_string() << "\n";
  }
  if (run.durability.enabled) {
    std::cout << "storage  wal_appends=" << run.durability.wal_appends
              << "  checkpoints=" << run.durability.checkpoints
              << "  replayed=" << run.durability.recovery_records_replayed
              << "  truncated=" << run.durability.recovery_truncated_records
              << (run.durability.healthy ? "" : "  UNHEALTHY") << "\n";
  }
  // The harness builds twice (alignment pass, then the truth frame); the
  // reuse line shows how much of the second build replayed cached artifacts.
  std::cout << run.cache.to_string() << "\n";

  if (trace) {
    std::cout << "\ntrace (inclusive ms, self ms):\n"
              << run.result.trace.to_string();
  }
  if (ascii) std::cout << "\n" << run.result.plan.to_ascii(100);
  if (coverage) {
    const auto report =
        mapping::coverage_report(run.result.occupancy, run.result.skeleton.raster);
    std::cout << "coverage " << eval::pct(report.confident_fraction)
              << " of " << report.skeleton_cells << " skeleton cells confident\n";
    for (const auto& task : mapping::suggest_walk_tasks(report)) {
      std::cout << "  suggest SWS walk (" << eval::fmt(task.from.x, 1) << ", "
                << eval::fmt(task.from.y, 1) << ") -> ("
                << eval::fmt(task.to.x, 1) << ", " << eval::fmt(task.to.y, 1)
                << ")  [covers ~" << static_cast<int>(task.expected_gain)
                << " thin cells]\n";
    }
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << obs::to_prometheus(run.metrics);
    if (!out) {
      std::cerr << "failed to write " << metrics_path << "\n";
      return 1;
    }
    std::cout << "wrote " << metrics_path << "\n";
  }
  if (!trace_out_path.empty()) {
    std::ofstream out(trace_out_path);
    out << obs::to_trace_event_json(
        run.result.trace, run.flight ? &run.flight.value() : nullptr);
    if (!out) {
      std::cerr << "failed to write " << trace_out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << trace_out_path
              << " (open in ui.perfetto.dev or chrome://tracing)\n";
  }
  if (!svg_path.empty()) {
    std::ofstream(svg_path) << run.result.plan.to_svg();
    std::cout << "wrote " << svg_path << "\n";
  }
  if (!pgm_path.empty()) {
    io::write_pgm(pgm_path, run.result.skeleton.raster);
    std::cout << "wrote " << pgm_path << "\n";
  }
  if (!plan_path.empty()) {
    const auto bytes = floorplan::encode_floorplan(run.result.plan);
    std::ofstream out(plan_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::cout << "wrote " << plan_path << " (" << bytes.size() << " bytes)\n";
  }
  return 0;
}
