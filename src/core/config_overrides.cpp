#include "core/config_overrides.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/fault.hpp"

namespace crowdmap::core {

namespace {

// ------------------------------------------------------- value parsing ---
// Mirrors common::ConfigFile's strictness: the whole token must parse.

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw std::runtime_error("config key '" + key +
                             "': not a number: " + value);
  }
  return parsed;
}

int parse_int(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw std::runtime_error("config key '" + key +
                             "': not an integer: " + value);
  }
  return static_cast<int>(parsed);
}

std::size_t parse_size(const std::string& key, const std::string& value) {
  const int parsed = parse_int(key, value);
  if (parsed < 0) {
    throw std::runtime_error("config key '" + key +
                             "': must be >= 0: " + value);
  }
  return static_cast<std::size_t>(parsed);
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "on") return true;
  if (value == "false" || value == "0" || value == "off") return false;
  throw std::runtime_error("config key '" + key +
                           "': not a boolean: " + value);
}

// ---------------------------------------------------------- the table ---
// Sorted by key. CM_KEY_* wrap the repetitive setter lambdas so a
// row stays one readable line; the table itself is the single source the
// apply path, --help-config and docs/CONFIG.md all share.

#define CM_KEY_DOUBLE(key_str, target, help_str)                         \
  {key_str, "double", help_str,                                          \
   [](PipelineConfig& c, const std::string& v) {                         \
     c.target = parse_double(key_str, v);                                \
   }}
#define CM_KEY_INT(key_str, target, help_str)                            \
  {key_str, "int", help_str,                                             \
   [](PipelineConfig& c, const std::string& v) {                         \
     c.target = parse_int(key_str, v);                                   \
   }}
#define CM_KEY_SIZE(key_str, target, help_str)                           \
  {key_str, "size", help_str,                                            \
   [](PipelineConfig& c, const std::string& v) {                         \
     c.target = parse_size(key_str, v);                                  \
   }}
#define CM_KEY_BOOL(key_str, target, help_str)                           \
  {key_str, "bool", help_str,                                            \
   [](PipelineConfig& c, const std::string& v) {                         \
     c.target = parse_bool(key_str, v);                                  \
   }}

constexpr ConfigKeyInfo kConfigKeys[] = {
    CM_KEY_SIZE("cache.artifact_bytes", incremental.artifact_cache_bytes,
                "Artifact-cache byte budget per floor (0 disables reuse)"),
    CM_KEY_BOOL("cache.background_refresh", incremental.background_refresh,
                "Refresh plans on the worker pool as uploads land"),
    CM_KEY_SIZE("cluster.max_node_queue", cluster.max_node_queue,
                "Shed uploads when a node's worker queue exceeds this (0 off)"),
    CM_KEY_SIZE("cluster.nodes", cluster.nodes,
                "In-process cluster nodes behind the api::v2 client"),
    CM_KEY_BOOL("cluster.rebalance", cluster.rebalance,
                "Eagerly re-replicate shard logs on node join/leave"),
    CM_KEY_SIZE("cluster.replication_factor", cluster.replication_factor,
                "Replication-log copies per shard (clamped to node count)"),
    {"faults.seed", "int",
     "Seed keying every chaos-plan fire decision",
     [](PipelineConfig& c, const std::string& v) {
       c.faults.seed = static_cast<std::uint64_t>(parse_int("faults.seed", v));
     }},
    {"faults.spec", "string",
     "Chaos plan, e.g. decode.fail=0.2,stage.panorama_fail=0.1@3",
     [](PipelineConfig& c, const std::string& v) {
       auto settings = common::parse_fault_settings(v);
       if (!settings.ok()) {
         throw std::runtime_error("config key 'faults.spec': " +
                                  settings.error().message);
       }
       c.faults.settings = std::move(settings).take();
     }},
    CM_KEY_SIZE("filter.min_keyframes", min_keyframes,
                "Unqualified-data gate: minimum key-frames per upload"),
    CM_KEY_BOOL("flight.dump_on_anomaly", flight.dump_on_anomaly,
                "Auto-dump flight rings on fault/degradation/SLO breach"),
    CM_KEY_BOOL("flight.enabled", flight.enabled,
                "Arm the flight recorder (black-box event rings)"),
    CM_KEY_SIZE("flight.ring_capacity", flight.ring_capacity,
                "Flight-recorder events retained per thread"),
    CM_KEY_DOUBLE("grid.brush_width", trajectory_brush_width,
                  "Occupancy brush width in meters per trajectory stroke"),
    CM_KEY_DOUBLE("grid.cell_size", grid_cell_size,
                  "Occupancy-grid cell size in meters"),
    CM_KEY_DOUBLE("layout.corner_weight", layout.corner_weight,
                  "Corner-term weight in room-layout scoring"),
    CM_KEY_INT("layout.hypotheses", layout.hypotheses,
               "Room-layout hypotheses sampled per panorama"),
    CM_KEY_INT("layout.hypothesis_cap", layout_hypothesis_cap,
               "Global cap on layout hypotheses (fast profile)"),
    CM_KEY_INT("layout.scoring_shards", layout.scoring_shards,
               "Deterministic parallel shards for hypothesis scoring"),
    CM_KEY_INT("lcss.delta", aggregation.match.lcss.delta,
               "LCSS index window for trajectory similarity"),
    CM_KEY_DOUBLE("lcss.epsilon", aggregation.match.lcss.epsilon,
                  "LCSS distance tolerance in meters"),
    CM_KEY_DOUBLE("match.h_d", aggregation.match.h_d,
                  "S2 descriptor-distance gate for key-frame matches"),
    CM_KEY_DOUBLE("match.h_f", aggregation.match.h_f,
                  "Fraction of consistent anchors required per pair"),
    CM_KEY_DOUBLE("match.h_l", aggregation.match.h_l,
                  "LCSS similarity gate for accepting a pair"),
    CM_KEY_DOUBLE("match.h_s", aggregation.match.h_s,
                  "S1 appearance-similarity gate for candidate pairs"),
    CM_KEY_DOUBLE("match.nn_ratio", aggregation.match.nn_ratio,
                  "Lowe nearest-neighbor ratio for descriptor matches"),
    CM_KEY_SIZE("parallel.threads", parallel.threads,
                "One backend pool per client (0 = all cores, 1 = one "
                "extraction worker, serial extraction and a serial planner)"),
    CM_KEY_BOOL("simd.force_scalar", simd.force_scalar,
                "Route SIMD kernels through the scalar reference path"),
    CM_KEY_DOUBLE("skeleton.alpha", skeleton.alpha,
                  "Alpha-shape radius for hallway boundary extraction"),
    CM_KEY_INT("skeleton.final_dilate_cells", skeleton.final_dilate_cells,
               "Dilation (cells) applied to the final skeleton raster"),
    CM_KEY_DOUBLE("skeleton.min_access_count", skeleton.min_access_count,
                  "Occupancy evidence required to keep a skeleton cell"),
    CM_KEY_DOUBLE("slo.extract_p99_ms", slo.extract_p99_ms,
                  "SLO: p99 upload-extraction latency ceiling in ms (0 off)"),
    CM_KEY_INT("slo.ingest_queue_depth_max", slo.ingest_queue_depth_max,
               "SLO: worker-queue depth ceiling in tasks (0 off)"),
    CM_KEY_DOUBLE("slo.plan_refresh_p99_ms", slo.plan_refresh_p99_ms,
                  "SLO: p99 plan-refresh latency ceiling in ms (0 off)"),
    CM_KEY_INT("stitch.height", stitch.output_height,
               "Panorama height in pixels"),
    CM_KEY_INT("stitch.width", stitch.output_width,
               "Panorama width in pixels"),
    {"storage.dir", "string",
     "Durable store directory (empty disables persistence)",
     [](PipelineConfig& c, const std::string& v) { c.storage.dir = v; }},
    CM_KEY_BOOL("storage.fsync", storage.fsync,
                "fsync every WAL append and manifest/snapshot install"),
    CM_KEY_SIZE("storage.segment_bytes", storage.segment_bytes,
                "WAL segment rotation threshold in bytes"),
    CM_KEY_SIZE("storage.snapshot_every", storage.snapshot_every,
                "Auto-checkpoint every N WAL appends (0 = manual only)"),
};

#undef CM_KEY_DOUBLE
#undef CM_KEY_INT
#undef CM_KEY_SIZE
#undef CM_KEY_BOOL

}  // namespace

std::span<const ConfigKeyInfo> config_key_table() noexcept {
  return kConfigKeys;
}

std::string config_key_help() {
  std::ostringstream out;
  for (const ConfigKeyInfo& info : kConfigKeys) {
    out << "  " << info.key << " (" << info.type << ")";
    for (std::size_t pad = std::string(info.key).size() +
                           std::string(info.type).size();
         pad < 40; ++pad) {
      out << ' ';
    }
    out << info.help << '\n';
  }
  return out.str();
}

void apply_config_overrides(PipelineConfig& config,
                            const common::ConfigFile& file) {
  for (const auto& [key, value] : file.entries()) {
    const auto* info = std::find_if(
        std::begin(kConfigKeys), std::end(kConfigKeys),
        [&key](const ConfigKeyInfo& row) { return key == row.key; });
    if (info == std::end(kConfigKeys)) {
      throw std::runtime_error("unknown config key: " + key);
    }
    info->apply(config, value);
  }
}

}  // namespace crowdmap::core
