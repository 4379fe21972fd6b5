// Every tunable of the CrowdMap pipeline in one place, named after the
// paper's thresholds where it defines them (h_g, h_s, h_d, h_f, h_l, h_α,
// ε, δ, the 54.4° FoV, the 20,000 layout hypotheses).
#pragma once

#include <cstddef>

#include "common/fault.hpp"
#include "floorplan/arrange.hpp"
#include "mapping/skeleton.hpp"
#include "room/layout.hpp"
#include "room/panorama_select.hpp"
#include "trajectory/aggregate.hpp"
#include "trajectory/trajectory.hpp"
#include "vision/panorama.hpp"

namespace crowdmap::core {

/// Parallel execution of the cloud hot paths (the paper runs these on a
/// Spark cluster; we run them on a shared ThreadPool). Every parallel path
/// is bit-deterministic: the same results at any thread count, including 1.
struct ParallelConfig {
  /// Sizes the one backend pool of an api::Client: every node's extraction
  /// and every planner share common::resolve_thread_count(threads) workers
  /// (0 = hardware_concurrency). At 1 that pool has one extraction worker
  /// and planners run serially on the calling thread. A planner built
  /// without a lent pool counts the calling thread, so it owns threads - 1
  /// workers, and none at 1. Pairwise matching, room reconstruction and
  /// each layout search's hypothesis scoring all fan out on that pool.
  std::size_t threads = 0;
};

/// Incremental recomputation (docs/INCREMENTAL.md): the content-addressed
/// artifact cache that lets a refresh after one new upload reuse every stage
/// output whose inputs did not change. Reuse never changes a result — the
/// incremental plan is byte-identical to a cold rebuild by construction.
struct IncrementalConfig {
  /// Byte budget of the artifact cache shared across refreshes of one floor
  /// (0 disables caching entirely; every refresh is then a cold rebuild).
  std::size_t artifact_cache_bytes = std::size_t{32} << 20;
  /// Refresh the floor plan on a background worker after each completed
  /// upload, serving the last complete plan meanwhile (CrowdMapService).
  bool background_refresh = false;
};

/// Flight recorder (docs/OBSERVABILITY.md): always-on black-box event rings
/// behind every planner/service this config builds. Recording is cheap
/// (tens of ns/event, bench/micro_obs.cpp) and never changes an output bit —
/// the determinism suite pins serialized FloorPlans recorder-on == off.
struct FlightConfig {
  /// Arm the recorder (false builds it disarmed: one branch per record call).
  bool enabled = true;
  /// Events retained per recording thread before ring wraparound.
  std::size_t ring_capacity = 4096;
  /// Auto-dump the rings to the configured sink when an anomalous event
  /// lands (fault fired, stage degraded, upload quarantined, SLO breached).
  bool dump_on_anomaly = false;
};

/// Declarative service-level objectives the SloWatchdog evaluates against
/// the metrics registry (docs/OBSERVABILITY.md). 0 disables a check.
struct SloConfig {
  /// p99 of crowdmap_plan_refresh_seconds must stay under this many ms.
  double plan_refresh_p99_ms = 0.0;
  /// p99 of crowdmap_extract_seconds must stay under this many ms.
  double extract_p99_ms = 0.0;
  /// crowdmap_worker_queue_depth must stay at or under this many queued tasks.
  int ingest_queue_depth_max = 0;
};

/// SIMD kernel dispatch (src/common/simd.hpp, docs/PERFORMANCE.md). The
/// knob is result-invariant by construction — every wrapped kernel is
/// bit-exact scalar vs AVX2 — so it exists for benchmarking and triage, not
/// correctness.
struct SimdConfig {
  /// Route every wrapped kernel through the scalar reference path (the same
  /// binary, no rebuild). Used by test_simd and the roofline benchmarks.
  bool force_scalar = false;
};

/// Durable persistence for the cloud DocumentStore (docs/DURABILITY.md).
/// An empty dir leaves the service purely in-memory (the historical
/// behavior); a non-empty dir routes every put/erase/quarantine through the
/// log-structured storage backend on a storage::Env.
struct StorageConfig {
  /// Directory of the log-structured store (MANIFEST, wal-*.log segments,
  /// state-*.snap snapshots). Empty = persistence disabled.
  std::string dir;
  /// Active-segment rotation threshold in bytes.
  std::size_t segment_bytes = std::size_t{4} << 20;
  /// Auto-checkpoint (snapshot + compaction) every N WAL appends; 0 keeps
  /// checkpoints manual (api::Client::checkpoint_storage).
  std::size_t snapshot_every = 0;
  /// fsync every appended record and installed manifest/snapshot. Turning
  /// this off trades the crash-durability guarantee for throughput.
  bool fsync = true;
};

/// Sharded multi-node simulation (docs/CLUSTER.md): N in-process nodes each
/// running a full CrowdMapService, a router sharding uploads by consistent
/// hashing on (building, floor), and primary/replica replication through a
/// deterministic CMWL-framed log. One node (the default) degenerates to the
/// single-service backend — plans stay byte-identical at any node count.
struct ClusterConfig {
  /// In-process node instances behind the api::v2 client (>= 1).
  std::size_t nodes = 1;
  /// Copies of each shard's replication log applied across the ring
  /// (clamped to the node count; 1 = no replicas, primary only).
  std::size_t replication_factor = 2;
  /// Eagerly re-replicate shard logs onto their new owners when membership
  /// changes (node join/leave). Off: new owners catch up lazily on first
  /// access — routing still moves immediately.
  bool rebalance = true;
  /// Shed uploads (api::StatusCode::kShedding) when the acting primary's
  /// worker queue is deeper than this many tasks. 0 disables shedding.
  std::size_t max_node_queue = 0;
};

struct PipelineConfig {
  // §III.B.I — key-frame selection and trajectory extraction.
  trajectory::ExtractionConfig extraction;
  // §III.B.I — hierarchical comparison + LCSS aggregation (h_s, h_d, h_f,
  // ε, δ, h_l live inside).
  trajectory::AggregationConfig aggregation;
  // §III.B.II — occupancy grid and skeleton (h_α).
  double grid_cell_size = 0.5;
  double trajectory_brush_width = 1.0;  // body width rasterized per pass
  mapping::SkeletonConfig skeleton;
  // §III.C — panorama generation and room layout (FoV, 20k hypotheses).
  // The paper stitches 2048x1024 panoramas; our synthetic frames carry less
  // detail, so 512x128 keeps the boundary signal dense (see DESIGN.md).
  room::PanoramaSelectConfig panorama_select;
  vision::StitchParams stitch{.output_width = 512, .output_height = 128};
  room::LayoutConfig layout;
  // §III.D — force-directed arrangement.
  floorplan::ArrangeConfig arrange;
  // Data quality gates ("divide and conquer" filtering of unqualified data).
  std::size_t min_keyframes = 3;   // fewer => upload dropped
  double min_track_length = 1.0;   // meters of believable motion
  // Room dedup: panoramas whose implied centers fall this close describe the
  // same room; the higher-scoring layout wins.
  double room_merge_distance = 2.5;
  /// Explicit ceiling applied to layout.hypotheses at run time (0 = no cap).
  /// The paper's 20,000-model default is affordable now that scoring is
  /// sharded across the worker pool; this cap exists only so reduced-fidelity
  /// profiles (fast_profile, latency experiments) state their cut openly
  /// instead of silently overwriting the sampled-model count.
  int layout_hypothesis_cap = 0;
  /// Worker pool size.
  ParallelConfig parallel;
  /// SIMD dispatch switches (result-invariant; see SimdConfig).
  SimdConfig simd;
  /// Artifact cache + background refresh (incremental recomputation).
  IncrementalConfig incremental;
  /// Flight-recorder rings (always-on observability).
  FlightConfig flight;
  /// SLO thresholds the service watchdog enforces.
  SloConfig slo;
  /// Seeded fault-injection plan (chaos testing; docs/ROBUSTNESS.md). Empty
  /// settings leave every fault point disarmed — the default costs one
  /// predicted branch per interrogation and changes no output bit.
  common::FaultPlan faults;
  /// Durable persistence of the document store (docs/DURABILITY.md).
  StorageConfig storage;
  /// Sharded multi-node topology behind api::v2 (docs/CLUSTER.md).
  ClusterConfig cluster;

  /// A faster profile for unit/integration tests: the layout sweep capped at
  /// 2,000 hypotheses (a documented 10x fidelity cut vs the paper's 20,000)
  /// and a smaller panorama, same structure.
  [[nodiscard]] static PipelineConfig fast_profile();
};

inline PipelineConfig PipelineConfig::fast_profile() {
  PipelineConfig config;
  // The paper's 20,000-hypothesis sweep stays in config.layout; the test
  // profile declares its 10x fidelity cut through the explicit cap instead
  // of silently overwriting the sampled-model count.
  config.layout_hypothesis_cap = 2000;
  config.stitch.output_width = 512;
  config.stitch.output_height = 128;
  return config;
}

}  // namespace crowdmap::core
