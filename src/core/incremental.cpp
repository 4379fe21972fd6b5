#include "core/incremental.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/log.hpp"
#include "common/simd.hpp"
#include "core/stage_artifacts.hpp"
#include "floorplan/arrange.hpp"
#include "mapping/skeleton.hpp"
#include "room/panorama_select.hpp"
#include "sensors/dead_reckoning.hpp"

namespace crowdmap::core {

namespace {

/// Runs one stage body under the fault/exception policy: an injected fault
/// or a thrown exception becomes an Error the caller degrades on, instead of
/// tearing down the whole reconstruction.
template <typename Fn>
auto run_guarded(common::FaultInjector& faults, common::FaultPoint point,
                 std::uint64_t key, const char* stage, Fn&& fn)
    -> common::Expected<std::invoke_result_t<Fn>> {
  if (faults.should_fire(point, key)) {
    return common::make_error(
        "fault.injected", std::string(common::fault_point_name(point)));
  }
  try {
    return fn();
  } catch (const std::exception& e) {
    return common::make_error(std::string(stage) + ".exception", e.what());
  }
}

const char* action_name(DegradationEvent::Action action) {
  switch (action) {
    case DegradationEvent::Action::kSalvaged: return "salvaged";
    case DegradationEvent::Action::kLost: return "lost";
    case DegradationEvent::Action::kSkipped: return "skipped";
  }
  return "?";
}

/// The unqualified-data gates ("divide and conquer" filtering, §I
/// challenge 1) every upload passes before it joins a corpus.
bool passes_quality_gates(const trajectory::Trajectory& traj,
                          const PipelineConfig& config) {
  const bool too_few_frames = traj.keyframes.size() < config.min_keyframes;
  const bool no_motion =
      sensors::track_length(traj.points) < config.min_track_length &&
      traj.keyframes.size() < 8;  // SRS-only clips are legitimately stationary
  return !(too_few_frames || no_motion);
}

/// Whole-stage fault decisions key on this build ordinal. Every refresh is
/// a cold build of its corpus, so every refresh is build 0.
constexpr std::uint64_t kBuildKey = 0;

/// One refresh's working state: the corpus and caches it reads, and the
/// result, trace, fault plan and tallies it owns. The four stages are
/// functions over it; nothing here outlives the refresh, so a refresh is
/// indistinguishable from a cold build of the same corpus.
struct Build {
  /// Stage boundaries advance the recorder's logical tick, the
  /// deterministic half of every event's dual stamp.
  void advance_tick() const {
    if (flight != nullptr) flight->advance_tick();
  }

  /// Itemizes one substituted result so the caller can tell a clean plan
  /// from a salvaged one. Only ever called from the orchestrating thread
  /// (parallel stages merge their event slots first), so the flight events
  /// it records are deterministic.
  void push_event(DegradationEvent event) {
    CROWDMAP_LOG(kWarn, "pipeline")
        << "degraded stage " << event.stage << ": " << event.error.code << " ("
        << event.error.message << ") " << event.detail << " -> "
        << action_name(event.action);
    stages_degraded.increment();
    if (flight != nullptr) {
      flight->record_named(obs::FlightEventKind::kDegradation, 0, event.stage,
                           flight->intern(event.detail));
    }
    result.degradation.events.push_back(std::move(event));
  }
  void record(const char* stage, common::Error error, std::string detail,
              DegradationEvent::Action action) {
    DegradationEvent event;
    event.stage = stage;
    event.error = std::move(error);
    event.detail = std::move(detail);
    event.action = action;
    push_event(std::move(event));
  }

  const PipelineConfig& config;
  const std::vector<trajectory::Trajectory>& corpus;
  const std::vector<cache::ArtifactKey>& keys;  // index for index
  cache::ArtifactCache* artifacts;              // nullptr = caching disabled
  common::ThreadPool* pool;                     // nullptr = serial
  obs::FlightRecorder* flight;
  obs::MetricsRegistry& registry;
  obs::Counter& stages_degraded;
  obs::Trace trace{"pipeline"};
  /// Armed afresh from config.faults: every budget starts full.
  common::FaultInjector faults{config.faults};
  PipelineResult result{};

  // Tallies. Counted here, not read back from shared counters, so floors
  // built at the same time on one node never see each other's work.
  std::atomic<std::uint64_t> artifact_hits{0};
  std::atomic<std::uint64_t> artifact_misses{0};
  std::atomic<std::size_t> pairs_reused{0};
  std::atomic<std::size_t> rooms_reused{0};
  std::atomic<std::size_t> panoramas_attempted{0};
  std::atomic<std::size_t> panoramas_stitched{0};
  std::size_t rooms_total = 0;
  bool skeleton_reused = false;
  bool arrange_reused = false;
};

/// Sub-process 1a: key-frame based trajectory aggregation (§III.B.I).
void aggregate_stage(Build& b) {
  auto span = b.trace.scoped("aggregate");
  auto aggregated = run_guarded(
      b.faults, common::faults::kStageAggregateFail, kBuildKey, "aggregate",
      [&] {
        trajectory::AggregationRuntime agg_runtime;
        agg_runtime.pool = b.pool;
        if (b.artifacts != nullptr) {
          agg_runtime.pair_lookup =
              [&](std::size_t i,
                  std::size_t j) -> std::optional<trajectory::PairDecision> {
            const cache::ArtifactKey key =
                pair_decision_key(b.keys[i], b.keys[j], b.config.aggregation);
            if (auto payload =
                    b.artifacts->lookup(cache::Family::kPairMatch, key)) {
              if (auto decision = decode_pair_decision(*payload)) {
                b.artifact_hits.fetch_add(1, std::memory_order_relaxed);
                b.pairs_reused.fetch_add(1, std::memory_order_relaxed);
                return decision;
              }
            }
            b.artifact_misses.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
          };
          agg_runtime.pair_store = [&](std::size_t i, std::size_t j,
                                       const trajectory::PairDecision& d) {
            b.artifacts->insert(
                cache::Family::kPairMatch,
                pair_decision_key(b.keys[i], b.keys[j], b.config.aggregation),
                encode_pair_decision(d));
          };
        }
        return trajectory::aggregate_trajectories(
            b.corpus, b.config.aggregation, agg_runtime);
      });
  if (b.artifacts != nullptr) {
    const std::size_t n = b.corpus.size();
    b.trace.annotate("cache", std::to_string(b.pairs_reused.load()) + "/" +
                                  std::to_string(n > 1 ? n * (n - 1) / 2 : 0));
  }
  if (aggregated.ok()) {
    b.result.aggregation = std::move(aggregated).take();
  } else {
    // No placements: downstream stages see an all-unplaced build and the
    // result degenerates to an empty (but well-formed) plan.
    b.result.aggregation.global_pose.assign(b.corpus.size(), std::nullopt);
    b.record("aggregate", aggregated.error(), "whole stage",
             DegradationEvent::Action::kLost);
  }
}

/// The output extent: the caller's frame, else the placed points' bounding
/// box plus a margin.
geometry::Aabb plan_extent(const Build& b,
                           const std::optional<WorldFrame>& frame,
                           const geometry::Pose2& to_world) {
  if (frame) return frame->extent;
  std::vector<geometry::Vec2> all_points;
  for (std::size_t i = 0; i < b.corpus.size(); ++i) {
    const auto& pose = b.result.aggregation.global_pose[i];
    if (!pose) continue;
    for (const auto& p : b.corpus[i].points) {
      all_points.push_back(to_world.apply(pose->apply(p.position)));
    }
  }
  if (all_points.empty()) return {{0, 0}, {10, 10}};
  geometry::Aabb extent{
      {std::numeric_limits<double>::max(), std::numeric_limits<double>::max()},
      {std::numeric_limits<double>::lowest(),
       std::numeric_limits<double>::lowest()}};
  for (const auto p : all_points) {
    extent.min.x = std::min(extent.min.x, p.x);
    extent.min.y = std::min(extent.min.y, p.y);
    extent.max.x = std::max(extent.max.x, p.x);
    extent.max.y = std::max(extent.max.y, p.y);
  }
  return extent.expanded(3.0);
}

/// Sub-process 1b: floor path skeleton reconstruction (§III.B.II).
void skeleton_stage(Build& b, const geometry::Aabb& extent,
                    const geometry::Pose2& to_world) {
  auto span = b.trace.scoped("skeleton");
  struct SkeletonOut {
    mapping::OccupancyGrid grid;
    mapping::PathSkeleton skeleton;
  };
  auto skeletonized = run_guarded(
      b.faults, common::faults::kStageSkeletonFail, kBuildKey, "skeleton", [&] {
        // Rasterization is cheap and always runs; the cache covers the
        // expensive binarize + alpha-shape + repair work behind it, keyed
        // on the grid *content* so any input change that rasterizes
        // identically still reuses the skeleton.
        mapping::OccupancyGrid grid(extent, b.config.grid_cell_size);
        for (std::size_t i = 0; i < b.corpus.size(); ++i) {
          if (!b.result.aggregation.global_pose[i]) continue;
          std::vector<geometry::Vec2> pts;
          pts.reserve(b.corpus[i].points.size());
          for (const auto& p : b.corpus[i].points) {
            pts.push_back(to_world.apply(
                b.result.aggregation.global_pose[i]->apply(p.position)));
          }
          grid.add_polyline(pts, b.config.trajectory_brush_width);
        }
        std::optional<cache::ArtifactKey> key;
        if (b.artifacts != nullptr) {
          key = skeleton_key(grid, b.config.skeleton);
          if (auto payload =
                  b.artifacts->lookup(cache::Family::kSkeleton, *key)) {
            if (auto cached = decode_skeleton(*payload)) {
              b.artifact_hits.fetch_add(1, std::memory_order_relaxed);
              b.skeleton_reused = true;
              return SkeletonOut{std::move(grid), std::move(*cached)};
            }
          }
          b.artifact_misses.fetch_add(1, std::memory_order_relaxed);
        }
        auto skeleton = mapping::reconstruct_skeleton(grid, b.config.skeleton);
        if (key) {
          b.artifacts->insert(cache::Family::kSkeleton, *key,
                              encode_skeleton(skeleton));
        }
        return SkeletonOut{std::move(grid), std::move(skeleton)};
      });
  if (b.artifacts != nullptr) {
    b.trace.annotate("cache", b.skeleton_reused ? "hit" : "miss");
  }
  if (skeletonized.ok()) {
    b.result.occupancy = std::move(skeletonized.value().grid);
    b.result.skeleton = std::move(skeletonized.value().skeleton);
  } else {
    // Rooms-only output: an *empty but correctly-sized* grid and skeleton
    // stand in (not the 1x1 placeholders), so downstream raster comparisons
    // stay cell-compatible; room reconstruction proceeds from the
    // aggregation placements.
    const double cell = b.config.grid_cell_size;
    b.result.occupancy = mapping::OccupancyGrid(extent, cell);
    b.result.skeleton.raster = geometry::BoolRaster(extent, cell);
    b.result.skeleton.binarized = geometry::BoolRaster(extent, cell);
    b.record("skeleton", skeletonized.error(), "whole stage",
             DegradationEvent::Action::kLost);
  }
}

/// Sub-process 2: room layout modeling (§III.C).
void rooms_stage(Build& b, const geometry::Pose2& to_world) {
  auto span = b.trace.scoped("rooms");
  const PipelineConfig& config = b.config;
  // Candidate discovery is cheap and order-defining; run it serially, then
  // fan the expensive stitch + layout search out per candidate. Each item
  // writes only its own slot, and slots merge in discovery order, so the
  // room list is identical at any thread count.
  struct RoomItem {
    std::size_t traj_index;
    room::PanoramaCandidate candidate;
  };
  std::vector<RoomItem> items;
  for (std::size_t i = 0; i < b.corpus.size(); ++i) {
    if (!b.result.aggregation.global_pose[i]) continue;
    for (auto& cand :
         room::find_panorama_candidates(b.corpus[i], config.panorama_select)) {
      items.push_back({i, std::move(cand)});
    }
  }

  room::LayoutConfig base_layout = config.layout;
  if (config.layout_hypothesis_cap > 0) {
    base_layout.hypotheses =
        std::min(base_layout.hypotheses, config.layout_hypothesis_cap);
  }
  b.rooms_total = items.size();
  // Cache bypass under per-item chaos: a cached hit would skip this item's
  // fault interrogations and change which items a budgeted plan fires on,
  // so armed panorama/layout faults force the live path for every item.
  const bool room_faults_armed =
      b.faults.point_armed(common::faults::kStagePanoramaFail) ||
      b.faults.point_armed(common::faults::kStageLayoutFail);

  std::vector<std::optional<ReconstructedRoom>> slots(items.size());
  // Per-item degradation events land in slots too, merged in discovery
  // order below, so the report is identical at any thread count.
  std::vector<std::optional<DegradationEvent>> event_slots(items.size());
  common::parallel_for(b.pool, items.size(), [&](std::size_t idx) {
    const auto& [i, cand] = items[idx];
    const auto& traj = b.corpus[i];
    // Stable per-item fault key: (build ordinal, discovery index).
    const std::uint64_t item_key = common::hash_combine(kBuildKey, idx);
    const auto item_detail = [&] {
      return "candidate " + std::to_string(idx) + " of trajectory " +
             std::to_string(i);
    };
    const auto fail_item = [&](common::Error error,
                               DegradationEvent::Action action) {
      DegradationEvent event;
      event.stage = "panorama";
      event.error = std::move(error);
      event.detail = item_detail();
      event.action = action;
      event_slots[idx] = std::move(event);
    };

    // Effective vertical focal of the panorama (see DESIGN.md).
    const auto focal_for = [&](const room::PanoramaCandidate& c) {
      room::LayoutConfig layout_config = base_layout;
      if (layout_config.focal_px <= 0 && !c.keyframe_indices.empty()) {
        const auto& kf = traj.keyframes[c.keyframe_indices.front()];
        layout_config.focal_px = room::panorama_focal_px(
            kf.gray.width(), kf.gray.height(), config.stitch);
      }
      return layout_config;
    };
    const auto place_room = [&](const room::RoomLayout& layout) {
      ReconstructedRoom rec;
      rec.layout = layout;
      rec.trajectory_index = i;
      rec.true_room_id = traj.true_room_id;
      const geometry::Pose2 place =
          to_world.compose(*b.result.aggregation.global_pose[i]);
      rec.camera_global = place.apply(cand.cell_center);
      // Room center = camera - (camera offset in the room frame rotated
      // into the panorama frame and then into the world frame).
      const geometry::Vec2 offset_pano =
          rec.layout.camera_offset.rotated(rec.layout.orientation);
      rec.center_global = rec.camera_global - offset_pano.rotated(place.theta);
      rec.orientation_global = rec.layout.orientation + place.theta;
      slots[idx] = rec;
    };

    try {
      b.panoramas_attempted.fetch_add(1, std::memory_order_relaxed);
      // Content-addressed reuse of this candidate's stitch + layout work.
      // The artifact replays the stitch tally and layout outcome the live
      // path would produce; placement below stays live (it depends on the
      // aggregation poses and is cheap).
      std::optional<cache::ArtifactKey> item_cache_key;
      if (b.artifacts != nullptr && !room_faults_armed) {
        item_cache_key = room_artifact_key(b.keys[i], cand, config.stitch,
                                           focal_for(cand));
        if (auto payload =
                b.artifacts->lookup(cache::Family::kRoom, *item_cache_key)) {
          if (auto artifact = decode_room_artifact(*payload)) {
            b.artifact_hits.fetch_add(1, std::memory_order_relaxed);
            b.rooms_reused.fetch_add(1, std::memory_order_relaxed);
            if (artifact->stitched) {
              b.panoramas_stitched.fetch_add(1, std::memory_order_relaxed);
            }
            if (artifact->has_layout) place_room(artifact->layout);
            return;
          }
        }
        b.artifact_misses.fetch_add(1, std::memory_order_relaxed);
      }
      if (b.faults.should_fire(common::faults::kStagePanoramaFail, item_key)) {
        // The full stitch "failed": salvage what a single key-frame can
        // still say about the room instead of dropping the candidate.
        const common::Error error = common::make_error(
            "fault.injected", std::string(common::fault_point_name(
                                  common::faults::kStagePanoramaFail)));
        if (cand.keyframe_indices.empty()) {
          fail_item(error, DegradationEvent::Action::kLost);
          return;
        }
        room::PanoramaCandidate fallback = cand;
        fallback.keyframe_indices = {
            cand.keyframe_indices[cand.keyframe_indices.size() / 2]};
        const auto pano = room::stitch_candidate(traj, fallback, config.stitch);
        const auto layout =
            room::estimate_layout(pano.image, focal_for(fallback), b.pool);
        if (!layout) {
          fail_item(error, DegradationEvent::Action::kLost);
          return;
        }
        place_room(*layout);
        fail_item(error, DegradationEvent::Action::kSalvaged);
        return;
      }
      const auto pano = room::stitch_candidate(traj, cand, config.stitch);
      RoomArtifact artifact;
      if (pano.coverage < 0.95) {
        // Negative results are artifacts too: an uncoverable candidate
        // stays uncoverable, so the next refresh skips the stitch as well.
        if (item_cache_key) {
          b.artifacts->insert(cache::Family::kRoom, *item_cache_key,
                              encode_room_artifact(artifact));
        }
        return;
      }
      artifact.stitched = true;
      b.panoramas_stitched.fetch_add(1, std::memory_order_relaxed);
      if (b.faults.should_fire(common::faults::kStageLayoutFail, item_key)) {
        DegradationEvent event;
        event.stage = "layout";
        event.error = common::make_error(
            "fault.injected", std::string(common::fault_point_name(
                                  common::faults::kStageLayoutFail)));
        event.detail = item_detail();
        event.action = DegradationEvent::Action::kLost;
        event_slots[idx] = std::move(event);
        return;
      }
      const auto layout =
          room::estimate_layout(pano.image, focal_for(cand), b.pool);
      if (layout) {
        artifact.has_layout = true;
        artifact.layout = *layout;
      }
      if (item_cache_key) {
        b.artifacts->insert(cache::Family::kRoom, *item_cache_key,
                            encode_room_artifact(artifact));
      }
      if (!layout) return;
      place_room(*layout);
    } catch (const std::exception& e) {
      slots[idx].reset();
      fail_item(common::make_error("panorama.exception", e.what()),
                DegradationEvent::Action::kLost);
    }
  });
  auto& rooms = b.result.rooms;
  for (auto& slot : slots) {
    if (slot) rooms.push_back(std::move(*slot));
  }
  for (auto& event : event_slots) {
    if (!event) continue;
    if (event->action == DegradationEvent::Action::kSalvaged) {
      ++b.result.degradation.rooms_salvaged;
    } else {
      ++b.result.degradation.rooms_lost;
    }
    b.push_event(std::move(*event));
  }
  // Room dedup: nearby implied centers are the same room; best score wins.
  std::sort(rooms.begin(), rooms.end(),
            [](const ReconstructedRoom& x, const ReconstructedRoom& y) {
              return x.layout.score > y.layout.score;
            });
  std::vector<ReconstructedRoom> unique_rooms;
  for (const auto& rec : rooms) {
    const bool duplicate =
        std::any_of(unique_rooms.begin(), unique_rooms.end(),
                    [&](const ReconstructedRoom& u) {
                      return u.center_global.distance_to(rec.center_global) <
                             config.room_merge_distance;
                    });
    if (!duplicate) unique_rooms.push_back(rec);
  }
  rooms = std::move(unique_rooms);
  if (b.artifacts != nullptr) {
    b.trace.annotate("cache", std::to_string(b.rooms_reused.load()) + "/" +
                                  std::to_string(b.rooms_total));
  }
}

/// Sub-process 3: floor plan modeling (§III.D).
void arrange_stage(Build& b) {
  auto span = b.trace.scoped("arrange");
  // Anchor placement (pre-arrangement): also the arrange seam's key input.
  const auto build_plan = [&] {
    floorplan::FloorPlan plan;
    plan.hallway = b.result.skeleton.raster;
    for (const auto& rec : b.result.rooms) {
      floorplan::PlacedRoom placed;
      placed.center = rec.center_global;
      placed.anchor = rec.center_global;
      placed.width = rec.layout.width;
      placed.depth = rec.layout.depth;
      placed.orientation = rec.orientation_global;
      placed.true_room_id = rec.true_room_id;
      placed.layout_score = rec.layout.score;
      plan.rooms.push_back(placed);
    }
    return plan;
  };
  auto arranged = run_guarded(
      b.faults, common::faults::kStageArrangeFail, kBuildKey, "arrange", [&] {
        floorplan::FloorPlan plan = build_plan();
        std::optional<cache::ArtifactKey> key;
        if (b.artifacts != nullptr) {
          key = arrange_key(plan.rooms, plan.hallway, b.config.arrange);
          if (auto payload =
                  b.artifacts->lookup(cache::Family::kArrange, *key)) {
            if (auto cached = decode_placed_rooms(*payload);
                cached && cached->size() == plan.rooms.size()) {
              b.artifact_hits.fetch_add(1, std::memory_order_relaxed);
              b.arrange_reused = true;
              plan.rooms = std::move(*cached);
              return plan;
            }
          }
          b.artifact_misses.fetch_add(1, std::memory_order_relaxed);
        }
        floorplan::arrange_rooms(plan.rooms, plan.hallway, b.config.arrange);
        if (key) {
          b.artifacts->insert(cache::Family::kArrange, *key,
                              encode_placed_rooms(plan.rooms));
        }
        return plan;
      });
  if (b.artifacts != nullptr) {
    b.trace.annotate("cache", b.arrange_reused ? "hit" : "miss");
  }
  if (arranged.ok()) {
    b.result.plan = std::move(arranged).take();
  } else {
    // Rooms stay at their panorama-implied anchors: overlapping but
    // complete beats arranged but absent.
    b.result.plan = build_plan();
    b.record("arrange", arranged.error(), "rooms left at anchor placement",
             DegradationEvent::Action::kSkipped);
  }
}

/// The build's artifact-cache reuse view; its hit, miss and invalidation
/// counts are added to the registry.
void report_cache_reuse(Build& b, std::uint64_t invalidations_before) {
  const std::size_t n = b.corpus.size();
  CacheReuseStats& cs = b.result.diagnostics.cache;
  cs.pairs_total = n > 1 ? n * (n - 1) / 2 : 0;
  cs.pairs_reused = b.pairs_reused.load(std::memory_order_relaxed);
  cs.rooms_total = b.rooms_total;
  cs.rooms_reused = b.rooms_reused.load(std::memory_order_relaxed);
  cs.skeleton_reused = b.skeleton_reused;
  cs.arrange_reused = b.arrange_reused;
  cs.artifact_hits = b.artifact_hits.load(std::memory_order_relaxed);
  cs.artifact_misses = b.artifact_misses.load(std::memory_order_relaxed);
  if (b.artifacts == nullptr) return;
  cs.artifact_invalidations = b.artifacts->invalidations();
  b.registry
      .counter("crowdmap_artifact_cache_hits_total", {},
               "Artifact cache hits across the stage seams")
      .increment(cs.artifact_hits);
  b.registry
      .counter("crowdmap_artifact_cache_misses_total", {},
               "Artifact cache misses across the stage seams")
      .increment(cs.artifact_misses);
  b.registry
      .counter("crowdmap_artifact_cache_invalidations_total", {},
               "Artifact cache entries dropped (FIFO + fault evicts)")
      .increment(cs.artifact_invalidations - invalidations_before);
}

}  // namespace

std::string CacheReuseStats::to_string() const {
  std::ostringstream out;
  out << "cache: pairs " << pairs_reused << "/" << pairs_total << " rooms "
      << rooms_reused << "/" << rooms_total << " skeleton "
      << (skeleton_reused ? "reused" : "computed") << " arrange "
      << (arrange_reused ? "reused" : "computed") << " hits=" << artifact_hits
      << " misses=" << artifact_misses
      << " invalidations=" << artifact_invalidations;
  return out.str();
}

std::string DegradationReport::to_string() const {
  std::ostringstream out;
  out << "degradation: events=" << events.size()
      << " rooms_lost=" << rooms_lost << " rooms_salvaged=" << rooms_salvaged
      << " uploads_lost_decode=" << uploads_lost_decode
      << " sensor_dropouts=" << sensor_dropouts;
  for (const auto& ev : events) {
    out << "\n  [" << ev.stage << "] " << ev.error.code << " ("
        << ev.error.message << ") " << ev.detail << " -> "
        << action_name(ev.action);
  }
  return out.str();
}

IncrementalPlanner::IncrementalPlanner(
    PipelineConfig config, std::shared_ptr<obs::MetricsRegistry> registry,
    common::ThreadPool* pool, obs::FlightRecorder* flight)
    : config_(std::move(config)),
      registry_(registry ? std::move(registry)
                         : std::make_shared<obs::MetricsRegistry>()),
      pool_(pool),
      flight_(flight) {
  // Process-wide dispatch switch; result-invariant (SimdConfig).
  common::simd::set_force_scalar(config_.simd.force_scalar);
  if (pool_ == nullptr) {
    // threads counts the calling thread, so a pool only pays off above 1;
    // the serial path (no pool) is the exact legacy execution order.
    const std::size_t threads =
        common::resolve_thread_count(config_.parallel.threads);
    if (threads > 1) {
      owned_pool_ = std::make_unique<common::ThreadPool>(threads - 1);
      pool_ = owned_pool_.get();
    }
  }
  if (flight_ == nullptr && config_.flight.enabled) {
    // One recorder for the planner's whole life: refresh N's events stay in
    // the rings next to refresh N+1's, which is exactly what a post-mortem
    // of "the plan got worse after that upload" needs.
    owned_flight_ = std::make_unique<obs::FlightRecorder>();
    flight_ = owned_flight_.get();
  }
  if (config_.incremental.artifact_cache_bytes > 0) {
    cache_ = std::make_unique<cache::ArtifactCache>(
        config_.incremental.artifact_cache_bytes);
    if (config_.faults.armed()) {
      cache_faults_.arm(config_.faults);
      cache_->set_fault_injector(&cache_faults_);
    }
  }
  videos_ingested_ = &registry_->counter(
      "crowdmap_videos_ingested_total", {}, "Uploads presented to a planner");
  trajectories_kept_ = &registry_->counter(
      "crowdmap_trajectories_kept_total", {},
      "Trajectories surviving the unqualified-data filter");
  trajectories_dropped_ = &registry_->counter(
      "crowdmap_trajectories_dropped_total", {},
      "Uploads rejected by the unqualified-data filter");
  trajectories_placed_ = &registry_->counter(
      "crowdmap_trajectories_placed_total", {},
      "Trajectories placed in the main aggregated component");
  match_edges_ = &registry_->counter(
      "crowdmap_match_edges_total", {}, "Accepted pairwise match edges");
  panoramas_attempted_ = &registry_->counter(
      "crowdmap_panoramas_attempted_total", {}, "SRS panorama stitch attempts");
  panoramas_stitched_ = &registry_->counter(
      "crowdmap_panoramas_stitched_total", {},
      "Panoramas with sufficient angular coverage");
  rooms_reconstructed_ = &registry_->counter(
      "crowdmap_rooms_reconstructed_total", {},
      "Rooms surviving layout estimation and dedup");
  stages_degraded_ = &registry_->counter(
      "crowdmap_pipeline_degradation_events_total", {},
      "Stage failures the planner degraded through instead of aborting");
  refresh_hist_ = &registry_->histogram(
      "crowdmap_plan_refresh_seconds", {},
      obs::Histogram::default_latency_buckets(),
      "Wall-clock latency of one incremental floor-plan refresh");
}

bool IncrementalPlanner::ingest(trajectory::Trajectory traj) {
  videos_ingested_->increment();
  if (!passes_quality_gates(traj, config_)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    trajectories_dropped_->increment();
    return false;
  }
  trajectories_kept_->increment();
  // Hash before taking the lock: content keying is the per-upload cost that
  // replaces the per-corpus rebuild, and it parallelizes across uploads.
  const cache::ArtifactKey key =
      cache_ ? trajectory_content_key(traj) : cache::ArtifactKey{};
  common::MutexLock lock(mutex_);
  // Idempotent by video_id: re-submitting an upload (retry storms, replays
  // after crash recovery) replaces the earlier extraction instead of
  // duplicating a trajectory — the corpus converges to one entry per video.
  for (auto& [existing, existing_key] : inbox_) {
    if (existing.video_id == traj.video_id) {
      existing = std::move(traj);
      existing_key = key;
      return true;
    }
  }
  inbox_.emplace_back(std::move(traj), key);
  return true;
}

PipelineResult IncrementalPlanner::refresh(
    const std::optional<WorldFrame>& frame) {
  common::MutexLock refresh_lock(refresh_mutex_);

  std::vector<Entry> arrivals;
  {
    common::MutexLock lock(mutex_);
    arrivals.swap(inbox_);
  }
  // The stages read the corpus in video_id order regardless of arrival
  // interleaving — the foundation of the incremental == batch property. An
  // arrival replaces the corpus entry with its video_id.
  for (auto& [traj, key] : arrivals) {
    const auto at = std::lower_bound(
        corpus_.begin(), corpus_.end(), traj.video_id,
        [](const trajectory::Trajectory& t, int id) {
          return t.video_id < id;
        });
    const auto slot = corpus_keys_.begin() + (at - corpus_.begin());
    if (at != corpus_.end() && at->video_id == traj.video_id) {
      *at = std::move(traj);
      *slot = key;
    } else {
      corpus_.insert(at, std::move(traj));
      corpus_keys_.insert(slot, key);
    }
  }

  Build b{.config = config_,
          .corpus = corpus_,
          .keys = corpus_keys_,
          .artifacts = cache_.get(),
          .pool = pool_,
          .flight = flight_,
          .registry = *registry_,
          .stages_degraded = *stages_degraded_};
  b.trace.set_flight_recorder(b.flight);
  // The floor's cache mirrors its traffic into the recorder while the build
  // runs, and is detached again before the build returns.
  const std::uint64_t invalidations_before =
      b.artifacts != nullptr ? b.artifacts->invalidations() : 0;
  if (b.artifacts != nullptr) b.artifacts->set_flight_recorder(b.flight);
  b.advance_tick();
  {
    auto run_span = b.trace.scoped("run");
    aggregate_stage(b);
    b.advance_tick();
    // Transform into the output frame (identity unless the caller provided
    // an alignment).
    const geometry::Pose2 to_world =
        frame ? frame->global_to_world : geometry::Pose2{};
    skeleton_stage(b, plan_extent(b, frame, to_world), to_world);
    b.advance_tick();
    rooms_stage(b, to_world);
    b.advance_tick();
    arrange_stage(b);
  }
  b.advance_tick();

  // Flush this build's injected fires into the labelled fault counters (and
  // the flight recorder — common/ cannot depend on obs/, so fires are
  // recorded here at the flush site rather than inside FaultInjector).
  const auto& fault_points = common::all_fault_points();
  for (std::size_t i = 0; i < fault_points.size(); ++i) {
    const std::uint64_t fires = b.faults.fires(fault_points[i]);
    if (fires == 0) continue;
    const std::string_view point = common::fault_point_name(fault_points[i]);
    registry_
        ->counter("crowdmap_faults_injected_total",
                  {{"point", std::string(point)}},
                  "Fault-point fires injected by the chaos plan")
        .increment(fires);
    if (b.flight != nullptr) {
      b.flight->record_named(obs::FlightEventKind::kFaultFired,
                             static_cast<std::uint32_t>(i), point, fires);
    }
  }

  // Diagnostics: this build's own tallies, added to the registry once.
  PipelineDiagnostics& d = b.result.diagnostics;
  d.trajectories_kept = corpus_.size();
  d.trajectories_dropped = dropped_count();
  d.videos_ingested = d.trajectories_kept + d.trajectories_dropped;
  d.trajectories_placed = b.result.aggregation.placed_count;
  d.match_edges = b.result.aggregation.edges.size();
  d.panoramas_attempted = b.panoramas_attempted.load(std::memory_order_relaxed);
  d.panoramas_stitched = b.panoramas_stitched.load(std::memory_order_relaxed);
  d.rooms_reconstructed = b.result.rooms.size();
  trajectories_placed_->increment(d.trajectories_placed);
  match_edges_->increment(d.match_edges);
  panoramas_attempted_->increment(d.panoramas_attempted);
  panoramas_stitched_->increment(d.panoramas_stitched);
  rooms_reconstructed_->increment(d.rooms_reconstructed);
  report_cache_reuse(b, invalidations_before);
  if (b.artifacts != nullptr) b.artifacts->set_flight_recorder(nullptr);

  // The closed "run" span is the build's only clock: the refresh and stage
  // histograms read their seconds from the same snapshot the caller gets.
  b.result.trace = b.trace.snapshot();
  const obs::SpanRecord& run = b.result.trace.children.front();
  refresh_hist_->observe(run.duration_seconds);
  for (const obs::SpanRecord& stage : run.children) {
    registry_
        ->histogram("crowdmap_stage_seconds", {{"stage", stage.name}}, {},
                    "Per-stage wall-clock latency")
        .observe(stage.duration_seconds);
  }
  return std::move(b.result);
}

std::vector<trajectory::Trajectory> IncrementalPlanner::trajectories() const {
  std::vector<trajectory::Trajectory> out;
  {
    common::MutexLock refresh_lock(refresh_mutex_);
    common::MutexLock lock(mutex_);
    out.reserve(inbox_.size() + corpus_.size());
    for (const auto& [traj, key] : inbox_) out.push_back(traj);
    out.insert(out.end(), corpus_.begin(), corpus_.end());
  }
  // Inbox entries come first, so after the stable sort the first of equal
  // video_ids is the inbox one, the entry the next refresh will keep.
  const auto by_id = [](const trajectory::Trajectory& a,
                        const trajectory::Trajectory& b) {
    return a.video_id < b.video_id;
  };
  std::stable_sort(out.begin(), out.end(), by_id);
  out.erase(std::unique(out.begin(), out.end(),
                        [](const trajectory::Trajectory& a,
                           const trajectory::Trajectory& b) {
                          return a.video_id == b.video_id;
                        }),
            out.end());
  return out;
}

}  // namespace crowdmap::core
