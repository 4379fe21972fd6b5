// Chaos suite: the deterministic fault-injection harness end to end.
//
// Unit half: FaultInjector decisions are a pure function of (seed, point,
// key) — interrogation order, thread count and injector instance must not
// matter — plus plan parsing, budgets, and the CROWDMAP_FAULT_SEED hook.
//
// Integration half: a CrowdMapService run under a full chaos plan (dropped /
// duplicated / reordered / corrupted chunks on the wire, decode failures,
// sensor dropouts, per-room stage faults) must still produce a floor plan,
// and two runs with the same (fault seed, thread count) — or different
// thread counts — must serialize byte-identically with identical
// degradation reports. The CI chaos matrix re-runs this suite at several
// CROWDMAP_FAULT_SEED values; any failure reproduces locally by exporting
// the same seed (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "cloud/service.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "floorplan/serialize.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"

namespace cc = crowdmap::common;
namespace cl = crowdmap::cloud;
namespace co = crowdmap::core;
namespace cs = crowdmap::sim;

namespace {

/// Seed for the integration runs: the CI matrix overrides it via
/// CROWDMAP_FAULT_SEED so the same binary covers several chaos timelines.
std::uint64_t chaos_seed() {
  std::uint64_t seed = 0;
  if (cc::env_fault_seed(seed)) return seed;
  return 1301;
}

// ---------------------------------------------------------------- catalog ---

TEST(FaultCatalog, NamesRoundTrip) {
  const auto& points = cc::all_fault_points();
  EXPECT_EQ(points.size(), cc::fault_point_count());
  for (const auto point : points) {
    const auto name = cc::fault_point_name(point);
    EXPECT_FALSE(name.empty());
    const auto parsed = cc::fault_point_from_name(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(parsed.value(), point);
  }
}

TEST(FaultCatalog, UnknownNameIsAnError) {
  const auto parsed = cc::fault_point_from_name("bogus.point");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "fault.unknown_point");
}

TEST(FaultCatalog, PlanParsesAndRoundTrips) {
  const auto plan =
      cc::parse_fault_plan("42:decode.fail=0.25,stage.panorama_fail=0.1@3");
  ASSERT_TRUE(plan.ok()) << plan.error().message;
  EXPECT_EQ(plan.value().seed, 42u);
  ASSERT_EQ(plan.value().settings.size(), 2u);
  EXPECT_EQ(plan.value().settings[0].point, cc::faults::kDecodeFail);
  EXPECT_DOUBLE_EQ(plan.value().settings[0].probability, 0.25);
  EXPECT_EQ(plan.value().settings[0].budget, cc::FaultSetting::kNoBudget);
  EXPECT_EQ(plan.value().settings[1].budget, 3u);

  const auto reparsed = cc::parse_fault_plan(cc::format_fault_plan(plan.value()));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(cc::format_fault_plan(reparsed.value()),
            cc::format_fault_plan(plan.value()));
}

TEST(FaultCatalog, MalformedPlansAreErrors) {
  EXPECT_FALSE(cc::parse_fault_plan("no-colon-here").ok());
  EXPECT_FALSE(cc::parse_fault_plan("notanumber:decode.fail=0.5").ok());
  const auto unknown = cc::parse_fault_plan("7:bogus.point=0.5");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, "fault.unknown_point");
}

TEST(FaultCatalog, EnvSeedRespected) {
  ASSERT_EQ(setenv("CROWDMAP_FAULT_SEED", "7777", 1), 0);
  std::uint64_t seed = 0;
  EXPECT_TRUE(cc::env_fault_seed(seed));
  EXPECT_EQ(seed, 7777u);
  ASSERT_EQ(setenv("CROWDMAP_FAULT_SEED", "not-a-seed", 1), 0);
  EXPECT_FALSE(cc::env_fault_seed(seed));
  ASSERT_EQ(unsetenv("CROWDMAP_FAULT_SEED"), 0);
  EXPECT_FALSE(cc::env_fault_seed(seed));
}

// --------------------------------------------------------------- injector ---

cc::FaultPlan one_point_plan(cc::FaultPoint point, double probability,
                             std::uint64_t seed = 99,
                             std::uint64_t budget = cc::FaultSetting::kNoBudget) {
  cc::FaultPlan plan;
  plan.seed = seed;
  plan.settings.push_back(cc::FaultSetting{point, probability, budget});
  return plan;
}

TEST(FaultInjector, DisarmedNeverFires) {
  cc::FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  for (std::uint64_t key = 0; key < 256; ++key) {
    for (const auto point : cc::all_fault_points()) {
      EXPECT_FALSE(injector.should_fire(point, key));
    }
  }
  EXPECT_EQ(injector.total_fires(), 0u);
}

TEST(FaultInjector, ProbabilityEndpoints) {
  cc::FaultInjector always(one_point_plan(cc::faults::kDecodeFail, 1.0));
  cc::FaultInjector never(one_point_plan(cc::faults::kDecodeFail, 0.0));
  for (std::uint64_t key = 0; key < 256; ++key) {
    EXPECT_TRUE(always.should_fire(cc::faults::kDecodeFail, key));
    EXPECT_FALSE(never.should_fire(cc::faults::kDecodeFail, key));
    // An armed plan only fires the points it lists.
    EXPECT_FALSE(always.should_fire(cc::faults::kStageArrangeFail, key));
  }
  EXPECT_EQ(always.fires(cc::faults::kDecodeFail), 256u);
  EXPECT_EQ(never.total_fires(), 0u);
}

TEST(FaultInjector, DecisionsAreKeyedNotOrdered) {
  const auto plan = one_point_plan(cc::faults::kStagePanoramaFail, 0.5, 1234);
  cc::FaultInjector forward(plan);
  cc::FaultInjector backward(plan);

  constexpr std::uint64_t kKeys = 1000;
  std::vector<bool> forward_decisions(kKeys);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    forward_decisions[key] =
        forward.should_fire(cc::faults::kStagePanoramaFail, key);
  }
  // Interrogating the same keys in reverse on a fresh injector must agree
  // per key: no interrogation-order state anywhere.
  for (std::uint64_t key = kKeys; key-- > 0;) {
    EXPECT_EQ(backward.should_fire(cc::faults::kStagePanoramaFail, key),
              forward_decisions[key])
        << "key " << key;
  }

  // Sanity: a 0.5 plan over 1000 keys fires a non-trivial fraction.
  const auto fired = forward.fires(cc::faults::kStagePanoramaFail);
  EXPECT_GT(fired, 300u);
  EXPECT_LT(fired, 700u);
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  cc::FaultInjector a(one_point_plan(cc::faults::kDecodeFail, 0.5, 1));
  cc::FaultInjector b(one_point_plan(cc::faults::kDecodeFail, 0.5, 2));
  bool any_difference = false;
  for (std::uint64_t key = 0; key < 256; ++key) {
    if (a.should_fire(cc::faults::kDecodeFail, key) !=
        b.should_fire(cc::faults::kDecodeFail, key)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjector, BudgetCapsFires) {
  cc::FaultInjector injector(
      one_point_plan(cc::faults::kDecodeFail, 1.0, 99, /*budget=*/3));
  std::size_t fired = 0;
  for (std::uint64_t key = 0; key < 10; ++key) {
    if (injector.should_fire(cc::faults::kDecodeFail, key)) ++fired;
  }
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(injector.fires(cc::faults::kDecodeFail), 3u);
  EXPECT_EQ(injector.total_fires(), 3u);
}

// ------------------------------------------------------------ integration ---

/// Videos travel by side table keyed by upload id (as in test_service).
struct Fixture {
  std::map<std::string, cs::SensorRichVideo> videos;

  cl::VideoDecoder decoder() {
    return [this](const cl::Document& doc) -> std::optional<cs::SensorRichVideo> {
      const auto it = videos.find(doc.id);
      if (it == videos.end()) return std::nullopt;
      return it->second;
    };
  }
};

struct ChaosRun {
  crowdmap::io::Bytes plan_bytes;
  std::string degradation;
  co::PipelineResult result;
  cl::ServiceStats stats;
};

/// One full backend run under `plan`: the campaign's uploads are chunked and
/// pushed through a wire that drops / reorders / duplicates / corrupts
/// chunks per the plan's ingest.* points (keyed by (upload id, chunk index),
/// never by delivery order), followed by clean retransmit rounds; the
/// service and pipeline honor the decode/extract/stage points themselves.
/// `cache_bytes` overrides the artifact-cache budget when not SIZE_MAX (0
/// disables caching); `builds` repeats build_floor_plan so warm-path reuse
/// and eviction pressure are exercised — the returned run is the last build.
ChaosRun run_backend(const cc::FaultPlan& plan, std::size_t threads,
                     std::size_t cache_bytes = SIZE_MAX, int builds = 1) {
  cc::Rng rng(4242);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options;
  options.users = 2;
  options.room_videos_per_room = 1;
  options.hallway_walks = 5;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;
  std::vector<cs::SensorRichVideo> videos;
  cs::generate_campaign_streaming(spec, options, 4242,
                                  [&videos](cs::SensorRichVideo&& video) {
                                    videos.push_back(std::move(video));
                                  });

  co::PipelineConfig config = co::PipelineConfig::fast_profile();
  config.parallel.threads = threads;
  config.faults = plan;
  if (cache_bytes != SIZE_MAX) {
    config.incremental.artifact_cache_bytes = cache_bytes;
  }

  Fixture fixture;
  cc::ThreadPool pool(threads);
  cl::CrowdMapService service(config, fixture.decoder(), pool);
  cc::FaultInjector wire(plan);  // the lossy network between client and cloud

  for (std::size_t v = 0; v < videos.size(); ++v) {
    const std::string id = "chaos" + std::to_string(v);
    fixture.videos[id] = videos[v];
    service.open_session(id, videos[v].building, videos[v].floor);
    const auto chunks = cl::split_into_chunks(
        cl::Blob(256, static_cast<std::uint8_t>(v)), id, 100);

    std::vector<cl::Chunk> deferred;
    for (const auto& chunk : chunks) {
      const auto key =
          cc::hash_combine(cc::stable_string_hash(id), chunk.index);
      if (wire.should_fire(cc::faults::kIngestChunkDrop, key)) continue;
      if (wire.should_fire(cc::faults::kIngestChunkReorder, key)) {
        deferred.push_back(chunk);
        continue;
      }
      auto on_the_wire = chunk;
      if (wire.should_fire(cc::faults::kIngestChunkCorrupt, key) &&
          !on_the_wire.payload.empty()) {
        on_the_wire.payload[0] ^= 0xFF;  // checksum now fails server-side
      }
      service.deliver(on_the_wire);
      if (wire.should_fire(cc::faults::kIngestChunkDuplicate, key)) {
        service.deliver(on_the_wire);
      }
    }
    for (const auto& chunk : deferred) service.deliver(chunk);

    // Clean retransmit rounds until the upload completes (or the server
    // expires the session — also a deterministic outcome).
    for (int round = 0; round < 4; ++round) {
      const auto missing = service.missing_chunks(id);
      if (missing.empty()) break;
      for (const auto index : missing) {
        service.deliver(chunks[static_cast<std::size_t>(index)]);
      }
    }
  }
  service.drain();

  co::WorldFrame frame;
  frame.global_to_world = crowdmap::geometry::Pose2{};
  frame.extent = spec.extent();
  ChaosRun run;
  for (int b = 0; b < builds; ++b) {
    run.result = service.build_floor_plan(videos.front().building,
                                          videos.front().floor, frame);
  }
  run.plan_bytes = crowdmap::floorplan::encode_floorplan(run.result.plan);
  run.degradation = run.result.degradation.to_string();
  run.stats = service.stats();
  return run;
}

cc::FaultPlan full_chaos_plan(std::uint64_t seed) {
  cc::FaultPlan plan;
  plan.seed = seed;
  plan.settings = {
      cc::FaultSetting{cc::faults::kIngestChunkDrop, 0.15},
      cc::FaultSetting{cc::faults::kIngestChunkDuplicate, 0.10},
      cc::FaultSetting{cc::faults::kIngestChunkReorder, 0.20},
      cc::FaultSetting{cc::faults::kIngestChunkCorrupt, 0.10},
      cc::FaultSetting{cc::faults::kDecodeFail, 0.15},
      cc::FaultSetting{cc::faults::kExtractSensorDropout, 0.20},
      cc::FaultSetting{cc::faults::kStagePanoramaFail, 0.15},
      cc::FaultSetting{cc::faults::kStageLayoutFail, 0.10},
  };
  return plan;
}

TEST(ChaosDeterminism, RepeatedRunsSerializeIdentically) {
  const auto plan = full_chaos_plan(chaos_seed());
  const auto first = run_backend(plan, 1);
  const auto second = run_backend(plan, 1);
  ASSERT_FALSE(first.plan_bytes.empty());
  EXPECT_EQ(first.plan_bytes, second.plan_bytes);  // byte-for-byte
  EXPECT_EQ(first.degradation, second.degradation);
}

TEST(ChaosDeterminism, ThreadCountDoesNotLeakIntoTheBytes) {
  const auto plan = full_chaos_plan(chaos_seed());
  const auto serial = run_backend(plan, 1);
  const auto pooled = run_backend(plan, 4);
  ASSERT_FALSE(serial.plan_bytes.empty());
  EXPECT_EQ(serial.plan_bytes, pooled.plan_bytes);
  EXPECT_EQ(serial.degradation, pooled.degradation);
}

TEST(ChaosDeterminism, ArmedPlanThatNeverFiresMatchesDisarmed) {
  // An armed plan whose budgets are all exhausted takes the full armed code
  // path on every interrogation yet can never fire — the bytes must equal a
  // run with no plan at all: the injected checks are observably free.
  cc::FaultPlan muzzled = full_chaos_plan(chaos_seed());
  for (auto& setting : muzzled.settings) {
    setting.probability = 1.0;
    setting.budget = 0;
  }
  const auto clean = run_backend(cc::FaultPlan{}, 2);
  const auto armed = run_backend(muzzled, 2);
  ASSERT_FALSE(clean.plan_bytes.empty());
  EXPECT_EQ(clean.plan_bytes, armed.plan_bytes);
  EXPECT_FALSE(clean.result.degradation.degraded());
  EXPECT_FALSE(armed.result.degradation.degraded());
}

TEST(ChaosDeterminism, CacheEvictionUnderPressureStaysByteIdentical) {
  // A starved artifact cache (constant FIFO eviction) and a disabled one
  // must both serialize the same bytes as the roomy default: eviction only
  // costs recomputation, never changes results. Two builds per run so the
  // second build actually exercises the reuse-vs-evicted paths.
  const auto plan = full_chaos_plan(chaos_seed());
  const auto roomy = run_backend(plan, 2, SIZE_MAX, 2);
  const auto starved = run_backend(plan, 2, 2048, 2);
  const auto disabled = run_backend(plan, 2, 0, 2);
  ASSERT_FALSE(roomy.plan_bytes.empty());
  EXPECT_EQ(roomy.plan_bytes, starved.plan_bytes);
  EXPECT_EQ(roomy.plan_bytes, disabled.plan_bytes);
  EXPECT_EQ(roomy.degradation, starved.degradation);
  EXPECT_EQ(roomy.degradation, disabled.degradation);
}

TEST(ChaosDeterminism, ArtifactEvictFaultIsInvisibleInTheOutput) {
  // cache.artifact_evict refuses inserts at the injection point; lookups
  // then miss and the stage recomputes. The fault must not surface in the
  // bytes or in the degradation report — the cache is an optimization, and
  // chaos there degrades performance, not correctness.
  cc::FaultPlan evict_plan;
  evict_plan.seed = chaos_seed();
  evict_plan.settings = {
      cc::FaultSetting{cc::faults::kArtifactCacheEvict, 0.5}};
  const auto clean = run_backend(cc::FaultPlan{}, 2, SIZE_MAX, 2);
  const auto evicting = run_backend(evict_plan, 2, SIZE_MAX, 2);
  ASSERT_FALSE(clean.plan_bytes.empty());
  EXPECT_EQ(clean.plan_bytes, evicting.plan_bytes);
  EXPECT_FALSE(evicting.result.degradation.degraded());
}

TEST(Chaos, DegradesInsteadOfCollapsing) {
  // Decode failures plus panorama-stage faults at 20%: the backend must
  // still return a plan whose hallway skeleton substantially overlaps the
  // fault-free one (rooms may be lost; the skeleton survives).
  cc::FaultPlan plan;
  plan.seed = chaos_seed();
  plan.settings = {
      cc::FaultSetting{cc::faults::kDecodeFail, 0.20},
      cc::FaultSetting{cc::faults::kStagePanoramaFail, 0.20},
  };
  const auto baseline = run_backend(cc::FaultPlan{}, 2);
  const auto chaos = run_backend(plan, 2);

  ASSERT_FALSE(chaos.plan_bytes.empty());
  EXPECT_TRUE(chaos.result.degradation.degraded());
  EXPECT_GT(chaos.stats.decode_failures + chaos.result.degradation.rooms_lost +
                chaos.result.degradation.rooms_salvaged,
            0u);

  // Same WorldFrame -> cell-comparable rasters. The chaos skeleton must
  // recall most of the baseline skeleton's cells.
  const auto& base = baseline.result.skeleton.raster;
  const auto& survived = chaos.result.skeleton.raster;
  ASSERT_EQ(base.width(), survived.width());
  ASSERT_EQ(base.height(), survived.height());
  std::size_t base_set = 0;
  std::size_t overlap = 0;
  for (std::size_t i = 0; i < base.data().size(); ++i) {
    if (!base.data()[i]) continue;
    ++base_set;
    if (survived.data()[i]) ++overlap;
  }
  ASSERT_GT(base_set, 0u);
  EXPECT_GT(static_cast<double>(overlap) / static_cast<double>(base_set), 0.5);
}

}  // namespace
