// Flight-recorder suite: ring semantics (wraparound, drop accounting,
// disarmed no-ops), the deterministic-dump normalization contract (identical
// at any thread count, same as serialized FloorPlans), chaos-harness fault
// fires landing in the dump and in its Perfetto rendering, and the recorder
// never changing plan bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "api/v2.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "floorplan/serialize.hpp"
#include "obs/flight.hpp"
#include "obs/trace_export.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "trajectory/trajectory.hpp"

namespace ap = crowdmap::api;
namespace cc = crowdmap::common;
namespace co = crowdmap::core;
namespace cs = crowdmap::sim;
namespace obs = crowdmap::obs;

namespace {

using obs::FlightEventKind;

// ---------------------------------------------------------------- rings ---

TEST(Flight, RecordsEventsWithPayloads) {
  obs::FlightRecorder flight;
  ASSERT_TRUE(flight.armed());
  flight.advance_tick(3);
  flight.record(FlightEventKind::kCacheHit, 7, 0xAAAA, 0xBBBB);
  const obs::FlightDump dump = flight.dump();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].kind, FlightEventKind::kCacheHit);
  EXPECT_EQ(dump.events[0].detail, 7u);
  EXPECT_EQ(dump.events[0].tick, 3u);
  EXPECT_EQ(dump.events[0].a, 0xAAAAu);
  EXPECT_EQ(dump.events[0].b, 0xBBBBu);
  EXPECT_FALSE(dump.deterministic);
  EXPECT_EQ(dump.dropped, 0u);
}

TEST(Flight, DisarmedRecordsNothing) {
  obs::FlightRecorder flight;
  flight.disarm();
  for (int i = 0; i < 100; ++i) {
    flight.record(FlightEventKind::kCacheMiss, 0, i);
  }
  EXPECT_TRUE(flight.dump().events.empty());
  flight.arm();
  flight.record(FlightEventKind::kCacheMiss, 0, 1);
  EXPECT_EQ(flight.dump().events.size(), 1u);
}

TEST(Flight, RingWraparoundKeepsNewestAndCountsDropped) {
  obs::FlightOptions options;
  options.ring_capacity = 8;
  obs::FlightRecorder flight(options);
  for (std::uint64_t i = 0; i < 20; ++i) {
    flight.record(FlightEventKind::kCacheHit, 0, i);
  }
  const obs::FlightDump dump = flight.dump();
  ASSERT_EQ(dump.events.size(), 8u);
  EXPECT_EQ(dump.dropped, 12u);
  EXPECT_EQ(flight.dropped(), 12u);
  // The survivors are the newest 12..19, in write order.
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    EXPECT_EQ(dump.events[i].a, 12 + i);
  }
}

TEST(Flight, InternedNamesLandInTheDumpStringTable) {
  obs::FlightRecorder flight;
  flight.record_named(FlightEventKind::kDegradation, 0, "panorama",
                      flight.intern("skipped"));
  const obs::FlightDump dump = flight.dump();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.strings.count(dump.events[0].a), 1u);
  EXPECT_EQ(dump.strings.at(dump.events[0].a), "panorama");
  EXPECT_EQ(dump.strings.at(dump.events[0].b), "skipped");
  // Interning is stable: the same name hashes identically every time.
  EXPECT_EQ(flight.intern("panorama"), dump.events[0].a);
}

// ------------------------------------------------- deterministic dumps ---

TEST(Flight, DeterministicDumpFiltersRacyKindsAndNormalizes) {
  obs::FlightRecorder flight;
  flight.advance_tick();
  flight.record(FlightEventKind::kQueueDepth, 0, 9);
  flight.record(FlightEventKind::kCacheEvict, 1, 5, 6);
  flight.record(FlightEventKind::kCacheHit, 1, 5, 6);
  flight.record_named(FlightEventKind::kFaultFired, 2, "decode.fail");

  const obs::FlightDump dump = flight.deterministic_dump();
  EXPECT_TRUE(dump.deterministic);
  ASSERT_EQ(dump.events.size(), 2u);
  for (const auto& event : dump.events) {
    EXPECT_NE(event.kind, FlightEventKind::kQueueDepth);
    EXPECT_NE(event.kind, FlightEventKind::kCacheEvict);
    EXPECT_EQ(event.thread, 0u);
    EXPECT_EQ(event.steady_nanos, 0u);
  }
  // Sorted by content: cache_hit (kind 3) before fault_fired (kind 6).
  EXPECT_EQ(dump.events[0].kind, FlightEventKind::kCacheHit);
  EXPECT_EQ(dump.events[1].kind, FlightEventKind::kFaultFired);
}

// ---------------------------------------------------- planner contracts ---

/// Renders a seeded campaign and admits every upload to `planner`.
void ingest_campaign(co::IncrementalPlanner& planner,
                     const cs::FloorPlanSpec& spec,
                     const cs::CampaignOptions& options, std::uint64_t seed) {
  cs::generate_campaign_streaming(
      spec, options, seed, [&planner](cs::SensorRichVideo&& video) {
        (void)planner.ingest(crowdmap::trajectory::extract_trajectory(
            video, planner.config().extraction));
      });
}

/// Seeded campaign built by a planner of its own: the plan bytes and the
/// planner's flight recorder after one refresh.
struct PipelineRun {
  crowdmap::io::Bytes plan_bytes;
  obs::FlightDump deterministic_dump;
  std::uint64_t dropped = 0;
};

PipelineRun seeded_run(std::size_t threads, bool flight_enabled,
                       cc::FaultPlan faults = {}) {
  cc::Rng rng(777);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options;
  options.users = 2;
  options.room_videos_per_room = 1;
  options.hallway_walks = 4;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;

  co::PipelineConfig config = co::PipelineConfig::fast_profile();
  config.parallel.threads = threads;
  config.flight.enabled = flight_enabled;
  config.faults = std::move(faults);
  obs::FlightOptions flight_options;
  flight_options.ring_capacity = 1u << 16;  // no wraparound in this workload
  obs::FlightRecorder recorder(flight_options);
  // The planner without the service around it is the unit under test here.
  co::IncrementalPlanner planner(config, nullptr, nullptr,
                                 flight_enabled ? &recorder : nullptr);
  ingest_campaign(planner, spec, options, 777);

  PipelineRun out;
  out.plan_bytes =
      crowdmap::floorplan::encode_floorplan(planner.refresh().plan);
  if (obs::FlightRecorder* flight = planner.flight_recorder()) {
    out.deterministic_dump = flight->deterministic_dump();
    out.dropped = flight->dropped();
  }
  return out;
}

TEST(Flight, RecorderDoesNotChangeFloorPlanBytes) {
  const auto with_recorder = seeded_run(2, true);
  const auto without_recorder = seeded_run(2, false);
  ASSERT_FALSE(with_recorder.plan_bytes.empty());
  EXPECT_EQ(with_recorder.plan_bytes, without_recorder.plan_bytes);
  // The enabled run actually recorded something.
  EXPECT_FALSE(with_recorder.deterministic_dump.events.empty());
  EXPECT_TRUE(without_recorder.deterministic_dump.events.empty());
}

TEST(Flight, DeterministicDumpIsByteIdenticalAcrossThreadCounts) {
  const auto serial = seeded_run(1, true);
  const auto parallel = seeded_run(4, true);
  ASSERT_EQ(serial.dropped, 0u);
  ASSERT_EQ(parallel.dropped, 0u);
  EXPECT_EQ(serial.plan_bytes, parallel.plan_bytes);
  ASSERT_FALSE(serial.deterministic_dump.events.empty());
  EXPECT_EQ(serial.deterministic_dump.events,
            parallel.deterministic_dump.events);
  EXPECT_EQ(serial.deterministic_dump.strings,
            parallel.deterministic_dump.strings);
}

TEST(Flight, ChaosFaultFireIsRecordedWithItsPointName) {
  cc::FaultPlan plan;
  plan.seed = 99;
  plan.settings.push_back(
      cc::FaultSetting{cc::faults::kStagePanoramaFail, 1.0,
                       cc::FaultSetting::kNoBudget});

  cc::Rng rng(777);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options;
  options.users = 2;
  options.room_videos_per_room = 1;
  options.hallway_walks = 4;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;

  co::PipelineConfig config = co::PipelineConfig::fast_profile();
  config.parallel.threads = 2;
  config.flight.enabled = true;
  config.faults = plan;
  co::IncrementalPlanner planner(config);
  ASSERT_NE(planner.flight_recorder(), nullptr);

  ingest_campaign(planner, spec, options, 777);
  const auto result = planner.refresh();
  ASSERT_FALSE(crowdmap::floorplan::encode_floorplan(result.plan).empty());

  // The fired fault is in the dump, with its point name interned.
  const obs::FlightDump dump = planner.flight_recorder()->dump();
  const std::string_view point =
      cc::fault_point_name(cc::faults::kStagePanoramaFail);
  bool saw_fault = false;
  for (const auto& event : dump.events) {
    if (event.kind != FlightEventKind::kFaultFired) continue;
    saw_fault = true;
    const auto name = dump.strings.find(event.a);
    ASSERT_NE(name, dump.strings.end());
    EXPECT_EQ(name->second, point);
  }
  EXPECT_TRUE(saw_fault);

  // The Perfetto export is the only way a dump leaves the process: the fire
  // renders as an instant under its point name.
  const std::string json = obs::to_trace_event_json(result.trace, &dump);
  const std::string instant =
      "{\"name\": \"" + std::string(point) + "\", \"ph\": \"i\"";
  bool rendered = false;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    rendered = rendered ||
               (line.find(instant) != std::string::npos &&
                line.find("\"kind\": \"fault_fired\"") != std::string::npos);
  }
  EXPECT_TRUE(rendered);
}

// ----------------------------------------------------------- api surface ---

TEST(Flight, ApiClientExposesDumps) {
  ap::ClientOptions enabled;
  enabled.config = co::PipelineConfig::fast_profile();
  enabled.config.flight.enabled = true;
  ap::Client client(std::move(enabled));
  const auto dump = client.flight_dump(0);
  ASSERT_TRUE(dump.has_value());
  EXPECT_FALSE(dump->deterministic);
  // The node index comes first: flight_dump(true) would ask for node 1.
  const auto deterministic = client.flight_dump(0, /*deterministic=*/true);
  ASSERT_TRUE(deterministic.has_value());
  EXPECT_TRUE(deterministic->deterministic);
  const auto router = client.router_flight_dump();
  ASSERT_TRUE(router.has_value());
  EXPECT_FALSE(router->deterministic);
  const auto router_deterministic =
      client.router_flight_dump(/*deterministic=*/true);
  ASSERT_TRUE(router_deterministic.has_value());
  EXPECT_TRUE(router_deterministic->deterministic);

  ap::ClientOptions disabled;
  disabled.config = co::PipelineConfig::fast_profile();
  disabled.config.flight.enabled = false;
  ap::Client dark(std::move(disabled));
  EXPECT_FALSE(dark.flight_dump(0).has_value());
  EXPECT_FALSE(dark.flight_dump(0, /*deterministic=*/true).has_value());
  EXPECT_FALSE(dark.router_flight_dump().has_value());
  EXPECT_FALSE(dark.router_flight_dump(/*deterministic=*/true).has_value());
}

}  // namespace
