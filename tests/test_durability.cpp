// Durability chaos suite (docs/DURABILITY.md): proves the crash-recovery
// contract of the log-structured DocumentStore backend two ways.
//
// Exact-prefix sweep: a fixed mutation sequence is journaled against a
// FaultEnv killed at EVERY byte offset of the write history; recovery from
// each survivor must rebuild exactly the mutations whose WAL frames landed
// entirely below the crash line — no committed record lost, no torn record
// resurrected — and must never throw.
//
// Campaign convergence: a 20+ upload crowd campaign is killed mid-write
// (torn writes, failed fsyncs, crash-at-byte-N at several fractions of the
// write history, across >=3 seeds); a restarted service recovers the
// survivor, the campaign is re-submitted (planner admission is idempotent by
// video_id), and the rebuilt FloorPlan must serialize byte-identical to an
// uncrashed reference run — at 1 and at 4 worker threads. The CI chaos
// matrix re-runs this suite at several CROWDMAP_FAULT_SEED values; on
// divergence the mismatched plan bytes are written under
// durability_divergence/ for artifact upload.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cloud/durable_store.hpp"
#include "cloud/service.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "floorplan/serialize.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "storage/env.hpp"

namespace cc = crowdmap::common;
namespace cl = crowdmap::cloud;
namespace co = crowdmap::core;
namespace cs = crowdmap::sim;
namespace st = crowdmap::storage;
namespace io = crowdmap::io;

namespace {

/// Seeds for the crash matrix. The CI chaos matrix overrides the first one
/// via CROWDMAP_FAULT_SEED so each leg walks a different timeline.
std::vector<std::uint64_t> matrix_seeds() {
  std::vector<std::uint64_t> seeds{1301, 2477, 9043};
  std::uint64_t env_seed = 0;
  if (cc::env_fault_seed(env_seed)) seeds[0] = env_seed;
  return seeds;
}

/// True for the synthetic audit documents recovery mints for damaged WAL
/// tails — they are evidence about the crash, not campaign state, so every
/// state comparison filters them out first.
bool is_damage_evidence(const cl::Document& doc) {
  return doc.building == cl::kWalDamageBuilding ||
         doc.id.rfind("sys/wal-damage/", 0) == 0;
}

/// Writes reference/actual bytes for CI artifact upload when a byte
/// comparison fails (the chaos and ASan jobs upload this directory).
void write_divergence(const std::string& name, const io::Bytes& reference,
                      const io::Bytes& actual) {
  std::error_code ec;
  std::filesystem::create_directories("durability_divergence", ec);
  const auto dump = [](const std::string& path, const io::Bytes& bytes) {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
  dump("durability_divergence/" + name + ".reference.bin", reference);
  dump("durability_divergence/" + name + ".recovered.bin", actual);
}

// ------------------------------------------------------- exact-prefix sweep ---

/// One scripted mutation against the journaled store.
struct Op {
  enum Kind { kPut, kErase, kQuarantine } kind = kPut;
  cl::Document doc;
  std::string reason;
};

cl::Document sweep_doc(const std::string& id, int floor,
                       const std::string& payload) {
  cl::Document doc;
  doc.id = id;
  doc.building = "Lab1";
  doc.floor = floor;
  doc.metadata["origin"] = "sweep:" + id;
  doc.payload.assign(payload.begin(), payload.end());
  return doc;
}

std::vector<Op> sweep_script() {
  std::vector<Op> ops;
  ops.push_back({Op::kPut, sweep_doc("d0", 1, "alpha"), ""});
  ops.push_back({Op::kPut, sweep_doc("d1", 1, "bravo-bravo"), ""});
  ops.push_back({Op::kPut, sweep_doc("d2", 2, "charlie"), ""});
  ops.push_back({Op::kPut, sweep_doc("d1", 3, "delta-replaced"), ""});  // move
  ops.push_back({Op::kErase, sweep_doc("d0", 1, ""), ""});
  ops.push_back({Op::kQuarantine, sweep_doc("q0", 1, "mangled-bytes"),
                 "checksum_mismatch"});
  ops.push_back({Op::kPut, sweep_doc("d3", 1, "echo"), ""});
  return ops;
}

void apply_op(cl::DocumentStore& store, const Op& op) {
  switch (op.kind) {
    case Op::kPut:
      store.put(op.doc);
      break;
    case Op::kErase:
      store.erase(op.doc.id);
      break;
    case Op::kQuarantine:
      store.quarantine(op.doc, op.reason);
      break;
  }
}

/// Canonical state fingerprint: every non-evidence document of both
/// collections, fully serialized, in sorted order.
std::string fingerprint(const cl::DocumentStore& store) {
  std::string out;
  const auto add = [&out](const char* prefix, const cl::Document& doc) {
    out += prefix;
    out += doc.id + "|" + doc.building + "|" + std::to_string(doc.floor) + "|";
    for (const auto& [key, value] : doc.metadata) {
      out += key + "=" + value + ";";
    }
    out.append(doc.payload.begin(), doc.payload.end());
    out += "\n";
  };
  for (const auto& doc : store.export_documents()) {
    if (!is_damage_evidence(doc)) add("doc:", doc);
  }
  for (const auto& doc : store.export_quarantined()) {
    if (!is_damage_evidence(doc)) add("quar:", doc);
  }
  return out;
}

TEST(DurabilitySweep, ExactPrefixRecoveryAtEveryByteOffset) {
  const std::vector<Op> script = sweep_script();
  cl::DurableStoreOptions options;
  options.dir = "db";

  // Pass 1 (no faults): map each op to the byte offset at which its WAL
  // frame is fully durable, and capture the expected post-op fingerprints.
  std::vector<std::uint64_t> durable_at(script.size(), 0);
  std::vector<std::string> state_after(script.size() + 1);
  std::uint64_t total_bytes = 0;
  {
    st::FaultEnv env;
    cl::DocumentStore store;
    cl::DurableDocumentStore durable(store, env, options);
    ASSERT_TRUE(durable.open_and_recover().ok());
    state_after[0] = fingerprint(store);
    for (std::size_t i = 0; i < script.size(); ++i) {
      apply_op(store, script[i]);
      durable_at[i] = env.bytes_appended();
      state_after[i + 1] = fingerprint(store);
    }
    total_bytes = env.bytes_appended();
  }
  ASSERT_GT(total_bytes, 0u);

  // Pass 2: crash at every byte offset of that history, recover the
  // survivor, and demand the exact durable prefix — nothing more, nothing
  // less. Recovery must never throw.
  std::size_t damaged_offsets = 0;
  for (std::uint64_t crash_at = 0; crash_at <= total_bytes; ++crash_at) {
    st::FaultEnv env;
    if (crash_at < total_bytes) env.set_crash_at_bytes(crash_at);
    {
      cl::DocumentStore store;
      cl::DurableDocumentStore durable(store, env, options);
      auto opened = durable.open_and_recover();
      if (opened.ok()) {
        for (const Op& op : script) {
          apply_op(store, op);  // journal appends fail past the crash line
        }
      }
    }

    // The expected state is defined by the last op whose frame is fully
    // below the crash line.
    std::size_t durable_ops = 0;
    while (durable_ops < script.size() &&
           durable_at[durable_ops] <= crash_at) {
      ++durable_ops;
    }

    auto survivor = env.fork_survivor();
    cl::DocumentStore recovered;
    cl::DurableDocumentStore durable(recovered, *survivor, options);
    crowdmap::common::Expected<st::RecoveryReport> report =
        crowdmap::common::make_error("unset", "");
    ASSERT_NO_THROW(report = durable.open_and_recover()) << "crash_at "
                                                         << crash_at;
    ASSERT_TRUE(report.ok()) << "crash_at " << crash_at << ": "
                             << report.error().message;
    EXPECT_EQ(fingerprint(recovered), state_after[durable_ops])
        << "crash_at " << crash_at << " expected " << durable_ops
        << " durable ops";
    if (report.value().truncated_records() > 0) ++damaged_offsets;
  }
  // Sanity on the sweep itself: plenty of offsets land mid-frame, so the
  // truncate-and-quarantine path really ran.
  EXPECT_GT(damaged_offsets, script.size());
}

// ------------------------------------------------------ campaign convergence ---

/// Videos travel by side table keyed by upload id (as in test_service /
/// test_chaos). The table is owned by the TEST, not the service, so it
/// survives the simulated process restart — recovered documents decode.
struct Fixture {
  std::map<std::string, cs::SensorRichVideo> videos;

  cl::VideoDecoder decoder() {
    return
        [this](const cl::Document& doc) -> std::optional<cs::SensorRichVideo> {
          const auto it = videos.find(doc.id);
          if (it == videos.end()) return std::nullopt;
          return it->second;
        };
  }
};

struct Campaign {
  cs::FloorPlanSpec spec;
  std::vector<cs::SensorRichVideo> videos;
};

/// 20+ uploads over a two-room corridor building (the acceptance floor for
/// the chaos campaign).
const Campaign& campaign() {
  static const Campaign instance = [] {
    cc::Rng rng(4242);
    Campaign c{cs::random_building(2, rng), {}};
    cs::CampaignOptions options;
    options.users = 4;
    options.room_videos_per_room = 2;
    options.hallway_walks = 16;
    options.junk_fraction = 0.0;
    options.sim.fps = 3.0;
    cs::generate_campaign_streaming(c.spec, options, 4242,
                                    [&c](cs::SensorRichVideo&& video) {
                                      c.videos.push_back(std::move(video));
                                    });
    return c;
  }();
  return instance;
}

co::PipelineConfig storage_config(std::size_t threads) {
  co::PipelineConfig config = co::PipelineConfig::fast_profile();
  config.parallel.threads = threads;
  config.storage.dir = "db";
  config.storage.snapshot_every = 8;  // checkpoints interleave with crashes
  return config;
}

void prefill(Fixture& fixture) {
  for (std::size_t v = 0; v < campaign().videos.size(); ++v) {
    fixture.videos["up" + std::to_string(v)] = campaign().videos[v];
  }
}

/// Submits the whole campaign over a clean wire. Deliveries after the env
/// crashed still succeed in memory — durability degrades, serving does not.
void submit_all(cl::CrowdMapService& service) {
  const auto& videos = campaign().videos;
  for (std::size_t v = 0; v < videos.size(); ++v) {
    const std::string id = "up" + std::to_string(v);
    service.open_session(id, videos[v].building, videos[v].floor);
    const auto chunks = cl::split_into_chunks(
        cl::Blob(256, static_cast<std::uint8_t>(v)), id, 100);
    for (const auto& chunk : chunks) service.deliver(chunk);
  }
  service.drain();
}

io::Bytes build_plan_bytes(cl::CrowdMapService& service) {
  co::WorldFrame frame;
  frame.global_to_world = crowdmap::geometry::Pose2{};
  frame.extent = campaign().spec.extent();
  const auto& front = campaign().videos.front();
  const auto result =
      service.build_floor_plan(front.building, front.floor, frame);
  return crowdmap::floorplan::encode_floorplan(result.plan);
}

/// Runs the campaign against a storage-backed service on `env` until the env
/// (maybe) dies; returns after drain. The service is built with 4 workers so
/// journal appends race the way production would.
void run_campaign_to_crash(st::FaultEnv& env) {
  Fixture fixture;
  prefill(fixture);
  cc::ThreadPool pool(4);
  cl::CrowdMapService service(storage_config(4), fixture.decoder(), pool,
                              nullptr, &env);
  (void)service.recover_from_storage();  // fresh dir; attaches the journal
  submit_all(service);
}

/// Restarts on the survivor filesystem: recover (must not throw), re-submit
/// the full campaign, build. Returns the serialized plan.
io::Bytes recover_resubmit_build(st::FaultEnv& env, std::size_t threads,
                                 st::RecoveryReport* report_out = nullptr) {
  Fixture fixture;
  prefill(fixture);
  cc::ThreadPool pool(threads);
  cl::CrowdMapService service(storage_config(threads), fixture.decoder(), pool,
                              nullptr, &env);
  crowdmap::common::Expected<st::RecoveryReport> report =
      crowdmap::common::make_error("unset", "");
  EXPECT_NO_THROW(report = service.recover_from_storage());
  EXPECT_TRUE(report.ok()) << report.error().message;
  if (report.ok()) {
    // The stats surface must agree with the recovery report.
    const cl::DurabilityStats stats = service.stats().durability;
    EXPECT_TRUE(stats.enabled);
    EXPECT_TRUE(stats.recovered);
    EXPECT_EQ(stats.recovery_truncated_records,
              report.value().truncated_records());
    if (report_out != nullptr) *report_out = report.value();
  }
  submit_all(service);
  return build_plan_bytes(service);
}

TEST(DurabilityCampaign, MeetsTheTwentyUploadFloor) {
  EXPECT_GE(campaign().videos.size(), 20u);
}

TEST(DurabilityCampaign, CrashedRunsRecoverToTheReferencePlanBytes) {
  // Uncrashed reference: same campaign, storage on, never killed. Also
  // yields the total write-history length the crash_at mode slices into.
  st::FaultEnv reference_env;
  std::uint64_t total_bytes = 0;
  io::Bytes reference;
  {
    Fixture fixture;
    prefill(fixture);
    cc::ThreadPool pool(1);
    cl::CrowdMapService service(storage_config(1), fixture.decoder(), pool,
                                nullptr, &reference_env);
    ASSERT_TRUE(service.recover_from_storage().ok());
    submit_all(service);
    total_bytes = reference_env.bytes_appended();
    reference = build_plan_bytes(service);
  }
  ASSERT_FALSE(reference.empty());
  ASSERT_GT(total_bytes, 0u);

  const double fractions[] = {0.3, 0.6, 0.9};
  std::size_t case_index = 0;
  std::size_t crashes_observed = 0;
  std::uint64_t truncations_observed = 0;
  for (const std::uint64_t seed : matrix_seeds()) {
    for (int mode = 0; mode < 3; ++mode) {
      cc::FaultPlan plan;
      plan.seed = seed;
      std::uint64_t crash_at = st::FaultEnv::kNoCrash;
      std::string label;
      switch (mode) {
        case 0:  // torn write somewhere mid-campaign
          plan.settings.push_back(cc::FaultSetting{
              cc::faults::kFsWriteTorn, 0.05, cc::FaultSetting::kNoBudget});
          label = "torn";
          break;
        case 1:  // fsync failure: the short-write cousin (bytes appended,
                 // durability barrier refused; the log turns unhealthy)
          plan.settings.push_back(cc::FaultSetting{
              cc::faults::kFsFsyncFail, 0.05, cc::FaultSetting::kNoBudget});
          label = "fsync";
          break;
        default:  // exact kill at a fraction of the reference history
          crash_at = static_cast<std::uint64_t>(
              static_cast<double>(total_bytes) *
              fractions[case_index % 3]);
          label = "crash_at_" +
                  std::to_string(fractions[case_index % 3]);
          break;
      }
      cc::FaultInjector injector(plan);
      st::FaultEnv env(plan.settings.empty() ? nullptr : &injector);
      if (crash_at != st::FaultEnv::kNoCrash) env.set_crash_at_bytes(crash_at);

      run_campaign_to_crash(env);
      if (env.crashed()) ++crashes_observed;

      auto survivor = env.fork_survivor();
      // Alternate worker counts across the matrix so both 1 and 4 threads
      // recover every fault mode over the full run of seeds.
      const std::size_t threads = (case_index % 2 == 0) ? 1 : 4;
      st::RecoveryReport report;
      const io::Bytes recovered =
          recover_resubmit_build(*survivor, threads, &report);
      truncations_observed += report.truncated_records();
      const std::string name = "seed" + std::to_string(seed) + "_" + label +
                               "_t" + std::to_string(threads);
      if (recovered != reference) write_divergence(name, reference, recovered);
      ASSERT_EQ(recovered, reference) << name;
      ++case_index;
    }
  }
  // The matrix must actually have killed processes; a sweep where nothing
  // crashed proves nothing.
  EXPECT_GE(crashes_observed, matrix_seeds().size());
  // At least one crash should have landed mid-frame across the matrix.
  EXPECT_GT(truncations_observed + crashes_observed, 0u);
}

TEST(DurabilityCampaign, SameSurvivorRecoversIdenticallyAtOneAndFourThreads) {
  // One survivor, recovered twice at different worker counts: the rebuilt
  // plans must match each other byte for byte (and hence the reference —
  // the matrix test pins that).
  st::FaultEnv env;
  {
    // Kill roughly mid-campaign.
    st::FaultEnv probe;
    run_campaign_to_crash(probe);
    env.set_crash_at_bytes(probe.bytes_appended() / 2);
  }
  run_campaign_to_crash(env);
  ASSERT_TRUE(env.crashed());

  auto survivor_serial = env.fork_survivor();
  auto survivor_pooled = env.fork_survivor();
  const io::Bytes serial = recover_resubmit_build(*survivor_serial, 1);
  const io::Bytes pooled = recover_resubmit_build(*survivor_pooled, 4);
  ASSERT_FALSE(serial.empty());
  if (serial != pooled) write_divergence("threads_1_vs_4", serial, pooled);
  EXPECT_EQ(serial, pooled);
}

}  // namespace
