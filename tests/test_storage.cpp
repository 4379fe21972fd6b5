// Unit tests for the log-structured storage layer: CRC32C, the Env
// implementations (PosixEnv round trip, FaultEnv crash model), CMWL segment
// framing/scanning, and LogStructuredStore recovery semantics
// (docs/DURABILITY.md). The end-to-end chaos sweeps live in
// tests/test_durability.cpp; this file pins the building blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/docstore.hpp"
#include "cloud/durable_store.hpp"
#include "common/fault.hpp"
#include "io/serialize.hpp"
#include "storage/crc32c.hpp"
#include "storage/env.hpp"
#include "storage/log_store.hpp"
#include "storage/wal.hpp"

namespace st = crowdmap::storage;
namespace cm = crowdmap::common;
namespace cl = crowdmap::cloud;
namespace io = crowdmap::io;

namespace {

io::Bytes bytes_of(const std::string& text) {
  return io::Bytes(text.begin(), text.end());
}

std::string text_of(const io::Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

/// Captured replay target for LogStructuredStore::open.
struct Replay {
  std::string snapshot;
  std::vector<std::string> records;
};

crowdmap::common::Expected<st::RecoveryReport> open_store(
    st::LogStructuredStore& store, Replay& out) {
  return store.open(
      [&out](const io::Bytes& state) -> st::Status {
        out.snapshot = text_of(state);
        return st::ok_status();
      },
      [&out](const io::Bytes& record) { out.records.push_back(text_of(record)); });
}

st::LogStoreOptions small_options(const std::string& dir) {
  st::LogStoreOptions options;
  options.dir = dir;
  options.segment_bytes = 1 << 20;
  options.fsync = true;
  return options;
}

}  // namespace

// ----------------------------------------------------------------- crc32c ---

TEST(Crc32c, KnownVectors) {
  // The canonical CRC32C check value (RFC 3720 appendix / every
  // implementation's self-test).
  const std::string check = "123456789";
  EXPECT_EQ(st::crc32c(bytes_of(check)), 0xE3069283u);
  EXPECT_EQ(st::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, SeedChainsIncrementalComputation) {
  const io::Bytes whole = bytes_of("the quick brown fox");
  const io::Bytes head = bytes_of("the quick ");
  const io::Bytes tail = bytes_of("brown fox");
  EXPECT_EQ(st::crc32c(tail, st::crc32c(head)), st::crc32c(whole));
}

TEST(Crc32c, DetectsSingleBitFlip) {
  io::Bytes data = bytes_of("payload bytes under test");
  const std::uint32_t clean = st::crc32c(data);
  data[7] ^= 0x01;
  EXPECT_NE(st::crc32c(data), clean);
}

// --------------------------------------------------------------- PosixEnv ---

TEST(PosixEnv, RoundTripAppendReadRenameRemove) {
  st::Env& env = st::posix_env();
  const std::string dir =
      ::testing::TempDir() + "crowdmap_posix_env_test/nested";
  ASSERT_TRUE(env.make_dirs(dir).ok());
  // Clean leftovers from a previous run so list_dir expectations hold.
  if (auto names = env.list_dir(dir)) {
    for (const std::string& name : names.value()) {
      env.remove_file(dir + "/" + name);
    }
  }

  const std::string path = dir + "/a.bin";
  {
    auto file = env.open_writable(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->append(bytes_of("hello ")).ok());
    ASSERT_TRUE(file.value()->append(bytes_of("world")).ok());
    ASSERT_TRUE(file.value()->sync().ok());
    ASSERT_TRUE(file.value()->close().ok());
  }
  EXPECT_TRUE(env.file_exists(path));
  auto read = env.read_file(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(text_of(read.value()), "hello world");

  // Append mode extends the existing bytes.
  {
    auto file = env.open_writable(path, /*truncate=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->append(bytes_of("!")).ok());
    ASSERT_TRUE(file.value()->close().ok());
  }
  EXPECT_EQ(text_of(env.read_file(path).value()), "hello world!");

  // Atomic replace: rename installs over an existing destination.
  const std::string other = dir + "/b.bin";
  {
    auto file = env.open_writable(other, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->append(bytes_of("new")).ok());
    ASSERT_TRUE(file.value()->close().ok());
  }
  ASSERT_TRUE(env.rename_file(other, path).ok());
  EXPECT_FALSE(env.file_exists(other));
  EXPECT_EQ(text_of(env.read_file(path).value()), "new");

  auto names = env.list_dir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), std::vector<std::string>{"a.bin"});

  ASSERT_TRUE(env.remove_file(path).ok());
  EXPECT_FALSE(env.file_exists(path));
  auto missing = env.read_file(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, "storage.not_found");
}

// --------------------------------------------------------------- FaultEnv ---

TEST(FaultEnv, BehavesLikeAFilesystemWhenUnarmed) {
  st::FaultEnv env;
  ASSERT_TRUE(env.make_dirs("d").ok());
  auto file = env.open_writable("d/x", /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("abc")).ok());
  ASSERT_TRUE(file.value()->sync().ok());
  ASSERT_TRUE(file.value()->close().ok());
  EXPECT_TRUE(env.file_exists("d/x"));
  EXPECT_EQ(text_of(env.read_file("d/x").value()), "abc");
  ASSERT_TRUE(env.rename_file("d/x", "d/y").ok());
  EXPECT_FALSE(env.file_exists("d/x"));
  EXPECT_EQ(text_of(env.read_file("d/y").value()), "abc");
  EXPECT_EQ(env.bytes_appended(), 3u);
  EXPECT_FALSE(env.crashed());
}

TEST(FaultEnv, CrashAtBytesAppliesExactPrefix) {
  st::FaultEnv env;
  auto file = env.open_writable("f", /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("0123")).ok());
  env.set_crash_at_bytes(6);  // two bytes into the next append
  ASSERT_FALSE(file.value()->append(bytes_of("4567")).ok());
  EXPECT_TRUE(env.crashed());

  // Every operation on the crashed env is rejected.
  auto read = env.read_file("f");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code, "storage.crashed");
  EXPECT_FALSE(env.open_writable("g", true).ok());
  EXPECT_FALSE(env.rename_file("f", "g").ok());

  // The survivor sees exactly the bytes appended before the crash instant.
  auto survivor = env.fork_survivor();
  EXPECT_FALSE(survivor->crashed());
  EXPECT_EQ(text_of(survivor->read_file("f").value()), "012345");
  // And is a working filesystem again.
  auto again = survivor->open_writable("f", /*truncate=*/false);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.value()->append(bytes_of("z")).ok());
  EXPECT_EQ(text_of(survivor->read_file("f").value()), "012345z");
}

TEST(FaultEnv, ForkSurvivorWithoutCrashCopiesEverything) {
  st::FaultEnv env;
  auto file = env.open_writable("f", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("abc")).ok());
  auto survivor = env.fork_survivor();
  EXPECT_EQ(text_of(survivor->read_file("f").value()), "abc");
}

TEST(FaultEnv, FsyncFailureLeavesAppendedBytesPending) {
  cm::FaultPlan plan;
  plan.seed = 7;
  plan.settings.push_back(cm::FaultSetting{cm::faults::kFsFsyncFail, 1.0,
                                           cm::FaultSetting::kNoBudget});
  cm::FaultInjector injector(plan);
  st::FaultEnv env(&injector);
  auto file = env.open_writable("f", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("abc")).ok());
  EXPECT_FALSE(file.value()->sync().ok());
  EXPECT_GE(injector.fires(cm::faults::kFsFsyncFail), 1u);
}

TEST(FaultEnv, TornWriteAppliesPrefixAndCrashes) {
  cm::FaultPlan plan;
  plan.seed = 11;
  plan.settings.push_back(cm::FaultSetting{cm::faults::kFsWriteTorn, 1.0,
                                           cm::FaultSetting::kNoBudget});
  cm::FaultInjector injector(plan);
  st::FaultEnv env(&injector);
  auto file = env.open_writable("f", true);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(file.value()->append(bytes_of("0123456789")).ok());
  EXPECT_TRUE(env.crashed());
  auto survivor = env.fork_survivor();
  const std::string kept = text_of(survivor->read_file("f").value());
  // A torn write applies a strict prefix (possibly empty, never the whole).
  EXPECT_LT(kept.size(), 10u);
  EXPECT_EQ(kept, std::string("0123456789").substr(0, kept.size()));
}

TEST(FaultEnv, ReadCorruptFlipsOneDeterministicByte) {
  cm::FaultPlan plan;
  plan.seed = 13;
  plan.settings.push_back(cm::FaultSetting{cm::faults::kFsReadCorrupt, 1.0,
                                           cm::FaultSetting::kNoBudget});
  cm::FaultInjector injector(plan);
  st::FaultEnv env(&injector);
  auto file = env.open_writable("f", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("abcdef")).ok());
  auto first = env.read_file("f");
  ASSERT_TRUE(first.ok());
  std::size_t diffs = 0;
  const std::string clean = "abcdef";
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (first.value()[i] != static_cast<std::uint8_t>(clean[i])) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
  // Deterministic: the same read corrupts the same byte.
  auto second = env.read_file("f");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
}

// ---------------------------------------------------------------- segments ---

namespace {

/// Writes a clean segment with the given records; returns its bytes.
io::Bytes build_segment(const std::vector<std::string>& records,
                        std::uint64_t seqno = 9) {
  st::FaultEnv env;
  st::SegmentWriter writer(env, "seg", seqno, /*fsync=*/false);
  EXPECT_TRUE(writer.create().ok());
  for (const std::string& record : records) {
    EXPECT_TRUE(writer.append(bytes_of(record)).ok());
  }
  EXPECT_TRUE(writer.close().ok());
  return env.read_file("seg").value();
}

}  // namespace

TEST(WalSegment, CleanScanRoundTrips) {
  const io::Bytes seg = build_segment({"one", "two", "three"});
  auto scan = st::scan_segment(seg);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().clean);
  EXPECT_EQ(scan.value().seqno, 9u);
  ASSERT_EQ(scan.value().records.size(), 3u);
  EXPECT_EQ(text_of(scan.value().records[0]), "one");
  EXPECT_EQ(text_of(scan.value().records[2]), "three");
  EXPECT_TRUE(scan.value().damaged.empty());
}

TEST(WalSegment, WrongMagicIsAHeaderError) {
  io::Bytes seg = build_segment({"one"});
  seg[0] ^= 0xFF;
  auto scan = st::scan_segment(seg);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.error().code, "storage.segment_header");
}

TEST(WalSegment, TornFrameHeaderTruncatesScan) {
  io::Bytes seg = build_segment({"one", "two"});
  // Keep record one plus 3 bytes of record two's 8-byte frame header.
  const std::size_t keep =
      st::kWalHeaderBytes + st::kWalFrameOverhead + 3 + 3;
  seg.resize(keep);
  auto scan = st::scan_segment(seg);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().clean);
  ASSERT_EQ(scan.value().records.size(), 1u);
  EXPECT_EQ(text_of(scan.value().records[0]), "one");
  ASSERT_EQ(scan.value().damaged.size(), 1u);
  EXPECT_EQ(scan.value().damaged[0].reason, "torn_frame_header");
  EXPECT_EQ(scan.value().damaged[0].index, 1u);
  EXPECT_EQ(scan.value().damaged[0].bytes.size(), 3u);
}

TEST(WalSegment, TornPayloadTruncatesScan) {
  io::Bytes seg = build_segment({"one", "twotwotwo"});
  seg.resize(seg.size() - 4);  // cut into record two's payload
  auto scan = st::scan_segment(seg);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().clean);
  ASSERT_EQ(scan.value().records.size(), 1u);
  ASSERT_EQ(scan.value().damaged.size(), 1u);
  EXPECT_EQ(scan.value().damaged[0].reason, "torn_frame");
}

TEST(WalSegment, AbsurdLengthIsBadLengthDamage) {
  io::Bytes seg = build_segment({"one"});
  // Overwrite record one's length field with a value past the record cap.
  const std::uint32_t absurd = st::kWalMaxRecordBytes + 1;
  for (int i = 0; i < 4; ++i) {
    seg[st::kWalHeaderBytes + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(absurd >> (8 * i));
  }
  auto scan = st::scan_segment(seg);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().clean);
  EXPECT_TRUE(scan.value().records.empty());
  ASSERT_EQ(scan.value().damaged.size(), 1u);
  EXPECT_EQ(scan.value().damaged[0].reason, "bad_length");
}

TEST(WalSegment, CrcMismatchTruncatesAtTheCorruptFrame) {
  io::Bytes seg = build_segment({"one", "two", "three"});
  // Flip a byte inside record two's payload.
  const std::size_t record_two_payload =
      st::kWalHeaderBytes + (st::kWalFrameOverhead + 3) +
      st::kWalFrameOverhead;
  seg[record_two_payload] ^= 0x40;
  auto scan = st::scan_segment(seg);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().clean);
  // Record one survives; records two AND three are the quarantined tail
  // (frame boundaries after a corrupt frame cannot be trusted).
  ASSERT_EQ(scan.value().records.size(), 1u);
  EXPECT_EQ(text_of(scan.value().records[0]), "one");
  ASSERT_EQ(scan.value().damaged.size(), 1u);
  EXPECT_EQ(scan.value().damaged[0].reason, "crc_mismatch");
  EXPECT_EQ(scan.value().damaged[0].index, 1u);
}

// ---------------------------------------------------------------- LogStore ---

TEST(LogStore, FreshOpenThenAppendThenRecover) {
  st::FaultEnv env;
  {
    st::LogStructuredStore store(env, small_options("db"));
    Replay replay;
    auto report = open_store(store, replay);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report.value().snapshot_loaded);
    EXPECT_EQ(report.value().records_replayed, 0u);
    EXPECT_TRUE(replay.records.empty());
    ASSERT_TRUE(store.append(bytes_of("r1")).ok());
    ASSERT_TRUE(store.append(bytes_of("r2")).ok());
    ASSERT_TRUE(store.append(bytes_of("r3")).ok());
    EXPECT_TRUE(store.healthy());
    EXPECT_EQ(store.stats().appends, 3u);
  }
  st::LogStructuredStore reopened(env, small_options("db"));
  Replay replay;
  auto report = open_store(reopened, replay);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().quarantined.empty());
  EXPECT_EQ(report.value().records_replayed, 3u);
  EXPECT_EQ(replay.records,
            (std::vector<std::string>{"r1", "r2", "r3"}));
  EXPECT_TRUE(replay.snapshot.empty());
}

TEST(LogStore, DoubleOpenIsRejected) {
  st::FaultEnv env;
  st::LogStructuredStore store(env, small_options("db"));
  Replay replay;
  ASSERT_TRUE(open_store(store, replay).ok());
  auto again = open_store(store, replay);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, "storage.reopened");
}

TEST(LogStore, OpenRunsAgainAfterACallbackThrows) {
  // open() calls back with its lock released; a callback that throws must
  // not leave the store refusing every later open().
  st::FaultEnv env;
  {
    st::LogStructuredStore store(env, small_options("db"));
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    ASSERT_TRUE(store.append(bytes_of("r1")).ok());
  }
  st::LogStructuredStore store(env, small_options("db"));
  EXPECT_THROW(
      (void)store.open([](const io::Bytes&) { return st::ok_status(); },
                       [](const io::Bytes&) {
                         throw std::runtime_error("apply failed");
                       }),
      std::runtime_error);
  EXPECT_FALSE(store.healthy());
  Replay replay;
  auto report = open_store(store, replay);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(replay.records, std::vector<std::string>{"r1"});
  EXPECT_TRUE(store.healthy());
}

TEST(LogStore, AppendBeforeOpenIsUnhealthy) {
  st::FaultEnv env;
  st::LogStructuredStore store(env, small_options("db"));
  auto status = store.append(bytes_of("r"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "storage.unhealthy");
}

TEST(LogStore, CheckpointRetiresSegmentsAndRestoresFromSnapshot) {
  st::FaultEnv env;
  {
    st::LogStructuredStore store(env, small_options("db"));
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    ASSERT_TRUE(store.append(bytes_of("r1")).ok());
    ASSERT_TRUE(store.append(bytes_of("r2")).ok());
    ASSERT_TRUE(store.checkpoint(bytes_of("STATE")).ok());
    ASSERT_TRUE(store.append(bytes_of("r3")).ok());
    EXPECT_EQ(store.stats().checkpoints, 1u);
  }
  // Only the post-checkpoint record replays; earlier state comes from the
  // snapshot. Retired segments are gone from the directory.
  st::LogStructuredStore reopened(env, small_options("db"));
  Replay replay;
  auto report = open_store(reopened, replay);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().snapshot_loaded);
  EXPECT_EQ(replay.snapshot, "STATE");
  EXPECT_EQ(replay.records, std::vector<std::string>{"r3"});
  auto names = env.list_dir("db");
  ASSERT_TRUE(names.ok());
  for (const std::string& name : names.value()) {
    EXPECT_EQ(std::count(name.begin(), name.end(), '\0'), 0);
    EXPECT_TRUE(name == "MANIFEST" || name.rfind("state-", 0) == 0 ||
                name.rfind("wal-", 0) == 0)
        << name;
  }
}

TEST(LogStore, SeqnosStayMonotonicAcrossRestarts) {
  st::FaultEnv env;
  auto highest_file = [&]() {
    auto names = env.list_dir("db").value();
    std::sort(names.begin(), names.end());
    return names.back();
  };
  std::string previous;
  for (int round = 0; round < 3; ++round) {
    st::LogStructuredStore store(env, small_options("db"));
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    ASSERT_TRUE(store.append(bytes_of("r")).ok());
    // Segment names embed the seqno, so lexicographic growth across rounds
    // proves the manifest carries next_seqno forward.
    const std::string current = highest_file();
    EXPECT_GT(current, previous);
    previous = current;
  }
}

TEST(LogStore, SegmentRotationSplitsRecordsAcrossFiles) {
  st::FaultEnv env;
  st::LogStoreOptions options = small_options("db");
  options.segment_bytes = 32;  // rotate after every record
  {
    st::LogStructuredStore store(env, options);
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(store.append(bytes_of("record-" + std::to_string(i))).ok());
    }
    EXPECT_GE(store.stats().segments_created, 4u);
    EXPECT_GE(store.stats().live_segments, 4u);
  }
  st::LogStructuredStore reopened(env, options);
  Replay replay;
  auto report = open_store(reopened, replay);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report.value().segments_scanned, 4u);
  EXPECT_EQ(replay.records,
            (std::vector<std::string>{"record-0", "record-1", "record-2",
                                      "record-3"}));
}

TEST(LogStore, ListedButMissingSegmentIsANeverCreatedTail) {
  st::FaultEnv env;
  st::LogStoreOptions options = small_options("db");
  options.segment_bytes = 20;  // rotate after every record (header is 16)
  {
    st::LogStructuredStore store(env, options);
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    ASSERT_TRUE(store.append(bytes_of("r1")).ok());
    ASSERT_TRUE(store.append(bytes_of("r2")).ok());
  }
  // Delete the segment holding r2 (the second-newest; the newest is the
  // empty post-rotation tail). The manifest still lists it, which recovery
  // must treat as the never-created tail, not as corruption — and nothing
  // listed after it may be replayed.
  const std::vector<std::string> names = env.list_dir("db").value();
  std::vector<std::string> wals;
  for (const std::string& name : names) {
    if (name.rfind("wal-", 0) == 0) wals.push_back(name);
  }
  ASSERT_GE(wals.size(), 3u);
  std::sort(wals.begin(), wals.end());
  ASSERT_TRUE(env.remove_file("db/" + wals[wals.size() - 2]).ok());
  st::LogStructuredStore reopened(env, options);
  Replay replay;
  auto report = open_store(reopened, replay);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().quarantined.empty());
  EXPECT_EQ(replay.records, std::vector<std::string>{"r1"});
}

TEST(LogStore, CorruptManifestIsACleanError) {
  st::FaultEnv env;
  {
    st::LogStructuredStore store(env, small_options("db"));
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    ASSERT_TRUE(store.append(bytes_of("r1")).ok());
  }
  io::Bytes manifest = env.read_file("db/MANIFEST").value();
  manifest[manifest.size() / 2] ^= 0x01;
  ASSERT_TRUE(env.remove_file("db/MANIFEST").ok());
  auto file = env.open_writable("db/MANIFEST", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(manifest).ok());
  ASSERT_TRUE(file.value()->close().ok());

  st::LogStructuredStore reopened(env, small_options("db"));
  Replay replay;
  auto report = open_store(reopened, replay);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, "storage.manifest_corrupt");
}

TEST(LogStore, CorruptSnapshotIsACleanError) {
  st::FaultEnv env;
  {
    st::LogStructuredStore store(env, small_options("db"));
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    ASSERT_TRUE(store.append(bytes_of("r1")).ok());
    ASSERT_TRUE(store.checkpoint(bytes_of("STATE")).ok());
  }
  auto names = env.list_dir("db").value();
  std::string snap;
  for (const std::string& name : names) {
    if (name.rfind("state-", 0) == 0) snap = name;
  }
  ASSERT_FALSE(snap.empty());
  io::Bytes bytes = env.read_file("db/" + snap).value();
  bytes.back() ^= 0x01;  // corrupt the snapshot payload
  ASSERT_TRUE(env.remove_file("db/" + snap).ok());
  auto file = env.open_writable("db/" + snap, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes).ok());
  ASSERT_TRUE(file.value()->close().ok());

  st::LogStructuredStore reopened(env, small_options("db"));
  Replay replay;
  auto report = open_store(reopened, replay);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, "storage.snapshot_corrupt");
}

TEST(LogStore, OrphanSweepRemovesUnreferencedFiles) {
  st::FaultEnv env;
  {
    st::LogStructuredStore store(env, small_options("db"));
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    ASSERT_TRUE(store.append(bytes_of("r1")).ok());
  }
  // A stray file a crashed checkpoint might have left behind.
  auto file = env.open_writable("db/state-999999.snap.tmp", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("junk")).ok());
  ASSERT_TRUE(file.value()->close().ok());

  st::LogStructuredStore reopened(env, small_options("db"));
  Replay replay;
  ASSERT_TRUE(open_store(reopened, replay).ok());
  EXPECT_FALSE(env.file_exists("db/state-999999.snap.tmp"));
}

TEST(LogStore, CrashMidAppendTruncatesAndQuarantinesTheTail) {
  // Pass 1 (no faults) maps byte offsets; pass 2 crashes mid-record.
  std::uint64_t before_r2 = 0;
  std::uint64_t after_r2 = 0;
  {
    st::FaultEnv env;
    st::LogStructuredStore store(env, small_options("db"));
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    ASSERT_TRUE(store.append(bytes_of("record-one")).ok());
    before_r2 = env.bytes_appended();
    ASSERT_TRUE(store.append(bytes_of("record-two")).ok());
    after_r2 = env.bytes_appended();
  }
  ASSERT_GT(after_r2, before_r2 + 2);

  st::FaultEnv env;
  env.set_crash_at_bytes(before_r2 + (after_r2 - before_r2) / 2);
  {
    st::LogStructuredStore store(env, small_options("db"));
    Replay replay;
    ASSERT_TRUE(open_store(store, replay).ok());
    ASSERT_TRUE(store.append(bytes_of("record-one")).ok());
    auto status = store.append(bytes_of("record-two"));
    EXPECT_FALSE(status.ok());
    EXPECT_FALSE(store.healthy());
    EXPECT_EQ(store.stats().append_failures, 1u);
    // After the failure every append is rejected without touching the env.
    EXPECT_EQ(store.append(bytes_of("r3")).error().code, "storage.unhealthy");
  }

  auto survivor = env.fork_survivor();
  st::LogStructuredStore recovered(*survivor, small_options("db"));
  Replay replay;
  auto report = open_store(recovered, replay);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(replay.records, std::vector<std::string>{"record-one"});
  ASSERT_EQ(report.value().truncated_records(), 1u);
  const st::QuarantinedRecord& damage = report.value().quarantined[0];
  EXPECT_TRUE(damage.reason == "torn_frame" ||
              damage.reason == "torn_frame_header")
      << damage.reason;
  EXPECT_FALSE(damage.bytes.empty());
}

TEST(LogStore, MetricsCountAppendsAndCheckpoints) {
  auto registry = std::make_shared<crowdmap::obs::MetricsRegistry>();
  st::FaultEnv env;
  st::LogStructuredStore store(env, small_options("db"), registry);
  Replay replay;
  ASSERT_TRUE(open_store(store, replay).ok());
  ASSERT_TRUE(store.append(bytes_of("r1")).ok());
  ASSERT_TRUE(store.append(bytes_of("r2")).ok());
  ASSERT_TRUE(store.checkpoint(bytes_of("S")).ok());
  const auto snap = registry->snapshot();
  EXPECT_EQ(snap.value("crowdmap_wal_appends_total"), 2.0);
  EXPECT_EQ(snap.value("crowdmap_wal_checkpoints_total"), 1.0);
  EXPECT_GT(snap.value("crowdmap_wal_bytes_written_total"), 0.0);
  EXPECT_TRUE(snap.has("crowdmap_recovery_records_replayed_total"));
}

// ------------------------------------------------------ DurableDocumentStore ---

namespace {

cl::Document make_doc(const std::string& id, const std::string& building,
                      int floor, const std::string& payload) {
  cl::Document doc;
  doc.id = id;
  doc.building = building;
  doc.floor = floor;
  doc.metadata["k"] = "v:" + id;
  doc.payload.assign(payload.begin(), payload.end());
  return doc;
}

bool same_doc(const cl::Document& a, const cl::Document& b) {
  return a.id == b.id && a.building == b.building && a.floor == b.floor &&
         a.metadata == b.metadata && a.payload == b.payload;
}

}  // namespace

TEST(DurableDocumentStore, JournalReplayRebuildsIdenticalState) {
  st::FaultEnv env;
  cl::DurableStoreOptions options;
  options.dir = "db";
  {
    cl::DocumentStore store;
    cl::DurableDocumentStore durable(store, env, options);
    auto report = durable.open_and_recover();
    ASSERT_TRUE(report.ok());
    store.put(make_doc("a", "Lab1", 1, "payload-a"));
    store.put(make_doc("b", "Lab1", 2, "payload-b"));
    store.put(make_doc("a", "Gym", 1, "payload-a2"));  // replace + move
    store.put(make_doc("c", "Lab1", 1, "payload-c"));
    store.erase("c");
    store.quarantine(make_doc("q", "Lab1", 1, "mangled"), "checksum");
    EXPECT_TRUE(durable.stats().healthy);
    EXPECT_EQ(durable.stats().wal_appends, 6u);
  }
  cl::DocumentStore recovered;
  cl::DurableDocumentStore durable(recovered, env, options);
  auto report = durable.open_and_recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().records_replayed, 6u);
  EXPECT_EQ(recovered.size(), 2u);
  ASSERT_TRUE(recovered.get("a").has_value());
  EXPECT_TRUE(same_doc(*recovered.get("a"), make_doc("a", "Gym", 1,
                                                     "payload-a2")));
  EXPECT_TRUE(same_doc(*recovered.get("b"), make_doc("b", "Lab1", 2,
                                                     "payload-b")));
  EXPECT_FALSE(recovered.get("c").has_value());
  ASSERT_TRUE(recovered.get_quarantined("q").has_value());
  EXPECT_EQ(recovered.get_quarantined("q")->metadata.at("quarantine_reason"),
            "checksum");
  // The secondary index was rebuilt, including the replace-move.
  EXPECT_TRUE(recovered.ids_for_floor("Lab1", 1).empty());
  EXPECT_EQ(recovered.ids_for_floor("Gym", 1).size(), 1u);
  EXPECT_TRUE(durable.stats().recovered);
}

TEST(DurableDocumentStore, CheckpointSnapshotRoundTripsAllCollections) {
  st::FaultEnv env;
  cl::DurableStoreOptions options;
  options.dir = "db";
  {
    cl::DocumentStore store;
    cl::DurableDocumentStore durable(store, env, options);
    ASSERT_TRUE(durable.open_and_recover().ok());
    store.put(make_doc("a", "Lab1", 1, "payload-a"));
    store.quarantine(make_doc("q", "Lab1", 1, "m"), "why");
    ASSERT_TRUE(durable.checkpoint().ok());
    store.put(make_doc("b", "Lab1", 1, "payload-b"));  // post-snapshot op
  }
  cl::DocumentStore recovered;
  cl::DurableDocumentStore durable(recovered, env, options);
  auto report = durable.open_and_recover();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().snapshot_loaded);
  EXPECT_EQ(report.value().records_replayed, 1u);  // just the "b" put
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_TRUE(recovered.get("a").has_value());
  EXPECT_TRUE(recovered.get("b").has_value());
  EXPECT_TRUE(recovered.get_quarantined("q").has_value());
}

TEST(DurableDocumentStore, DirtyRecoveryQuarantinesDamageAndCheckpoints) {
  cl::DurableStoreOptions options;
  options.dir = "db";
  std::uint64_t before_last = 0;
  std::uint64_t after_last = 0;
  {
    st::FaultEnv env;
    cl::DocumentStore store;
    cl::DurableDocumentStore durable(store, env, options);
    ASSERT_TRUE(durable.open_and_recover().ok());
    store.put(make_doc("a", "Lab1", 1, "payload-a"));
    before_last = env.bytes_appended();
    store.put(make_doc("b", "Lab1", 1, "payload-b"));
    after_last = env.bytes_appended();
  }

  st::FaultEnv env;
  env.set_crash_at_bytes(before_last + (after_last - before_last) / 2);
  {
    cl::DocumentStore store;
    cl::DurableDocumentStore durable(store, env, options);
    ASSERT_TRUE(durable.open_and_recover().ok());
    store.put(make_doc("a", "Lab1", 1, "payload-a"));
    store.put(make_doc("b", "Lab1", 1, "payload-b"));  // torn mid-frame
    EXPECT_TRUE(env.crashed());
  }

  auto survivor = env.fork_survivor();
  cl::DocumentStore recovered;
  cl::DurableDocumentStore durable(recovered, *survivor, options);
  auto report = durable.open_and_recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().truncated_records(), 1u);
  EXPECT_TRUE(recovered.get("a").has_value());
  EXPECT_FALSE(recovered.get("b").has_value());
  // The torn tail survives as an audit document in the system building.
  bool found_damage = false;
  for (const std::string& id : recovered.quarantined_ids()) {
    if (id.rfind("sys/wal-damage/", 0) == 0) {
      found_damage = true;
      auto doc = recovered.get_quarantined(id);
      ASSERT_TRUE(doc.has_value());
      EXPECT_EQ(doc->building, cl::kWalDamageBuilding);
      EXPECT_FALSE(doc->metadata.at("quarantine_reason").empty());
    }
  }
  EXPECT_TRUE(found_damage);
  EXPECT_EQ(durable.stats().recovery_truncated_records, 1u);

  // The dirty recovery checkpointed: a THIRD open replays from the snapshot
  // and never re-reads the damage.
  auto survivor2 = survivor->fork_survivor();
  cl::DocumentStore third;
  cl::DurableDocumentStore durable3(third, *survivor2, options);
  auto report3 = durable3.open_and_recover();
  ASSERT_TRUE(report3.ok());
  EXPECT_EQ(report3.value().truncated_records(), 0u);
  EXPECT_TRUE(report3.value().snapshot_loaded);
  EXPECT_TRUE(third.get("a").has_value());
  // The audit document is durable state now — it rode the checkpoint.
  EXPECT_FALSE(third.quarantined_ids().empty());
}

TEST(DurableDocumentStore, MaybeCheckpointHonorsSnapshotEvery) {
  st::FaultEnv env;
  cl::DurableStoreOptions options;
  options.dir = "db";
  options.snapshot_every = 3;
  cl::DocumentStore store;
  cl::DurableDocumentStore durable(store, env, options);
  ASSERT_TRUE(durable.open_and_recover().ok());
  for (int i = 0; i < 7; ++i) {
    store.put(make_doc("d" + std::to_string(i), "Lab1", 1, "p"));
    durable.maybe_checkpoint();
  }
  EXPECT_EQ(durable.stats().checkpoints, 2u);
}

TEST(DurableDocumentStore, EncodeStoreStateIsByteDeterministic) {
  cl::DocumentStore a;
  a.put(make_doc("z", "Lab1", 1, "pz"));
  a.put(make_doc("a", "Lab1", 1, "pa"));
  cl::DocumentStore b;
  b.put(make_doc("a", "Lab1", 1, "pa"));
  b.put(make_doc("z", "Lab1", 1, "pz"));
  EXPECT_EQ(cl::encode_store_state(a), cl::encode_store_state(b));
  EXPECT_EQ(cl::encode_store_state(a.export_documents(),
                                   a.export_quarantined()),
            cl::encode_store_state(a));
}
