// Log-structured persistence: an append-only sequence of CMWL segments plus
// periodic whole-state snapshots, tied together by a CRC-protected manifest
// that is only ever installed by atomic rename. Domain-agnostic: records and
// snapshot state are opaque byte strings; the op codec lives with the types
// it encodes (cloud/durable_store.*), the same split the io layer uses.
//
// Durability protocol (docs/DURABILITY.md):
//   * appends go to the active segment; with options.fsync each record is
//     synced before append() returns, so a record is either fully durable
//     or a torn tail that recovery truncates + quarantines.
//   * the manifest is rewritten manifest-first at every rotation and
//     checkpoint (tmp write + fsync + rename), so a listed-but-missing
//     segment can only ever be the never-created tail.
//   * checkpoint() writes the snapshot to a tmp file, renames it in,
//     installs a manifest pointing at it with a fresh empty segment, and
//     only then deletes the retired segments — a crash at any byte leaves
//     either the old or the new generation fully recoverable.
//
// Recovery (open) replays snapshot + every intact record in seqno order,
// never throws, and reports truncated/quarantined tail records with reasons.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/expected.hpp"
#include "io/serialize.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "storage/env.hpp"
#include "storage/wal.hpp"

namespace crowdmap::storage {

struct LogStoreOptions {
  std::string dir;                   // storage.dir
  std::size_t segment_bytes = std::size_t{4} << 20;  // storage.segment_bytes
  std::size_t snapshot_every = 0;    // storage.snapshot_every (0 = manual)
  bool fsync = true;                 // storage.fsync
};

/// A damaged record preserved (not dropped) by recovery.
struct QuarantinedRecord {
  std::string segment;   // segment file name
  std::uint64_t index = 0;
  std::string reason;    // wal.hpp damage reasons, or "bad_header"
  io::Bytes bytes;
};

struct RecoveryReport {
  bool snapshot_loaded = false;
  std::size_t segments_scanned = 0;
  std::size_t records_replayed = 0;
  std::vector<QuarantinedRecord> quarantined;

  /// Records lost to tail truncation == records preserved as quarantine
  /// evidence (the store never silently drops).
  [[nodiscard]] std::size_t truncated_records() const noexcept {
    return quarantined.size();
  }
};

class LogStructuredStore {
 public:
  LogStructuredStore(Env& env, LogStoreOptions options,
                     std::shared_ptr<obs::MetricsRegistry> registry = nullptr,
                     obs::FlightRecorder* flight = nullptr);

  using SnapshotRestore = std::function<Status(const io::Bytes&)>;
  using RecordApply = std::function<void(const io::Bytes&)>;

  /// Opens the store: replays the manifest's snapshot through `restore`,
  /// then every intact log record in order through `apply`, then starts a
  /// fresh active segment. The callbacks run without the store's lock held,
  /// so they may take locks of their own that append() callers hold. Damage
  /// is truncated + quarantined into the report, never thrown. Errors
  /// (unreadable manifest/snapshot, env failures, a failed restore) come
  /// back as Expected errors before any file is written.
  common::Expected<RecoveryReport> open(const SnapshotRestore& restore,
                                        const RecordApply& apply)
      CM_EXCLUDES(mutex_);

  /// Appends one durable record. After any env failure the store turns
  /// unhealthy and rejects further appends ("storage.unhealthy") — memory
  /// serving continues upstream, durability does not.
  Status append(const io::Bytes& record) CM_EXCLUDES(mutex_);

  /// Installs `state` as the new snapshot and retires every log segment.
  Status checkpoint(const io::Bytes& state) CM_EXCLUDES(mutex_);

  /// True once appends since the last checkpoint reached
  /// options.snapshot_every (callers export state outside the store's lock
  /// and then call checkpoint()).
  [[nodiscard]] bool checkpoint_due() const CM_EXCLUDES(mutex_);

  struct Stats {
    bool opened = false;
    bool healthy = false;
    std::uint64_t appends = 0;
    std::uint64_t append_failures = 0;
    std::uint64_t bytes_appended = 0;
    std::uint64_t segments_created = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t appends_since_checkpoint = 0;
    std::uint64_t live_segments = 0;
  };
  [[nodiscard]] Stats stats() const CM_EXCLUDES(mutex_);

  [[nodiscard]] bool healthy() const CM_EXCLUDES(mutex_);

 private:
  struct SegmentRef {
    std::string file;  // name within dir
    std::uint64_t seqno = 0;
  };

  [[nodiscard]] std::string full_path(const std::string& name) const;
  [[nodiscard]] static std::string segment_name(std::uint64_t seqno);
  [[nodiscard]] static std::string snapshot_name(std::uint64_t seqno);

  /// Serializes + installs the manifest (tmp write, sync, atomic rename).
  Status write_manifest_locked() CM_REQUIRES(mutex_);
  /// Starts a new active segment: registers it in the manifest first, then
  /// creates the file, so recovery treats a missing tail as "never written".
  Status start_segment_locked() CM_REQUIRES(mutex_);
  /// tmp write + sync + atomic rename of `bytes` into dir/`name`.
  Status install_file_locked(const std::string& name, const io::Bytes& bytes)
      CM_REQUIRES(mutex_);

  Env& env_;
  const LogStoreOptions options_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::FlightRecorder* flight_ = nullptr;

  // Metric handles (null without a registry); registered once in the ctor.
  obs::Counter* appends_metric_ = nullptr;
  obs::Counter* append_failures_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
  obs::Counter* segments_metric_ = nullptr;
  obs::Counter* checkpoints_metric_ = nullptr;
  obs::Counter* replayed_metric_ = nullptr;
  obs::Counter* truncated_metric_ = nullptr;
  obs::Histogram* recovery_seconds_metric_ = nullptr;

  mutable common::Mutex mutex_;
  bool opened_ CM_GUARDED_BY(mutex_) = false;
  bool opening_ CM_GUARDED_BY(mutex_) = false;  // open() is recovering
  bool healthy_ CM_GUARDED_BY(mutex_) = false;
  std::uint64_t next_seqno_ CM_GUARDED_BY(mutex_) = 1;
  std::string snapshot_file_ CM_GUARDED_BY(mutex_);  // empty = none
  std::vector<SegmentRef> segments_ CM_GUARDED_BY(mutex_);
  std::unique_ptr<SegmentWriter> active_ CM_GUARDED_BY(mutex_);
  Stats stats_ CM_GUARDED_BY(mutex_);
};

}  // namespace crowdmap::storage
