#include "storage/log_store.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "storage/crc32c.hpp"

namespace crowdmap::storage {

namespace {

constexpr std::uint32_t kManifestMagic = 0x434D4D46u;  // "CMMF"
constexpr std::uint32_t kManifestVersion = 1;
constexpr std::uint32_t kSnapshotMagic = 0x434D5753u;  // "CMWS"
constexpr std::uint32_t kSnapshotVersion = 1;
constexpr char kManifestName[] = "MANIFEST";

std::uint32_t read_u32(const io::Bytes& bytes, std::size_t pos) {
  return static_cast<std::uint32_t>(bytes[pos]) |
         static_cast<std::uint32_t>(bytes[pos + 1]) << 8 |
         static_cast<std::uint32_t>(bytes[pos + 2]) << 16 |
         static_cast<std::uint32_t>(bytes[pos + 3]) << 24;
}

std::uint64_t read_u64(const io::Bytes& bytes, std::size_t pos) {
  return static_cast<std::uint64_t>(read_u32(bytes, pos)) |
         static_cast<std::uint64_t>(read_u32(bytes, pos + 4)) << 32;
}

std::string padded(std::uint64_t seqno) {
  std::string digits = std::to_string(seqno);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return digits;
}

struct ParsedManifest {
  std::uint64_t next_seqno = 1;
  std::string snapshot;
  std::vector<std::pair<std::string, std::uint64_t>> segments;
};

}  // namespace

LogStructuredStore::LogStructuredStore(
    Env& env, LogStoreOptions options,
    std::shared_ptr<obs::MetricsRegistry> registry, obs::FlightRecorder* flight)
    : env_(env),
      options_(std::move(options)),
      registry_(std::move(registry)),
      flight_(flight) {
  if (registry_ != nullptr) {
    appends_metric_ = &registry_->counter(
        "crowdmap_wal_appends_total", {},
        "Records appended to the write-ahead log");
    append_failures_metric_ = &registry_->counter(
        "crowdmap_wal_append_failures_total", {},
        "WAL appends rejected by the storage Env; the store turns unhealthy "
        "on the first failure");
    bytes_metric_ = &registry_->counter(
        "crowdmap_wal_bytes_written_total", {},
        "Framed bytes appended to WAL segments");
    segments_metric_ = &registry_->counter(
        "crowdmap_wal_segments_created_total", {},
        "WAL segment files created (rotations, checkpoints, opens)");
    checkpoints_metric_ = &registry_->counter(
        "crowdmap_wal_checkpoints_total", {},
        "Snapshot+compaction checkpoints installed");
    replayed_metric_ = &registry_->counter(
        "crowdmap_recovery_records_replayed_total", {},
        "Intact WAL records replayed during recovery");
    truncated_metric_ = &registry_->counter(
        "crowdmap_recovery_truncated_records_total", {},
        "Damaged WAL tail records truncated and quarantined during recovery");
    recovery_seconds_metric_ = &registry_->histogram(
        "crowdmap_recovery_seconds", {}, {0.001, 0.01, 0.1, 1.0, 10.0},
        "Wall time of log-structured store recovery (manifest + snapshot + "
        "log replay)");
  }
}

std::string LogStructuredStore::full_path(const std::string& name) const {
  return options_.dir + "/" + name;
}

std::string LogStructuredStore::segment_name(std::uint64_t seqno) {
  return "wal-" + padded(seqno) + ".log";
}

std::string LogStructuredStore::snapshot_name(std::uint64_t seqno) {
  return "state-" + padded(seqno) + ".snap";
}

common::Expected<RecoveryReport> LogStructuredStore::open(
    const SnapshotRestore& restore, const RecordApply& apply) {
  const auto started = std::chrono::steady_clock::now();
  {
    common::MutexLock lock(mutex_);
    if (opened_ || opening_) {
      return common::make_error("storage.reopened", "store is already open");
    }
    opening_ = true;
  }
  // Recovery reads and calls back with mutex_ released: the owner's
  // journaled mutations take the owner's lock and then this one (append),
  // so calling back under mutex_ would take the two in the reverse order.
  // Reading touches only env_, options_ and flight_, which mutex_ does not
  // guard; opening_ keeps a second open() out meanwhile and is cleared
  // however open() leaves, a throwing callback included.
  struct ClearOpening {
    LogStructuredStore& store;
    ~ClearOpening() {
      common::MutexLock lock(store.mutex_);
      store.opening_ = false;
    }
  } clear_opening{*this};
  if (Status s = env_.make_dirs(options_.dir); !s) return s.error();

  RecoveryReport report;
  ParsedManifest manifest;
  const std::string manifest_path = full_path(kManifestName);
  if (env_.file_exists(manifest_path)) {
    auto manifest_or = env_.read_file(manifest_path);
    if (!manifest_or) return manifest_or.error();
    const io::Bytes& raw = manifest_or.value();
    if (raw.size() < 4 ||
        crc32c(raw.data(), raw.size() - 4) != read_u32(raw, raw.size() - 4)) {
      return common::make_error("storage.manifest_corrupt",
                                "manifest CRC mismatch");
    }
    const io::Bytes body(raw.begin(), raw.end() - 4);
    auto parsed = io::expected_decode([&] {
      io::Reader r(body);
      if (r.u32() != kManifestMagic) throw io::DecodeError("manifest magic");
      if (r.u32() != kManifestVersion) {
        throw io::DecodeError("manifest version");
      }
      ParsedManifest m;
      m.next_seqno = r.u64();
      if (r.u8() != 0) m.snapshot = r.str();
      const std::uint32_t count = r.u32();
      io::check_count(count, "manifest segments");
      for (std::uint32_t i = 0; i < count; ++i) {
        std::string file = r.str();
        const std::uint64_t seqno = r.u64();
        m.segments.emplace_back(std::move(file), seqno);
      }
      if (!r.exhausted()) throw io::DecodeError("manifest trailing bytes");
      return m;
    });
    if (!parsed) {
      return common::make_error("storage.manifest_corrupt",
                                parsed.error().message);
    }
    manifest = std::move(parsed).take();

    if (!manifest.snapshot.empty()) {
      auto snap_or = env_.read_file(full_path(manifest.snapshot));
      if (!snap_or) {
        return common::make_error(
            "storage.snapshot_corrupt",
            "snapshot unreadable: " + snap_or.error().message);
      }
      const io::Bytes& snap = snap_or.value();
      constexpr std::size_t kSnapHeader = 20;  // magic+version+len+crc
      if (snap.size() < kSnapHeader || read_u32(snap, 0) != kSnapshotMagic ||
          read_u32(snap, 4) != kSnapshotVersion ||
          read_u64(snap, 8) != snap.size() - kSnapHeader) {
        return common::make_error("storage.snapshot_corrupt",
                                  "snapshot framing damaged");
      }
      io::Bytes payload(snap.begin() + kSnapHeader, snap.end());
      if (crc32c(payload) != read_u32(snap, 16)) {
        return common::make_error("storage.snapshot_corrupt",
                                  "snapshot CRC mismatch");
      }
      if (Status s = restore(payload); !s) return s.error();
      report.snapshot_loaded = true;
    }

    for (const auto& [file, seqno] : manifest.segments) {
      const std::string path = full_path(file);
      if (!env_.file_exists(path)) {
        // Manifest-first segment registration: a listed-but-missing file is
        // the never-created tail; nothing after it can hold data.
        break;
      }
      auto seg_or = env_.read_file(path);
      if (!seg_or) return seg_or.error();
      ++report.segments_scanned;
      auto scan_or = scan_segment(seg_or.value());
      if (!scan_or) {
        // Unreadable header: the whole segment is damage evidence.
        report.quarantined.push_back(
            QuarantinedRecord{file, 0, "bad_header", seg_or.value()});
        if (flight_ != nullptr) {
          flight_->record(obs::FlightEventKind::kRecoveryTruncate, 0, seqno,
                          seg_or.value().size());
        }
        break;
      }
      const SegmentScan& scan = scan_or.value();
      for (const io::Bytes& record : scan.records) {
        apply(record);
        ++report.records_replayed;
      }
      for (const DamagedFrame& frame : scan.damaged) {
        report.quarantined.push_back(
            QuarantinedRecord{file, frame.index, frame.reason, frame.bytes});
        if (flight_ != nullptr) {
          flight_->record(obs::FlightEventKind::kRecoveryTruncate, 0, seqno,
                          frame.bytes.size());
        }
      }
      // The first damaged frame truncates recovery: frame boundaries after
      // it cannot be trusted. The owner checkpoints immediately after a
      // dirty recovery (durable_store), which retires the damaged segment.
      if (!scan.clean) break;
    }
  }

  common::MutexLock lock(mutex_);
  next_seqno_ = manifest.next_seqno;
  snapshot_file_ = manifest.snapshot;
  for (const auto& [file, seqno] : manifest.segments) {
    segments_.push_back(SegmentRef{file, seqno});
  }
  opened_ = true;
  healthy_ = true;
  if (Status s = start_segment_locked(); !s) {
    healthy_ = false;
    return s.error();
  }

  // Best-effort orphan sweep: files from interrupted checkpoints (stray
  // snapshots/tmp files) that the installed manifest does not reference.
  if (auto names = env_.list_dir(options_.dir)) {
    std::set<std::string> live{kManifestName};
    if (!snapshot_file_.empty()) live.insert(snapshot_file_);
    for (const SegmentRef& ref : segments_) live.insert(ref.file);
    for (const std::string& name : names.value()) {
      if (live.count(name) == 0) env_.remove_file(full_path(name));
    }
  }

  if (replayed_metric_ != nullptr) {
    replayed_metric_->increment(report.records_replayed);
  }
  if (truncated_metric_ != nullptr) {
    truncated_metric_->increment(report.truncated_records());
  }
  if (recovery_seconds_metric_ != nullptr) {
    recovery_seconds_metric_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count());
  }
  return report;
}

Status LogStructuredStore::append(const io::Bytes& record) {
  common::MutexLock lock(mutex_);
  if (!opened_ || !healthy_) {
    return common::make_error("storage.unhealthy",
                              "store is closed or failed; append rejected");
  }
  if (Status s = active_->append(record); !s) {
    healthy_ = false;
    ++stats_.append_failures;
    if (append_failures_metric_ != nullptr) {
      append_failures_metric_->increment();
    }
    return s;
  }
  ++stats_.appends;
  ++stats_.appends_since_checkpoint;
  stats_.bytes_appended += record.size() + kWalFrameOverhead;
  if (appends_metric_ != nullptr) appends_metric_->increment();
  if (bytes_metric_ != nullptr) {
    bytes_metric_->increment(record.size() + kWalFrameOverhead);
  }
  if (flight_ != nullptr) {
    flight_->record(obs::FlightEventKind::kWalAppend, 0, active_->seqno(),
                    record.size());
  }
  if (active_->bytes() >= options_.segment_bytes) {
    active_->close();
    if (Status s = start_segment_locked(); !s) {
      healthy_ = false;
      ++stats_.append_failures;
      if (append_failures_metric_ != nullptr) {
        append_failures_metric_->increment();
      }
      return s;
    }
  }
  return ok_status();
}

Status LogStructuredStore::checkpoint(const io::Bytes& state) {
  common::MutexLock lock(mutex_);
  if (!opened_ || !healthy_) {
    return common::make_error("storage.unhealthy",
                              "store is closed or failed; checkpoint rejected");
  }
  const std::uint64_t snap_seqno = next_seqno_++;
  const std::string snap_name = snapshot_name(snap_seqno);
  io::Writer blob;
  blob.u32(kSnapshotMagic);
  blob.u32(kSnapshotVersion);
  blob.u64(state.size());
  blob.u32(crc32c(state));
  blob.bytes_raw(state);
  if (Status s = install_file_locked(snap_name, std::move(blob).take()); !s) {
    healthy_ = false;
    return s;
  }

  std::vector<SegmentRef> retired;
  retired.swap(segments_);
  const std::string old_snapshot = snapshot_file_;
  snapshot_file_ = snap_name;
  if (active_ != nullptr) {
    active_->close();
    active_.reset();
  }
  // start_segment_locked installs the manifest that points at the new
  // snapshot + fresh segment; until that rename lands, the old generation
  // (old manifest, old snapshot, retired segments) is untouched on disk.
  if (Status s = start_segment_locked(); !s) {
    healthy_ = false;
    return s;
  }
  for (const SegmentRef& ref : retired) {
    env_.remove_file(full_path(ref.file));  // best-effort retirement
  }
  if (!old_snapshot.empty() && old_snapshot != snap_name) {
    env_.remove_file(full_path(old_snapshot));
  }
  ++stats_.checkpoints;
  stats_.appends_since_checkpoint = 0;
  if (checkpoints_metric_ != nullptr) checkpoints_metric_->increment();
  if (flight_ != nullptr) {
    flight_->record(obs::FlightEventKind::kWalCheckpoint, 0, snap_seqno,
                    retired.size());
  }
  return ok_status();
}

bool LogStructuredStore::checkpoint_due() const {
  common::MutexLock lock(mutex_);
  return opened_ && healthy_ && options_.snapshot_every > 0 &&
         stats_.appends_since_checkpoint >= options_.snapshot_every;
}

LogStructuredStore::Stats LogStructuredStore::stats() const {
  common::MutexLock lock(mutex_);
  Stats out = stats_;
  out.opened = opened_;
  out.healthy = healthy_;
  out.live_segments = segments_.size();
  return out;
}

bool LogStructuredStore::healthy() const {
  common::MutexLock lock(mutex_);
  return opened_ && healthy_;
}

Status LogStructuredStore::write_manifest_locked() {
  io::Writer body;
  body.u32(kManifestMagic);
  body.u32(kManifestVersion);
  body.u64(next_seqno_);
  body.u8(snapshot_file_.empty() ? 0 : 1);
  if (!snapshot_file_.empty()) body.str(snapshot_file_);
  body.u32(static_cast<std::uint32_t>(segments_.size()));
  for (const SegmentRef& ref : segments_) {
    body.str(ref.file);
    body.u64(ref.seqno);
  }
  const io::Bytes bytes = std::move(body).take();
  io::Writer full;
  full.bytes_raw(bytes);
  full.u32(crc32c(bytes));
  return install_file_locked(kManifestName, std::move(full).take());
}

Status LogStructuredStore::start_segment_locked() {
  const std::uint64_t seqno = next_seqno_++;
  segments_.push_back(SegmentRef{segment_name(seqno), seqno});
  if (Status s = write_manifest_locked(); !s) return s;
  active_ = std::make_unique<SegmentWriter>(
      env_, full_path(segment_name(seqno)), seqno, options_.fsync);
  if (Status s = active_->create(); !s) return s;
  ++stats_.segments_created;
  if (segments_metric_ != nullptr) segments_metric_->increment();
  return ok_status();
}

Status LogStructuredStore::install_file_locked(const std::string& name,
                                               const io::Bytes& bytes) {
  const std::string tmp = full_path(name + ".tmp");
  auto file_or = env_.open_writable(tmp, /*truncate=*/true);
  if (!file_or) return file_or.error();
  WritableFile& file = *file_or.value();
  if (Status s = file.append(bytes); !s) return s;
  if (options_.fsync) {
    if (Status s = file.sync(); !s) return s;
  }
  if (Status s = file.close(); !s) return s;
  return env_.rename_file(tmp, full_path(name));
}

}  // namespace crowdmap::storage
