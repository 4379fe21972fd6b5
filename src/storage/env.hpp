// Filesystem abstraction for the durable storage layer. Every byte the
// log-structured store persists flows through a storage::Env, which gives
// the tree exactly two implementations of durability:
//
//   * PosixEnv — the real filesystem (open/write/fsync/rename), used in
//     production and by the CLI's --storage-dir flag.
//   * FaultEnv — a deterministic in-memory filesystem driven by the
//     common::FaultInjector. It models the adversarial crash contract
//     ("any byte appended before the crash instant may have reached disk;
//     nothing after it did"), so kill-at-byte-N sweeps produce torn frames
//     at every possible boundary, plus fsync failures and read bit-rot —
//     all as pure functions of (seed, path, append ordinal), reproducible
//     at any thread count (docs/DURABILITY.md).
//
// The crowdmap_analyze `raw-file-io` rule rejects raw fopen/ofstream/rename/
// unlink outside src/storage/ and src/io/, so this interface is the single
// audited seam where durable state touches the OS.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/expected.hpp"
#include "common/fault.hpp"
#include "io/serialize.hpp"

namespace crowdmap::storage {

/// Success-or-error result for operations with no payload. The value is
/// always `true`; callers branch on ok()/error() only.
using Status = common::Expected<bool>;

[[nodiscard]] inline Status ok_status() { return true; }

/// An open append-only file handle. append() buffers into the OS (or the
/// in-memory pending region); sync() is the durability barrier.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status append(const io::Bytes& data) = 0;
  virtual Status sync() = 0;
  virtual Status close() = 0;
};

/// Minimal filesystem surface the log-structured store needs. Paths are
/// plain strings; directories in FaultEnv are purely name prefixes.
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for appending. `truncate` discards any existing content
  /// (new segment / tmp manifest); otherwise appends to the existing bytes.
  virtual common::Expected<std::unique_ptr<WritableFile>> open_writable(
      const std::string& path, bool truncate) = 0;

  /// Whole-file read. Error code "storage.not_found" when absent.
  [[nodiscard]] virtual common::Expected<io::Bytes> read_file(
      const std::string& path) = 0;

  [[nodiscard]] virtual bool file_exists(const std::string& path) = 0;

  /// Atomic replace: the install step of snapshots and manifests. After a
  /// crash either the old or the new content is visible, never a mix.
  virtual Status rename_file(const std::string& from,
                             const std::string& to) = 0;

  virtual Status remove_file(const std::string& path) = 0;

  /// Sorted names (not full paths) of the files directly under `dir`.
  [[nodiscard]] virtual common::Expected<std::vector<std::string>> list_dir(
      const std::string& dir) = 0;

  /// mkdir -p.
  virtual Status make_dirs(const std::string& dir) = 0;
};

/// Real-filesystem Env (POSIX fd API so sync() is a true fsync barrier).
class PosixEnv final : public Env {
 public:
  common::Expected<std::unique_ptr<WritableFile>> open_writable(
      const std::string& path, bool truncate) override;
  common::Expected<io::Bytes> read_file(const std::string& path) override;
  bool file_exists(const std::string& path) override;
  Status rename_file(const std::string& from, const std::string& to) override;
  Status remove_file(const std::string& path) override;
  common::Expected<std::vector<std::string>> list_dir(
      const std::string& dir) override;
  Status make_dirs(const std::string& dir) override;
};

/// Process-wide PosixEnv instance (the Env used when a service is given a
/// storage.dir but no explicit Env).
[[nodiscard]] Env& posix_env();

/// Deterministic in-memory Env with fault injection. Not an OS simulator:
/// just enough filesystem semantics for the WAL (append, atomic rename,
/// whole-file read, flat directories) plus the crash model above.
///
/// Fault points (armed through the injector; keys are stable hashes of
/// (path, per-file append ordinal) so decisions are thread-count-invariant):
///   fs.write_torn   — an append applies only a deterministic prefix and the
///                     env crashes (power cut mid-write).
///   fs.fsync_fail   — sync() reports failure; appended bytes stay pending.
///   fs.crash_at     — like write_torn with an independent probability knob.
///   fs.read_corrupt — read_file() flips one deterministic byte (bit-rot).
///
/// set_crash_at_bytes(N) is the exhaustive-sweep control: the env counts
/// every appended byte across all files and kills itself at byte N exactly,
/// so a test can iterate N over the whole write history. After a crash every
/// operation fails with "storage.crashed"; fork_survivor() yields the
/// post-restart filesystem (everything appended before the crash instant).
class FaultEnv final : public Env {
 public:
  explicit FaultEnv(common::FaultInjector* injector = nullptr)
      : injector_(injector) {}

  common::Expected<std::unique_ptr<WritableFile>> open_writable(
      const std::string& path, bool truncate) override CM_EXCLUDES(mutex_);
  common::Expected<io::Bytes> read_file(const std::string& path) override
      CM_EXCLUDES(mutex_);
  bool file_exists(const std::string& path) override CM_EXCLUDES(mutex_);
  Status rename_file(const std::string& from, const std::string& to) override
      CM_EXCLUDES(mutex_);
  Status remove_file(const std::string& path) override CM_EXCLUDES(mutex_);
  common::Expected<std::vector<std::string>> list_dir(
      const std::string& dir) override CM_EXCLUDES(mutex_);
  Status make_dirs(const std::string& dir) override CM_EXCLUDES(mutex_);

  /// Kill the env when the running total of appended bytes reaches `offset`
  /// (the append that crosses it applies only the bytes below the line).
  void set_crash_at_bytes(std::uint64_t offset) CM_EXCLUDES(mutex_);

  /// Swap the fault injector (not owned; may be null).
  void set_injector(common::FaultInjector* injector) CM_EXCLUDES(mutex_);

  [[nodiscard]] bool crashed() const CM_EXCLUDES(mutex_);
  /// Running total of bytes accepted by append() across all files — the
  /// coordinate system of set_crash_at_bytes().
  [[nodiscard]] std::uint64_t bytes_appended() const CM_EXCLUDES(mutex_);

  /// The filesystem a restarted process would see: a fresh, uncrashed
  /// FaultEnv holding every byte appended before the crash instant (or the
  /// full current state when no crash happened). No injector is attached.
  [[nodiscard]] std::unique_ptr<FaultEnv> fork_survivor() const
      CM_EXCLUDES(mutex_);

  static constexpr std::uint64_t kNoCrash = ~std::uint64_t{0};

 private:
  friend class FaultWritableFile;

  struct FileState {
    io::Bytes bytes;
    std::uint64_t append_ordinal = 0;  // fault-key component, monotonic
  };

  /// Appends under the crash/fault model; called by FaultWritableFile.
  Status append_entry(const std::string& path, const io::Bytes& data)
      CM_EXCLUDES(mutex_);
  Status sync_entry(const std::string& path) CM_EXCLUDES(mutex_);

  [[nodiscard]] common::Error crashed_error() const {
    return common::make_error("storage.crashed",
                              "FaultEnv crashed; operations rejected");
  }

  mutable common::Mutex mutex_;
  common::FaultInjector* injector_ CM_GUARDED_BY(mutex_) = nullptr;
  std::map<std::string, FileState> files_ CM_GUARDED_BY(mutex_);
  std::uint64_t appended_total_ CM_GUARDED_BY(mutex_) = 0;
  std::uint64_t crash_at_ CM_GUARDED_BY(mutex_) = kNoCrash;
  bool crashed_ CM_GUARDED_BY(mutex_) = false;
};

}  // namespace crowdmap::storage
