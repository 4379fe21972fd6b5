// Durable backend for the DocumentStore: a DocumentStore::Journal that
// mirrors every put/erase/quarantine into a storage::LogStructuredStore as
// versioned CMWL op records, and on startup replays snapshot + log back
// into the in-memory store. The op codec lives here — with the Document
// type — not in storage/, the same codec-beside-its-type split the io layer
// documents (storage stays domain-agnostic; docs/DURABILITY.md).
//
// Recovery contract: open_and_recover() never throws. Damaged WAL tail
// records are truncated and preserved as quarantined audit documents
// (ids "sys/wal-damage/<segment>#<frame>", building "sys:crowdmap"), the
// truncation is counted in crowdmap_recovery_truncated_records_total, and a
// dirty recovery checkpoints immediately so the damaged segment is retired
// before any new mutation is journaled.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cloud/docstore.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "storage/log_store.hpp"

namespace crowdmap::cloud {

/// Mirror of core::StorageConfig (kept dependency-free of core).
struct DurableStoreOptions {
  std::string dir;
  std::size_t segment_bytes = std::size_t{4} << 20;
  std::size_t snapshot_every = 0;  // appends between auto-checkpoints
  bool fsync = true;
};

/// Durability facts for ServiceStats (api::Client::stats().durability).
struct DurabilityStats {
  bool enabled = false;
  bool recovered = false;  // open_and_recover() completed
  bool healthy = false;    // backing log still accepts appends
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_append_failures = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t segments_created = 0;
  std::uint64_t live_segments = 0;
  std::uint64_t checkpoints = 0;
  bool recovery_snapshot_loaded = false;
  std::uint64_t recovery_records_replayed = 0;
  std::uint64_t recovery_truncated_records = 0;
};

/// Building that owns WAL-damage quarantine documents (the service's
/// reserved system building; kept literal here to avoid a cloud-internal
/// include cycle with service.hpp).
inline constexpr char kWalDamageBuilding[] = "sys:crowdmap";

// -------- CMWL op codec (version 1) --------
// record payload := u8 codec_version, u8 op, body
//   op 1 (put):        document
//   op 2 (erase):      str id
//   op 3 (quarantine): document, str reason
// document := str id, str building, i32 floor,
//             u32 n_metadata, (str key, str value)*,   -- sorted by key
//             u64 payload_len, raw payload bytes
// Snapshot state := u32 state_version(1),
//                   u64 n_docs, document*,             -- sorted by id
//                   u64 n_quarantined, document*       -- sorted by id

[[nodiscard]] io::Bytes encode_put_op(const Document& doc);
[[nodiscard]] io::Bytes encode_erase_op(const std::string& id);
[[nodiscard]] io::Bytes encode_quarantine_op(const Document& doc,
                                             const std::string& reason);

/// Serializes full store state (docs + quarantine) for checkpoints. Byte-
/// deterministic: sorted iteration, little-endian fields.
[[nodiscard]] io::Bytes encode_store_state(const DocumentStore& store);
[[nodiscard]] io::Bytes encode_store_state(
    const std::vector<Document>& docs,
    const std::vector<Document>& quarantined);

class DurableDocumentStore final : public DocumentStore::Journal {
 public:
  /// `store` and `env` are borrowed and must outlive this object.
  DurableDocumentStore(DocumentStore& store, storage::Env& env,
                       DurableStoreOptions options,
                       std::shared_ptr<obs::MetricsRegistry> registry = nullptr,
                       obs::FlightRecorder* flight = nullptr);
  ~DurableDocumentStore() override;

  DurableDocumentStore(const DurableDocumentStore&) = delete;
  DurableDocumentStore& operator=(const DurableDocumentStore&) = delete;

  /// Opens the backing log and replays snapshot + ops into the store with
  /// journaling suspended, quarantines damaged tail records as audit
  /// documents, checkpoints if the recovery was dirty, then attaches as the
  /// store's journal. Call once, before concurrent use of the store.
  common::Expected<storage::RecoveryReport> open_and_recover();

  /// Snapshot + compaction now. Exports store state and installs the
  /// snapshot while holding the store's lock (store lock -> log lock, the
  /// same order every journal append uses), so a racing put can never land
  /// an op record in a segment this checkpoint retires. Safe to call from
  /// request or worker threads; must not be called from inside a journal
  /// callback (the store's lock is already held there).
  storage::Status checkpoint();

  /// checkpoint() when storage.snapshot_every appends have accumulated
  /// since the last one. The service calls this at upload completion —
  /// never from inside the journal callbacks (the store's lock is held
  /// there, and checkpoint() re-enters the store to export state).
  void maybe_checkpoint();

  [[nodiscard]] DurabilityStats stats() const;

  // DocumentStore::Journal (invoked under the store's lock — append only,
  // no store re-entry).
  void on_put(const Document& doc) override;
  void on_erase(const std::string& id) override;
  void on_quarantine(const Document& doc, const std::string& reason) override;

 private:
  /// Applies one replayed op record to the store. Undecodable-but-CRC-valid
  /// records (codec drift) are quarantined as audit documents, not fatal.
  void apply_record(const io::Bytes& record);

  DocumentStore& store_;
  storage::LogStructuredStore log_;
  bool attached_ = false;
  // Recovery summary; written once by open_and_recover() before the store
  // is shared, read-only afterwards.
  bool recovered_ = false;
  bool recovery_snapshot_loaded_ = false;
  std::uint64_t recovery_records_replayed_ = 0;
  std::uint64_t recovery_truncated_records_ = 0;
  std::uint64_t replay_damage_ = 0;  // undecodable replayed records
};

}  // namespace crowdmap::cloud
