// Deterministic shard replication log (docs/CLUSTER.md): the authoritative,
// append-only record of every committed upload of one (building, floor)
// shard, each record a CMRR-encoded document. Seqnos are 1-based and dense:
// head() is both the record count and the newest seqno, and a node's
// per-shard applied watermark is a single integer.
#pragma once

#include <cstdint>
#include <vector>

#include "cloud/docstore.hpp"
#include "io/serialize.hpp"

namespace crowdmap::cluster {

/// Record codec magic/version ("CMRR"): the payload inside each WAL frame.
inline constexpr std::uint32_t kRecordMagic = 0x434D5252u;
inline constexpr std::uint8_t kRecordVersion = 1;

/// Encodes one committed upload document as a replication record
/// (little-endian: magic, version, id, building, floor, metadata, payload).
[[nodiscard]] io::Bytes encode_record(const cloud::Document& doc);

/// Decodes a replication record; throws io::DecodeError on malformed bytes.
[[nodiscard]] cloud::Document decode_record(const io::Bytes& bytes);

class ReplicationLog {
 public:
  /// Appends one record; returns its 1-based seqno.
  std::uint64_t append(io::Bytes record);

  [[nodiscard]] std::uint64_t head() const noexcept { return records_.size(); }

  /// Record bytes by 1-based seqno (seqno must be in [1, head()]).
  [[nodiscard]] const io::Bytes& record(std::uint64_t seqno) const;

 private:
  std::vector<io::Bytes> records_;
};

}  // namespace crowdmap::cluster
