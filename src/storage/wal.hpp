// CMWL write-ahead-log segments: the append-only record framing under the
// log-structured store. A segment is
//
//   [u32 magic "CMWL"][u32 version][u64 seqno]          -- header, 16 bytes
//   ([u32 payload_len][u32 crc32c(payload)][payload])*  -- frames
//
// all little-endian, consistent with the CMC1 artifact-cache codec
// (docs/DURABILITY.md has the full layout). Scanning never throws: the
// first damaged frame (torn header, torn payload, absurd length, CRC
// mismatch) truncates the scan, and the damaged tail bytes are surfaced as
// quarantined frames with reasons — recovery keeps the evidence, the way
// DocumentStore::quarantine keeps mangled uploads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "io/serialize.hpp"
#include "storage/env.hpp"

namespace crowdmap::storage {

inline constexpr std::uint32_t kWalMagic = 0x434D574Cu;  // "CMWL"
inline constexpr std::uint32_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderBytes = 16;
inline constexpr std::size_t kWalFrameOverhead = 8;  // len + crc
/// Frames larger than this are framing damage, not data (shares the io
/// decode bound so the cap stays one number).
inline constexpr std::uint32_t kWalMaxRecordBytes = io::kMaxDecodeCount;

/// Appends CRC-framed records to one segment file.
class SegmentWriter {
 public:
  SegmentWriter(Env& env, std::string path, std::uint64_t seqno, bool fsync);

  /// Creates/truncates the file and writes the segment header.
  Status create();
  /// Frames and appends one record (syncs when the writer was built with
  /// fsync). The record becomes recoverable only once fully appended.
  Status append(const io::Bytes& record);
  Status sync();
  Status close();

  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t seqno() const noexcept { return seqno_; }

 private:
  Env& env_;
  std::string path_;
  std::uint64_t seqno_;
  bool fsync_;
  std::unique_ptr<WritableFile> file_;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
};

/// One damaged (truncated/corrupt) frame kept as evidence.
struct DamagedFrame {
  std::uint64_t index = 0;  // frame position within the segment
  std::string reason;       // "torn_frame_header" | "torn_frame" |
                            // "bad_length" | "crc_mismatch"
  io::Bytes bytes;          // the raw damaged tail bytes
};

/// Result of scanning one segment's bytes.
struct SegmentScan {
  std::uint64_t seqno = 0;
  std::vector<io::Bytes> records;  // intact frames, in append order
  bool clean = true;               // false when the scan truncated a tail
  std::vector<DamagedFrame> damaged;
};

/// Parses segment bytes. Frame damage is reported in-band (clean=false +
/// `damaged`), never thrown; only an unreadable header (wrong magic or
/// version — the file is not a CMWL segment) is an error, code
/// "storage.segment_header".
[[nodiscard]] common::Expected<SegmentScan> scan_segment(
    const io::Bytes& bytes);

}  // namespace crowdmap::storage
