// api::Status — the structured error model of the v2 facade (docs/API.md).
// Version-independent: codes live directly in crowdmap::api so a future v3
// shares them, and each code names a caller-actionable condition (retry the
// rejected chunks, refresh routing, back off, re-issue with a fresh
// deadline) instead of a bare bool.
#pragma once

#include <string>
#include <string_view>

namespace crowdmap::api {

/// Catalog of request outcomes. Codes are never renumbered, and a code that
/// nothing returns is deleted.
enum class StatusCode : int {
  kOk = 0,
  /// >=1 chunk was rejected or the upload never reassembled; retransmit.
  kRejectedChunks = 1,
  /// Direct-to-node request hit a non-primary for the shard; refresh
  /// routing (shard_of) and resend.
  kWrongShard = 2,
  /// The acting primary is over cluster.max_node_queue; back off and retry.
  kShedding = 3,
  /// The request-scoped deadline elapsed before admission.
  kDeadlineExceeded = 4,
};

/// Catalog name of a code ("ok", "rejected_chunks", ...); "unknown" for
/// junk input. Stable — exported into logs and CI artifacts.
[[nodiscard]] std::string_view to_string(StatusCode code) noexcept;

/// Outcome of one v2 request: a code plus a human-readable detail message
/// (empty on success). Cheap to copy; returned by value in every response.
struct Status {
  StatusCode code = StatusCode::kOk;
  std::string message;

  [[nodiscard]] bool ok() const noexcept { return code == StatusCode::kOk; }

  [[nodiscard]] static Status Ok() { return {}; }
  [[nodiscard]] static Status Error(StatusCode code, std::string message) {
    return {code, std::move(message)};
  }

  friend bool operator==(const Status& a, const Status& b) = default;
};

}  // namespace crowdmap::api
