// Exporter: renders a MetricsSnapshot in the Prometheus text exposition
// format. Output is deterministic (families sorted by name, series by
// labels) so goldens and diffs are stable.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace crowdmap::obs {

/// Prometheus text format v0.0.4: # HELP / # TYPE headers, one sample per
/// line, histograms as cumulative `_bucket{le=...}` plus `_sum` / `_count`.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

}  // namespace crowdmap::obs
