// crowdmap_analyze — the static analyzer for the CrowdMap tree.
//
// It builds a model of every translation unit (tools/analyze/model.hpp).
// While building it, the per-site rules (raw-rng, wall-clock,
// unordered-container, naked-new, float-accumulator, pragma-once,
// fault-point-name, metric-help-required, raw-intrinsics, raw-file-io) flag
// each offending construct at its own line, in any scope. Then three
// cross-file passes run:
//
//   layering     — the module DAG below is enforced over the include graph:
//                  cross-layer includes must point downward; same-layer
//                  cross-module edges are legal but guarded by module-cycle
//                  detection; upward edges need a per-edge allowlist entry
//                  with a written justification.
//   lock-order   — a global mutex-acquisition graph is assembled from
//                  CM_REQUIRES / CM_ACQUIRE annotations and MutexLock
//                  construction sites, with acquisitions propagated through
//                  the name-resolved call graph; cycles are reported as
//                  potential deadlocks, and calling a CM_EXCLUDES(m)
//                  function while m is held is flagged directly.
//   determinism  — functions transitively reachable from a wall-clock,
//                  raw-RNG, or unordered-iteration source are flagged
//                  unless the chain terminates in an allowlisted sink
//                  (logging, the seeded RNG wrapper, observability stamps).
//
// Output is human text and SARIF 2.1.0. A committed baseline file
// (tools/analyze/baseline.txt) is the only suppression mechanism: it lists
// known findings by stable key, and --check-baseline fails only on NEW
// findings. Rationale: docs/STATIC_ANALYSIS.md.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/model.hpp"

namespace crowdmap::analyze {

/// Catalog entry: rule name plus a one-line rationale (drives --list-rules,
/// the SARIF rule table, and docs).
struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

/// The declared module layering, top layer first. Exposed for docs/tests.
struct LayerInfo {
  int rank = 0;  // 0 = top (api); larger = lower
  std::string_view module;
};

[[nodiscard]] const std::vector<LayerInfo>& layer_table();

/// An allowlisted upward include edge with its written justification.
struct LayeringException {
  std::string_view from;
  std::string_view to;
  std::string_view why;
};

[[nodiscard]] const std::vector<LayeringException>& layering_allowlist();

/// Reports the per-site hits of the given file models (one per scanned
/// file) and runs the cross-file passes over them; returns findings sorted
/// by (rule, path, line, symbol), one per site.
[[nodiscard]] std::vector<Finding> analyze(const std::vector<FileModel>& models);

/// "path:line: [rule] symbol: message" — compiler-style diagnostic line.
[[nodiscard]] std::string format(const Finding& finding);

/// Full SARIF 2.1.0 document for the findings.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

/// Baseline key: "rule|path|symbol" (no line — drift-stable).
[[nodiscard]] std::string baseline_key(const Finding& finding);

/// Parses a baseline file: one key per line; '#' comments and blanks skipped.
[[nodiscard]] std::set<std::string> parse_baseline(std::string_view content);

/// Renders findings as a baseline file body (sorted, deduplicated, with a
/// header comment explaining the format).
[[nodiscard]] std::string render_baseline(const std::vector<Finding>& findings);

/// Findings whose key is not in `baseline` — what --check-baseline gates on.
[[nodiscard]] std::vector<Finding> new_findings(
    const std::vector<Finding>& findings, const std::set<std::string>& baseline);

}  // namespace crowdmap::analyze
