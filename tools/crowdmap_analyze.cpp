// crowdmap_analyze binary: builds a whole-program model of the given
// files/directories (default: the src/, tools/ and bench/ trees of the
// working directory, which must be the repo root) and runs the per-site
// rules plus the layering, lock-order, and determinism passes from
// tools/analyze/. Prints compiler-style diagnostics, optionally writes
// SARIF 2.1.0, and supports a committed suppression baseline:
//
//   crowdmap_analyze                      # report every finding, exit 1 if any
//   crowdmap_analyze --check-baseline     # fail only on NEW findings
//   crowdmap_analyze --write-baseline     # rewrite the baseline from findings
//   crowdmap_analyze --sarif out.sarif    # also emit SARIF
//
// See tools/analyze/analyze.hpp for the passes and docs/STATIC_ANALYSIS.md
// for the workflow.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"

namespace fs = std::filesystem;
namespace an = crowdmap::analyze;

namespace {

constexpr const char* kDefaultBaseline = "tools/analyze/baseline.txt";

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

void print_rules() {
  std::printf("crowdmap_analyze rules (baseline key: rule|path|symbol):\n");
  for (const auto& rule : an::rule_catalog()) {
    std::printf("  %-22s %s\n", std::string(rule.name).c_str(),
                std::string(rule.summary).c_str());
  }
  std::printf("\nlayering (rank 0 = top; includes must not point to a "
              "smaller rank):\n");
  for (const auto& layer : an::layer_table()) {
    std::printf("  %d  %s\n", layer.rank, std::string(layer.module).c_str());
  }
  std::printf("\nallowlisted upward edges:\n");
  for (const auto& exc : an::layering_allowlist()) {
    std::printf("  %s -> %s: %s\n", std::string(exc.from).c_str(),
                std::string(exc.to).c_str(), std::string(exc.why).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string sarif_path;
  std::string baseline_path = kDefaultBaseline;
  bool check_baseline = false;
  bool write_baseline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      print_rules();
      return 0;
    }
    if (arg == "--check-baseline") {
      check_baseline = true;
      continue;
    }
    if (arg == "--write-baseline") {
      write_baseline = true;
      continue;
    }
    if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
      continue;
    }
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: crowdmap_analyze [options] [path...]\n"
          "Whole-program analysis of .cpp/.hpp files under each path\n"
          "(default: src tools bench). Options:\n"
          "  --list-rules        print the rule catalog and layer table\n"
          "  --sarif <file>      also write findings as SARIF 2.1.0\n"
          "  --baseline <file>   baseline path (default %s)\n"
          "  --check-baseline    exit non-zero only for NEW findings\n"
          "  --write-baseline    rewrite the baseline from current findings\n",
          kDefaultBaseline);
      return 0;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) roots = {"src", "tools", "bench"};

  std::vector<std::string> errors;
  const std::vector<an::FileModel> models =
      an::load_tree(roots, fs::current_path(), errors);
  for (const std::string& error : errors) {
    std::fprintf(stderr, "crowdmap_analyze: %s\n", error.c_str());
  }

  const std::vector<an::Finding> findings = an::analyze(models);

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "crowdmap_analyze: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
    out << an::to_sarif(findings);
  }

  if (write_baseline) {
    std::ofstream out(baseline_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "crowdmap_analyze: cannot write %s\n",
                   baseline_path.c_str());
      return 2;
    }
    out << an::render_baseline(findings);
    std::printf("crowdmap_analyze: wrote %zu baseline entr%s to %s\n",
                findings.size(), findings.size() == 1 ? "y" : "ies",
                baseline_path.c_str());
    return 0;
  }

  std::vector<an::Finding> reported = findings;
  if (check_baseline) {
    std::string content;
    if (!read_file(baseline_path, content)) {
      // A missing baseline means nothing is suppressed — every finding is
      // new. That is the right default for a fresh checkout.
      content.clear();
    }
    reported = an::new_findings(findings, an::parse_baseline(content));
  }

  for (const auto& finding : reported) {
    std::printf("%s\n", an::format(finding).c_str());
  }
  std::printf("crowdmap_analyze: %zu %sfinding%s in %zu files\n",
              reported.size(), check_baseline ? "new " : "",
              reported.size() == 1 ? "" : "s", models.size());
  if (!errors.empty()) return 2;  // a misspelled path must not pass the gate
  return reported.empty() ? 0 : 1;
}
