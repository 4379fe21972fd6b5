// Tests for the crowdmap_lint rule engine: every rule fires on a minimal
// offending snippet, the inline allow(<rule>) escape suppresses it, comment
// and string-literal mentions never trip the scan, and clean content comes
// back finding-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "lint/lint.hpp"

namespace cl = crowdmap::lint;

namespace {

bool has_rule(const std::vector<cl::Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const cl::Finding& f) { return f.rule == rule; });
}

}  // namespace

TEST(Lint, CleanFileHasNoFindings) {
  const auto findings = cl::lint_content("src/foo/bar.cpp",
                                         "#include \"foo.hpp\"\n"
                                         "int add(int a, int b) { return a + b; }\n");
  EXPECT_TRUE(findings.empty());
}

// ------------------------------------------------------------------ raw-rng ---

TEST(Lint, RawRngFiresOnRand) {
  const auto findings =
      cl::lint_content("src/sim/x.cpp", "int x = rand() % 6;\n");
  ASSERT_TRUE(has_rule(findings, "raw-rng"));
  EXPECT_EQ(findings[0].line, 1);
}

TEST(Lint, RawRngFiresOnMt19937AndRandomDevice) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp", "std::mt19937 gen(std::random_device{}());\n"),
      "raw-rng"));
}

TEST(Lint, RawRngExemptInsideRngSources) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/common/rng.cpp", "int x = rand();\n"), "raw-rng"));
}

TEST(Lint, RawRngIgnoresIdentifierSuffixes) {
  // "brand(" and "operand(" must not match the rand() pattern.
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.cpp", "int y = brand() + operand(2);\n"),
      "raw-rng"));
}

// --------------------------------------------------------------- wall-clock ---

TEST(Lint, WallClockFiresOnSystemClock) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp",
                       "auto t = std::chrono::system_clock::now();\n"),
      "wall-clock"));
}

TEST(Lint, WallClockFiresOnTimeCall) {
  EXPECT_TRUE(has_rule(cl::lint_content("src/a.cpp", "long t = time(nullptr);\n"),
                       "wall-clock"));
}

TEST(Lint, WallClockAllowsSteadyClock) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.cpp",
                       "auto t = std::chrono::steady_clock::now();\n"),
      "wall-clock"));
}

TEST(Lint, WallClockAllowsTimeLikeIdentifiers) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.cpp",
                       "gmtime_r(&s, &utc); auto x = to_time_t_like(1);\n"),
      "wall-clock"));
}

// ------------------------------------------------------ unordered-container ---

TEST(Lint, UnorderedContainerFires) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp", "std::unordered_map<int, int> m;\n"),
      "unordered-container"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp", "std::unordered_set<int> s;\n"),
      "unordered-container"));
}

// ---------------------------------------------------------------- naked-new ---

TEST(Lint, NakedNewFires) {
  EXPECT_TRUE(has_rule(cl::lint_content("src/a.cpp", "int* p = new int(3);\n"),
                       "naked-new"));
  EXPECT_TRUE(
      has_rule(cl::lint_content("src/a.cpp", "delete p;\n"), "naked-new"));
}

TEST(Lint, DeletedMemberFunctionsAreNotNakedDelete) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.hpp",
                       "#pragma once\n"
                       "struct S { S(const S&) = delete; };\n"),
      "naked-new"));
}

TEST(Lint, NewInIdentifiersDoesNotFire) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.cpp", "int new_width = renew(old_width);\n"),
      "naked-new"));
}

// -------------------------------------------------------- float-accumulator ---

TEST(Lint, FloatAccumulatorFires) {
  EXPECT_TRUE(has_rule(cl::lint_content("src/a.cpp", "float acc = 0.0f;\n"),
                       "float-accumulator"));
  EXPECT_TRUE(has_rule(cl::lint_content("src/a.cpp", "float score_sum = 0;\n"),
                       "float-accumulator"));
}

TEST(Lint, FloatNonAccumulatorsPass) {
  // A zero-initialized float without an accumulator-style name, and a
  // non-zero-initialized float either way.
  EXPECT_FALSE(has_rule(cl::lint_content("src/a.cpp", "float dc = 0.0f;\n"),
                        "float-accumulator"));
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.cpp", "const float total = w * h;\n"),
      "float-accumulator"));
}

// -------------------------------------------------------------- pragma-once ---

TEST(Lint, HeaderWithoutPragmaOnceFires) {
  const auto findings = cl::lint_content("src/a.hpp", "struct S {};\n");
  ASSERT_TRUE(has_rule(findings, "pragma-once"));
  EXPECT_EQ(findings[0].line, 1);
}

TEST(Lint, HeaderWithPragmaOncePasses) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.hpp", "// doc\n#pragma once\nstruct S {};\n"),
      "pragma-once"));
}

TEST(Lint, SourceFilesDoNotNeedPragmaOnce) {
  EXPECT_FALSE(
      has_rule(cl::lint_content("src/a.cpp", "int x;\n"), "pragma-once"));
}

// ------------------------------------------------------------------ escapes ---

TEST(Lint, SameLineEscapeSuppresses) {
  EXPECT_FALSE(has_rule(
      cl::lint_content(
          "src/a.cpp",
          "int x = rand();  // crowdmap-lint: allow(raw-rng)\n"),
      "raw-rng"));
}

TEST(Lint, PreviousLineEscapeSuppresses) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.cpp",
                       "// crowdmap-lint: allow(unordered-container)\n"
                       "std::unordered_map<int, int> m;\n"),
      "unordered-container"));
}

TEST(Lint, EscapeListsMultipleRules) {
  const auto findings = cl::lint_content(
      "src/a.cpp",
      "// crowdmap-lint: allow(raw-rng, wall-clock)\n"
      "long t = time(nullptr) + rand();\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Lint, EscapeForOtherRuleDoesNotSuppress) {
  EXPECT_TRUE(has_rule(
      cl::lint_content(
          "src/a.cpp",
          "int x = rand();  // crowdmap-lint: allow(wall-clock)\n"),
      "raw-rng"));
}

TEST(Lint, EscapeDoesNotLeakBeyondTheNextLine) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp",
                       "// crowdmap-lint: allow(raw-rng)\n"
                       "int ok = 1;\n"
                       "int x = rand();\n"),
      "raw-rng"));
}

TEST(Lint, MultilineEscapeSpansCommentBlock) {
  // An allow(...) list may continue across consecutive // comment lines;
  // the escape covers every spanned line plus the statement below the block.
  const auto findings = cl::lint_content(
      "src/a.cpp",
      "// crowdmap-lint: allow(raw-rng,\n"
      "//   wall-clock)\n"
      "long t = time(nullptr) + rand();\n");
  EXPECT_FALSE(has_rule(findings, "raw-rng"));
  EXPECT_FALSE(has_rule(findings, "wall-clock"));
}

TEST(Lint, MultilineEscapeOnlyListsItsRules) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp",
                       "// crowdmap-lint: allow(wall-clock,\n"
                       "//   unordered-container)\n"
                       "int x = rand();\n"),
      "raw-rng"));
}

TEST(Lint, UnterminatedMultilineEscapeDoesNotSuppress) {
  // The list never closes before a non-comment line, so no escape applies.
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp",
                       "// crowdmap-lint: allow(raw-rng,\n"
                       "int x = rand();\n"),
      "raw-rng"));
}

// --------------------------------------------------------- fault-point-name ---

TEST(Lint, FaultPointNameFiresOnFromNameParse) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/core/pipeline.cpp",
                       "auto p = common::fault_point_from_name(spec);\n"),
      "fault-point-name"));
}

TEST(Lint, FaultPointNameFiresOnIntegerCast) {
  EXPECT_TRUE(has_rule(
      cl::lint_content(
          "src/cloud/service.cpp",
          "auto p = static_cast<common::FaultPoint>(i);\n"),
      "fault-point-name"));
}

TEST(Lint, FaultPointNameFiresOnBraceInit) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/core/pipeline.cpp",
                       "const auto p = common::FaultPoint{3};\n"),
      "fault-point-name"));
}

TEST(Lint, FaultPointNameExemptInsideFaultSources) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/common/fault.cpp",
                       "auto p = static_cast<FaultPoint>(index);\n"),
      "fault-point-name"));
}

TEST(Lint, FaultPointNamedConstantsPass) {
  EXPECT_TRUE(
      cl::lint_content(
          "src/core/pipeline.cpp",
          "faults_.should_fire(common::faults::kDecodeFail, key);\n"
          "for (const auto point : common::all_fault_points()) use(point);\n")
          .empty());
}

// ------------------------------------------------- pipeline construction ---

TEST(Lint, PipelineConstructionFiresOutsideSrc) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("tests/test_core.cpp",
                       "co::CrowdMapPipeline pipeline(config);\n"),
      "pipeline-construction"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("bench/micro.cpp",
                       "auto p = std::make_unique<core::CrowdMapPipeline>(c);\n"),
      "pipeline-construction"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("examples/demo.cpp",
                       "auto* p = new core::CrowdMapPipeline(c);\n"),
      "pipeline-construction"));
}

TEST(Lint, PipelineConstructionAllowedInsideSrc) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/core/incremental.cpp",
                       "CrowdMapPipeline pipeline(config_, registry_);\n"),
      "pipeline-construction"));
}

TEST(Lint, PipelineReferencesAndMentionsPass) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("tests/test_x.cpp",
                       "// CrowdMapPipeline is internal; go through the api\n"
                       "void drive(core::CrowdMapPipeline& pipeline);\n"),
      "pipeline-construction"));
}

TEST(Lint, PipelineConstructionEscapable) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("bench/micro.cpp",
                       "// crowdmap-lint: allow(pipeline-construction)\n"
                       "core::CrowdMapPipeline pipeline(config);\n"),
      "pipeline-construction"));
}

// ------------------------------------------------------ metric-help-required ---

TEST(Lint, MetricHelpFiresOnMissingHelp) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/cloud/x.cpp",
                       "auto& c = registry.counter(\"crowdmap_x_total\", {});\n"),
      "metric-help-required"));
  // histogram() takes buckets before help, so three args is still help-less.
  EXPECT_TRUE(has_rule(
      cl::lint_content(
          "src/cloud/x.cpp",
          "auto& h = registry->histogram(\"crowdmap_x_seconds\", {},\n"
          "                              obs::Histogram::default_latency_buckets());\n"),
      "metric-help-required"));
}

TEST(Lint, MetricHelpFiresOnEmptyHelp) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/cloud/x.cpp",
                       "registry.gauge(\"crowdmap_depth\", {}, \"\");\n"),
      "metric-help-required"));
}

TEST(Lint, MetricHelpPassesWithHelpAcrossLinesAndNestedBraces) {
  EXPECT_FALSE(has_rule(
      cl::lint_content(
          "src/cloud/x.cpp",
          "auto& c = registry.counter(\n"
          "    \"crowdmap_slo_breaches_total\", {{\"slo\", spec.name}},\n"
          "    \"SLO threshold crossings detected by the watchdog\");\n"),
      "metric-help-required"));
  EXPECT_FALSE(has_rule(
      cl::lint_content(
          "src/cloud/x.cpp",
          "auto& h = registry.histogram(\"crowdmap_x_seconds\", {},\n"
          "                             {0.1, 1.0}, \"latency\");\n"),
      "metric-help-required"));
}

TEST(Lint, MetricHelpIgnoresNonLiteralNames) {
  // Lookup helpers that forward a runtime name are not registrations the
  // rule can judge; only literal-name call sites are flagged.
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/cloud/x.cpp",
                       "auto& c = registry.counter(name, labels);\n"),
      "metric-help-required"));
}

TEST(Lint, MetricHelpEscapable) {
  EXPECT_FALSE(has_rule(
      cl::lint_content(
          "src/cloud/x.cpp",
          "// crowdmap-lint: allow(metric-help-required)\n"
          "registry.counter(\"crowdmap_x_total\", {});\n"),
      "metric-help-required"));
}

// --------------------------------------------- comments and string literals ---

TEST(Lint, CommentMentionsDoNotFire) {
  EXPECT_TRUE(cl::lint_content("src/a.cpp",
                               "// Chosen over std::mt19937 because ...\n"
                               "/* delete new rand() system_clock */\n")
                  .empty());
}

TEST(Lint, StringLiteralMentionsDoNotFire) {
  EXPECT_TRUE(cl::lint_content(
                  "src/a.cpp",
                  "const char* msg = \"never call rand() or new here\";\n")
                  .empty());
}

TEST(Lint, CodeAfterBlockCommentStillFires) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp", "/* why not */ int x = rand();\n"),
      "raw-rng"));
}

// ----------------------------------------------------------- raw-intrinsics ---

TEST(Lint, RawIntrinsicsFiresOnIntelInclude) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/vision/x.cpp", "#include <immintrin.h>\n"),
      "raw-intrinsics"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/vision/x.cpp", "#include <emmintrin.h>\n"),
      "raw-intrinsics"));
}

TEST(Lint, RawIntrinsicsFiresOnNeonInclude) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/vision/x.cpp", "#include <arm_neon.h>\n"),
      "raw-intrinsics"));
}

TEST(Lint, RawIntrinsicsFiresOnIntrinsicCallsAndTypes) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp", "auto v = _mm_loadu_ps(p);\n"),
      "raw-intrinsics"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp", "auto v = _mm256_add_pd(a, b);\n"),
      "raw-intrinsics"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/a.cpp", "auto v = vld1q_f32(p);\n"),
      "raw-intrinsics"));
  EXPECT_TRUE(has_rule(cl::lint_content("src/a.cpp", "__m128 acc4;\n"),
                       "raw-intrinsics"));
}

TEST(Lint, RawIntrinsicsExemptInsideSimdWrapper) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/common/simd.hpp",
                       "#include <immintrin.h>\nauto v = _mm_loadu_ps(p);\n"),
      "raw-intrinsics"));
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/common/simd.cpp", "auto v = vld1q_f32(p);\n"),
      "raw-intrinsics"));
}

TEST(Lint, RawIntrinsicsEscapeSuppresses) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.cpp",
                       "// crowdmap-lint: allow(raw-intrinsics)\n"
                       "auto v = _mm_loadu_ps(p);\n"),
      "raw-intrinsics"));
}

TEST(Lint, RawIntrinsicsIgnoresCommentAndStringMentions) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.cpp",
                       "// faster than _mm_loadu_ps on this target\n"
                       "const char* s = \"#include <immintrin.h>\";\n"),
      "raw-intrinsics"));
}

TEST(Lint, RawIntrinsicsAllowsLookalikeIdentifiers) {
  // User identifiers that merely resemble intrinsics must not fire: no
  // leading _mm_ prefix, no vendor vector type.
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/a.cpp",
                       "int comm_mm_count = 0; auto svld = svld1q_helper();\n"),
      "raw-intrinsics"));
}

// -------------------------------------------------------------- raw-file-io ---

TEST(Lint, RawFileIoFiresOnStreamsAndStdio) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/cloud/x.cpp", "std::ofstream out(path);\n"),
      "raw-file-io"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/cloud/x.cpp", "std::ifstream in(path);\n"),
      "raw-file-io"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/core/x.cpp", "FILE* f = fopen(path, \"wb\");\n"),
      "raw-file-io"));
}

TEST(Lint, RawFileIoFiresOnFilesystemMutation) {
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/cloud/x.cpp",
                       "std::filesystem::rename(tmp, final);\n"),
      "raw-file-io"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/cloud/x.cpp",
                       "std::filesystem::remove_all(dir);\n"),
      "raw-file-io"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/cloud/x.cpp",
                       "std::filesystem::create_directories(dir);\n"),
      "raw-file-io"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/core/x.cpp", "std::rename(a, b);\n"),
      "raw-file-io"));
  EXPECT_TRUE(has_rule(
      cl::lint_content("src/core/x.cpp", "unlink(path.c_str());\n"),
      "raw-file-io"));
}

TEST(Lint, RawFileIoExemptInsideStorageAndIoLayers) {
  // The Env implementations and the image/asset codecs are the two layers
  // allowed to touch the filesystem directly.
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/storage/env.cpp",
                       "std::rename(tmp.c_str(), path.c_str());\n"),
      "raw-file-io"));
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/io/image_io.cpp", "std::ofstream out(path);\n"),
      "raw-file-io"));
}

TEST(Lint, RawFileIoOnlyAppliesUnderSrc) {
  // Tools, tests and benches manage their own files; the rule guards the
  // library's durable state only.
  EXPECT_FALSE(has_rule(
      cl::lint_content("tools/gate/gate.cpp", "std::ofstream out(path);\n"),
      "raw-file-io"));
  EXPECT_FALSE(has_rule(
      cl::lint_content("tests/test_x.cpp", "FILE* f = fopen(p, \"rb\");\n"),
      "raw-file-io"));
}

TEST(Lint, RawFileIoIgnoresTheRemoveAlgorithm) {
  // std::remove the iterator algorithm (and erase/remove_if idioms) must not
  // match — only the filesystem spellings do.
  EXPECT_FALSE(has_rule(
      cl::lint_content(
          "src/cloud/x.cpp",
          "v.erase(std::remove(v.begin(), v.end(), id), v.end());\n"),
      "raw-file-io"));
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/cloud/x.cpp",
                       "auto it = std::remove_if(v.begin(), v.end(), pred);\n"),
      "raw-file-io"));
}

TEST(Lint, RawFileIoEscapeSuppresses) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/cloud/x.cpp",
                       "// crowdmap-lint: allow(raw-file-io)\n"
                       "std::ofstream out(path);\n"),
      "raw-file-io"));
}

TEST(Lint, RawFileIoIgnoresCommentAndStringMentions) {
  EXPECT_FALSE(has_rule(
      cl::lint_content("src/cloud/x.cpp",
                       "// previously wrote via std::ofstream + fopen()\n"
                       "const char* s = \"std::filesystem::rename\";\n"),
      "raw-file-io"));
}

// ------------------------------------------------------------------ catalog ---

TEST(Lint, CatalogNamesEveryFiringRule) {
  const auto& catalog = cl::rule_catalog();
  const auto known = [&](const std::string& rule) {
    return std::any_of(catalog.begin(), catalog.end(),
                       [&](const cl::RuleInfo& r) { return r.name == rule; });
  };
  for (const auto& finding : cl::lint_content(
           "src/a.hpp",
           "std::unordered_map<int, int> m;\n"
           "float acc = 0.f;\n"
           "int* p = new int(rand() + int(time(nullptr)));\n")) {
    EXPECT_TRUE(known(finding.rule)) << finding.rule;
  }
}

TEST(Lint, FormatIsCompilerStyle) {
  cl::Finding f{"src/a.cpp", 12, "raw-rng", "msg"};
  EXPECT_EQ(cl::format(f), "src/a.cpp:12: [raw-rng] msg");
}
