// Tests for crowdmap_analyze: tokenizer edge cases (raw strings, line-spliced
// comments), the per-file source model, the per-site rules (one table row per
// case: a snippet, its path, and the lines each rule must fire on), and the
// three whole-program passes on seeded true-positive fixtures — a layering
// violation and module cycle, an AB/BA two-mutex deadlock (same-TU and
// cross-TU through the call graph), a CM_EXCLUDES-while-held call, and a
// determinism-taint leak with propagation to its caller. Plus repo-relative
// path handling, the baseline round-trip and the SARIF 2.1.0 shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/model.hpp"
#include "analyze/token.hpp"

namespace an = crowdmap::analyze;

namespace {

using FileSpec = std::pair<std::string, std::string>;  // path, content

std::vector<an::Finding> run(const std::vector<FileSpec>& files) {
  std::vector<an::FileModel> models;
  for (const auto& [path, content] : files) {
    models.push_back(an::build_model(path, content));
  }
  return an::analyze(models);
}

bool has_rule(const std::vector<an::Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const an::Finding& f) { return f.rule == rule; });
}

const an::Finding* find_rule(const std::vector<an::Finding>& findings,
                             const std::string& rule) {
  for (const an::Finding& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------- tokenizer ---

TEST(AnalyzeTokenizer, RawStringBecomesOneToken) {
  const auto tokens =
      an::tokenize("auto s = R\"(hi \"there\" // not a comment)\";\n");
  ASSERT_EQ(tokens.size(), 5u);  // auto s = <string> ;
  EXPECT_EQ(tokens[3].kind, an::TokKind::kString);
  EXPECT_EQ(tokens[3].text, "hi \"there\" // not a comment");
}

TEST(AnalyzeTokenizer, RawStringWithDelimiter) {
  const auto tokens = an::tokenize("auto s = R\"xy(a)\" )xy\";\n");
  ASSERT_GE(tokens.size(), 4u);
  EXPECT_EQ(tokens[3].kind, an::TokKind::kString);
  EXPECT_EQ(tokens[3].text, "a)\" ");
}

TEST(AnalyzeTokenizer, LineSplicedCommentSwallowsNextLine) {
  // The backslash-newline splice joins the comment with the next physical
  // line, so `int b = 2;` is part of the comment — exactly what a compiler
  // sees.
  const auto tokens = an::tokenize(
      "int a = 1; // trailing \\\n"
      "int b = 2;\n"
      "int c = 3;\n");
  std::vector<std::string> idents;
  for (const auto& t : tokens) {
    if (t.kind == an::TokKind::kIdentifier) idents.push_back(t.text);
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"int", "a", "int", "c"}));
  // `c` sits on physical line 3 even though splicing removed characters.
  for (const auto& t : tokens) {
    if (t.kind == an::TokKind::kIdentifier && t.text == "c") {
      EXPECT_EQ(t.line, 3);
    }
  }
}

TEST(AnalyzeTokenizer, SplicedIdentifierJoins) {
  const auto tokens = an::tokenize("in\\\nt x;\n");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[1].text, "x");
}

TEST(AnalyzeTokenizer, ScopeAndArrowAreSingleTokens) {
  const auto tokens = an::tokenize("a::b->c;\n");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[1].text, "::");
  EXPECT_EQ(tokens[3].text, "->");
}

TEST(AnalyzeTokenizer, BlockCommentsAndStringsDropped) {
  const auto tokens = an::tokenize(
      "/* MutexLock in a comment */ int x = 0; const char* s = \"rand()\";\n");
  for (const auto& t : tokens) {
    EXPECT_NE(t.text, "MutexLock");
    if (t.kind == an::TokKind::kString) {
      EXPECT_EQ(t.text, "rand()");
    }
  }
}

// -------------------------------------------------------------------- model ---

TEST(AnalyzeModel, IncludesCaptured) {
  const auto m = an::build_model("src/vision/x.cpp",
                                 "#include \"common/log.hpp\"\n"
                                 "#include <vector>\n");
  ASSERT_EQ(m.includes.size(), 2u);
  EXPECT_EQ(m.includes[0].target, "common/log.hpp");
  EXPECT_FALSE(m.includes[0].system);
  EXPECT_TRUE(m.includes[1].system);
}

TEST(AnalyzeModel, QualifiedFunctionAndAcquisition) {
  const auto m = an::build_model(
      "src/cloud/x.cpp",
      "namespace crowdmap::cloud {\n"
      "void Store::tick() {\n"
      "  common::MutexLock lock(mutex_);\n"
      "}\n"
      "}  // namespace\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].qualified, "crowdmap::cloud::Store::tick");
  ASSERT_EQ(m.functions[0].acquisitions.size(), 1u);
  EXPECT_EQ(m.functions[0].acquisitions[0].mutex,
            "crowdmap::cloud::Store::mutex_");
}

TEST(AnalyzeModel, FieldAndMutexDeclsCaptured) {
  const auto m = an::build_model(
      "src/cloud/x.hpp",
      "namespace crowdmap::cloud {\n"
      "class Svc {\n"
      " public:\n"
      "  void go();\n"
      " private:\n"
      "  mutable common::Mutex mutex_;\n"
      "  DocumentStore store_;\n"
      "};\n"
      "}  // namespace\n");
  ASSERT_EQ(m.mutexes.size(), 1u);
  EXPECT_EQ(m.mutexes[0].qualified, "crowdmap::cloud::Svc::mutex_");
  bool store_field = false;
  for (const auto& f : m.fields) {
    if (f.name == "store_") {
      store_field = true;
      EXPECT_EQ(f.owner, "crowdmap::cloud::Svc");
      EXPECT_EQ(f.type, "DocumentStore");
    }
  }
  EXPECT_TRUE(store_field);
}

// ----------------------------------------------------------------- layering ---

TEST(AnalyzeLayering, UpwardIncludeFires) {
  // However the scanned root was spelled, the rules see the repo-relative
  // path, so the layer of the file is still known.
  for (const std::string prefix : {"", "./", "/repo/", "/repo/./src/../"}) {
    const auto findings = run({
        {an::repo_relative(prefix + "src/io/a.hpp", "/repo"),
         "#pragma once\n#include \"cache/x.hpp\"\n"},
        {an::repo_relative(prefix + "src/cache/x.hpp", "/repo"),
         "#pragma once\n"},
    });
    const an::Finding* f = find_rule(findings, "layering-upward");
    ASSERT_NE(f, nullptr) << prefix;
    EXPECT_EQ(f->symbol, "io->cache");
    EXPECT_EQ(f->path, "src/io/a.hpp");
    EXPECT_EQ(f->line, 2);
  }
}

TEST(AnalyzeLayering, DownwardAndAllowlistedEdgesAreClean) {
  const auto findings = run({
      // Downward: core -> common is the normal direction.
      {"src/core/p.hpp", "#pragma once\n#include \"common/log.hpp\"\n"},
      {"src/common/log.hpp", "#pragma once\n"},
      // Upward but allowlisted: the cloud service owns core planners.
      {"src/cloud/s.hpp", "#pragma once\n#include \"core/q.hpp\"\n"},
      {"src/core/q.hpp", "#pragma once\n"},
  });
  EXPECT_FALSE(has_rule(findings, "layering-upward"));
}

TEST(AnalyzeLayering, StorageSitsBelowCloudAndAboveCommon) {
  // The durable store (PR 9) is a rank-4 infrastructure module: the cloud
  // service may include it, it may include common, and it must never reach
  // back up into its consumers.
  const auto clean = run({
      {"src/cloud/s.hpp", "#pragma once\n#include \"storage/log_store.hpp\"\n"},
      {"src/storage/log_store.hpp",
       "#pragma once\n#include \"common/expected.hpp\"\n"},
      {"src/common/expected.hpp", "#pragma once\n"},
  });
  EXPECT_FALSE(has_rule(clean, "layering-upward"));

  const auto upward = run({
      {"src/storage/env.hpp", "#pragma once\n#include \"cloud/docstore.hpp\"\n"},
      {"src/cloud/docstore.hpp", "#pragma once\n"},
  });
  const an::Finding* f = find_rule(upward, "layering-upward");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->symbol, "storage->cloud");
}

TEST(AnalyzeLayering, ClusterSitsBetweenApiAndCloud) {
  // The cluster module (hash ring, shard log) shares core's rank: the api
  // router may include it, it may include the cloud documents it
  // replicates, and cloud must never reach back up into it.
  const auto clean = run({
      {"src/api/v2.hpp",
       "#pragma once\n#include \"cluster/replication.hpp\"\n"},
      {"src/cluster/replication.hpp",
       "#pragma once\n#include \"cloud/docstore.hpp\"\n"},
      {"src/cloud/docstore.hpp", "#pragma once\n"},
  });
  EXPECT_FALSE(has_rule(clean, "layering-upward"));

  const auto upward = run({
      {"src/cloud/service.hpp",
       "#pragma once\n#include \"cluster/replication.hpp\"\n"},
      {"src/cluster/replication.hpp", "#pragma once\n"},
  });
  const an::Finding* f = find_rule(upward, "layering-upward");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->symbol, "cloud->cluster");
  EXPECT_EQ(f->path, "src/cloud/service.hpp");
}

TEST(AnalyzeLayering, ModuleCycleDetected) {
  const auto findings = run({
      {"src/vision/v.hpp", "#pragma once\n#include \"room/r.hpp\"\n"},
      {"src/room/r.hpp", "#pragma once\n#include \"vision/w.hpp\"\n"},
      {"src/vision/w.hpp", "#pragma once\n"},
  });
  const an::Finding* f = find_rule(findings, "module-cycle");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->symbol, "room<->vision");
}

TEST(AnalyzeLayering, FileLevelIncludeCycleDetected) {
  const auto findings = run({
      {"src/vision/a.hpp", "#pragma once\n#include \"vision/b.hpp\"\n"},
      {"src/vision/b.hpp", "#pragma once\n#include \"vision/a.hpp\"\n"},
  });
  EXPECT_TRUE(has_rule(findings, "include-cycle"));
  // Same-module includes never trip the module-level pass.
  EXPECT_FALSE(has_rule(findings, "module-cycle"));
}

// --------------------------------------------------------------- lock order ---

namespace {

const char kAbBaFixture[] =
    "namespace crowdmap::cloud {\n"
    "class Pair {\n"
    " public:\n"
    "  void ab();\n"
    "  void ba();\n"
    " private:\n"
    "  common::Mutex a_;\n"
    "  common::Mutex b_;\n"
    "};\n"
    "void Pair::ab() {\n"
    "  common::MutexLock la(a_);\n"
    "  common::MutexLock lb(b_);\n"
    "}\n"
    "void Pair::ba() {\n"
    "  common::MutexLock lb(b_);\n"
    "  common::MutexLock la(a_);\n"
    "}\n"
    "}  // namespace\n";

}  // namespace

TEST(AnalyzeLockOrder, AbBaDeadlockDetected) {
  const auto findings = run({{"src/cloud/pair.cpp", kAbBaFixture}});
  const an::Finding* f = find_rule(findings, "lock-order");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->symbol, "a_<->b_");
}

TEST(AnalyzeLockOrder, CrossTuDeadlockThroughCallGraph) {
  // TU 1 locks Svc::a_ then calls into Worker (which locks b_); TU 2 locks
  // Worker::b_ then calls back into Svc (which locks a_). Neither TU alone
  // shows a cycle — only the merged call graph does.
  const char* header =
      "#pragma once\n"
      "namespace crowdmap::cloud {\n"
      "class Worker;\n"
      "class Svc {\n"
      " public:\n"
      "  void lock_then_pump();\n"
      "  void relock();\n"
      " private:\n"
      "  common::Mutex a_;\n"
      "  Worker* worker_;\n"
      "};\n"
      "class Worker {\n"
      " public:\n"
      "  void pump();\n"
      "  void reenter();\n"
      " private:\n"
      "  common::Mutex b_;\n"
      "  Svc* svc_;\n"
      "};\n"
      "}  // namespace\n";
  const char* tu1 =
      "#include \"cloud/svc.hpp\"\n"
      "namespace crowdmap::cloud {\n"
      "void Svc::lock_then_pump() {\n"
      "  common::MutexLock lock(a_);\n"
      "  worker_->pump();\n"
      "}\n"
      "void Svc::relock() {\n"
      "  common::MutexLock lock(a_);\n"
      "}\n"
      "}  // namespace\n";
  const char* tu2 =
      "#include \"cloud/svc.hpp\"\n"
      "namespace crowdmap::cloud {\n"
      "void Worker::pump() {\n"
      "  common::MutexLock lock(b_);\n"
      "}\n"
      "void Worker::reenter() {\n"
      "  common::MutexLock lock(b_);\n"
      "  svc_->relock();\n"
      "}\n"
      "}  // namespace\n";
  const auto findings = run({{"src/cloud/svc.hpp", header},
                             {"src/cloud/svc_a.cpp", tu1},
                             {"src/cloud/svc_b.cpp", tu2}});
  const an::Finding* f = find_rule(findings, "lock-order");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->symbol, "a_<->b_");
}

TEST(AnalyzeLockOrder, ExcludesWhileHeldDetected) {
  const auto findings = run({{
      "src/cloud/store.cpp",
      "namespace crowdmap::cloud {\n"
      "class Store {\n"
      " public:\n"
      "  bool erase(int id) CM_EXCLUDES(mutex_);\n"
      "  void compact();\n"
      " private:\n"
      "  mutable common::Mutex mutex_;\n"
      "};\n"
      "bool Store::erase(int id) {\n"
      "  common::MutexLock lock(mutex_);\n"
      "  return id > 0;\n"
      "}\n"
      "void Store::compact() {\n"
      "  common::MutexLock lock(mutex_);\n"
      "  erase(1);\n"
      "}\n"
      "}  // namespace\n",
  }});
  const an::Finding* f = find_rule(findings, "lock-excludes-held");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->symbol, "crowdmap::cloud::Store::compact!mutex_");
}

TEST(AnalyzeLockOrder, ScopedReleaseIsNotHeldAtLaterCall) {
  // The lock dies with its block; the call after the block is lock-free, so
  // the CM_EXCLUDES callee is fine. Regression test for the release-aware
  // held-set (a naive line-ordered model flags this).
  const auto findings = run({{
      "src/cloud/r.cpp",
      "namespace crowdmap::cloud {\n"
      "class R {\n"
      " public:\n"
      "  void go();\n"
      "  void target() CM_EXCLUDES(m_);\n"
      " private:\n"
      "  common::Mutex m_;\n"
      "};\n"
      "void R::go() {\n"
      "  {\n"
      "    common::MutexLock lock(m_);\n"
      "  }\n"
      "  target();\n"
      "}\n"
      "void R::target() {\n"
      "  common::MutexLock lock(m_);\n"
      "}\n"
      "}  // namespace\n",
  }});
  EXPECT_FALSE(has_rule(findings, "lock-excludes-held"));
  EXPECT_FALSE(has_rule(findings, "lock-order"));
}

TEST(AnalyzeLockOrder, UntypedReceiverDoesNotAliasProjectMethods) {
  // `ids.erase(...)` on a vector must not resolve to Store::erase just
  // because the method names collide — the receiver's type is unknown, so
  // the call stays unresolved.
  const auto findings = run({{
      "src/cloud/v.cpp",
      "namespace crowdmap::cloud {\n"
      "class Store {\n"
      " public:\n"
      "  bool erase(int id) CM_EXCLUDES(mutex_);\n"
      "  void trim();\n"
      " private:\n"
      "  mutable common::Mutex mutex_;\n"
      "};\n"
      "bool Store::erase(int id) { return id > 0; }\n"
      "void Store::trim() {\n"
      "  common::MutexLock lock(mutex_);\n"
      "  auto& ids = index_;\n"
      "  ids.erase(3);\n"
      "}\n"
      "}  // namespace\n",
  }});
  EXPECT_FALSE(has_rule(findings, "lock-excludes-held"));
}

// -------------------------------------------------------- determinism taint ---

TEST(AnalyzeTaint, LeakAndPropagationToCaller) {
  const auto findings = run({{
      "src/vision/seed.cpp",
      "namespace crowdmap::vision {\n"
      "int leaky_seed() {\n"
      "  return static_cast<int>(std::time(nullptr));\n"
      "}\n"
      "int uses_leak() { return leaky_seed() + 1; }\n"
      "}  // namespace\n",
  }});
  ASSERT_TRUE(has_rule(findings, "determinism-taint"));
  bool origin = false;
  bool propagated = false;
  for (const auto& f : findings) {
    if (f.rule != "determinism-taint") continue;
    if (f.symbol == "crowdmap::vision::leaky_seed") origin = true;
    if (f.symbol == "crowdmap::vision::uses_leak") propagated = true;
  }
  EXPECT_TRUE(origin);
  EXPECT_TRUE(propagated);
}

TEST(AnalyzeTaint, QualifiedWallClockDetected) {
  const auto findings = run({{
      "src/vision/t.cpp",
      "namespace crowdmap::vision {\n"
      "double stamp() {\n"
      "  return std::chrono::system_clock::now().time_since_epoch().count();\n"
      "}\n"
      "}  // namespace\n",
  }});
  EXPECT_TRUE(has_rule(findings, "determinism-taint"));
}

TEST(AnalyzeTaint, SinksAbsorb) {
  // Wall clock inside logging and obs is the allowlisted exception; a
  // steady_clock latency stamp is never a source at all.
  const auto findings = run({
      {"src/common/log.cpp",
       "namespace crowdmap::common {\n"
       "long stamp() { return std::time(nullptr); }\n"
       "}  // namespace\n"},
      {"src/obs/flight.cpp",
       "namespace crowdmap::obs {\n"
       "long wall() { return std::time(nullptr); }\n"
       "}  // namespace\n"},
      {"src/core/lat.cpp",
       "namespace crowdmap::core {\n"
       "double lat() {\n"
       "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
       "}\n"
       "}  // namespace\n"},
  });
  EXPECT_FALSE(has_rule(findings, "determinism-taint"));
}

TEST(AnalyzeTaint, UnorderedIterationIsASource) {
  const auto findings = run({{
      "src/vision/acc.cpp",
      "#include <unordered_map>\n"
      "namespace crowdmap::vision {\n"
      "class Acc {\n"
      " public:\n"
      "  double sum();\n"
      " private:\n"
      "  std::unordered_map<int, double> weights_;\n"
      "};\n"
      "double Acc::sum() {\n"
      "  double s = 0.0;\n"
      "  for (const auto& [k, v] : weights_) s += v;\n"
      "  return s;\n"
      "}\n"
      "}  // namespace\n",
  }});
  const an::Finding* f = find_rule(findings, "determinism-taint");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->symbol, "crowdmap::vision::Acc::sum");
}

// ----------------------------------------------------------- per-site rules ---

namespace {

/// One per-site case: `snippet` scanned as `path`, and for each listed rule
/// the lines it must fire on (empty: it must stay silent). The rule "" means
/// every finding of every rule.
struct SiteCase {
  const char* name;
  const char* path;
  const char* snippet;
  std::map<std::string, std::set<int>> expect;
};

std::set<int> lines_of(const std::vector<an::Finding>& findings,
                       const std::string& rule) {
  std::set<int> lines;
  for (const an::Finding& f : findings) {
    if (rule.empty() || f.rule == rule) lines.insert(f.line);
  }
  return lines;
}

const std::vector<SiteCase> kSiteCases = {
    {"CleanFileHasNoFindings", "src/foo/bar.cpp",
     "#include \"foo.hpp\"\nint add(int a, int b) { return a + b; }\n", {{"", {}}}},
    {"RawRngFiresOnRand", "src/sim/x.cpp", "int x = rand() % 6;\n", {{"raw-rng", {1}}}},
    {"RawRngFiresOnMt19937AndRandomDevice", "src/a.cpp",
     "std::mt19937 gen(std::random_device{}());\n", {{"raw-rng", {1}}}},
    {"RawRngExemptInsideRngSources", "src/common/rng.cpp", "int x = rand();\n",
     {{"raw-rng", {}}}},
    {"RawRngIgnoresIdentifierSuffixes", "src/a.cpp",
     "int y = brand() + operand(2);\n", {{"raw-rng", {}}}},
    // Shaped like a C test that seeds rand() from the clock.
    {"WallClockSeedFeedingRand", "tests/test_line_map.cpp",
     "void test_line_map() {\n"
     "  time_t tm;\n"
     "  time(&tm);\n"
     "  srand(tm);\n"
     "  double x = (rand() / (double)RAND_MAX) * 45000.0;\n"
     "}\n",
     {{"wall-clock", {3}}, {"raw-rng", {4, 5}}}},
    {"WallClockFiresOnSystemClock", "src/a.cpp",
     "auto t = std::chrono::system_clock::now();\n", {{"wall-clock", {1}}}},
    {"WallClockFiresOnTimeCall", "src/a.cpp", "long t = time(nullptr);\n",
     {{"wall-clock", {1}}}},
    {"WallClockAllowsSteadyClock", "src/a.cpp",
     "auto t = std::chrono::steady_clock::now();\n", {{"wall-clock", {}}}},
    {"WallClockAllowsTimeLikeIdentifiers", "src/a.cpp",
     "gmtime_r(&s, &utc); auto x = to_time_t_like(1);\n", {{"wall-clock", {}}}},
    {"UnorderedContainerFires", "src/a.cpp",
     "std::unordered_map<int, int> m;\nstd::unordered_set<int> s;\n",
     {{"unordered-container", {1, 2}}}},
    {"NakedNewFires", "src/a.cpp", "int* p = new int(3);\ndelete p;\n",
     {{"naked-new", {1, 2}}}},
    {"DeletedMemberFunctionsAreNotNakedDelete", "src/a.hpp",
     "#pragma once\nstruct S { S(const S&) = delete; };\n", {{"naked-new", {}}}},
    {"NewInIdentifiersDoesNotFire", "src/a.cpp",
     "int new_width = renew(old_width);\n", {{"naked-new", {}}}},
    {"FloatAccumulatorFires", "src/a.cpp", "float acc = 0.0f;\nfloat score_sum = 0;\n",
     {{"float-accumulator", {1, 2}}}},
    {"FloatNonAccumulatorsPass", "src/a.cpp",
     "float dc = 0.0f;\nconst float total = w * h;\n", {{"float-accumulator", {}}}},
    {"HeaderWithoutPragmaOnceFires", "src/a.hpp", "struct S {};\n",
     {{"pragma-once", {1}}}},
    {"HeaderWithPragmaOncePasses", "src/a.hpp", "// doc\n#pragma once\nstruct S {};\n",
     {{"pragma-once", {}}}},
    {"SourceFilesDoNotNeedPragmaOnce", "src/a.cpp", "int x;\n", {{"pragma-once", {}}}},
    {"FaultPointNameFiresOnFromNameParse", "src/core/incremental.cpp",
     "auto p = common::fault_point_from_name(spec);\n", {{"fault-point-name", {1}}}},
    {"FaultPointNameFiresOnIntegerCast", "src/cloud/service.cpp",
     "auto p = static_cast<common::FaultPoint>(i);\n", {{"fault-point-name", {1}}}},
    {"FaultPointNameFiresOnBraceInit", "src/core/incremental.cpp",
     "const auto p = common::FaultPoint{3};\n", {{"fault-point-name", {1}}}},
    {"FaultPointNameExemptInsideFaultSources", "src/common/fault.cpp",
     "auto p = static_cast<FaultPoint>(index);\n", {{"fault-point-name", {}}}},
    {"FaultPointNamedConstantsPass", "src/core/incremental.cpp",
     "faults_.should_fire(common::faults::kDecodeFail, key);\n"
     "for (const auto point : common::all_fault_points()) use(point);\n",
     {{"", {}}}},
    // histogram() takes its buckets before the help.
    {"MetricHelpFiresOnMissingHelp", "src/cloud/x.cpp",
     "auto& c = registry.counter(\"crowdmap_x_total\", {});\n"
     "auto& h = registry->histogram(\"crowdmap_x_seconds\", {},\n"
     "                              obs::Histogram::default_latency_buckets());\n",
     {{"metric-help-required", {1, 2}}}},
    {"MetricHelpFiresOnEmptyHelp", "src/cloud/x.cpp",
     "registry.gauge(\"crowdmap_depth\", {}, \"\");\n",
     {{"metric-help-required", {1}}}},
    {"MetricHelpPassesWithHelpAcrossLinesAndNestedBraces", "src/cloud/x.cpp",
     "auto& c = registry.counter(\n"
     "    \"crowdmap_slo_breaches_total\", {{\"slo\", spec.name}},\n"
     "    \"SLO threshold crossings detected by the watchdog\");\n"
     "auto& h = registry.histogram(\"crowdmap_x_seconds\", {},\n"
     "                             {0.1, 1.0}, \"latency\");\n",
     {{"metric-help-required", {}}}},
    // Lookups that forward a runtime name are not registrations.
    {"MetricHelpIgnoresNonLiteralNames", "src/cloud/x.cpp",
     "auto& c = registry.counter(name, labels);\n", {{"metric-help-required", {}}}},
    {"CommentMentionsDoNotFire", "src/a.cpp",
     "// Chosen over std::mt19937 because ...\n/* delete new rand() system_clock */\n",
     {{"", {}}}},
    {"StringLiteralMentionsDoNotFire", "src/a.cpp",
     "const char* msg = \"never call rand() or new here\";\n", {{"", {}}}},
    {"CodeAfterBlockCommentStillFires", "src/a.cpp", "/* why not */ int x = rand();\n",
     {{"raw-rng", {1}}}},
    {"RawIntrinsicsFiresOnIntelInclude", "src/vision/x.cpp",
     "#include <immintrin.h>\n#include <emmintrin.h>\n", {{"raw-intrinsics", {1, 2}}}},
    {"RawIntrinsicsFiresOnNeonInclude", "src/vision/x.cpp", "#include <arm_neon.h>\n",
     {{"raw-intrinsics", {1}}}},
    {"RawIntrinsicsFiresOnIntrinsicCallsAndTypes", "src/a.cpp",
     "auto v = _mm_loadu_ps(p);\nauto w = _mm256_add_pd(a, b);\n"
     "auto x = vld1q_f32(p);\n__m128 acc4;\n",
     {{"raw-intrinsics", {1, 2, 3, 4}}}},
    {"RawIntrinsicsExemptInsideSimdWrapper_Header", "src/common/simd.hpp",
     "#include <immintrin.h>\nauto v = _mm_loadu_ps(p);\n", {{"raw-intrinsics", {}}}},
    {"RawIntrinsicsExemptInsideSimdWrapper_Source", "src/common/simd.cpp",
     "auto v = vld1q_f32(p);\n", {{"raw-intrinsics", {}}}},
    {"RawIntrinsicsIgnoresCommentAndStringMentions", "src/a.cpp",
     "// faster than _mm_loadu_ps on this target\n"
     "const char* s = \"#include <immintrin.h>\";\n",
     {{"raw-intrinsics", {}}}},
    {"RawIntrinsicsAllowsLookalikeIdentifiers", "src/a.cpp",
     "int comm_mm_count = 0; auto svld = svld1q_helper();\n", {{"raw-intrinsics", {}}}},
    {"RawFileIoFiresOnStreamsAndStdio", "src/cloud/x.cpp",
     "std::ofstream out(path);\nstd::ifstream in(path);\n"
     "FILE* f = fopen(path, \"wb\");\n",
     {{"raw-file-io", {1, 2, 3}}}},
    {"RawFileIoFiresOnFilesystemMutation", "src/cloud/x.cpp",
     "std::filesystem::rename(tmp, final);\nstd::filesystem::remove_all(dir);\n"
     "std::filesystem::create_directories(dir);\nstd::rename(a, b);\n"
     "unlink(path.c_str());\n",
     {{"raw-file-io", {1, 2, 3, 4, 5}}}},
    {"RawFileIoExemptInsideStorageAndIoLayers_Storage", "src/storage/env.cpp",
     "std::rename(tmp.c_str(), path.c_str());\n", {{"raw-file-io", {}}}},
    {"RawFileIoExemptInsideStorageAndIoLayers_Io", "src/io/image_io.cpp",
     "std::ofstream out(path);\n", {{"raw-file-io", {}}}},
    {"RawFileIoOnlyAppliesUnderSrc_Tools", "tools/gate/gate.cpp",
     "std::ofstream out(path);\n", {{"raw-file-io", {}}}},
    {"RawFileIoOnlyAppliesUnderSrc_Tests", "tests/test_x.cpp",
     "FILE* f = fopen(p, \"rb\");\n", {{"raw-file-io", {}}}},
    {"RawFileIoIgnoresTheRemoveAlgorithm", "src/cloud/x.cpp",
     "v.erase(std::remove(v.begin(), v.end(), id), v.end());\n"
     "auto it = std::remove_if(v.begin(), v.end(), pred);\n",
     {{"raw-file-io", {}}}},
    {"RawFileIoIgnoresCommentAndStringMentions", "src/cloud/x.cpp",
     "// previously wrote via std::ofstream + fopen()\n"
     "const char* s = \"std::filesystem::rename\";\n",
     {{"raw-file-io", {}}}},
};

// gtest prints the row name, and ctest names each test after it.
void PrintTo(const SiteCase& c, std::ostream* os) { *os << c.name; }

class SiteRule : public testing::TestWithParam<SiteCase> {};

}  // namespace

TEST_P(SiteRule, FiresOnExactlyTheExpectedLines) {
  const SiteCase& c = GetParam();
  const auto findings = run({{c.path, c.snippet}});
  for (const auto& [rule, lines] : c.expect) {
    EXPECT_EQ(lines_of(findings, rule), lines) << "rule '" << rule << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(AnalyzeSites, SiteRule, testing::ValuesIn(kSiteCases));

// ------------------------------------------------------------ baseline/sarif ---

TEST(AnalyzeBaseline, RoundTripSuppressesKnownFindings) {
  const std::vector<an::Finding> findings = {
      {"lock-order", "src/cloud/pair.cpp", 15, "a_<->b_", "cycle"},
      {"determinism-taint", "src/vision/seed.cpp", 3,
       "crowdmap::vision::leaky_seed", "leak"},
  };
  const std::string body = an::render_baseline(findings);
  const auto keys = an::parse_baseline(body);
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_TRUE(an::new_findings(findings, keys).empty());

  // A finding not in the baseline survives; line drift does not resurrect
  // baselined ones (keys carry no line numbers).
  std::vector<an::Finding> next = findings;
  next[0].line = 99;
  next.push_back({"layering-upward", "src/io/a.hpp", 2, "io->cache", "up"});
  const auto fresh = an::new_findings(next, keys);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].rule, "layering-upward");
}

TEST(AnalyzeBaseline, SiteFindingSuppressedByItsKey) {
  // Function bodies, class bodies, namespace scope and macro bodies are all
  // scanned. The key names the enclosing scope and the offending token (the
  // file, for pragma-once), never the line.
  std::vector<an::Finding> sites;
  std::string baseline = "# each entry is justified here\n";
  for (const auto& f : run({{"src/sim/dice.hpp",
                             "namespace crowdmap::sim {\n"
                             "std::unordered_set<int> seen;\n"
                             "#define NOW() std::chrono::system_clock::now()\n"
                             "class Dice {\n"
                             "  std::ranlux24_base gen_;\n"
                             "  int roll() { return rand() % 6; }\n"
                             "};\n"
                             "}  // namespace\n"}})) {
    if (f.rule == "determinism-taint") continue;
    sites.push_back(f);
    baseline += an::baseline_key(f) + "\n";
  }
  EXPECT_EQ(baseline,
            "# each entry is justified here\n"
            "pragma-once|src/sim/dice.hpp|src/sim/dice.hpp\n"
            "raw-rng|src/sim/dice.hpp|crowdmap::sim::Dice!ranlux24_base\n"
            "raw-rng|src/sim/dice.hpp|crowdmap::sim::Dice::roll!rand\n"
            "unordered-container|src/sim/dice.hpp|crowdmap::sim!unordered_set\n"
            "wall-clock|src/sim/dice.hpp|crowdmap::sim!system_clock\n");
  auto keys = an::parse_baseline(baseline);
  EXPECT_TRUE(an::new_findings(sites, keys).empty());
  // Removing one key brings back exactly its finding.
  keys.erase("raw-rng|src/sim/dice.hpp|crowdmap::sim::Dice::roll!rand");
  const auto back = an::new_findings(sites, keys);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].line, 6);
}

TEST(AnalyzeBaseline, ParserSkipsCommentsAndBlanks) {
  const auto keys = an::parse_baseline(
      "# comment\n"
      "\n"
      "  lock-order|src/a.cpp|m1<->m2  \n"
      "# another\n");
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_TRUE(keys.count("lock-order|src/a.cpp|m1<->m2"));
}

TEST(AnalyzeSarif, MinimalShape) {
  const std::vector<an::Finding> findings = {
      {"lock-order", "src/cloud/pair.cpp", 15, "a_<->b_", "cycle \"x\""},
  };
  const std::string sarif = an::to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lock-order\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/cloud/pair.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 15"), std::string::npos);
  // The quote inside the message is escaped.
  EXPECT_NE(sarif.find("cycle \\\"x\\\""), std::string::npos);
}

TEST(AnalyzeCatalog, RulesAndLayersExposed) {
  const auto& catalog = an::rule_catalog();
  EXPECT_EQ(catalog.size(), 16u);
  EXPECT_FALSE(an::layer_table().empty());
  EXPECT_EQ(an::layer_table().front().module, "api");
  EXPECT_EQ(an::layer_table().back().module, "common");
  for (const auto& exc : an::layering_allowlist()) {
    EXPECT_FALSE(std::string(exc.why).empty());
  }
}

// Every rule that fires is in the catalog (--list-rules, the SARIF table).
TEST(AnalyzeCatalog, NamesEveryFiringRule) {
  const auto& catalog = an::rule_catalog();
  const auto findings =
      run({{"src/a.hpp",
            "std::unordered_map<int, int> m;\n"
            "float acc = 0.f;\n"
            "int* p = new int(rand() + int(time(nullptr)));\n"}});
  EXPECT_FALSE(findings.empty());
  for (const auto& finding : findings) {
    EXPECT_TRUE(std::any_of(
        catalog.begin(), catalog.end(),
        [&](const an::RuleInfo& r) { return r.name == finding.rule; }))
        << finding.rule;
  }
}

TEST(AnalyzeFormat, IsCompilerStyle) {
  const an::Finding f{"raw-rng", "src/a.cpp", 12, "crowdmap::sim::roll!rand",
                      "msg"};
  EXPECT_EQ(an::format(f),
            "src/a.cpp:12: [raw-rng] crowdmap::sim::roll!rand: msg");
}

// --------------------------------------------------------------------- paths ---

TEST(AnalyzePaths, RepoRelativeNormalizesEverySpelling) {
  EXPECT_EQ(an::repo_relative("./src/a.hpp", "/repo"), "src/a.hpp");
  EXPECT_EQ(an::repo_relative("src/x/../a.hpp", "/repo"), "src/a.hpp");
  EXPECT_EQ(an::repo_relative("/repo/src/a.hpp", "/repo"), "src/a.hpp");
  EXPECT_EQ(an::repo_relative("/repo/./src/a.hpp", "/repo/"), "src/a.hpp");
  // Outside the root a path stays absolute: no src/-scoped rule applies.
  EXPECT_EQ(an::repo_relative("/other/src/a.hpp", "/repo"), "/other/src/a.hpp");
}

TEST(AnalyzePaths, RealTreeReportIgnoresRootSpelling) {
  const std::string root = CROWDMAP_SOURCE_DIR;
  const auto report = [&](const std::vector<std::string>& roots) {
    std::vector<std::string> errors;
    std::vector<std::string> lines;
    for (const auto& f : an::analyze(an::load_tree(roots, root, errors))) {
      lines.push_back(an::format(f));
    }
    EXPECT_TRUE(errors.empty());
    return lines;
  };
  const auto plain = report({"src", "tools", "bench"});
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(report({"./src", "./tools", "./bench"}), plain);
  EXPECT_EQ(report({root + "/src", root + "/tools/", root + "/bench"}), plain);
}
