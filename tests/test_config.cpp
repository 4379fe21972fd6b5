// Tests for configuration files and pipeline config overrides, plus the
// drift pins that keep config_key_table(), --help-config and docs/CONFIG.md
// describing the same key set, and README.md linking every required doc.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config_file.hpp"
#include "core/config_overrides.hpp"

namespace cc = crowdmap::common;
namespace co = crowdmap::core;

TEST(ConfigFile, ParsesKeysCommentsAndBlanks) {
  const auto config = cc::ConfigFile::parse(
      "# a comment\n"
      "alpha = 1.5\n"
      "\n"
      "name = hello world  # trailing comment\n"
      "flag=true\n");
  EXPECT_TRUE(config.has("alpha"));
  EXPECT_EQ(*config.get("name"), "hello world");
  EXPECT_EQ(config.get_double("alpha", 0.0), 1.5);
  EXPECT_TRUE(config.get_bool("flag", false));
  EXPECT_FALSE(config.has("missing"));
  EXPECT_EQ(config.get_int("missing", 7), 7);
}

TEST(ConfigFile, MalformedLineThrows) {
  EXPECT_THROW((void)cc::ConfigFile::parse("no equals sign"), std::runtime_error);
  EXPECT_THROW((void)cc::ConfigFile::parse("= valueless"), std::runtime_error);
}

TEST(ConfigFile, TypeErrorsThrow) {
  const auto config = cc::ConfigFile::parse("x = abc\ny = 1.5zz\n");
  EXPECT_THROW((void)config.get_double("x", 0), std::runtime_error);
  EXPECT_THROW((void)config.get_int("y", 0), std::runtime_error);
  EXPECT_THROW((void)config.get_bool("x", false), std::runtime_error);
}

TEST(ConfigFile, MissingFileThrows) {
  EXPECT_THROW((void)cc::ConfigFile::load("/nonexistent/conf"), std::runtime_error);
}

TEST(ConfigOverrides, AppliesKnownKeys) {
  co::PipelineConfig config;
  const auto file = cc::ConfigFile::parse(
      "match.h_s = 0.7\n"
      "match.h_f = 0.12\n"
      "lcss.epsilon = 2.0\n"
      "lcss.delta = 12\n"
      "grid.cell_size = 0.25\n"
      "skeleton.alpha = 2.5\n"
      "layout.hypotheses = 500\n"
      "stitch.width = 256\n"
      "filter.min_keyframes = 5\n");
  co::apply_config_overrides(config, file);
  EXPECT_EQ(config.aggregation.match.h_s, 0.7);
  EXPECT_EQ(config.aggregation.match.h_f, 0.12);
  EXPECT_EQ(config.aggregation.match.lcss.epsilon, 2.0);
  EXPECT_EQ(config.aggregation.match.lcss.delta, 12);
  EXPECT_EQ(config.grid_cell_size, 0.25);
  EXPECT_EQ(config.skeleton.alpha, 2.5);
  EXPECT_EQ(config.layout.hypotheses, 500);
  EXPECT_EQ(config.stitch.output_width, 256);
  EXPECT_EQ(config.min_keyframes, 5u);
}

TEST(ConfigOverrides, UnknownKeyThrows) {
  // A typo, then spellings the table no longer carries: each is an error,
  // never silently ignored.
  for (const char* line :
       {"match.hs = 0.7\n", "cluster.replicas = 2\n", "layout.shards = 3\n",
        "skeleton.dilate = 4\n", "parallel.s2_cache = 123\n",
        "parallel.s2_cache_capacity = 123\n", "simd.match_tile = 64\n",
        "cache.background_refresh = true\n", "flight.dump_on_anomaly = true\n",
        "flight.ring_capacity = 64\n", "slo.extract_p99_ms = 50\n",
        "slo.ingest_queue_depth_max = 8\n",
        "slo.plan_refresh_p99_ms = 500\n", "cluster.rebalance = true\n"}) {
    co::PipelineConfig config;
    const auto file = cc::ConfigFile::parse(line);
    EXPECT_THROW(co::apply_config_overrides(config, file), std::runtime_error)
        << line;
  }
}

TEST(ConfigOverrides, AbsentKeysLeaveDefaults) {
  co::PipelineConfig config;
  const co::PipelineConfig defaults;
  co::apply_config_overrides(config, cc::ConfigFile::parse(""));
  EXPECT_EQ(config.aggregation.match.h_s, defaults.aggregation.match.h_s);
  EXPECT_EQ(config.grid_cell_size, defaults.grid_cell_size);
  EXPECT_EQ(config.layout.hypotheses, defaults.layout.hypotheses);
}

TEST(ConfigOverrides, CacheKeysApply) {
  co::PipelineConfig config;
  const auto file = cc::ConfigFile::parse("cache.artifact_bytes = 1024\n");
  co::apply_config_overrides(config, file);
  EXPECT_EQ(config.incremental.artifact_cache_bytes, 1024u);
}

TEST(ConfigOverrides, UnparsableValueThrows) {
  co::PipelineConfig config;
  EXPECT_THROW(co::apply_config_overrides(
                   config, cc::ConfigFile::parse("layout.hypotheses = abc\n")),
               std::runtime_error);
  EXPECT_THROW(co::apply_config_overrides(
                   config, cc::ConfigFile::parse("match.h_s = 1.5zz\n")),
               std::runtime_error);
  EXPECT_THROW(co::apply_config_overrides(
                   config, cc::ConfigFile::parse("storage.fsync = maybe\n")),
               std::runtime_error);
  EXPECT_THROW(co::apply_config_overrides(
                   config, cc::ConfigFile::parse("cache.artifact_bytes = -1\n")),
               std::runtime_error);
}

TEST(ConfigKeyTable, SortedUniqueAndCoveredByHelp) {
  const auto table = co::config_key_table();
  ASSERT_FALSE(table.empty());
  const std::string help = co::config_key_help();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(std::string(table[i - 1].key), std::string(table[i].key))
          << "table not sorted at " << table[i].key;
    }
    EXPECT_NE(help.find(table[i].key), std::string::npos)
        << "help is missing " << table[i].key;
  }
}

TEST(ConfigKeyTable, DocsConfigMdMatchesTable) {
  // docs/CONFIG.md mirrors config_key_table(): every key appears as a
  // backticked table row, and the doc has exactly one row per key — so
  // adding a key without documenting it fails here.
  std::ifstream in(std::string(CROWDMAP_SOURCE_DIR) + "/docs/CONFIG.md");
  ASSERT_TRUE(in.good()) << "docs/CONFIG.md is missing";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();

  const auto table = co::config_key_table();
  std::size_t rows = 0;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| `", 0) == 0) ++rows;
  }
  EXPECT_EQ(rows, table.size()) << "docs/CONFIG.md row count drifted";
  for (const auto& info : table) {
    EXPECT_NE(doc.find("`" + std::string(info.key) + "`"), std::string::npos)
        << "docs/CONFIG.md is missing " << info.key;
  }
}

TEST(Docs, RequiredDocsExistAndReadmeLinksThem) {
  // A subsystem cannot land without its page existing and being reachable
  // from the README.
  const std::string root = CROWDMAP_SOURCE_DIR;
  std::ifstream in(root + "/README.md");
  ASSERT_TRUE(in.good()) << "README.md is missing";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string readme = buffer.str();
  for (const std::string doc :
       {"API.md", "CLUSTER.md", "CONFIG.md", "DURABILITY.md", "EXAMPLES.md",
        "INCREMENTAL.md", "OBSERVABILITY.md", "PERFORMANCE.md", "ROBUSTNESS.md",
        "STATIC_ANALYSIS.md"}) {
    if (!std::filesystem::is_regular_file(root + "/docs/" + doc)) {
      ADD_FAILURE() << "docs/" << doc << ": [missing-doc] required document "
                    << "does not exist";
    } else {
      EXPECT_NE(readme.find("docs/" + doc), std::string::npos)
          << "README.md: [unreferenced-doc] docs/" << doc << " is never linked";
    }
  }
}
