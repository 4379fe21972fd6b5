// Binds configuration-file keys onto PipelineConfig so every paper
// threshold is tunable at run time (CLI --config). One table
// (config_key_table) is the single source of truth: apply_config_overrides,
// the CLI's --help-config listing and docs/CONFIG.md all derive from it, so
// the three can never drift. Unknown keys are errors: a typo should fail
// loudly, not silently run defaults.
#pragma once

#include <span>
#include <string>

#include "common/config_file.hpp"
#include "core/config.hpp"

namespace crowdmap::core {

/// One bindable key: its spelling, value type, one-line help, and the
/// setter. The table is ordered by key.
struct ConfigKeyInfo {
  const char* key;    // "layout.scoring_shards"
  const char* type;   // "double" | "int" | "size" | "bool" | "string"
  const char* help;   // one line, shown by --help-config and docs/CONFIG.md
  void (*apply)(PipelineConfig& config, const std::string& value);
};

/// Every supported key, sorted by name.
[[nodiscard]] std::span<const ConfigKeyInfo> config_key_table() noexcept;

/// Human-readable listing of config_key_table() — one "key (type)  help"
/// line per key. The CLI prints this for --help-config; docs/CONFIG.md mirrors it (tests/test_config.cpp pins the
/// two together).
[[nodiscard]] std::string config_key_help();

/// Applies overrides in `file` to `config`. Keys are the names in
/// config_key_table(). Throws std::runtime_error on an unknown key or an
/// unparsable value.
void apply_config_overrides(PipelineConfig& config,
                            const common::ConfigFile& file);

}  // namespace crowdmap::core
