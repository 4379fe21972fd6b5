#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace crowdmap::lint {

namespace {

// ----------------------------------------------------------- preprocessing ---

/// Lines of `content` with comments, string literals and char literals
/// blanked out (replaced by spaces, columns preserved) so rule patterns only
/// ever match real code. Handles // and /* */ comments, escape sequences,
/// and R"delim(...)delim" raw strings.
std::vector<std::string> stripped_lines(std::string_view content) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  std::vector<std::string> lines;
  std::string current;
  State state = State::kCode;
  std::string raw_delim;  // for kRawString: the ")delim\"" terminator
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          current += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          current += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   content[i - 1])) &&
                               content[i - 1] != '_'))) {
          // R"delim( ... )delim"
          std::size_t open = i + 2;
          std::size_t paren = content.find('(', open);
          if (paren == std::string_view::npos) {
            current += c;
            break;
          }
          raw_delim = ")" + std::string(content.substr(open, paren - open)) + "\"";
          state = State::kRawString;
          current += "  ";
          for (std::size_t j = open; j <= paren && j < content.size(); ++j) {
            current += ' ';
          }
          i = paren;
        } else if (c == '"') {
          state = State::kString;
          current += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          current += ' ';
        } else {
          current += c;
        }
        break;
      case State::kLineComment:
        current += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          current += "  ";
          ++i;
        } else {
          current += ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          current += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          current += ' ';
        } else {
          current += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          current += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          current += ' ';
        } else {
          current += ' ';
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          state = State::kCode;
          current.append(raw_delim.size(), ' ');
          i += raw_delim.size() - 1;
        } else {
          current += ' ';
        }
        break;
    }
  }
  lines.push_back(current);
  return lines;
}

/// Escape comments per 1-based line: "crowdmap-lint: allow(a, b)" adds
/// {"a","b"} for that line. An escape suppresses findings on its own line
/// and on the line directly below (so it can sit above a long statement).
/// A long allow(...) list may continue across consecutive '//' comment
/// lines until its closing parenthesis; the whole block then escapes every
/// line it spans plus the line directly below it.
std::map<int, std::set<std::string>> collect_escapes(std::string_view content) {
  std::map<int, std::set<std::string>> escapes;
  int line = 1;
  std::size_t pos = 0;
  while (pos <= content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string_view::npos) eol = content.size();
    const std::string_view text = content.substr(pos, eol - pos);
    const std::size_t tag = text.find("crowdmap-lint:");
    if (tag != std::string_view::npos) {
      const std::size_t open = text.find("allow(", tag);
      if (open != std::string_view::npos) {
        std::string names;
        int last_line = line;
        bool closed = false;
        const std::size_t close = text.find(')', open);
        if (close != std::string_view::npos) {
          names.assign(text.substr(open + 6, close - open - 6));
          closed = true;
        } else {
          // Multiline escape: keep consuming while the following lines are
          // pure '//' comments, until the closing parenthesis.
          names.assign(text.substr(open + 6));
          std::size_t next = eol + 1;
          while (next <= content.size() && !closed) {
            std::size_t next_eol = content.find('\n', next);
            if (next_eol == std::string_view::npos) next_eol = content.size();
            std::string_view cont = content.substr(next, next_eol - next);
            const std::size_t ws = cont.find_first_not_of(" \t");
            if (ws == std::string_view::npos ||
                cont.compare(ws, 2, "//") != 0) {
              break;
            }
            cont.remove_prefix(ws + 2);
            ++last_line;
            const std::size_t cclose = cont.find(')');
            if (cclose != std::string_view::npos) {
              cont = cont.substr(0, cclose);
              closed = true;
            }
            names.append(" ");
            names.append(cont);
            next = next_eol + 1;
          }
        }
        if (closed) {
          std::replace(names.begin(), names.end(), ',', ' ');
          std::istringstream in(names);
          std::string name;
          std::set<std::string> rules;
          while (in >> name) rules.insert(name);
          for (int l = line; l <= last_line; ++l) {
            escapes[l].insert(rules.begin(), rules.end());
          }
        }
      }
    }
    pos = eol + 1;
    ++line;
  }
  return escapes;
}

bool is_escaped(const std::map<int, std::set<std::string>>& escapes, int line,
                const std::string& rule) {
  for (const int l : {line, line - 1}) {
    const auto it = escapes.find(l);
    if (it != escapes.end() && it->second.count(rule)) return true;
  }
  return false;
}

std::string normalized(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ------------------------------------------------------------------ rules ---

const char kRawRng[] = "raw-rng";
const char kWallClock[] = "wall-clock";
const char kUnordered[] = "unordered-container";
const char kNakedNew[] = "naked-new";
const char kFloatAccumulator[] = "float-accumulator";
const char kPragmaOnce[] = "pragma-once";
const char kFaultPointName[] = "fault-point-name";
const char kPipelineConstruction[] = "pipeline-construction";
const char kMetricHelp[] = "metric-help-required";
const char kRawIntrinsics[] = "raw-intrinsics";
const char kRawFileIo[] = "raw-file-io";

const std::regex& raw_rng_pattern() {
  static const std::regex re(
      "\\brand\\s*\\(|\\bsrand\\s*\\(|std::random_device|std::mt19937|"
      "std::minstd_rand|std::default_random_engine|std::ranlux");
  return re;
}

const std::regex& wall_clock_pattern() {
  static const std::regex re(
      "std::chrono::system_clock|\\btime\\s*\\(|\\bgettimeofday\\b|"
      "\\blocaltime\\b|\\bmktime\\b|\\bclock\\s*\\(");
  return re;
}

const std::regex& unordered_pattern() {
  static const std::regex re("std::unordered_(map|set|multimap|multiset)\\b");
  return re;
}

const std::regex& new_pattern() {
  static const std::regex re("\\bnew\\b");
  return re;
}

const std::regex& delete_pattern() {
  static const std::regex re("\\bdelete\\b");
  return re;
}

const std::regex& float_decl_pattern() {
  // "float <name> = 0;" / "= 0.0f," / "{}" / "{0.f}" — a zero-initialized
  // float local, the accumulator idiom. The name filter below decides.
  static const std::regex re(
      "\\bfloat\\s+(\\w+)\\s*(=\\s*0(\\.0*)?f?\\s*[;,]|\\{\\s*(0(\\.0*)?f?)?\\s*\\})");
  return re;
}

bool accumulator_name(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  for (const char* hint :
       {"acc", "sum", "total", "score", "err", "norm", "mean", "avg", "energy"}) {
    if (name.find(hint) != std::string::npos) return true;
  }
  return false;
}

const std::regex& pipeline_construction_pattern() {
  // Direct CrowdMapPipeline construction: a by-value declaration, a naked
  // new, or a make_unique/make_shared instantiation. References and mentions
  // in comments/strings (already stripped) do not match.
  static const std::regex re(
      "\\bCrowdMapPipeline\\s+\\w+\\s*[({;]|\\bnew\\s+[\\w:]*CrowdMapPipeline\\b|"
      "make_(unique|shared)\\s*<[^>]*CrowdMapPipeline");
  return re;
}

const std::regex& fault_point_pattern() {
  // Synthesizing a FaultPoint outside the catalog source: parsing one from a
  // string, casting one from an integer, or brace-initializing the enum.
  static const std::regex re(
      "\\bfault_point_from_name\\s*\\(|static_cast<[^>]*FaultPoint\\s*>|"
      "\\bFaultPoint\\s*\\{");
  return re;
}

const std::regex& raw_intrinsics_pattern() {
  // A vendor intrinsics header include or a raw intrinsic/vector-type token.
  // All SIMD lives behind src/common/simd.hpp (exempted by path below) so
  // scalar-vs-vector bit-exactness is provable in one place; code elsewhere
  // uses the wrapper's kernels and lane types.
  static const std::regex re(
      "#\\s*include\\s*<(immintrin|emmintrin|xmmintrin|pmmintrin|smmintrin|"
      "tmmintrin|nmmintrin|wmmintrin|avxintrin|arm_neon|arm_sve)\\.h>|"
      "\\b_mm_\\w+|\\b_mm256_\\w+|\\b_mm512_\\w+|\\bvld[1-4]q?_\\w+|"
      "\\bvst[1-4]q?_\\w+|\\b__m128\\b|\\b__m128[id]\\b|\\b__m256\\b|"
      "\\b__m256[id]\\b|\\b__m512\\b|\\bfloat32x4_t\\b|\\bfloat64x2_t\\b");
  return re;
}

const std::regex& raw_file_io_pattern() {
  // Direct filesystem access inside src/ but outside the storage/io layers:
  // stream or stdio file handles, filesystem renames/deletes/mkdirs, raw
  // unlink. Durable state must flow through storage::Env so every write is
  // fault-injectable and crash-tested (docs/DURABILITY.md); image/asset
  // files go through src/io. The std::remove *algorithm* never matches —
  // only the filesystem spellings below do.
  static const std::regex re(
      "\\bfopen\\s*\\(|\\bfreopen\\s*\\(|std::[oi]?fstream\\b|"
      "std::filesystem::(remove_all|remove|rename|create_director)\\w*\\s*\\(|"
      "std::rename\\s*\\(|\\bunlink\\s*\\(");
  return re;
}

const std::regex& metric_registration_pattern() {
  // A counter()/gauge()/histogram() registration call. Matched against the
  // *stripped* line (so prose mentioning the methods does not trip it), but
  // the arguments are then parsed from the raw content: the help text is a
  // string literal, which stripping blanks out.
  static const std::regex re("(?:->|\\.)\\s*(counter|gauge|histogram)\\s*\\(");
  return re;
}

/// Splits the raw argument list starting at `open` (the offset of '(' in
/// `content`) into top-level argument substrings. Understands nested
/// (), {}, [], <> never (templates in args are rare and commas inside them
/// would mis-split — acceptable for this rule), string/char literals with
/// escapes. Returns false when the call is unterminated.
bool parse_call_args(std::string_view content, std::size_t open,
                     std::vector<std::string>* args) {
  int depth = 0;
  bool in_string = false;
  bool in_char = false;
  std::string current;
  for (std::size_t i = open; i < content.size(); ++i) {
    const char c = content[i];
    if (in_string || in_char) {
      current += c;
      if (c == '\\' && i + 1 < content.size()) {
        current += content[++i];
      } else if ((in_string && c == '"') || (in_char && c == '\'')) {
        in_string = in_char = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        current += c;
        continue;
      case '\'':
        in_char = true;
        current += c;
        continue;
      case '(':
      case '{':
      case '[':
        ++depth;
        if (depth == 1) continue;  // the registration call's own paren
        break;
      case ')':
      case '}':
      case ']':
        --depth;
        if (depth == 0) {
          args->push_back(current);
          return true;
        }
        break;
      case ',':
        if (depth == 1) {
          args->push_back(current);
          current.clear();
          continue;
        }
        break;
      default:
        break;
    }
    if (depth >= 1) current += c;
  }
  return false;
}

/// Trims ASCII whitespace (the argument substrings keep raw spacing).
std::string trimmed(const std::string& text) {
  const std::size_t first = text.find_first_not_of(" \t\n\r");
  if (first == std::string::npos) return {};
  const std::size_t last = text.find_last_not_of(" \t\n\r");
  return text.substr(first, last - first + 1);
}

/// True for a string-literal argument; `*empty` reports whether every
/// literal fragment is empty ("" or "" "" — adjacent concatenation).
bool string_literal_arg(const std::string& arg, bool* empty) {
  const std::string t = trimmed(arg);
  if (t.empty() || t[0] != '"') return false;
  *empty = t.find_first_not_of("\" \t\n\r") == std::string::npos;
  return true;
}

/// True when the previous non-space character before `pos` is '=': that is a
/// deleted special member ("= delete"), not a deallocation.
bool preceded_by_equals(const std::string& line, std::size_t pos) {
  while (pos > 0) {
    --pos;
    const char c = line[pos];
    if (c == ' ' || c == '\t') continue;
    return c == '=';
  }
  return false;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {kRawRng,
       "raw generators (rand(), std::random_device, std::mt19937, ...) outside "
       "src/common/rng.*; draw from the seeded common::Rng instead"},
      {kWallClock,
       "wall-clock time (std::chrono::system_clock, time(), localtime, ...) "
       "in pipeline/scoring code; results must not depend on when they run"},
      {kUnordered,
       "std::unordered_map/set: hash iteration order is nondeterministic and "
       "must not feed reductions or serialized output; use std::map/std::set "
       "or sorted vectors"},
      {kNakedNew,
       "naked new/delete; use std::make_unique, std::make_shared or containers "
       "so ownership is RAII-managed"},
      {kFloatAccumulator,
       "zero-initialized float accumulator; accumulate in double and cast at "
       "the boundary so score paths keep full precision"},
      {kPragmaOnce, "every header must start its include guard with #pragma once"},
      {kFaultPointName,
       "FaultPoint synthesized outside src/common/fault.* (from-name parse, "
       "integer cast, or brace init); interrogate the named common::faults::k* "
       "constants or iterate all_fault_points() so the catalog stays the "
       "single source of truth"},
      {kPipelineConstruction,
       "core::CrowdMapPipeline constructed outside src/; the pipeline is an "
       "internal stage executor — go through api::Client (or "
       "core::IncrementalPlanner) so callers get the versioned surface, "
       "artifact caching and background refresh"},
      {kMetricHelp,
       "counter()/gauge()/histogram() registration without non-empty help "
       "text; the Prometheus export ships # HELP lines and an unexplained "
       "metric is unusable at 3am — pass the help argument"},
      {kRawIntrinsics,
       "raw SIMD intrinsics (<immintrin.h>/<arm_neon.h> includes, _mm_*/"
       "vld1q_* calls, __m128/__m256 types) outside src/common/simd.hpp; use "
       "the portable wrapper's kernels and lane types so every hot path keeps "
       "the scalar-vs-vector bit-exactness contract"},
      {kRawFileIo,
       "raw file I/O (fopen, std::ofstream/ifstream, std::filesystem "
       "remove/rename/mkdir, unlink, std::rename) in src/ outside "
       "src/storage/ and src/io/; route durable state through storage::Env "
       "so writes stay fault-injectable and crash recovery stays provable"},
  };
  return catalog;
}

std::vector<Finding> lint_content(std::string_view path,
                                  std::string_view content) {
  const std::string file = normalized(path);
  const bool is_header = ends_with(file, ".hpp") || ends_with(file, ".h");
  const bool rng_source = file.find("src/common/rng.") != std::string::npos ||
                          file.rfind("common/rng.", 0) == 0;
  const bool fault_source =
      file.find("src/common/fault.") != std::string::npos ||
      file.rfind("common/fault.", 0) == 0;
  const bool simd_source =
      file.find("src/common/simd.") != std::string::npos ||
      file.rfind("common/simd.", 0) == 0;
  // The two layers allowed to touch the filesystem directly: the durable
  // store's Env implementations and the image/asset codecs.
  const bool file_io_source =
      file.find("src/storage/") != std::string::npos ||
      file.rfind("storage/", 0) == 0 ||
      file.find("src/io/") != std::string::npos || file.rfind("io/", 0) == 0;
  // The pipeline-construction rule only applies outside the src/ tree: the
  // library composes the pipeline internally; everyone else goes through the
  // api::Client facade (api/v2.hpp).
  const bool in_src =
      file.rfind("src/", 0) == 0 || file.find("/src/") != std::string::npos;
  const auto escapes = collect_escapes(content);
  const auto lines = stripped_lines(content);
  // Byte offset of each line's first character, for rules that re-read the
  // raw content (metric-help-required needs the blanked string literals).
  std::vector<std::size_t> line_starts(1, 0);
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') line_starts.push_back(i + 1);
  }

  std::vector<Finding> findings;
  const auto report = [&](int line, const char* rule, std::string message) {
    if (is_escaped(escapes, line, rule)) return;
    findings.push_back(Finding{file, line, rule, std::move(message)});
  };

  bool saw_pragma_once = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i];
    const int line = static_cast<int>(i) + 1;

    if (!saw_pragma_once) {
      const std::size_t first = code.find_first_not_of(" \t");
      if (first != std::string::npos &&
          code.compare(first, 12, "#pragma once") == 0) {
        saw_pragma_once = true;
      }
    }

    if (!rng_source && std::regex_search(code, raw_rng_pattern())) {
      report(line, kRawRng,
             "raw random generator; use the seeded common::Rng "
             "(src/common/rng.hpp) so runs stay reproducible");
    }
    if (std::regex_search(code, wall_clock_pattern())) {
      report(line, kWallClock,
             "wall-clock time is nondeterministic input; seed explicitly, or "
             "use steady_clock strictly for latency measurement");
    }
    if (!in_src && std::regex_search(code, pipeline_construction_pattern())) {
      report(line, kPipelineConstruction,
             "direct CrowdMapPipeline construction outside src/; use "
             "api::Client (api/v2.hpp) instead");
    }
    if (!fault_source && std::regex_search(code, fault_point_pattern())) {
      report(line, kFaultPointName,
             "FaultPoint synthesized outside the catalog; use the named "
             "common::faults::k* constants or all_fault_points()");
    }
    if (!simd_source && std::regex_search(code, raw_intrinsics_pattern())) {
      report(line, kRawIntrinsics,
             "raw SIMD intrinsics outside src/common/simd.hpp; use the "
             "portable wrapper (common/simd.hpp) so the bit-exactness "
             "contract holds on every backend");
    }
    if (in_src && !file_io_source &&
        std::regex_search(code, raw_file_io_pattern())) {
      report(line, kRawFileIo,
             "raw file I/O outside src/storage/ and src/io/; go through "
             "storage::Env (fault-injectable, crash-tested) or the io layer");
    }
    if (std::regex_search(code, unordered_pattern())) {
      report(line, kUnordered,
             "unordered container: hash iteration order is nondeterministic; "
             "use std::map/std::set or sort before iterating");
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(), new_pattern());
         it != std::sregex_iterator(); ++it) {
      report(line, kNakedNew,
             "naked 'new'; use std::make_unique/std::make_shared or a container");
    }
    for (auto it =
             std::sregex_iterator(code.begin(), code.end(), delete_pattern());
         it != std::sregex_iterator(); ++it) {
      if (preceded_by_equals(code, static_cast<std::size_t>(it->position()))) {
        continue;  // "= delete" declares a deleted member, not a deallocation
      }
      report(line, kNakedNew,
             "naked 'delete'; let RAII owners release the allocation");
    }
    std::smatch decl;
    if (std::regex_search(code, decl, float_decl_pattern()) &&
        accumulator_name(decl[1].str())) {
      report(line, kFloatAccumulator,
             "'" + decl[1].str() +
                 "' accumulates in float; sum in double and cast once at the "
                 "boundary");
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        metric_registration_pattern());
         it != std::sregex_iterator(); ++it) {
      // The match ends at '('; columns are preserved by stripping, so the
      // same offset indexes the raw content.
      const std::size_t paren =
          line_starts[i] +
          static_cast<std::size_t>(it->position() + it->length()) - 1;
      std::vector<std::string> args;
      if (!parse_call_args(content, paren, &args) || args.empty()) continue;
      bool empty = false;
      // Only metric registrations pass a literal metric name first; other
      // .counter()-shaped APIs (if any) are left alone.
      if (!string_literal_arg(args[0], &empty) || empty) continue;
      const std::string method = (*it)[1].str();
      const std::size_t min_args = method == "histogram" ? 4 : 3;
      if (args.size() < min_args) {
        report(line, kMetricHelp,
               "metric " + trimmed(args[0]) + " registered via " + method +
                   "() without help text; add the trailing help argument");
        continue;
      }
      if (string_literal_arg(args.back(), &empty) && empty) {
        report(line, kMetricHelp,
               "metric " + trimmed(args[0]) + " registered via " + method +
                   "() with empty help text");
      }
    }
  }

  if (is_header && !saw_pragma_once) {
    report(1, kPragmaOnce, "header is missing '#pragma once'");
  }

  return findings;
}

std::string format(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace crowdmap::lint
