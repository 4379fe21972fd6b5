#include "analyze/model.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

namespace crowdmap::analyze {

namespace fs = std::filesystem;

namespace {

// Keywords that can never name a call, a function, or a declared entity.
const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",    "switch",   "catch",   "return",
      "sizeof",   "alignof",  "decltype", "noexcept", "throw",   "else",
      "do",       "case",     "goto",     "new",      "delete",  "co_return",
      "co_await", "co_yield", "static_assert",        "alignas", "typeid",
      "operator", "template", "typename", "using",    "const",   "constexpr",
      "static",   "inline",   "virtual",  "explicit", "friend",  "public",
      "private",  "protected"};
  return kw;
}

bool is_annotation_macro(const std::string& s) {
  return s.rfind("CM_", 0) == 0;
}

struct Scope {
  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind;
  std::string name;          // component this scope adds ("" for blocks)
  int function_index = -1;   // into FileModel::functions, for kFunction
};

// ------------------------------------------------ determinism sources ---

// The one table of nondeterminism sources: the per-site wall-clock, raw-rng
// and unordered-container rules flag every use, and the taint pass treats
// the same uses inside function bodies as sources. steady_clock is absent by
// design — it feeds latency metrics, never scores.
bool wall_clock_ident(const std::string& s) {
  return s == "system_clock" || s == "gettimeofday" || s == "localtime" ||
         s == "mktime";
}

/// C-library clock reads; only a call is a source (`time` alone is a name).
bool wall_clock_call(const std::string& s) { return s == "time" || s == "clock"; }

/// Every standard engine plus std::random_device.
bool raw_rng_ident(const std::string& s) {
  return s == "random_device" || s == "mt19937" || s == "mt19937_64" ||
         s == "minstd_rand" || s == "minstd_rand0" ||
         s == "default_random_engine" || s == "ranlux24" || s == "ranlux48" ||
         s == "ranlux24_base" || s == "ranlux48_base" || s == "knuth_b";
}

bool raw_rng_call(const std::string& s) { return s == "rand" || s == "srand"; }

bool unordered_ident(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

// ------------------------------------------------------- per-site rules ---

bool punct_at(const std::vector<Token>& t, std::size_t k, std::string_view p) {
  return k < t.size() && t[k].kind == TokKind::kPunct && t[k].text == p;
}

/// True when t[i] is spelled `ns::name`.
bool qualified(const std::vector<Token>& t, std::size_t i, std::string_view ns) {
  return i >= 2 && punct_at(t, i - 1, "::") &&
         t[i - 2].kind == TokKind::kIdentifier && t[i - 2].text == ns;
}

/// `0`, `0.`, `0.0`, `0.f`, `0.0f`: the zero a float accumulator starts at.
bool zero_literal(const std::vector<Token>& t, std::size_t k) {
  return k < t.size() && t[k].kind == TokKind::kNumber && t[k].text[0] == '0' &&
         t[k].text.find_first_not_of("0.f") == std::string::npos;
}

/// `float <name> = 0;` / `= 0.0f,` / `{}` / `{0.f}` where the name reads
/// like an accumulator.
bool float_accumulator(const std::vector<Token>& t, std::size_t i) {
  if (t[i].text != "float" || i + 2 >= t.size() ||
      t[i + 1].kind != TokKind::kIdentifier) {
    return false;
  }
  const std::size_t k = i + 2;
  const bool zero =
      (punct_at(t, k, "=") && zero_literal(t, k + 1) &&
       (punct_at(t, k + 2, ";") || punct_at(t, k + 2, ","))) ||
      (punct_at(t, k, "{") &&
       (punct_at(t, k + 1, "}") ||
        (zero_literal(t, k + 1) && punct_at(t, k + 2, "}"))));
  if (!zero) return false;
  std::string name = t[i + 1].text;
  std::transform(name.begin(), name.end(), name.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  for (const char* hint :
       {"acc", "sum", "total", "score", "err", "norm", "mean", "avg", "energy"}) {
    if (name.find(hint) != std::string::npos) return true;
  }
  return false;
}

/// A FaultPoint made outside the catalog: parsed from a string, cast from
/// an integer, or brace-initialized.
bool synthesizes_fault_point(const std::vector<Token>& t, std::size_t i) {
  const std::string& s = t[i].text;
  if (s == "fault_point_from_name") return punct_at(t, i + 1, "(");
  if (s == "FaultPoint") return punct_at(t, i + 1, "{");
  if (s != "static_cast" || !punct_at(t, i + 1, "<")) return false;
  std::size_t k = i + 2;
  while (k < t.size() && !punct_at(t, k, ">") && !punct_at(t, k, ";")) ++k;
  return punct_at(t, k, ">") && t[k - 1].kind == TokKind::kIdentifier &&
         t[k - 1].text.ends_with("FaultPoint");
}

/// fopen/freopen/unlink calls, std::[io]fstream, std::rename, and the
/// std::filesystem remove/rename/create_directory family. The std::remove
/// *algorithm* never matches.
bool raw_file_io(const std::vector<Token>& t, std::size_t i) {
  const std::string& s = t[i].text;
  const bool called = punct_at(t, i + 1, "(");
  if (s == "fopen" || s == "freopen" || s == "unlink") return called;
  if (s == "fstream" || s == "ofstream" || s == "ifstream") {
    return qualified(t, i, "std");
  }
  if (s == "rename" && called && qualified(t, i, "std")) return true;
  return called && qualified(t, i, "filesystem") && qualified(t, i - 2, "std") &&
         (s.starts_with("remove") || s.starts_with("rename") ||
          s.starts_with("create_director"));
}

/// Vendor SIMD: _mm*_ intrinsics, NEON vld/vst loads and stores, and the raw
/// vector types.
bool raw_intrinsic(const std::string& s) {
  for (const std::string_view prefix : {"_mm_", "_mm256_", "_mm512_"}) {
    if (s.size() > prefix.size() && s.starts_with(prefix)) return true;
  }
  if ((s.starts_with("vld") || s.starts_with("vst")) && s.size() > 4 &&
      s[3] >= '1' && s[3] <= '4') {
    const std::size_t k = s[4] == 'q' ? 5 : 4;
    return s.size() > k + 1 && s[k] == '_';
  }
  static const std::set<std::string> types = {
      "__m128", "__m128i", "__m128d",     "__m256",     "__m256i",
      "__m256d", "__m512", "float32x4_t", "float64x2_t"};
  return types.count(s) > 0;
}

bool intrinsics_header(const std::string& target) {
  static const std::set<std::string> headers = {
      "immintrin.h", "emmintrin.h", "xmmintrin.h", "pmmintrin.h",
      "smmintrin.h", "tmmintrin.h", "nmmintrin.h", "wmmintrin.h",
      "avxintrin.h", "arm_neon.h",  "arm_sve.h"};
  return headers.count(target) > 0;
}

const char kRawIntrinsicsMessage[] =
    "raw SIMD intrinsics outside src/common/simd.*; use the portable "
    "wrapper (common/simd.hpp) so the bit-exactness contract holds on every "
    "backend";

/// metric-help-required at `.counter(` / `->gauge(` / `.histogram(`: a
/// registration (a literal metric name first) must end with non-empty help
/// text; histogram takes its buckets before the help.
void metric_help(const std::string& path, const std::vector<Token>& t,
                 std::size_t i, std::vector<Finding>& out) {
  // Per top-level argument: its first token, and whether it is "" only.
  std::vector<std::pair<std::size_t, bool>> args{{i + 2, true}};
  static const std::string kNotPunct;
  int depth = 0;
  std::size_t k = i + 1;
  for (; k < t.size(); ++k) {
    const std::string& p = t[k].kind == TokKind::kPunct ? t[k].text : kNotPunct;
    if (p == "(" || p == "{" || p == "[") ++depth;
    if ((p == ")" || p == "}" || p == "]") && --depth == 0) break;
    if (p == "," && depth == 1) {
      args.emplace_back(k + 1, true);
    } else if (k > i + 1 && !(t[k].kind == TokKind::kString && t[k].text.empty())) {
      args.back().second = false;
    }
  }
  if (k == t.size()) return;  // unterminated call
  const Token& first = t[args.front().first];
  // Other .counter()-shaped calls pass no literal name; leave them alone.
  if (first.kind != TokKind::kString || args.front().second) return;
  const std::string& method = t[i].text;
  const std::string& name = first.text;
  std::string problem = "() with empty help text";
  if (args.size() < (method == "histogram" ? 4u : 3u)) {
    problem = "() without help text; add the trailing help argument";
  } else if (t[args.back().first].kind != TokKind::kString ||
             !args.back().second) {
    return;
  }
  out.push_back({"metric-help-required", path, t[i].line, name,
                 "metric \"" + name + "\" registered via " + method + problem});
}

/// The per-site rules at t[i] of the file at repo-relative `path`; each
/// reports the offending token as its symbol. Path exemptions match
/// prefixes of `path`.
void site_rules(const std::string& path, const std::vector<Token>& t,
                std::size_t i, std::vector<Finding>& out) {
  if (t[i].kind != TokKind::kIdentifier) return;
  const std::string& s = t[i].text;
  const bool called = punct_at(t, i + 1, "(");
  const auto hit = [&](const char* rule, const std::string& token,
                       std::string message) {
    out.push_back({rule, path, t[i].line, token, std::move(message)});
  };
  if ((raw_rng_ident(s) || (raw_rng_call(s) && called)) &&
      !path.starts_with("src/common/rng.")) {
    hit("raw-rng", s,
        "raw random generator; use the seeded common::Rng "
        "(src/common/rng.hpp) so runs stay reproducible");
  }
  if (wall_clock_ident(s) || (wall_clock_call(s) && called)) {
    hit("wall-clock", s,
        "wall-clock time is nondeterministic input; seed explicitly, or use "
        "steady_clock strictly for latency measurement");
  }
  if (unordered_ident(s)) {
    hit("unordered-container", s,
        "unordered container: hash iteration order is nondeterministic; use "
        "std::map/std::set or sort before iterating");
  }
  if (s == "new") {
    hit("naked-new", s,
        "naked 'new'; use std::make_unique/std::make_shared or a container");
  }
  // "= delete" declares a deleted member, not a deallocation.
  if (s == "delete" && !(i > 0 && punct_at(t, i - 1, "="))) {
    hit("naked-new", s, "naked 'delete'; let RAII owners release the allocation");
  }
  if (float_accumulator(t, i)) {
    hit("float-accumulator", t[i + 1].text,
        "'" + t[i + 1].text +
            "' accumulates in float; sum in double and cast once at the "
            "boundary");
  }
  if (synthesizes_fault_point(t, i) && !path.starts_with("src/common/fault.")) {
    hit("fault-point-name", s == "static_cast" ? "FaultPoint" : s,
        "FaultPoint synthesized outside the catalog; use the named "
        "common::faults::k* constants or all_fault_points()");
  }
  if (raw_intrinsic(s) && !path.starts_with("src/common/simd.")) {
    hit("raw-intrinsics", s, kRawIntrinsicsMessage);
  }
  // Durable state goes through storage::Env; the Env implementations and
  // the image/asset codecs are the only layers that touch files directly.
  if (raw_file_io(t, i) && path.starts_with("src/") &&
      !path.starts_with("src/storage/") && !path.starts_with("src/io/")) {
    hit("raw-file-io", s,
        "raw file I/O outside src/storage/ and src/io/; go through "
        "storage::Env (fault-injectable, crash-tested) or the io layer");
  }
  if ((s == "counter" || s == "gauge" || s == "histogram") && called &&
      i > 0 && (punct_at(t, i - 1, ".") || punct_at(t, i - 1, "->"))) {
    metric_help(path, t, i, out);
  }
}

class ModelBuilder {
 public:
  ModelBuilder(std::string_view path, std::string_view content)
      : tokens_(tokenize(content)) {
    model_.path = std::string(path);
  }

  FileModel build() {
    collect_directives();
    collect_unordered_names();
    walk();
    return std::move(model_);
  }

 private:
  using Tokens = std::vector<Token>;

  // ---------------------------------------------------------- directives ---

  /// Includes, plus the two rules that read whole directives: a vendor
  /// intrinsics include, and a header without `#pragma once`.
  void collect_directives() {
    const std::string& path = model_.path;
    bool guarded = false;
    for (const Token& t : tokens_) {
      if (t.kind != TokKind::kDirective) continue;
      guarded = guarded || t.text.starts_with("pragma once");
      // body looks like: include "path"  |  include <path>
      std::size_t p = t.text.find_first_not_of(" \t");
      if (p == std::string::npos || t.text.compare(p, 7, "include") != 0) {
        continue;
      }
      p = t.text.find_first_not_of(" \t", p + 7);
      if (p == std::string::npos) continue;
      const char open = t.text[p];
      const char close = open == '<' ? '>' : '"';
      if (open != '<' && open != '"') continue;
      const std::size_t end = t.text.find(close, p + 1);
      if (end == std::string::npos) continue;
      const std::string target = t.text.substr(p + 1, end - p - 1);
      model_.includes.push_back({target, t.line, open == '<'});
      if (open == '<' && intrinsics_header(target) &&
          !path.starts_with("src/common/simd.")) {
        model_.sites.push_back(
            {"raw-intrinsics", path, t.line, target, kRawIntrinsicsMessage});
      }
    }
    if ((path.ends_with(".hpp") || path.ends_with(".h")) && !guarded) {
      model_.sites.push_back(
          {"pragma-once", path, 1, path, "header is missing '#pragma once'"});
    }
  }

  // ------------------------------------------- unordered-typed variables ---

  /// Names of variables/members declared with an unordered container type
  /// anywhere in the file; range-for over one of them is a taint source.
  void collect_unordered_names() {
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (tokens_[i].kind != TokKind::kIdentifier ||
          !unordered_ident(tokens_[i].text)) {
        continue;
      }
      std::size_t j = i + 1;
      if (j < tokens_.size() && tokens_[j].kind == TokKind::kPunct &&
          tokens_[j].text == "<") {
        int angle = 1;
        ++j;
        while (j < tokens_.size() && angle > 0) {
          if (tokens_[j].kind == TokKind::kPunct) {
            if (tokens_[j].text == "<") ++angle;
            if (tokens_[j].text == ">") --angle;
          }
          ++j;
        }
      }
      if (j < tokens_.size() && tokens_[j].kind == TokKind::kIdentifier &&
          !keywords().count(tokens_[j].text)) {
        unordered_names_.insert(tokens_[j].text);
      }
    }
  }

  // ----------------------------------------------------------- main walk ---

  void walk() {
    std::vector<Token> head;  // declaration head since last ; { }
    std::size_t consumed = 0;  // body_token() already consumed tokens below
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.kind == TokKind::kDirective) {
        // Macro bodies and #if conditions are code too; includes and
        // pragmas are read whole by collect_directives().
        const std::vector<Token> body = tokenize(t.text);
        if (!body.empty() && body[0].text != "include" &&
            body[0].text != "pragma") {
          for (std::size_t k = 1; k < body.size(); ++k) check_site(body, k, t.line);
        }
        continue;
      }
      check_site(tokens_, i, t.line);
      if (i < consumed) continue;

      if (t.kind == TokKind::kPunct && t.text == "{") {
        open_scope(head, t.line);
        head.clear();
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == "}") {
        close_scope(t.line);
        head.clear();
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == ";") {
        end_of_statement(head, t.line);
        head.clear();
        continue;
      }

      if (in_function()) {
        consumed = body_token(i) + 1;
      } else {
        head.push_back(t);
      }
    }
  }

  bool in_function() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) return true;
      if (it->kind != Scope::Kind::kBlock) return false;
    }
    return false;
  }

  FunctionInfo* current_function() {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) {
        return &model_.functions[static_cast<std::size_t>(it->function_index)];
      }
      if (it->kind != Scope::Kind::kBlock) return nullptr;
    }
    return nullptr;
  }

  int function_depth() const {
    int depth = 0;
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) return depth;
      ++depth;
    }
    return depth;
  }

  std::string scope_prefix() const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (s.name.empty()) continue;
      if (!out.empty()) out += "::";
      out += s.name;
    }
    return out;
  }

  // ------------------------------------------------------- scope opening ---

  void open_scope(const std::vector<Token>& head, int line) {
    if (in_function()) {
      scopes_.push_back({Scope::Kind::kBlock, "", -1});
      return;
    }
    if (!head.empty() && head[0].kind == TokKind::kIdentifier &&
        head[0].text == "namespace") {
      std::string name;
      for (std::size_t i = 1; i < head.size(); ++i) {
        if (head[i].kind == TokKind::kIdentifier &&
            head[i].text != "inline") {
          if (!name.empty()) name += "::";
          name += head[i].text;
        }
      }
      if (name.empty()) name = "(anon)";
      scopes_.push_back({Scope::Kind::kNamespace, name, -1});
      return;
    }
    if (const auto cls = class_name(head)) {
      scopes_.push_back({Scope::Kind::kClass, *cls, -1});
      return;
    }
    if (const auto fn = function_head(head)) {
      FunctionInfo info;
      const std::string prefix = scope_prefix();
      info.qualified = prefix.empty() ? fn->name : prefix + "::" + fn->name;
      info.line = line;
      info.requires_held = fn->requires_held;
      info.excludes = fn->excludes;
      for (const auto& [pname, ptype] : fn->params) info.locals[pname] = ptype;
      for (const std::string& m : fn->acquires) {
        info.acquisitions.push_back({canonical_mutex(m, info.qualified), line, 0});
      }
      // Canonicalize the annotation arguments against the function's owner.
      for (std::string& m : info.requires_held) m = canonical_mutex(m, info.qualified);
      for (std::string& m : info.excludes) m = canonical_mutex(m, info.qualified);
      model_.functions.push_back(std::move(info));
      scopes_.push_back({Scope::Kind::kFunction, "",
                         static_cast<int>(model_.functions.size()) - 1});
      return;
    }
    scopes_.push_back({Scope::Kind::kBlock, "", -1});
  }

  void close_scope(int line) {
    if (scopes_.empty()) return;
    const Scope scope = scopes_.back();
    scopes_.pop_back();
    // Closing a block inside a function releases every scoped lock taken at
    // a deeper depth — the lock-order pass needs these events to know what
    // is still held at each call site.
    if (scope.kind == Scope::Kind::kBlock) {
      if (FunctionInfo* fn = current_function()) {
        fn->closes.push_back({line, function_depth()});
      }
    }
  }

  // ---------------------------------------------------- per-site rules ---

  /// Runs the per-site rules at toks[i]; each finding sits at `line` and
  /// its symbol becomes `<enclosing function, class or namespace>!<token>`.
  /// Inside a function body a wall-clock or raw-rng site is also that
  /// function's determinism-taint source.
  void check_site(const std::vector<Token>& toks, std::size_t i, int line) {
    const std::size_t before = model_.sites.size();
    site_rules(model_.path, toks, i, model_.sites);
    if (model_.sites.size() == before) return;
    FunctionInfo* fn = current_function();
    const std::string scope = fn ? fn->qualified : scope_prefix();
    for (std::size_t k = before; k < model_.sites.size(); ++k) {
      Finding& f = model_.sites[k];
      const bool clock = f.rule == "wall-clock";
      if (fn && (clock || f.rule == "raw-rng")) {
        fn->sources.push_back({clock ? SourceHit::Kind::kWallClock
                                     : SourceHit::Kind::kRawRng,
                               f.symbol, line});
      }
      f.line = line;
      if (!scope.empty()) f.symbol = scope + "!" + f.symbol;
    }
  }

  // ------------------------------------------------- head classification ---

  std::optional<std::string> class_name(const std::vector<Token>& head) const {
    // Find the last top-level class/struct/union keyword, then the first
    // plain identifier after it (skipping annotation macros and their
    // argument lists, alignas, final). "enum class" is not a scope we track.
    int pos = -1;
    int paren = 0;
    int angle = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const Token& t = head[i];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") ++paren;
        if (t.text == ")") --paren;
        if (t.text == "<") ++angle;
        if (t.text == ">") angle = std::max(0, angle - 1);
      }
      if (paren > 0 || angle > 0) continue;
      if (t.kind == TokKind::kIdentifier &&
          (t.text == "class" || t.text == "struct" || t.text == "union")) {
        if (i > 0 && head[i - 1].kind == TokKind::kIdentifier &&
            head[i - 1].text == "enum") {
          continue;
        }
        pos = static_cast<int>(i);
      }
    }
    if (pos < 0) return std::nullopt;
    for (std::size_t i = static_cast<std::size_t>(pos) + 1; i < head.size();
         ++i) {
      const Token& t = head[i];
      if (t.kind == TokKind::kIdentifier) {
        if (is_annotation_macro(t.text)) {
          // Skip the macro's argument list, if any.
          if (i + 1 < head.size() && head[i + 1].text == "(") {
            int depth = 0;
            ++i;
            while (i < head.size()) {
              if (head[i].text == "(") ++depth;
              if (head[i].text == ")" && --depth == 0) break;
              ++i;
            }
          }
          continue;
        }
        if (t.text == "alignas" || t.text == "final") continue;
        return t.text;
      }
      if (t.kind == TokKind::kPunct && t.text == ":") break;  // base clause
    }
    return std::nullopt;
  }

  struct FunctionHead {
    std::string name;
    std::vector<std::string> requires_held;
    std::vector<std::string> excludes;
    std::vector<std::string> acquires;
    std::vector<std::pair<std::string, std::string>> params;  // name -> type
  };

  /// Parses a variable-declaration fragment (`const std::string& id`,
  /// `std::vector<Seg> segs`, `mutable common::Mutex mutex_`): the declared
  /// name is the last identifier; the type is the identifier before it,
  /// skipping cv/ref/pointer tokens and a template argument list. Returns
  /// nullopt when the fragment is not a name+type declaration.
  static std::optional<std::pair<std::string, std::string>> parse_var_decl(
      const std::vector<Token>& toks, std::size_t begin, std::size_t end) {
    // Truncate at a top-level '=' (default value / initializer).
    int paren = 0;
    int angle = 0;
    std::size_t stop = end;
    for (std::size_t i = begin; i < end; ++i) {
      if (toks[i].kind != TokKind::kPunct) continue;
      const std::string& p = toks[i].text;
      if (p == "(" || p == "[") ++paren;
      if (p == ")" || p == "]") --paren;
      if (p == "<") ++angle;
      if (p == ">") angle = std::max(0, angle - 1);
      if (p == "=" && paren == 0 && angle == 0) {
        stop = i;
        break;
      }
    }
    if (stop <= begin) return std::nullopt;
    const std::size_t last = stop - 1;
    if (toks[last].kind != TokKind::kIdentifier ||
        keywords().count(toks[last].text)) {
      return std::nullopt;
    }
    // Walk backwards over ref/pointer/cv tokens to the type.
    std::size_t i = last;
    while (i > begin) {
      --i;
      const Token& t = toks[i];
      if (t.kind == TokKind::kPunct && (t.text == "&" || t.text == "*")) continue;
      if (t.kind == TokKind::kIdentifier && t.text == "const") continue;
      if (t.kind == TokKind::kPunct && t.text == ">") {
        int depth = 1;
        while (i > begin && depth > 0) {
          --i;
          if (toks[i].kind == TokKind::kPunct) {
            if (toks[i].text == ">") ++depth;
            if (toks[i].text == "<") --depth;
          }
        }
        if (depth > 0 || i == begin) return std::nullopt;
        --i;
      }
      if (toks[i].kind == TokKind::kIdentifier &&
          !keywords().count(toks[i].text) &&
          !is_annotation_macro(toks[i].text)) {
        return std::make_pair(toks[last].text, toks[i].text);
      }
      return std::nullopt;
    }
    return std::nullopt;
  }

  /// Parses a declaration head as a function (definition) head: finds the
  /// first `identifier-chain (` candidate, then the CM_* lock annotations
  /// after the parameter list. Returns nullopt when the head cannot be a
  /// function (control flow, initializer braces, class/enum, ...).
  std::optional<FunctionHead> function_head(const std::vector<Token>& head) const {
    if (head.empty()) return std::nullopt;
    if (head[0].kind == TokKind::kIdentifier &&
        (head[0].text == "if" || head[0].text == "for" ||
         head[0].text == "while" || head[0].text == "switch" ||
         head[0].text == "catch" || head[0].text == "do" ||
         head[0].text == "else" || head[0].text == "try" ||
         head[0].text == "enum" || head[0].text == "using" ||
         head[0].text == "typedef" || head[0].text == "extern")) {
      return std::nullopt;
    }
    const Token& last = head.back();
    if (last.kind == TokKind::kPunct &&
        (last.text == "=" || last.text == "," || last.text == "(" ||
         last.text == "[" || last.text == "]")) {
      return std::nullopt;  // brace initializer or lambda introducer
    }
    // Find the candidate name: first identifier chain followed by '('.
    std::optional<std::size_t> name_end;  // index of the '(' token
    std::string name;
    for (std::size_t i = 0; i < head.size();) {
      if (head[i].kind != TokKind::kIdentifier ||
          keywords().count(head[i].text) || is_annotation_macro(head[i].text)) {
        // Skip annotation macros together with their argument list so
        // CM_CAPABILITY("x") arguments never look like candidates.
        if (head[i].kind == TokKind::kIdentifier &&
            is_annotation_macro(head[i].text) && i + 1 < head.size() &&
            head[i + 1].text == "(") {
          int depth = 0;
          ++i;
          while (i < head.size()) {
            if (head[i].text == "(") ++depth;
            if (head[i].text == ")" && --depth == 0) break;
            ++i;
          }
        }
        ++i;
        continue;
      }
      // Build the chain: id (:: id | <...> :: id)*
      std::string chain = head[i].text;
      std::size_t j = i + 1;
      while (j < head.size()) {
        if (head[j].kind == TokKind::kPunct && head[j].text == "<") {
          // Skip template arguments; chain continues only via '::' after.
          int angle = 1;
          std::size_t k = j + 1;
          while (k < head.size() && angle > 0) {
            if (head[k].kind == TokKind::kPunct) {
              if (head[k].text == "<") ++angle;
              if (head[k].text == ">") --angle;
            }
            ++k;
          }
          if (k < head.size() && head[k].kind == TokKind::kPunct &&
              head[k].text == "::") {
            j = k;
            continue;
          }
          j = k;
          break;
        }
        if (head[j].kind == TokKind::kPunct && head[j].text == "::" &&
            j + 1 < head.size() &&
            head[j + 1].kind == TokKind::kIdentifier) {
          if (head[j + 1].text == "operator") {
            chain += "::operator";
            j += 2;
            break;
          }
          chain += "::" + head[j + 1].text;
          j += 2;
          continue;
        }
        break;
      }
      if (j < head.size() && head[j].kind == TokKind::kPunct &&
          head[j].text == "(") {
        name = chain;
        name_end = j;
        break;
      }
      i = std::max(j, i + 1);
    }
    if (!name_end) return std::nullopt;
    FunctionHead fn;
    fn.name = name;
    // Walk the parameter list, collecting `name -> type` per parameter so
    // call resolution can type dotted receivers; then read the trailing
    // lock annotations.
    std::size_t i = *name_end;
    int depth = 0;
    int angle = 0;
    std::size_t param_begin = i + 1;
    const auto flush_param = [&](std::size_t end_idx) {
      if (const auto p = parse_var_decl(head, param_begin, end_idx)) {
        fn.params.push_back(*p);
      }
    };
    while (i < head.size()) {
      if (head[i].kind == TokKind::kPunct) {
        const std::string& p = head[i].text;
        if (p == "(") ++depth;
        if (p == "<") ++angle;
        if (p == ">") angle = std::max(0, angle - 1);
        if (p == ")") {
          if (--depth == 0) {
            flush_param(i);
            break;
          }
        }
        if (p == "," && depth == 1 && angle == 0) {
          flush_param(i);
          param_begin = i + 1;
        }
      }
      ++i;
    }
    for (++i; i < head.size(); ++i) {
      if (head[i].kind != TokKind::kIdentifier) continue;
      std::vector<std::string>* sink = nullptr;
      if (head[i].text == "CM_REQUIRES") sink = &fn.requires_held;
      if (head[i].text == "CM_EXCLUDES") sink = &fn.excludes;
      if (head[i].text == "CM_ACQUIRE") sink = &fn.acquires;
      if (!sink) continue;
      if (i + 1 >= head.size() || head[i + 1].text != "(") continue;
      // Split the argument list on top-level commas.
      std::size_t j = i + 1;
      int d = 0;
      std::string arg;
      while (j < head.size()) {
        const Token& t = head[j];
        if (t.kind == TokKind::kPunct && t.text == "(") {
          if (++d > 1) arg += t.text;
          ++j;
          continue;
        }
        if (t.kind == TokKind::kPunct && t.text == ")") {
          if (--d == 0) break;
          arg += t.text;
          ++j;
          continue;
        }
        if (t.kind == TokKind::kPunct && t.text == "," && d == 1) {
          if (!arg.empty()) sink->push_back(arg);
          arg.clear();
          ++j;
          continue;
        }
        arg += t.text;
        ++j;
      }
      if (!arg.empty()) sink->push_back(arg);
      i = j;
    }
    return fn;
  }

  // ------------------------------------------------ statement-level decls ---

  void end_of_statement(const std::vector<Token>& head, int line) {
    if (in_function() || head.empty()) return;
    // Annotated function declaration without a body (header files): carry
    // the annotations so cross-TU callers of the definition see them.
    const bool has_lock_annotation =
        std::any_of(head.begin(), head.end(), [](const Token& t) {
          return t.kind == TokKind::kIdentifier &&
                 (t.text == "CM_REQUIRES" || t.text == "CM_EXCLUDES" ||
                  t.text == "CM_ACQUIRE");
        });
    if (has_lock_annotation) {
      if (const auto fn = function_head(head)) {
        FunctionInfo info;
        const std::string prefix = scope_prefix();
        info.qualified = prefix.empty() ? fn->name : prefix + "::" + fn->name;
        info.line = line;
        info.requires_held = fn->requires_held;
        info.excludes = fn->excludes;
        for (const std::string& m : fn->acquires) {
          info.acquisitions.push_back(
              {canonical_mutex(m, info.qualified), line, 0});
        }
        for (std::string& m : info.requires_held) {
          m = canonical_mutex(m, info.qualified);
        }
        for (std::string& m : info.excludes) {
          m = canonical_mutex(m, info.qualified);
        }
        model_.functions.push_back(std::move(info));
        return;
      }
    }
    // Variable declaration at class/namespace scope: record data members
    // (they type the receivers of `member_.method(...)` calls) and common::
    // Mutex declarations (canonical identity for file-level lock globals).
    if (head[0].kind == TokKind::kIdentifier &&
        (head[0].text == "class" || head[0].text == "struct" ||
         head[0].text == "enum" || head[0].text == "typedef" ||
         head[0].text == "extern")) {
      return;
    }
    if (std::any_of(head.begin(), head.end(), [](const Token& t) {
          return t.kind == TokKind::kIdentifier &&
                 (t.text == "using" || t.text == "friend" ||
                  t.text == "template");
        })) {
      return;
    }
    if (const auto decl = parse_var_decl(head, 0, head.size())) {
      const auto& [name, type] = *decl;
      const std::string prefix = scope_prefix();
      if (!scopes_.empty() && scopes_.back().kind == Scope::Kind::kClass) {
        model_.fields.push_back({prefix, name, type, line});
      }
      if (type == "Mutex") {
        model_.mutexes.push_back(
            {prefix.empty() ? name : prefix + "::" + name, line});
      }
    }
  }

  // -------------------------------------------------- function body scan ---

  /// Handles tokens_[i] inside a function body; returns the index of the
  /// last token consumed. One chain walk serves every consumer: MutexLock
  /// acquisitions, call sites (with full receiver chain for typed
  /// resolution), unordered-iteration taint sources, and local-variable
  /// declarations. Clock and RNG sources come from the per-site rules.
  std::size_t body_token(std::size_t i) {
    FunctionInfo* fn = current_function();
    if (!fn) return i;
    const Token& t = tokens_[i];
    if (t.kind != TokKind::kIdentifier) return i;
    const int depth = function_depth();
    const auto next_is = [&](std::size_t k, const char* p) {
      return k < tokens_.size() && tokens_[k].kind == TokKind::kPunct &&
             tokens_[k].text == p;
    };

    // Range-for over an unordered container: for ( ... : <expr> ).
    if (t.text == "for" && next_is(i + 1, "(")) {
      std::size_t j = i + 1;
      int d = 0;
      std::optional<std::size_t> colon;
      while (j < tokens_.size()) {
        if (tokens_[j].kind == TokKind::kPunct) {
          if (tokens_[j].text == "(") ++d;
          if (tokens_[j].text == ")" && --d == 0) break;
          if (tokens_[j].text == ":" && d == 1) colon = j;
        }
        ++j;
      }
      if (colon) {
        std::string last_ident;
        for (std::size_t k = *colon + 1; k < j; ++k) {
          if (tokens_[k].kind == TokKind::kIdentifier) {
            last_ident = tokens_[k].text;
          }
        }
        if (!last_ident.empty() && unordered_names_.count(last_ident)) {
          fn->sources.push_back({SourceHit::Kind::kUnorderedIteration,
                                 last_ident, t.line});
        }
      }
      return i;  // body tokens of the loop get scanned normally
    }
    if (keywords().count(t.text) || is_annotation_macro(t.text)) return i;

    // Is this token the *name* of a declaration (`Type name ...`)? Then it
    // is neither a call nor a source use.
    bool declared_name = false;
    if (i > 0) {
      const Token& prev = tokens_[i - 1];
      declared_name = (prev.kind == TokKind::kIdentifier &&
                       !keywords().count(prev.text)) ||
                      (prev.kind == TokKind::kPunct && prev.text == ">");
    }

    // Walk the identifier chain: id ((:: | . | ->) id)*.
    std::vector<std::string> comps{t.text};
    std::string qualifier = t.text;
    bool dotted = false;
    std::size_t j = i + 1;
    while (j + 1 < tokens_.size() && tokens_[j].kind == TokKind::kPunct &&
           (tokens_[j].text == "::" || tokens_[j].text == "." ||
            tokens_[j].text == "->") &&
           tokens_[j + 1].kind == TokKind::kIdentifier) {
      dotted = dotted || tokens_[j].text != "::";
      qualifier += tokens_[j].text == "::" ? "::" : ".";
      comps.push_back(tokens_[j + 1].text);
      qualifier += comps.back();
      j += 2;
    }
    const std::string callee = comps.back();

    // [common::]MutexLock <var> ( <expr> ) — scoped acquisition.
    if (callee == "MutexLock" && j + 1 < tokens_.size() &&
        tokens_[j].kind == TokKind::kIdentifier &&
        (next_is(j + 1, "(") || next_is(j + 1, "{"))) {
      std::size_t k = j + 1;
      const std::string open = tokens_[k].text;
      const std::string close = open == "(" ? ")" : "}";
      int d = 0;
      std::string expr;
      while (k < tokens_.size()) {
        if (tokens_[k].kind == TokKind::kPunct && tokens_[k].text == open) {
          if (++d > 1) expr += tokens_[k].text;
          ++k;
          continue;
        }
        if (tokens_[k].kind == TokKind::kPunct && tokens_[k].text == close) {
          if (--d == 0) break;
          expr += tokens_[k].text;
          ++k;
          continue;
        }
        expr += tokens_[k].text;
        ++k;
      }
      fn->acquisitions.push_back(
          {canonical_mutex(expr, fn->qualified), t.line, depth});
      return k;
    }

    // Call site.
    if (next_is(j, "(") && !declared_name && !keywords().count(callee)) {
      fn->calls.push_back({callee, qualifier, t.line, depth});
      return j - 1;  // rescan from inside the argument list
    }

    // Local-variable declaration `Type[<...>] [&*const] name` at statement
    // start: record name -> type so dotted receivers resolve by type.
    const bool stmt_start =
        i == 0 ||
        (tokens_[i - 1].kind == TokKind::kPunct &&
         (tokens_[i - 1].text == ";" || tokens_[i - 1].text == "{" ||
          tokens_[i - 1].text == "}" || tokens_[i - 1].text == "(" ||
          tokens_[i - 1].text == ",")) ||
        (tokens_[i - 1].kind == TokKind::kIdentifier &&
         (tokens_[i - 1].text == "const" || tokens_[i - 1].text == "constexpr" ||
          tokens_[i - 1].text == "static"));
    if (!declared_name && !dotted && stmt_start) {
      std::size_t k = j;
      bool type_ok = true;
      if (next_is(k, "<")) {
        int angle = 1;
        std::size_t m = k + 1;
        std::size_t steps = 0;
        type_ok = false;
        while (m < tokens_.size() && steps++ < 128) {
          if (tokens_[m].kind == TokKind::kPunct) {
            const std::string& p = tokens_[m].text;
            if (p == "<") ++angle;
            else if (p == ">") {
              if (--angle == 0) {
                type_ok = true;
                ++m;
                break;
              }
            } else if (p == ";" || p == "{" || p == "}") {
              break;
            }
          }
          ++m;
        }
        k = m;
      }
      while (type_ok && k < tokens_.size() &&
             ((tokens_[k].kind == TokKind::kPunct &&
               (tokens_[k].text == "&" || tokens_[k].text == "*")) ||
              (tokens_[k].kind == TokKind::kIdentifier &&
               tokens_[k].text == "const"))) {
        ++k;
      }
      if (type_ok && k < tokens_.size() &&
          tokens_[k].kind == TokKind::kIdentifier &&
          !keywords().count(tokens_[k].text) && k > j - 1 && k >= j) {
        // Only a declaration when the name is followed by an initializer or
        // the end of the statement — not by an operator.
        if (next_is(k + 1, "=") || next_is(k + 1, ";") ||
            next_is(k + 1, "(") || next_is(k + 1, ":")) {
          fn->locals[tokens_[k].text] = callee;
        }
      }
    }
    return j > i + 1 ? j - 1 : i;
  }

  // ------------------------------------------------- mutex canonical form ---

  /// Canonical identity for a mutex expression seen in `fn_qualified`'s
  /// body or annotations. A bare member name is qualified by the function's
  /// owner (class, or namespace for free functions); a file-level global
  /// declared in this file resolves to its declaration; dotted paths keep
  /// the path but collapse object identity to the owner (every `shard.mutex`
  /// of one class is one node — the standard lock-order approximation).
  std::string canonical_mutex(const std::string& expr,
                              const std::string& fn_qualified) {
    std::string e = expr;
    // Strip leading address-of / deref / this->.
    while (!e.empty() && (e[0] == '&' || e[0] == '*')) e.erase(0, 1);
    if (e.rfind("this->", 0) == 0) e.erase(0, 6);
    if (e.rfind("this.", 0) == 0) e.erase(0, 5);
    const bool bare = e.find('.') == std::string::npos &&
                      e.find("::") == std::string::npos &&
                      e.find("->") == std::string::npos;
    if (bare) {
      for (const MutexDecl& decl : model_.mutexes) {
        const std::string tail = "::" + e;
        if (decl.qualified == e ||
            (decl.qualified.size() > tail.size() &&
             decl.qualified.compare(decl.qualified.size() - tail.size(),
                                    tail.size(), tail) == 0 &&
             decl.qualified.find("(anon)") != std::string::npos)) {
          return decl.qualified;
        }
      }
    }
    const std::size_t cut = fn_qualified.rfind("::");
    const std::string owner =
        cut == std::string::npos ? std::string() : fn_qualified.substr(0, cut);
    std::string path = e;
    std::size_t arrow;
    while ((arrow = path.find("->")) != std::string::npos) {
      path.replace(arrow, 2, ".");
    }
    return owner.empty() ? path : owner + "::" + path;
  }

  Tokens tokens_;
  FileModel model_;
  std::vector<Scope> scopes_;
  std::set<std::string> unordered_names_;
};

bool analyzable(const fs::path& path) {
  const fs::path ext = path.extension();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

}  // namespace

FileModel build_model(std::string_view path, std::string_view content) {
  return ModelBuilder(path, content).build();
}

std::string repo_relative(const fs::path& path, const fs::path& root) {
  fs::path p = path.lexically_normal();
  if (p.is_absolute()) {
    const fs::path rel = p.lexically_relative(root.lexically_normal());
    if (!rel.empty() && *rel.begin() != "..") p = rel;
  }
  return p.generic_string();
}

std::vector<FileModel> load_tree(const std::vector<std::string>& roots,
                                 const fs::path& root,
                                 std::vector<std::string>& errors) {
  // Keyed by repo-relative path: the model order, and so the report, is
  // the same however the roots were spelled.
  std::map<std::string, fs::path> files;
  for (const std::string& r : roots) {
    const fs::path p = root / r;  // an absolute r replaces root
    if (fs::is_regular_file(p)) {
      files.emplace(repo_relative(p, root), p);
    } else if (fs::is_directory(p)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && analyzable(entry.path())) {
          files.emplace(repo_relative(entry.path(), root), entry.path());
        }
      }
    } else {
      errors.push_back("no such file or directory: " + r);
    }
  }
  std::vector<FileModel> models;
  for (const auto& [path, file] : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      errors.push_back("cannot read " + file.string());
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    models.push_back(build_model(path, buffer.str()));
  }
  return models;
}

}  // namespace crowdmap::analyze
