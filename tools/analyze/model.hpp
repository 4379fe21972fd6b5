// Source model for crowdmap_analyze: one pass over the token stream of a
// file recovers the facts the whole-program passes need — includes, the
// namespace/class scope structure, function definitions with their lock
// annotations (CM_REQUIRES / CM_EXCLUDES / CM_ACQUIRE), MutexLock
// construction sites, call sites, mutex member declarations, and
// determinism-taint source sites (wall clock, raw RNG, unordered-container
// iteration). The same pass runs the per-site rules (raw-rng, naked-new,
// pragma-once, ...) on every token of the file — function bodies, class
// bodies, namespace scope and macro bodies alike.
//
// This is a heuristic structural recovery, not a compiler: it tracks braces
// and declaration heads well enough for the project's house style. Where it
// must guess (lambda bodies fold into the enclosing function; object
// identity for `a.b`-style mutexes collapses to the enclosing class) it
// guesses conservatively and the passes document the approximation.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/token.hpp"

namespace crowdmap::analyze {

/// #include "target" (quoted) or <target> (system) at `line`.
struct IncludeDecl {
  std::string target;
  int line = 0;
  bool system = false;
};

/// One mutex acquisition inside a function body: a MutexLock construction
/// (or a CM_ACQUIRE declaration, with depth 0).
struct Acquisition {
  std::string mutex;  // canonical mutex identity (see FileModel notes)
  int line = 0;
  int depth = 0;      // brace depth inside the function body (for nesting)
};

/// A call site inside a function body. `callee` is the trailing identifier
/// (method or function name); `qualifier` is the full dotted/scoped chain
/// it was invoked through ("obj.method", "ns::fn"), for disambiguation.
struct CallSite {
  std::string callee;
  std::string qualifier;
  int line = 0;
  int depth = 0;
};

/// A scope close inside a function body: after `line`, every Acquisition
/// with depth > `depth_after` is released (its MutexLock went out of scope).
struct ScopeClose {
  int line = 0;
  int depth_after = 0;
};

/// A determinism-taint source site.
struct SourceHit {
  enum class Kind { kWallClock, kRawRng, kUnorderedIteration };
  Kind kind;
  std::string token;  // the offending token, for the message
  int line = 0;
};

/// One function definition (a body was seen) or annotated declaration.
struct FunctionInfo {
  std::string qualified;  // namespace::Class::name (house-style qualified)
  int line = 0;
  std::vector<std::string> requires_held;  // CM_REQUIRES arguments
  std::vector<std::string> excludes;       // CM_EXCLUDES arguments
  std::vector<Acquisition> acquisitions;   // MutexLock sites + CM_ACQUIRE
  std::vector<ScopeClose> closes;          // where scoped locks die
  std::vector<CallSite> calls;
  std::vector<SourceHit> sources;
  // Parameter and local-variable types (name -> unqualified type name;
  // "auto" means unknown). Lets call resolution type the receiver of
  // `obj.method(...)` instead of guessing by method name alone.
  std::map<std::string, std::string> locals;
};

/// A mutex-typed member/global declaration (common::Mutex).
struct MutexDecl {
  std::string qualified;  // namespace::Class::member
  int line = 0;
};

/// A data-member declaration inside a class: `owner::name` has type `type`
/// (unqualified). Drives receiver typing for `member_.method(...)` calls.
struct FieldDecl {
  std::string owner;  // qualified class name
  std::string name;
  std::string type;  // unqualified (last component, template args stripped)
  int line = 0;
};

/// One analyzer finding. `symbol` is the stable identity used for baseline
/// keys (module edge, mutex cycle, function name; for a per-site rule the
/// enclosing function, class or namespace, '!', and the offending token) —
/// line numbers are *not* part of the key so the baseline survives
/// unrelated edits.
struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string symbol;
  std::string message;
};

struct FileModel {
  std::string path;
  std::vector<IncludeDecl> includes;
  std::vector<FunctionInfo> functions;
  std::vector<MutexDecl> mutexes;
  std::vector<FieldDecl> fields;
  std::vector<Finding> sites;  // per-site rule findings
};

/// Builds the model for one file. `path` is repo-relative (see
/// repo_relative): the path-scoped rules and exemptions match its prefix.
[[nodiscard]] FileModel build_model(std::string_view path,
                                    std::string_view content);

/// The repo-relative form of a scanned path, the only form any rule reads:
/// lexically normalized ("./src/a.hpp" and "src/x/../a.hpp" become
/// "src/a.hpp"), and made relative to `root` when it is an absolute path
/// under it. A path outside `root` stays absolute, so no path-scoped rule
/// mistakes it for project code.
[[nodiscard]] std::string repo_relative(const std::filesystem::path& path,
                                        const std::filesystem::path& root);

/// Models every .cpp/.hpp/.cc/.h file under `roots` (files or directories;
/// relative roots resolve against the repo root `root`), sorted by
/// repo-relative path. Each root that does not exist and each file that
/// cannot be read adds a message to `errors`.
[[nodiscard]] std::vector<FileModel> load_tree(
    const std::vector<std::string>& roots, const std::filesystem::path& root,
    std::vector<std::string>& errors);

}  // namespace crowdmap::analyze
