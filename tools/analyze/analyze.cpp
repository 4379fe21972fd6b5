#include "analyze/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <tuple>

namespace crowdmap::analyze {

namespace {

// ======================================================================
// Rule catalog & layering tables
// ======================================================================

const std::vector<RuleInfo> kRules = {
    {"layering-upward",
     "quoted include points from a lower layer to a higher layer of the "
     "declared module DAG without an allowlist entry"},
    {"module-cycle",
     "the module-level include graph contains a cycle (modules must form a "
     "DAG even within a layer)"},
    {"include-cycle",
     "header include graph contains a file-level cycle (pragma once hides "
     "the recursion but the coupling is real)"},
    {"lock-order",
     "the global mutex-acquisition graph has a cycle: two threads taking "
     "these locks in opposite orders can deadlock"},
    {"lock-excludes-held",
     "a function annotated CM_EXCLUDES(m) is called while m is held — "
     "guaranteed self-deadlock on a non-recursive mutex"},
    {"determinism-taint",
     "function is transitively reachable from a wall-clock / raw-RNG / "
     "unordered-iteration source and does not terminate in an allowlisted "
     "sink (log lines, seeded RNG wrapper, obs timestamps)"},
    // Per-site rules: each flags one construct at its own line.
    {"raw-rng",
     "raw generators (rand(), std::random_device, std::mt19937, ...) outside "
     "src/common/rng.*; draw from the seeded common::Rng instead"},
    {"wall-clock",
     "wall-clock time (std::chrono::system_clock, time(), localtime, ...) "
     "in pipeline/scoring code; results must not depend on when they run"},
    {"unordered-container",
     "std::unordered_map/set: hash iteration order is nondeterministic and "
     "must not feed reductions or serialized output; use std::map/std::set "
     "or sorted vectors"},
    {"naked-new",
     "naked new/delete; use std::make_unique, std::make_shared or containers "
     "so ownership is RAII-managed"},
    {"float-accumulator",
     "zero-initialized float accumulator; accumulate in double and cast at "
     "the boundary so score paths keep full precision"},
    {"pragma-once", "every header must start its include guard with #pragma once"},
    {"fault-point-name",
     "FaultPoint synthesized outside src/common/fault.* (from-name parse, "
     "integer cast, or brace init); interrogate the named common::faults::k* "
     "constants or iterate all_fault_points() so the catalog stays the "
     "single source of truth"},
    {"metric-help-required",
     "counter()/gauge()/histogram() registration without non-empty help "
     "text; the Prometheus export ships # HELP lines and an unexplained "
     "metric is unusable at 3am — pass the help argument"},
    {"raw-intrinsics",
     "raw SIMD intrinsics (<immintrin.h>/<arm_neon.h> includes, _mm_*/"
     "vld1q_* calls, __m128/__m256 types) outside src/common/simd.*; use "
     "the portable wrapper's kernels and lane types so every hot path keeps "
     "the scalar-vs-vector bit-exactness contract"},
    {"raw-file-io",
     "raw file I/O (fopen, std::ofstream/ifstream, std::filesystem "
     "remove/rename/mkdir, unlink, std::rename) in src/ outside "
     "src/storage/ and src/io/; route durable state through storage::Env "
     "so writes stay fault-injectable and crash recovery stays provable"},
};

// Declared layering, top first. Rank grows downward; an include edge is
// legal when the target's rank is >= the source's rank (same-layer edges
// are additionally guarded by module-cycle detection).
const std::vector<LayerInfo> kLayers = {
    {0, "api"},
    {1, "cluster"},    {1, "core"},
    {2, "cache"},      {2, "cloud"},     {2, "eval"},
    {3, "vision"},     {3, "room"},      {3, "floorplan"}, {3, "mapping"},
    {3, "trajectory"}, {3, "wifi"},      {3, "baselines"},
    {4, "imaging"},    {4, "geometry"},  {4, "sensors"},   {4, "sim"},
    {4, "io"},         {4, "obs"},       {4, "storage"},
    {5, "common"},
};

// Upward edges that encode deliberate architecture rather than drift. Every
// entry carries its justification; anything not listed here is a finding.
const std::vector<LayeringException> kAllowlist = {
    {"cloud", "core",
     "the cloud service owns one core::IncrementalPlanner per site — the "
     "incremental-recompute design (PR 5) makes the service the planner's "
     "host, not a layer below it"},
    {"eval", "core",
     "the evaluation harness drives pipeline stages directly to compare "
     "per-stage output against ground truth"},
    {"eval", "api",
     "end-to-end accuracy runs exercise the public api::Client facade "
     "exactly as an SDK consumer would"},
};

int layer_rank(const std::string& module) {
  for (const LayerInfo& l : kLayers) {
    if (l.module == module) return l.rank;
  }
  return -1;
}

bool allowlisted(const std::string& from, const std::string& to) {
  for (const LayeringException& e : kAllowlist) {
    if (e.from == from && e.to == to) return true;
  }
  return false;
}

/// Module of a scanned file: "src/<module>/..." → module, else "".
std::string module_of_path(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return {};
  const std::size_t end = path.find('/', 4);
  if (end == std::string::npos) return {};
  const std::string mod = path.substr(4, end - 4);
  return layer_rank(mod) >= 0 ? mod : std::string();
}

/// Module of a quoted include target: "<module>/..." → module, else "".
std::string module_of_include(const std::string& target) {
  const std::size_t end = target.find('/');
  if (end == std::string::npos) return {};
  const std::string mod = target.substr(0, end);
  return layer_rank(mod) >= 0 ? mod : std::string();
}

// ======================================================================
// Pass 1: layering + cycles over the include graph
// ======================================================================

struct EdgeWitness {
  std::string path;
  int line = 0;
};

void layering_pass(const std::vector<FileModel>& models,
                   std::vector<Finding>& out) {
  // Module edge -> first witness include site.
  std::map<std::pair<std::string, std::string>, EdgeWitness> edges;
  for (const FileModel& m : models) {
    const std::string from = module_of_path(m.path);
    if (from.empty()) continue;
    for (const IncludeDecl& inc : m.includes) {
      if (inc.system) continue;
      const std::string to = module_of_include(inc.target);
      if (to.empty() || to == from) continue;
      edges.emplace(std::make_pair(from, to), EdgeWitness{m.path, inc.line});
    }
  }

  // Upward edges (strictly smaller rank = higher layer) need an allowlist
  // entry; everything else is legal here and guarded by cycle detection.
  for (const auto& [edge, witness] : edges) {
    const auto& [from, to] = edge;
    if (layer_rank(to) < layer_rank(from) && !allowlisted(from, to)) {
      out.push_back({"layering-upward", witness.path, witness.line,
                     from + "->" + to,
                     "module '" + from + "' (layer " +
                         std::to_string(layer_rank(from)) + ") includes '" +
                         to + "' (layer " + std::to_string(layer_rank(to)) +
                         "): edges must point down the DAG; add a justified "
                         "allowlist entry only for deliberate architecture"});
    }
  }

  // Module-level cycle detection over all edges (allowlisted or not).
  std::map<std::string, std::vector<std::string>> graph;
  for (const auto& [edge, witness] : edges) graph[edge.first].push_back(edge.second);
  std::map<std::string, int> state;  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::set<std::string> reported;
  const std::function<void(const std::string&)> dfs = [&](const std::string& v) {
    state[v] = 1;
    stack.push_back(v);
    for (const std::string& w : graph[v]) {
      if (state[w] == 1) {
        // Found a cycle: stack suffix from w to v.
        const auto it = std::find(stack.begin(), stack.end(), w);
        std::vector<std::string> cycle(it, stack.end());
        std::sort(cycle.begin(), cycle.end());
        std::string symbol;
        for (const std::string& c : cycle) {
          if (!symbol.empty()) symbol += "<->";
          symbol += c;
        }
        if (reported.insert(symbol).second) {
          const EdgeWitness& wit = edges.at({v, w});
          out.push_back({"module-cycle", wit.path, wit.line, symbol,
                         "modules form an include cycle (" + symbol +
                             "); break the cycle by moving the shared "
                             "dependency down a layer"});
        }
      } else if (state[w] == 0) {
        dfs(w);
      }
    }
    stack.pop_back();
    state[v] = 2;
  };
  for (const auto& [v, _] : graph) {
    if (state[v] == 0) dfs(v);
  }
}

void include_cycle_pass(const std::vector<FileModel>& models,
                        std::vector<Finding>& out) {
  // File-level graph: resolve a quoted target to a scanned file by suffix
  // ("/target" or exact). Ambiguous targets are skipped.
  std::map<std::string, const FileModel*> by_path;
  for (const FileModel& m : models) by_path[m.path] = &m;
  const auto resolve = [&](const std::string& target) -> std::string {
    std::string hit;
    const std::string tail = "/" + target;
    for (const auto& [path, model] : by_path) {
      (void)model;
      const bool match =
          path == target ||
          (path.size() > tail.size() &&
           path.compare(path.size() - tail.size(), tail.size(), tail) == 0);
      if (match) {
        if (!hit.empty()) return {};  // ambiguous
        hit = path;
      }
    }
    return hit;
  };

  std::map<std::string, std::vector<std::pair<std::string, int>>> graph;
  for (const FileModel& m : models) {
    for (const IncludeDecl& inc : m.includes) {
      if (inc.system) continue;
      const std::string to = resolve(inc.target);
      if (!to.empty() && to != m.path) graph[m.path].push_back({to, inc.line});
    }
  }

  std::map<std::string, int> state;
  std::vector<std::string> stack;
  std::set<std::string> reported;
  const std::function<void(const std::string&)> dfs = [&](const std::string& v) {
    state[v] = 1;
    stack.push_back(v);
    for (const auto& [w, line] : graph[v]) {
      if (state[w] == 1) {
        const auto it = std::find(stack.begin(), stack.end(), w);
        std::vector<std::string> cycle(it, stack.end());
        std::sort(cycle.begin(), cycle.end());
        std::string symbol;
        for (const std::string& c : cycle) {
          if (!symbol.empty()) symbol += "<->";
          symbol += c;
        }
        if (reported.insert(symbol).second) {
          out.push_back({"include-cycle", v, line, symbol,
                         "headers include each other in a cycle (" + symbol +
                             "); pragma once stops the recursion but the "
                             "mutual coupling stays"});
        }
      } else if (state[w] == 0) {
        dfs(w);
      }
    }
    stack.pop_back();
    state[v] = 2;
  };
  for (const auto& [v, _] : graph) {
    if (state[v] == 0) dfs(v);
  }
}

// ======================================================================
// Cross-TU function merge + call resolution (shared by lock & taint)
// ======================================================================

struct SiteRef {
  std::string path;
  int line = 0;
};

struct MergedFn {
  std::string qualified;
  SiteRef def;                      // best-known definition site
  bool has_body = false;            // any entry with calls/acquisitions/sources
  std::set<std::string> requires_held;
  std::set<std::string> excludes;
  std::vector<std::pair<Acquisition, std::string>> acquisitions;  // +path
  std::vector<ScopeClose> closes;
  std::vector<std::pair<CallSite, std::string>> calls;            // +path
  std::vector<std::pair<SourceHit, std::string>> sources;         // +path
  std::map<std::string, std::string> locals;  // params + locals: name -> type
};

/// True when acquisition `a` is still held at `line` of the same function:
/// no intervening scope close popped below the acquisition's depth.
bool still_held(const MergedFn& fn, const Acquisition& a, int line) {
  if (line < a.line) return false;
  for (const ScopeClose& c : fn.closes) {
    if (c.line > a.line && c.line <= line && c.depth_after < a.depth) {
      return false;
    }
  }
  return true;
}

/// Field-type index across every scanned class, for receiver typing.
struct TypeIndex {
  // qualified owner -> member name -> unqualified type
  std::map<std::string, std::map<std::string, std::string>> fields_by_owner;
  // unqualified class name -> qualified owners with that trailing name
  std::multimap<std::string, std::string> owners_by_class;
};

std::string last_component(const std::string& qualified) {
  const std::size_t cut = qualified.rfind("::");
  return cut == std::string::npos ? qualified : qualified.substr(cut + 2);
}

TypeIndex build_type_index(const std::vector<FileModel>& models) {
  TypeIndex idx;
  for (const FileModel& m : models) {
    for (const FieldDecl& f : m.fields) {
      auto& fields = idx.fields_by_owner[f.owner];
      if (!fields.count(f.name)) {
        fields[f.name] = f.type;
        idx.owners_by_class.emplace(last_component(f.owner), f.owner);
      }
    }
  }
  return idx;
}

std::map<std::string, MergedFn> merge_functions(
    const std::vector<FileModel>& models) {
  std::map<std::string, MergedFn> merged;
  for (const FileModel& m : models) {
    for (const FunctionInfo& f : m.functions) {
      MergedFn& mf = merged[f.qualified];
      const bool body = !f.calls.empty() || !f.acquisitions.empty() ||
                        !f.sources.empty();
      if (mf.qualified.empty() || (body && !mf.has_body)) {
        mf.qualified = f.qualified;
        mf.def = {m.path, f.line};
        mf.has_body = mf.has_body || body;
      }
      mf.requires_held.insert(f.requires_held.begin(), f.requires_held.end());
      mf.excludes.insert(f.excludes.begin(), f.excludes.end());
      for (const Acquisition& a : f.acquisitions) mf.acquisitions.push_back({a, m.path});
      for (const CallSite& c : f.calls) mf.calls.push_back({c, m.path});
      for (const SourceHit& s : f.sources) mf.sources.push_back({s, m.path});
      mf.closes.insert(mf.closes.end(), f.closes.begin(), f.closes.end());
      mf.locals.insert(f.locals.begin(), f.locals.end());
    }
  }
  return merged;
}

bool ends_with(const std::string& s, const std::string& tail) {
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/// Resolves a call site to candidate merged functions.
///
/// Scope-qualified calls ("ns::fn") suffix-match the qualified name; bare
/// calls match by trailing name (over-approximation, documented). Dotted
/// calls ("obj.method") are resolved through the receiver's *type* — caller
/// locals/params, then data members of the caller's class, then member hops
/// through the field index — and stay UNRESOLVED when the type is unknown.
/// That asymmetry is deliberate: `ids.erase(...)` on a std::vector must not
/// alias a project class's erase() just because the names collide.
std::vector<const MergedFn*> resolve_call(
    const MergedFn& caller, const CallSite& call,
    const std::multimap<std::string, const MergedFn*>& by_name,
    const TypeIndex& types) {
  std::vector<const MergedFn*> out;
  const bool dotted = call.qualifier.find('.') != std::string::npos;
  if (!dotted) {
    const bool scoped = call.qualifier.find("::") != std::string::npos;
    const auto [lo, hi] = by_name.equal_range(call.callee);
    for (auto it = lo; it != hi; ++it) {
      const MergedFn* fn = it->second;
      if (scoped && fn->qualified != call.qualifier &&
          !ends_with(fn->qualified, "::" + call.qualifier)) {
        continue;
      }
      out.push_back(fn);
    }
    return out;
  }

  // Dotted: type the receiver chain.
  std::vector<std::string> comps;
  std::size_t pos = 0;
  while (pos <= call.qualifier.size()) {
    std::size_t dot = call.qualifier.find('.', pos);
    if (dot == std::string::npos) dot = call.qualifier.size();
    comps.push_back(call.qualifier.substr(pos, dot - pos));
    pos = dot + 1;
  }
  if (comps.size() < 2) return out;
  const std::size_t cut = caller.qualified.rfind("::");
  const std::string owner =
      cut == std::string::npos ? std::string() : caller.qualified.substr(0, cut);
  std::string type;
  if (comps[0] == "this") {
    type = last_component(owner);
  } else if (const auto lit = caller.locals.find(comps[0]);
             lit != caller.locals.end()) {
    type = lit->second;
  } else if (const auto fit = types.fields_by_owner.find(owner);
             fit != types.fields_by_owner.end()) {
    const auto mit = fit->second.find(comps[0]);
    if (mit != fit->second.end()) type = mit->second;
  }
  if (type.empty() || type == "auto") return out;
  // Middle hops are fields of the current type.
  for (std::size_t h = 1; h + 1 < comps.size(); ++h) {
    std::string next;
    const auto [lo, hi] = types.owners_by_class.equal_range(type);
    for (auto it = lo; it != hi && next.empty(); ++it) {
      const auto& fields = types.fields_by_owner.at(it->second);
      const auto mit = fields.find(comps[h]);
      if (mit != fields.end()) next = mit->second;
    }
    if (next.empty() || next == "auto") return out;
    type = next;
  }
  const std::string want = type + "::" + call.callee;
  const auto [lo, hi] = by_name.equal_range(call.callee);
  for (auto it = lo; it != hi; ++it) {
    const MergedFn* fn = it->second;
    if (fn->qualified == want || ends_with(fn->qualified, "::" + want)) {
      out.push_back(fn);
    }
  }
  return out;
}

// ======================================================================
// Pass 2: lock-order
// ======================================================================

struct LockEdge {
  std::string via;  // function carrying the witness
  SiteRef site;
  std::string note;
};

void lock_pass(const std::map<std::string, MergedFn>& merged,
               const std::multimap<std::string, const MergedFn*>& by_name,
               const TypeIndex& types, std::vector<Finding>& out) {
  // Transitive acquire sets via fixpoint over the call graph.
  std::map<std::string, std::set<std::string>> acq;
  for (const auto& [name, fn] : merged) {
    for (const auto& [a, path] : fn.acquisitions) {
      (void)path;
      acq[name].insert(a.mutex);
    }
  }
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 64) {
    changed = false;
    for (const auto& [name, fn] : merged) {
      std::set<std::string>& mine = acq[name];
      for (const auto& [c, path] : fn.calls) {
        (void)path;
        for (const MergedFn* g : resolve_call(fn, c, by_name, types)) {
          for (const std::string& m : acq[g->qualified]) {
            if (mine.insert(m).second) changed = true;
          }
        }
      }
    }
  }

  // Mutex graph: from -> to with a witness.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            const std::string& via, const SiteRef& site,
                            const std::string& note) {
    edges.emplace(std::make_pair(from, to), LockEdge{via, site, note});
  };

  for (const auto& [name, fn] : merged) {
    // Nested direct acquisitions: a second MutexLock while the first is
    // still in scope orders the pair (and re-locking the same mutex is an
    // immediate self-deadlock).
    for (std::size_t i = 0; i < fn.acquisitions.size(); ++i) {
      for (std::size_t j = i + 1; j < fn.acquisitions.size(); ++j) {
        const auto& [ai, pi] = fn.acquisitions[i];
        const auto& [aj, pj] = fn.acquisitions[j];
        (void)pi;
        if (!still_held(fn, ai, aj.line)) continue;
        add_edge(ai.mutex, aj.mutex, name, {pj, aj.line},
                 ai.mutex == aj.mutex ? "re-acquired while already held"
                                      : "nested MutexLock");
      }
    }
    // CM_REQUIRES context orders before every acquisition in the body.
    for (const std::string& held : fn.requires_held) {
      for (const auto& [a, path] : fn.acquisitions) {
        if (held == a.mutex) continue;
        add_edge(held, a.mutex, name, {path, a.line},
                 "acquired under CM_REQUIRES(" + last_component(held) + ")");
      }
    }
    // Calls made while holding a lock inherit the callee's acquire set.
    for (const auto& [c, cpath] : fn.calls) {
      std::set<std::string> held = fn.requires_held;
      for (const auto& [a, apath] : fn.acquisitions) {
        (void)apath;
        if (still_held(fn, a, c.line)) held.insert(a.mutex);
      }
      if (held.empty()) continue;
      for (const MergedFn* g : resolve_call(fn, c, by_name, types)) {
        // CM_EXCLUDES check: callee must not run with these held.
        for (const std::string& h : held) {
          if (g->excludes.count(h)) {
            out.push_back(
                {"lock-excludes-held", cpath, c.line,
                 name + "!" + last_component(h),
                 name + " calls " + g->qualified + " while holding " + h +
                     ", but the callee is annotated CM_EXCLUDES on that "
                     "mutex — self-deadlock on a non-recursive mutex"});
          }
        }
        for (const std::string& m : acq[g->qualified]) {
          for (const std::string& h : held) {
            if (h == m) continue;  // reacquire-through-call is the
                                   // CM_EXCLUDES rule's job to catch
            add_edge(h, m, name, {cpath, c.line},
                     "call to " + g->qualified + " acquires " +
                         last_component(m));
          }
        }
      }
    }
  }

  // Cycle detection (DFS, same scheme as the module pass).
  std::map<std::string, std::vector<std::string>> graph;
  for (const auto& [e, w] : edges) {
    (void)w;
    graph[e.first].push_back(e.second);
  }
  std::map<std::string, int> state;
  std::vector<std::string> stack;
  std::set<std::string> reported;
  const std::function<void(const std::string&)> dfs = [&](const std::string& v) {
    state[v] = 1;
    stack.push_back(v);
    for (const std::string& w : graph[v]) {
      if (state[w] == 1) {
        const auto it = std::find(stack.begin(), stack.end(), w);
        std::vector<std::string> cycle(it, stack.end());
        std::sort(cycle.begin(), cycle.end());
        std::string symbol;
        for (const std::string& c : cycle) {
          if (!symbol.empty()) symbol += "<->";
          symbol += last_component(c);
        }
        if (reported.insert(symbol).second) {
          const LockEdge& wit = edges.at({v, w});
          std::string detail = "lock-order cycle: ";
          for (const std::string& c : cycle) {
            detail += c + " ";
          }
          detail += "— witness: " + wit.via + " (" + wit.note + ")";
          out.push_back({"lock-order", wit.site.path, wit.site.line, symbol,
                         detail});
        }
      } else if (state[w] == 0) {
        dfs(w);
      }
    }
    stack.pop_back();
    state[v] = 2;
  };
  for (const auto& [v, _] : graph) {
    if (state[v] == 0) dfs(v);
  }
  // Self-edges (reacquisition) are cycles of length one.
  for (const auto& [e, w] : edges) {
    if (e.first != e.second) continue;
    const std::string symbol = last_component(e.first);
    if (reported.insert(symbol).second) {
      out.push_back({"lock-order", w.site.path, w.site.line, symbol,
                     "mutex " + e.first + " acquired while already held (" +
                         w.note + ", in " + w.via + ")"});
    }
  }
}

// ======================================================================
// Pass 3: determinism taint
// ======================================================================

const char* source_kind_name(SourceHit::Kind kind) {
  switch (kind) {
    case SourceHit::Kind::kWallClock: return "wall-clock";
    case SourceHit::Kind::kRawRng: return "raw RNG";
    case SourceHit::Kind::kUnorderedIteration: return "unordered iteration";
  }
  return "?";
}

/// Allowlisted sinks: nondeterminism is the point of these — log timestamps,
/// the seeded RNG wrapper's internals, and observability wall stamps.
bool taint_sink(const MergedFn& fn) {
  const std::string& p = fn.def.path;
  if (p.rfind("src/common/log.", 0) == 0) return true;
  if (p.rfind("src/common/rng.", 0) == 0) return true;
  if (p.rfind("src/obs/", 0) == 0) return true;
  if (fn.qualified.rfind("crowdmap::obs::", 0) == 0) return true;
  return false;
}

void taint_pass(const std::map<std::string, MergedFn>& merged,
                const std::multimap<std::string, const MergedFn*>& by_name,
                const TypeIndex& types, std::vector<Finding>& out) {
  struct Taint {
    SiteRef site;
    std::string reason;
  };
  std::map<std::string, Taint> tainted;
  for (const auto& [name, fn] : merged) {
    if (fn.sources.empty() || taint_sink(fn)) continue;
    const auto& [hit, path] = fn.sources.front();
    tainted[name] = {{path, hit.line},
                     std::string(source_kind_name(hit.kind)) + " source '" +
                         hit.token + "'"};
  }

  // Propagate to callers; a sink absorbs taint instead of spreading it.
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 64) {
    changed = false;
    for (const auto& [name, fn] : merged) {
      if (tainted.count(name) || taint_sink(fn)) continue;
      for (const auto& [c, path] : fn.calls) {
        bool hit = false;
        for (const MergedFn* g : resolve_call(fn, c, by_name, types)) {
          if (tainted.count(g->qualified)) {
            tainted[name] = {{path, c.line},
                             "calls tainted " + g->qualified};
            changed = true;
            hit = true;
            break;
          }
        }
        if (hit) break;
      }
    }
  }

  for (const auto& [name, taint] : tainted) {
    out.push_back({"determinism-taint", taint.site.path, taint.site.line, name,
                   name + " is nondeterministic: " + taint.reason +
                       " (route through common::Rng / obs stamps, or sink "
                       "the value into logging only)"});
  }
}

// ======================================================================
// SARIF / formatting helpers
// ======================================================================

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() { return kRules; }
const std::vector<LayerInfo>& layer_table() { return kLayers; }
const std::vector<LayeringException>& layering_allowlist() { return kAllowlist; }

std::vector<Finding> analyze(const std::vector<FileModel>& models) {
  std::vector<Finding> out;
  for (const FileModel& m : models) {  // per-site rules, run by build_model
    out.insert(out.end(), m.sites.begin(), m.sites.end());
  }
  layering_pass(models, out);
  include_cycle_pass(models, out);

  const std::map<std::string, MergedFn> merged = merge_functions(models);
  std::multimap<std::string, const MergedFn*> by_name;
  for (const auto& [name, fn] : merged) {
    by_name.emplace(last_component(name), &fn);
  }
  const TypeIndex types = build_type_index(models);
  lock_pass(merged, by_name, types, out);
  taint_pass(merged, by_name, types, out);

  const auto key = [](const Finding& f) {
    return std::tie(f.rule, f.path, f.line, f.symbol);
  };
  std::sort(out.begin(), out.end(),
            [&](const Finding& a, const Finding& b) { return key(a) < key(b); });
  // One finding per site: `rand() + rand()` is one line to fix.
  out.erase(std::unique(out.begin(), out.end(),
                        [&](const Finding& a, const Finding& b) {
                          return key(a) == key(b);
                        }),
            out.end());
  return out;
}

std::string format(const Finding& f) {
  return f.path + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.symbol + ": " + f.message;
}

std::string to_sarif(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"crowdmap_analyze\",\n"
     << "          \"informationUri\": "
        "\"docs/STATIC_ANALYSIS.md\",\n"
     << "          \"rules\": [\n";
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    os << "            {\"id\": \"" << kRules[i].name
       << "\", \"shortDescription\": {\"text\": \""
       << json_escape(kRules[i].summary) << "\"}}"
       << (i + 1 < kRules.size() ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "        {\"ruleId\": \"" << f.rule
       << "\", \"level\": \"error\", \"message\": {\"text\": \""
       << json_escape(f.symbol + ": " + f.message)
       << "\"}, \"locations\": [{\"physicalLocation\": "
          "{\"artifactLocation\": {\"uri\": \""
       << json_escape(f.path) << "\"}, \"region\": {\"startLine\": "
       << std::max(1, f.line) << "}}}]}"
       << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

std::string baseline_key(const Finding& f) {
  return f.rule + "|" + f.path + "|" + f.symbol;
}

std::set<std::string> parse_baseline(std::string_view content) {
  std::set<std::string> keys;
  std::size_t pos = 0;
  while (pos <= content.size()) {
    std::size_t end = content.find('\n', pos);
    if (end == std::string_view::npos) end = content.size();
    std::string_view line = content.substr(pos, end - pos);
    pos = end + 1;
    // Trim and skip comments/blank lines.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    keys.insert(std::string(line));
    if (end == content.size()) break;
  }
  return keys;
}

std::string render_baseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& f : findings) keys.insert(baseline_key(f));
  std::string out =
      "# crowdmap_analyze suppression baseline.\n"
      "# One key per line: rule|path|symbol (line numbers are deliberately\n"
      "# absent so unrelated edits do not churn this file). CI runs\n"
      "# --check-baseline and fails only on findings NOT listed here.\n"
      "# Every entry must carry a '#' comment above it justifying why it is\n"
      "# baselined instead of fixed.\n";
  for (const std::string& k : keys) out += k + "\n";
  return out;
}

std::vector<Finding> new_findings(const std::vector<Finding>& findings,
                                  const std::set<std::string>& baseline) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (!baseline.count(baseline_key(f))) out.push_back(f);
  }
  return out;
}

}  // namespace crowdmap::analyze
