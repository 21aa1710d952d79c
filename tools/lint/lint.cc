#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "callgraph.h"

namespace pingmesh::lint {

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Layer map: the module DAG from DESIGN.md. A module may include headers
// from modules with layer <= its own; intra-layer cross-includes are legal
// (dsa uses agent's record type) and the include-cycle rule catches any
// true cycle among them.
// ---------------------------------------------------------------------------

constexpr struct {
  const char* module;
  int layer;
} kLayers[] = {
    {"common", 0},    {"net", 1},       {"topology", 1}, {"netsim", 1},
    {"agent", 2},     {"controller", 2}, {"dsa", 2},      {"streaming", 2},
    {"analysis", 2},  {"obs", 2},       {"autopilot", 3}, {"core", 3},
    {"serve", 3},     {"chaos", 4},     {"heal", 4},
};

// The serving tier is a near-leaf: it may read the measurement substrate
// (plus controller, for the SLB VIP its replica front door reuses), but in
// src/ only chaos may build on it (the chaos engine owns the serve-restart
// harness; tools and bench live outside src/ and may too). Enforced by the
// serve-boundary rule on top of the layer numbers above.
constexpr const char* kServeAllowedDeps[] = {
    "common", "net", "topology", "agent", "controller", "dsa", "obs", "serve",
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `line` contains `name` as a standalone identifier (not a
/// substring of a longer identifier).
bool has_identifier(const std::string& line, std::string_view name) {
  std::size_t at = line.find(name);
  while (at != std::string::npos) {
    bool lhs_ok = at == 0 || !is_ident_char(line[at - 1]);
    std::size_t after = at + name.size();
    bool rhs_ok = after >= line.size() || !is_ident_char(line[after]);
    if (lhs_ok && rhs_ok) return true;
    at = line.find(name, at + 1);
  }
  return false;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

// ---------------------------------------------------------------------------
// Per-file model
// ---------------------------------------------------------------------------

struct SourceFile {
  std::string rel_path;
  std::string module;  ///< first path component ("" when the file sits at root)
  bool is_header = false;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  ///< comments/strings blanked
  struct Include {
    std::string path;
    int line;  ///< 1-based
  };
  std::vector<Include> includes;  ///< quoted includes only
  std::set<std::string> file_allowed;              ///< allow-file(...) rules
  std::map<int, std::set<std::string>> line_allowed;  ///< allow(...) per line
  std::set<int> sink_lines;  ///< lines carrying the determinism-sink directive
  struct BadSuppression {
    int line;
    std::string what;  ///< the unknown rule or malformed directive
  };
  std::vector<BadSuppression> bad_suppressions;
  FileModel model;  ///< callgraph facts (functions, guards, annotations)
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(std::move(cur));
  return lines;
}

bool is_known_rule(std::string_view name) {
  for (const std::string& r : rule_names()) {
    if (name == r) return true;
  }
  return false;
}

/// Parse the lint directives on one line: allow(...) / allow-file(...) for
/// suppressions, determinism-sink for the taint escape hatch. Unknown rule
/// names and unrecognized directives are recorded as hard errors (the
/// unknown-suppression rule) — a typo would otherwise suppress nothing and
/// rot silently.
void parse_suppressions(SourceFile& f, int line_no, const std::string& raw) {
  // Directives live in // comments ("// lint: ..."), so `lint:` appearing in
  // string literals (error messages, docs) is never parsed as one.
  std::size_t comment = raw.find("//");
  if (comment == std::string::npos) return;
  std::size_t at = raw.find("lint:", comment);
  while (at != std::string::npos) {
    if (at > 0 && is_ident_char(raw[at - 1])) {
      // Tail of a longer word ("pingmesh_lint:"), not a directive.
      at = raw.find("lint:", at + 5);
      continue;
    }
    std::string_view rest = trim(std::string_view(raw).substr(at + 5));
    // First word of the directive: [A-Za-z0-9_-]*.
    std::size_t wend = 0;
    while (wend < rest.size() && (is_ident_char(rest[wend]) || rest[wend] == '-')) {
      ++wend;
    }
    std::string_view word = rest.substr(0, wend);
    if (word.empty()) {
      // `lint:` followed by punctuation is prose, not a directive attempt.
      at = raw.find("lint:", at + 5);
      continue;
    }
    if (word == "determinism-sink") {
      f.sink_lines.insert(line_no);
      at = raw.find("lint:", at + 5);
      continue;
    }
    bool file_scope = word == "allow-file";
    if ((word == "allow" || file_scope) && wend < rest.size() && rest[wend] == '(') {
      std::string_view args = rest.substr(wend + 1);
      auto close = args.find(')');
      if (close == std::string_view::npos) {
        f.bad_suppressions.push_back(
            {line_no, "malformed suppression: missing ')' after '" +
                          std::string(word) + "('"});
        break;
      }
      args = args.substr(0, close);
      std::size_t pos = 0;
      while (pos <= args.size()) {
        auto comma = args.find(',', pos);
        std::string_view one =
            trim(args.substr(pos, comma == std::string_view::npos ? args.size() - pos
                                                                  : comma - pos));
        if (!one.empty()) {
          if (!is_known_rule(one)) {
            f.bad_suppressions.push_back(
                {line_no, "unknown rule '" + std::string(one) + "' in " +
                              std::string(word) + "(...); see --list-rules"});
          } else if (file_scope) {
            f.file_allowed.emplace(one);
          } else {
            f.line_allowed[line_no].emplace(one);
          }
        }
        if (comma == std::string_view::npos) break;
        pos = comma + 1;
      }
    } else {
      f.bad_suppressions.push_back(
          {line_no, "unknown lint directive '" + std::string(word) +
                        "'; expected allow(...), allow-file(...), or "
                        "determinism-sink"});
    }
    at = raw.find("lint:", at + 5);
  }
}

SourceFile load_file(const std::string& root, const std::string& rel_path) {
  SourceFile f;
  f.rel_path = rel_path;
  auto slash = rel_path.find('/');
  f.module = slash == std::string::npos ? std::string() : rel_path.substr(0, slash);
  f.is_header = rel_path.ends_with(".h");

  std::ifstream in(fs::path(root) / rel_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  f.raw_lines = split_lines(buf.str());
  f.code_lines = strip_comments_and_strings(f.raw_lines);

  for (std::size_t i = 0; i < f.raw_lines.size(); ++i) {
    const std::string& raw = f.raw_lines[i];
    int line_no = static_cast<int>(i) + 1;
    parse_suppressions(f, line_no, raw);
    // Includes come from the raw line: the stripper blanks the quoted path.
    std::string_view s = trim(raw);
    if (s.starts_with("#")) {
      s.remove_prefix(1);
      s = trim(s);
      if (s.starts_with("include")) {
        s.remove_prefix(std::string_view("include").size());
        s = trim(s);
        if (s.starts_with("\"")) {
          auto end = s.find('"', 1);
          if (end != std::string_view::npos) {
            f.includes.push_back({std::string(s.substr(1, end - 1)), line_no});
          }
        }
      }
    }
  }
  f.model = parse_file_model(f.rel_path, f.code_lines, f.sink_lines);
  return f;
}

// ---------------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------------

class Checker {
 public:
  Checker(std::vector<SourceFile> files, Options options)
      : files_(std::move(files)), options_(std::move(options)) {
    for (std::size_t i = 0; i < files_.size(); ++i) index_[files_[i].rel_path] = i;
  }

  Report run() {
    for (const SourceFile& f : files_) {
      check_header_guard(f);
      check_using_namespace(f);
      check_identifier_rules(f);
      check_metrics_global(f);
      check_layering(f);
      check_serve_boundary(f);
      check_suppressions(f);
    }
    if (options_.enabled("include-cycle")) check_cycles();
    if (options_.enabled("determinism-taint") || options_.enabled("lock-discipline") ||
        options_.enabled("lock-order")) {
      build_analysis();
      if (options_.enabled("determinism-taint")) pass_taint();
      if (options_.enabled("lock-discipline")) pass_lock_discipline();
      if (options_.enabled("lock-order")) pass_lock_order();
    }
    Report report;
    report.files_scanned = files_.size();
    report.violations = std::move(out_);
    std::sort(report.violations.begin(), report.violations.end(),
              [](const Violation& a, const Violation& b) {
                return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
              });
    return report;
  }

 private:
  void emit(const SourceFile& f, int line, std::string rule, std::string message) {
    if (!options_.enabled(rule)) return;
    if (f.file_allowed.count(rule) != 0) return;
    auto it = f.line_allowed.find(line);
    if (it != f.line_allowed.end() && it->second.count(rule) != 0) return;
    out_.push_back(Violation{f.rel_path, line, std::move(rule), std::move(message)});
  }

  // --- unknown-suppression ----------------------------------------------------
  void check_suppressions(const SourceFile& f) {
    for (const SourceFile::BadSuppression& b : f.bad_suppressions) {
      emit(f, b.line, "unknown-suppression", b.what);
    }
  }

  // --- header-guard ---------------------------------------------------------
  void check_header_guard(const SourceFile& f) {
    if (!f.is_header) return;
    std::vector<std::string_view> directives;
    for (const std::string& line : f.code_lines) {
      std::string_view s = trim(line);
      if (s.empty()) continue;
      if (s.starts_with("#pragma once")) return;  // guarded
      if (s.starts_with("#")) {
        directives.push_back(s);
        if (directives.size() >= 2) break;
      } else {
        break;  // real code before any guard
      }
    }
    if (directives.size() >= 2 && directives[0].starts_with("#ifndef") &&
        directives[1].starts_with("#define")) {
      return;  // classic include guard
    }
    emit(f, 1, "header-guard",
         "header has no #pragma once (or #ifndef/#define guard) before code");
  }

  // --- using-namespace-header ----------------------------------------------
  void check_using_namespace(const SourceFile& f) {
    if (!f.is_header) return;
    for (std::size_t i = 0; i < f.code_lines.size(); ++i) {
      const std::string& line = f.code_lines[i];
      auto at = line.find("using");
      while (at != std::string::npos) {
        bool lhs_ok = at == 0 || !is_ident_char(line[at - 1]);
        std::string_view rest = std::string_view(line).substr(at + 5);
        std::string_view kw = trim(rest);
        bool is_namespace_kw = kw.starts_with("namespace") &&
                               (kw.size() == 9 || !is_ident_char(kw[9]));
        if (lhs_ok && !rest.empty() && !is_ident_char(rest.front()) && is_namespace_kw) {
          emit(f, static_cast<int>(i) + 1, "using-namespace-header",
               "`using namespace` in a header pollutes every includer");
          break;
        }
        at = line.find("using", at + 5);
      }
    }
  }

  // --- wallclock / rng / printf --------------------------------------------
  struct BannedIdent {
    const char* ident;
    const char* rule;
    const char* message;
    bool needs_call = false;  ///< only flag when followed by '('
  };

  void check_identifier_rules(const SourceFile& f) {
    static const BannedIdent kBanned[] = {
        {"system_clock", "wallclock",
         "wall-clock access outside common/clock breaks tick reproducibility; take a "
         "Clock& instead",
         false},
        {"gettimeofday", "wallclock",
         "wall-clock access outside common/clock; take a Clock& instead", false},
        {"clock_gettime", "wallclock",
         "wall-clock access outside common/clock; take a Clock& instead", false},
        {"time", "wallclock",
         "time() reads the wall clock; take a Clock& instead (common/clock)", true},
        {"rand", "rng",
         "rand() is ambient global state; use Rng/CounterRng from common/rng", true},
        {"srand", "rng", "srand() is ambient global state; use common/rng seeds", true},
        {"random_device", "rng",
         "std::random_device is nondeterministic; derive seeds via common/rng", false},
        {"mt19937", "rng",
         "raw std::mt19937 seeding bypasses the experiment seed; use Rng/CounterRng",
         false},
        {"mt19937_64", "rng",
         "raw std::mt19937_64 seeding bypasses the experiment seed; use Rng/CounterRng",
         false},
        {"printf", "printf", "library code must log via common/log, not stdout/stderr",
         true},
        {"fprintf", "printf", "library code must log via common/log, not stdout/stderr",
         true},
        {"vfprintf", "printf", "library code must log via common/log, not stdout/stderr",
         true},
        {"puts", "printf", "library code must log via common/log, not stdout/stderr", true},
        {"fputs", "printf", "library code must log via common/log, not stdout/stderr",
         true},
        {"putchar", "printf", "library code must log via common/log, not stdout/stderr",
         true},
    };

    bool clock_exempt = f.rel_path.starts_with("common/clock");
    bool rng_exempt = f.rel_path.starts_with("common/rng");

    for (std::size_t i = 0; i < f.code_lines.size(); ++i) {
      const std::string& line = f.code_lines[i];
      int line_no = static_cast<int>(i) + 1;

      // std::cout / std::cerr are textual, not identifier-shaped.
      for (const char* stream : {"std::cout", "std::cerr"}) {
        if (line.find(stream) != std::string::npos) {
          emit(f, line_no, "printf",
               std::string(stream) + " in library code; log via common/log");
        }
      }

      std::size_t pos = 0;
      while (pos < line.size()) {
        if (!is_ident_char(line[pos])) {
          ++pos;
          continue;
        }
        std::size_t start = pos;
        while (pos < line.size() && is_ident_char(line[pos])) ++pos;
        std::string_view ident = std::string_view(line).substr(start, pos - start);
        for (const BannedIdent& b : kBanned) {
          if (ident != b.ident) continue;
          if ((std::string_view("wallclock") == b.rule && clock_exempt) ||
              (std::string_view("rng") == b.rule && rng_exempt)) {
            continue;
          }
          if (b.needs_call) {
            // Require a call: next non-space char is '(' and the identifier
            // is not a member access (.time(), ->time()).
            std::size_t after = pos;
            while (after < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[after])) != 0) {
              ++after;
            }
            if (after >= line.size() || line[after] != '(') continue;
            std::size_t before = start;
            while (before > 0 &&
                   std::isspace(static_cast<unsigned char>(line[before - 1])) != 0) {
              --before;
            }
            if (before >= 1 && (line[before - 1] == '.' ||
                                (before >= 2 && line[before - 2] == '-' &&
                                 line[before - 1] == '>'))) {
              continue;
            }
          }
          emit(f, line_no, b.rule, b.message);
        }
      }
    }
  }

  // --- metrics-global --------------------------------------------------------
  // Only src/obs may own metric/trace state with static storage duration;
  // every other module takes a MetricsRegistry& (dependency injection), so
  // two simulations in one process can never share instruments. Heuristic:
  // a `static` declaration line naming the registry/sink types, or the
  // reserved global-accessor names, outside obs/.
  void check_metrics_global(const SourceFile& f) {
    if (f.module == "obs") return;
    for (std::size_t i = 0; i < f.code_lines.size(); ++i) {
      const std::string& line = f.code_lines[i];
      int line_no = static_cast<int>(i) + 1;
      bool static_decl = has_identifier(line, "static") &&
                         (has_identifier(line, "MetricsRegistry") ||
                          has_identifier(line, "TraceSink"));
      bool reserved_accessor = has_identifier(line, "global_metrics") ||
                               has_identifier(line, "global_registry") ||
                               has_identifier(line, "global_tracer");
      if (static_decl || reserved_accessor) {
        emit(f, line_no, "metrics-global",
             "global metric state may only live in src/obs; take a "
             "MetricsRegistry& (see DESIGN.md §10)");
      }
    }
  }

  // --- layering --------------------------------------------------------------
  void check_layering(const SourceFile& f) {
    int own = module_layer(f.module);
    if (own < 0) return;  // not a module file; nothing to enforce
    for (const SourceFile::Include& inc : f.includes) {
      auto slash = inc.path.find('/');
      if (slash == std::string::npos) continue;  // same-directory or external
      int target = module_layer(inc.path.substr(0, slash));
      if (target < 0) continue;  // non-module include ("gtest/gtest.h" etc.)
      if (target > own) {
        emit(f, inc.line, "layering",
             "module '" + f.module + "' (layer " + std::to_string(own) +
                 ") must not include '" + inc.path + "' (layer " +
                 std::to_string(target) +
                 "); the DAG is common -> net/topology/netsim -> "
                 "agent/controller/dsa/streaming/analysis -> "
                 "autopilot/core/serve -> chaos");
      }
    }
  }

  // --- serve-boundary --------------------------------------------------------
  // Stricter than layering for the serving tier: serve may only include the
  // allow-listed measurement-substrate modules, and nothing in src/ may
  // include serve (the read path must never feed back into measurement).
  void check_serve_boundary(const SourceFile& f) {
    int own = module_layer(f.module);
    if (own < 0) return;
    for (const SourceFile::Include& inc : f.includes) {
      auto slash = inc.path.find('/');
      if (slash == std::string::npos) continue;
      std::string target = inc.path.substr(0, slash);
      if (module_layer(target) < 0) continue;
      if (f.module == "serve") {
        bool allowed = false;
        for (const char* dep : kServeAllowedDeps) {
          if (target == dep) {
            allowed = true;
            break;
          }
        }
        if (!allowed) {
          emit(f, inc.line, "serve-boundary",
               "serve may only depend on common/net/topology/agent/controller/"
               "dsa/obs; '" +
                   inc.path + "' is off-limits");
        }
      } else if (target == "serve" && f.module != "chaos") {
        emit(f, inc.line, "serve-boundary",
             "module '" + f.module +
                 "' must not include '" + inc.path +
                 "'; only chaos, tools, and bench may consume the serving tier");
      }
    }
  }

  // --- include-cycle ---------------------------------------------------------
  void check_cycles() {
    colors_.assign(files_.size(), 0);
    for (std::size_t i = 0; i < files_.size(); ++i) {
      if (colors_[i] == 0) dfs(i);
    }
  }

  void dfs(std::size_t node) {
    colors_[node] = 1;
    stack_.push_back(node);
    for (const SourceFile::Include& inc : files_[node].includes) {
      auto it = index_.find(inc.path);
      if (it == index_.end()) continue;
      std::size_t next = it->second;
      if (colors_[next] == 1) {
        // Back edge: the cycle is the stack slice from `next` to `node`.
        std::string chain;
        bool in_cycle = false;
        for (std::size_t n : stack_) {
          if (n == next) in_cycle = true;
          if (in_cycle) chain += files_[n].rel_path + " -> ";
        }
        chain += files_[next].rel_path;
        emit(files_[node], inc.line, "include-cycle", "include cycle: " + chain);
      } else if (colors_[next] == 0) {
        dfs(next);
      }
    }
    stack_.pop_back();
    colors_[node] = 2;
  }

  // --- interprocedural analysis ---------------------------------------------
  // Flattened symbol tables + include-closure visibility shared by the taint
  // and lock passes. Everything iterates in deterministic (file, definition)
  // order so the report is byte-stable.

  struct FnRef {
    std::size_t file;  ///< index into files_
    std::size_t fn;    ///< index into files_[file].model.functions
  };

  const FunctionInfo& fn_at(std::size_t i) const {
    const FnRef& r = all_fns_[i];
    return files_[r.file].model.functions[r.fn];
  }

  void build_analysis() {
    for (std::size_t fi = 0; fi < files_.size(); ++fi) {
      const FileModel& m = files_[fi].model;
      for (std::size_t j = 0; j < m.functions.size(); ++j) all_fns_.push_back({fi, j});
    }
    for (std::size_t i = 0; i < all_fns_.size(); ++i) {
      const FunctionInfo& f = fn_at(i);
      if (!f.cls.empty()) {
        class_names_.insert(f.cls);
        by_cls_name_[{f.cls, f.name}].push_back(i);
        member_by_name_[f.name].push_back(i);
      } else {
        free_by_name_[f.name].push_back(i);
      }
    }

    // Reflexive include closure per file, over quoted includes that resolve
    // into the scanned set; a .cc is additionally visible through its
    // same-stem header, so calls to out-of-line definitions resolve for
    // every includer of the header.
    closure_.assign(files_.size(), {});
    hdr_of_.assign(files_.size(), -1);
    for (std::size_t fi = 0; fi < files_.size(); ++fi) {
      const std::string& p = files_[fi].rel_path;
      if (p.ends_with(".cc")) {
        auto it = index_.find(p.substr(0, p.size() - 3) + ".h");
        if (it != index_.end()) hdr_of_[fi] = static_cast<int>(it->second);
      }
      std::vector<std::size_t> work{fi};
      closure_[fi].insert(fi);
      while (!work.empty()) {
        std::size_t cur = work.back();
        work.pop_back();
        for (const SourceFile::Include& inc : files_[cur].includes) {
          auto it = index_.find(inc.path);
          if (it == index_.end()) continue;
          if (closure_[fi].insert(it->second).second) work.push_back(it->second);
        }
      }
    }

    // Merge PM_REQUIRES/PM_ACQUIRE seen on bodyless declarations into the
    // out-of-line definitions they belong to.
    std::map<std::pair<std::string, std::string>,
             std::pair<std::set<std::string>, std::set<std::string>>>
        decls;
    for (const SourceFile& sf : files_) {
      for (const auto& [key, locks] : sf.model.decl_locks) {
        auto& slot = decls[key];
        slot.first.insert(locks.first.begin(), locks.first.end());
        slot.second.insert(locks.second.begin(), locks.second.end());
      }
    }
    req_.resize(all_fns_.size());
    acq_.resize(all_fns_.size());
    for (std::size_t i = 0; i < all_fns_.size(); ++i) {
      const FunctionInfo& f = fn_at(i);
      req_[i] = f.requires_locks;
      acq_[i] = f.acquires_locks;
      auto it = decls.find({f.cls, f.name});
      if (it != decls.end()) {
        req_[i].insert(it->second.first.begin(), it->second.first.end());
        acq_[i].insert(it->second.second.begin(), it->second.second.end());
      }
    }

    calls_resolved_.resize(all_fns_.size());
    for (std::size_t i = 0; i < all_fns_.size(); ++i) {
      const FunctionInfo& f = fn_at(i);
      calls_resolved_[i].reserve(f.calls.size());
      for (const CallSite& c : f.calls) calls_resolved_[i].push_back(resolve(i, c));
    }
  }

  bool visible_from(std::size_t def_file, std::size_t tu) const {
    if (closure_[tu].count(def_file) != 0) return true;
    int h = hdr_of_[def_file];
    return h >= 0 && closure_[tu].count(static_cast<std::size_t>(h)) != 0;
  }

  /// Candidate definitions for one call site, filtered by include-closure
  /// visibility. Over-approximates (overload sets, same-named members on
  /// different classes) — the passes only ever derive reachability from it.
  std::vector<std::size_t> resolve(std::size_t caller, const CallSite& c) const {
    const FunctionInfo& f = fn_at(caller);
    std::size_t tu = all_fns_[caller].file;
    std::vector<std::size_t> out;
    auto add = [&](const std::vector<std::size_t>* cands) {
      if (cands == nullptr) return;
      for (std::size_t v : *cands) {
        if (visible_from(all_fns_[v].file, tu)) out.push_back(v);
      }
    };
    auto find_in = [](const auto& table, const auto& key) {
      auto it = table.find(key);
      return it == table.end() ? nullptr : &it->second;
    };
    if (!c.qualifier.empty()) {
      if (class_names_.count(c.qualifier) != 0) {
        add(find_in(by_cls_name_, std::make_pair(c.qualifier, c.name)));
      } else {
        add(find_in(free_by_name_, c.name));  // namespace-qualified free call
      }
    } else if (c.member) {
      add(find_in(member_by_name_, c.name));
    } else {
      add(find_in(free_by_name_, c.name));
      if (!f.cls.empty()) add(find_in(by_cls_name_, std::make_pair(f.cls, c.name)));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  // --- determinism-taint ------------------------------------------------------
  // A function that directly touches a wallclock/rng primitive must not be
  // reachable from shard-parallel code (parallel_for call sites and the pool
  // worker loop) unless it lives in common/clock / common/rng or carries the
  // determinism-sink directive. BFS from the parallel roots; the pred chain
  // reconstructs a concrete call path for the report.

  static bool taint_exempt(const FunctionInfo& f) {
    return f.file.starts_with("common/clock") || f.file.starts_with("common/rng");
  }

  void pass_taint() {
    constexpr int kUnvisited = -2;
    constexpr int kRoot = -1;
    std::vector<int> pred(all_fns_.size(), kUnvisited);
    std::vector<std::size_t> queue;
    for (std::size_t i = 0; i < all_fns_.size(); ++i) {
      const FunctionInfo& f = fn_at(i);
      if (taint_exempt(f)) continue;
      bool root = f.cls == "ThreadPool" &&
                  (f.name == "worker_loop" || f.name == "parallel_for" ||
                   f.name == "parallel_for_shards");
      for (const CallSite& c : f.calls) {
        if (c.name == "parallel_for" || c.name == "parallel_for_shards") root = true;
      }
      if (root) {
        pred[i] = kRoot;
        queue.push_back(i);
      }
    }
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      std::size_t u = queue[qi];
      if (fn_at(u).sink) continue;  // taint neither flags a sink nor crosses it
      for (const std::vector<std::size_t>& cands : calls_resolved_[u]) {
        for (std::size_t v : cands) {
          if (pred[v] != kUnvisited || taint_exempt(fn_at(v))) continue;
          pred[v] = static_cast<int>(u);
          queue.push_back(v);
        }
      }
    }
    for (std::size_t i = 0; i < all_fns_.size(); ++i) {
      if (pred[i] == kUnvisited) continue;
      const FunctionInfo& f = fn_at(i);
      if (f.sink || f.taint_prims.empty()) continue;
      std::string chain = f.qualified();
      for (int p = pred[i]; p != kRoot; p = pred[static_cast<std::size_t>(p)]) {
        chain = fn_at(static_cast<std::size_t>(p)).qualified() + " -> " + chain;
      }
      const auto& [prim, prim_line] = f.taint_prims.front();
      std::string msg = "'";
      msg += f.qualified();
      emit(files_[all_fns_[i].file], f.def_line, "determinism-taint",
           msg + "' uses nondeterministic primitive '" + prim + "' (line " +
               std::to_string(prim_line) + ") and is reachable from shard-parallel code: " +
               chain +
               "; move it into common/clock or common/rng, break the call path, "
               "or mark an intentional consumer with the determinism-sink "
               "directive");
    }
  }

  // --- lock-discipline --------------------------------------------------------
  // PM_GUARDED_BY fields only touched holding the named mutex (or inside a
  // PM_REQUIRES function); PM_REQUIRES callees only called with the lock
  // held; no re-acquiring a mutex already held. Constructors/destructors are
  // exempt, as are receiver-qualified uses (another object's field is that
  // object's lock).

  void pass_lock_discipline() {
    std::map<std::pair<std::string, std::string>, const GuardedField*> class_fields;
    std::map<std::pair<std::string, std::string>, const GuardedField*> file_fields;
    for (const SourceFile& sf : files_) {
      for (const GuardedField& g : sf.model.guarded_fields) {
        if (!g.cls.empty()) {
          class_fields.emplace(std::make_pair(g.cls, g.field), &g);
        } else {
          file_fields.emplace(std::make_pair(g.file, g.field), &g);
        }
      }
    }
    for (std::size_t i = 0; i < all_fns_.size(); ++i) {
      const FunctionInfo& f = fn_at(i);
      if (f.is_ctor_dtor) continue;
      const SourceFile& sf = files_[all_fns_[i].file];
      const std::set<std::string>& req = req_[i];

      std::set<std::pair<int, std::string>> seen;
      for (const IdentUse& u : f.uses) {
        if (u.receiver_qualified) continue;
        const GuardedField* g = nullptr;
        if (!f.cls.empty()) {
          auto it = class_fields.find({f.cls, u.name});
          if (it != class_fields.end()) g = it->second;
        }
        if (g == nullptr) {
          auto it = file_fields.find({sf.rel_path, u.name});
          if (it != file_fields.end()) g = it->second;
        }
        if (g == nullptr) continue;
        if (std::find(u.held.begin(), u.held.end(), g->mutex) != u.held.end()) continue;
        if (req.count(g->mutex) != 0) continue;
        if (!seen.insert({u.line, u.name}).second) continue;
        emit(sf, u.line, "lock-discipline",
             "'" + u.name + "' is PM_GUARDED_BY(" + g->mutex +
                 ") but accessed without holding it; take the lock or annotate "
                 "the accessor PM_REQUIRES(" + g->mutex + ")");
      }

      // PM_REQUIRES callees. Restricted to own-class members and same-file
      // free functions: for a foreign object the named mutex is the callee
      // object's, which the caller cannot meaningfully hold by name.
      std::set<std::pair<int, std::string>> seen_calls;
      for (std::size_t ci = 0; ci < f.calls.size(); ++ci) {
        const CallSite& c = f.calls[ci];
        if (c.member) continue;
        for (std::size_t v : calls_resolved_[i][ci]) {
          const FunctionInfo& d = fn_at(v);
          if (!d.cls.empty() && d.cls != f.cls) continue;
          if (d.cls.empty() && d.file != f.file) continue;
          for (const std::string& m : req_[v]) {
            if (std::find(c.held.begin(), c.held.end(), m) != c.held.end()) continue;
            if (req.count(m) != 0) continue;
            if (!seen_calls.insert({c.line, d.qualified() + "/" + m}).second) continue;
            emit(sf, c.line, "lock-discipline",
                 "call to '" + d.qualified() + "' which PM_REQUIRES(" + m +
                     "), but '" + m + "' is not held here");
          }
        }
      }

      for (const LockAcquire& a : f.acquires) {
        if (a.key.empty()) continue;
        if (std::find(a.held_keys_before.begin(), a.held_keys_before.end(), a.key) !=
            a.held_keys_before.end()) {
          emit(sf, a.line, "lock-discipline",
               "mutex '" + a.name +
                   "' is already held here; re-acquiring a non-recursive mutex "
                   "self-deadlocks");
        }
      }
    }
  }

  // --- lock-order -------------------------------------------------------------
  // Global acquisition-order graph over qualified mutex keys: an edge A -> B
  // means B was acquired (directly, or transitively through a call) while A
  // was held. Any cycle is a potential deadlock. Keys, edges, and the DFS all
  // iterate in sorted order, so the report is byte-stable.

  std::string lock_key_for(const FunctionInfo& f, const std::string& base) const {
    return f.cls.empty() ? f.file + "::" + base : f.cls + "::" + base;
  }

  void pass_lock_order() {
    // Transitive acquire-key set per function, to a fixed point (recursion in
    // the call graph just stops adding keys).
    std::vector<std::set<std::string>> trans(all_fns_.size());
    for (std::size_t i = 0; i < all_fns_.size(); ++i) {
      const FunctionInfo& f = fn_at(i);
      for (const LockAcquire& a : f.acquires) {
        if (!a.key.empty()) trans[i].insert(a.key);
      }
      for (const std::string& m : acq_[i]) trans[i].insert(lock_key_for(f, m));
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < all_fns_.size(); ++i) {
        for (const std::vector<std::size_t>& cands : calls_resolved_[i]) {
          for (std::size_t v : cands) {
            for (const std::string& k : trans[v]) {
              if (trans[i].insert(k).second) changed = true;
            }
          }
        }
      }
    }

    struct Loc {
      std::size_t file;
      int line;
    };
    std::map<std::pair<std::string, std::string>, Loc> edges;
    auto add_edge = [&edges](const std::string& from, const std::string& to,
                             std::size_t file, int line) {
      if (from != to) edges.emplace(std::make_pair(from, to), Loc{file, line});
    };
    for (std::size_t i = 0; i < all_fns_.size(); ++i) {
      const FunctionInfo& f = fn_at(i);
      std::size_t fi = all_fns_[i].file;
      for (const LockAcquire& a : f.acquires) {
        if (a.key.empty()) continue;
        for (const std::string& k : a.held_keys_before) add_edge(k, a.key, fi, a.line);
      }
      for (std::size_t ci = 0; ci < f.calls.size(); ++ci) {
        const CallSite& c = f.calls[ci];
        if (c.held_keys.empty()) continue;
        for (std::size_t v : calls_resolved_[i][ci]) {
          for (const std::string& k2 : trans[v]) {
            for (const std::string& k1 : c.held_keys) add_edge(k1, k2, fi, c.line);
          }
        }
      }
    }

    std::map<std::string, std::vector<std::pair<std::string, Loc>>> adj;
    std::map<std::string, int> color;
    for (const auto& [e, loc] : edges) {
      adj[e.first].push_back({e.second, loc});
      color.emplace(e.first, 0);
      color.emplace(e.second, 0);
    }
    std::vector<std::string> path;
    std::set<std::vector<std::string>> reported;
    auto dfs_lock = [&](auto&& self, const std::string& u) -> void {
      color[u] = 1;
      path.push_back(u);
      auto it = adj.find(u);
      if (it != adj.end()) {
        for (const auto& [v, loc] : it->second) {
          if (color[v] == 0) {
            self(self, v);
          } else if (color[v] == 1) {
            auto start = std::find(path.begin(), path.end(), v);
            std::vector<std::string> cycle(start, path.end());
            std::rotate(cycle.begin(), std::min_element(cycle.begin(), cycle.end()),
                        cycle.end());
            if (reported.insert(cycle).second) {
              std::string chain;
              for (const std::string& node : cycle) chain += node + " -> ";
              chain += cycle.front();
              emit(files_[loc.file], loc.line, "lock-order",
                   "potential deadlock: lock acquisition-order cycle " + chain +
                       "; this acquisition closes the cycle");
            }
          }
        }
      }
      path.pop_back();
      color[u] = 2;
    };
    for (const auto& [node, c0] : color) {
      (void)c0;
      if (color[node] == 0) dfs_lock(dfs_lock, node);
    }
  }

  std::vector<SourceFile> files_;
  Options options_;
  std::map<std::string, std::size_t> index_;
  std::vector<Violation> out_;
  std::vector<int> colors_;
  std::vector<std::size_t> stack_;
  // interprocedural state (build_analysis)
  std::vector<FnRef> all_fns_;
  std::set<std::string> class_names_;
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>> by_cls_name_;
  std::map<std::string, std::vector<std::size_t>> free_by_name_;
  std::map<std::string, std::vector<std::size_t>> member_by_name_;
  std::vector<std::set<std::size_t>> closure_;
  std::vector<int> hdr_of_;
  std::vector<std::set<std::string>> req_;
  std::vector<std::set<std::string>> acq_;
  std::vector<std::vector<std::vector<std::size_t>>> calls_resolved_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "layering",     "include-cycle", "wallclock",   "rng",
      "using-namespace-header", "printf", "header-guard", "metrics-global",
      "serve-boundary", "determinism-taint", "lock-discipline", "lock-order",
      "unknown-suppression",
  };
  return kNames;
}

std::string violations_to_json(const std::vector<Violation>& violations) {
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);  // lint: allow(printf)
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::string out = "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i != 0) out += ',';
    out += "\n  {\"file\":\"" + escape(v.file) + "\",\"line\":" +
           std::to_string(v.line) + ",\"rule\":\"" + escape(v.rule) +
           "\",\"message\":\"" + escape(v.message) + "\"}";
  }
  out += violations.empty() ? "]\n" : "\n]\n";
  return out;
}

int module_layer(std::string_view module) {
  for (const auto& entry : kLayers) {
    if (module == entry.module) return entry.layer;
  }
  return -1;
}

std::vector<std::string> strip_comments_and_strings(const std::vector<std::string>& raw) {
  enum class St { kCode, kBlockComment, kRawString };
  St st = St::kCode;
  std::string raw_delim;
  std::vector<std::string> out;
  out.reserve(raw.size());

  for (const std::string& line : raw) {
    std::string cooked;
    cooked.reserve(line.size());
    std::size_t i = 0;
    const std::size_t n = line.size();
    while (i < n) {
      char c = line[i];
      switch (st) {
        case St::kBlockComment:
          if (c == '*' && i + 1 < n && line[i + 1] == '/') {
            st = St::kCode;
            cooked += "  ";
            i += 2;
          } else {
            cooked += ' ';
            ++i;
          }
          break;
        case St::kRawString: {
          if (c == ')' && line.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
              i + 1 + raw_delim.size() < n && line[i + 1 + raw_delim.size()] == '"') {
            std::size_t len = 2 + raw_delim.size();
            cooked.append(len, ' ');
            i += len;
            st = St::kCode;
          } else {
            cooked += ' ';
            ++i;
          }
          break;
        }
        case St::kCode:
          if (c == '/' && i + 1 < n && line[i + 1] == '/') {
            cooked.append(n - i, ' ');
            i = n;
          } else if (c == '/' && i + 1 < n && line[i + 1] == '*') {
            st = St::kBlockComment;
            cooked += "  ";
            i += 2;
          } else if (c == '"') {
            // Raw-string opener? The chars just before the quote must form
            // exactly R or an encoding-prefixed R (u8R/uR/UR/LR) that is not
            // the tail of a longer identifier, and the delimiter up to '('
            // must be valid (<= 16 chars, no space/paren/backslash/quote).
            // Anything else is an ordinary string literal.
            std::size_t ps = i;
            while (ps > 0 && is_ident_char(line[ps - 1])) --ps;
            std::string_view prefix = std::string_view(line).substr(ps, i - ps);
            bool raw_open = false;
            if (prefix == "R" || prefix == "u8R" || prefix == "uR" ||
                prefix == "UR" || prefix == "LR") {
              std::size_t open = line.find('(', i + 1);
              if (open != std::string::npos && open - (i + 1) <= 16) {
                bool delim_ok = true;
                for (std::size_t d = i + 1; d < open; ++d) {
                  char dc = line[d];
                  if (dc == ' ' || dc == ')' || dc == '\\' || dc == '"') {
                    delim_ok = false;
                  }
                }
                if (delim_ok) {
                  raw_delim = line.substr(i + 1, open - (i + 1));
                  cooked.append(open - i + 1, ' ');
                  i = open + 1;
                  st = St::kRawString;
                  raw_open = true;
                }
              }
            }
            if (raw_open) break;
            cooked += ' ';
            ++i;
            while (i < n) {
              if (line[i] == '\\' && i + 1 < n) {
                cooked += "  ";
                i += 2;
              } else if (line[i] == '"') {
                cooked += ' ';
                ++i;
                break;
              } else {
                cooked += ' ';
                ++i;
              }
            }
          } else if (c == '\'' && (i == 0 || !is_ident_char(line[i - 1]))) {
            // Leading identifier char means a digit separator (1'000'000)
            // or literal suffix, which stays code.
            cooked += ' ';
            ++i;
            while (i < n) {
              if (line[i] == '\\' && i + 1 < n) {
                cooked += "  ";
                i += 2;
              } else if (line[i] == '\'') {
                cooked += ' ';
                ++i;
                break;
              } else {
                cooked += ' ';
                ++i;
              }
            }
          } else {
            cooked += c;
            ++i;
          }
          break;
      }
    }
    out.push_back(std::move(cooked));
  }
  return out;
}

Report run_files(const std::string& root, const std::vector<std::string>& rel_paths,
                 const Options& options) {
  std::vector<SourceFile> files;
  files.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) files.push_back(load_file(root, rel));
  return Checker(std::move(files), options).run();
}

Report run_tree(const std::string& root, const Options& options) {
  std::vector<std::string> rel_paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    rel_paths.push_back(fs::relative(entry.path(), root).generic_string());
  }
  std::sort(rel_paths.begin(), rel_paths.end());
  return run_files(root, rel_paths, options);
}

}  // namespace pingmesh::lint
