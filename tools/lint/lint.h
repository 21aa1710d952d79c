// pingmesh_lint: a domain-invariant checker for the pingmesh source tree.
//
// Not a general C++ linter. It enforces the handful of repo-wide contracts
// that the compiler cannot: the module layering DAG, the determinism
// discipline that keeps parallel ticks bit-reproducible (no wall-clock or
// ambient randomness outside common/clock and common/rng), lock discipline
// over the PM_GUARDED_BY/PM_REQUIRES/PM_ACQUIRE annotations
// (src/common/annotations.h), and a few hygiene rules. It works from its
// own lexer — a comment/string stripper plus identifier scan — a best-effort
// per-TU call graph (callgraph.h), and the quoted-include graph; no
// libTooling, no compiler dependency, so it runs as a tier-1 ctest in every
// build.
//
// Rule catalog (DESIGN.md §9.1):
//   layering                module may only include same-or-lower layers
//   include-cycle           quoted-include graph must stay acyclic
//   wallclock               wall-clock calls only inside common/clock
//   rng                     ambient randomness only inside common/rng
//   using-namespace-header  no `using namespace` at header scope
//   printf                  no stdout/stderr printf-family in library code
//   header-guard            every header opens with #pragma once (or an
//                           #ifndef/#define guard)
//   metrics-global          global metric/trace state (static MetricsRegistry
//                           / TraceSink, or global_* accessors) only in
//                           src/obs; everyone else takes a MetricsRegistry&
//   serve-boundary          serve may only include common/net/topology/agent/
//                           controller/dsa/obs; in src/ only chaos may
//                           include serve (tools and bench also consume it)
//   determinism-taint       no function using a wallclock/rng primitive
//                           (directly; transitive reach is what's computed)
//                           may be reachable from shard-parallel code —
//                           parallel_for bodies and the pool worker loop —
//                           outside common/clock and common/rng; escape with
//                           the determinism-sink directive (below)
//   lock-discipline         PM_GUARDED_BY fields only accessed holding the
//                           named mutex (or inside PM_REQUIRES functions);
//                           PM_REQUIRES callees only called with the lock
//                           held; no re-acquiring a mutex already held
//   lock-order              the global mutex acquisition-order graph (direct
//                           nesting + call-mediated acquisitions) must stay
//                           acyclic; a cycle is a potential deadlock
//   unknown-suppression     suppression directives must name real rules — a
//                           typo would otherwise silently suppress nothing
//
// Suppression syntax (checked against raw source, so it works in comments;
// rule names must come from the catalog above or the unknown-suppression
// rule fires):
//   one line:    lint: allow(printf)          after `//`, this line only
//   whole file:  lint: allow-file(printf)     after `//`, anywhere in file
//   several:     lint: allow(wallclock, rng)
// The determinism-taint escape hatch is a directive of its own: a line
// reading `lint: determinism-sink` after `//` on (or inside) a function
// definition marks that function as an intentional nondeterminism consumer —
// taint neither flags it nor propagates past it.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace pingmesh::lint {

struct Violation {
  std::string file;  ///< path relative to the scanned root
  int line = 0;      ///< 1-based; 0 for whole-file findings
  std::string rule;
  std::string message;
};

struct Report {
  std::vector<Violation> violations;
  std::size_t files_scanned = 0;
};

/// Rule selection. An empty set means every rule; otherwise only the named
/// rules run (the CLI's --rules / --preset map onto this).
struct Options {
  std::set<std::string> rules;
  [[nodiscard]] bool enabled(const std::string& rule) const {
    return rules.empty() || rules.count(rule) != 0;
  }
};

/// All rule names, for --list-rules and suppression validation.
const std::vector<std::string>& rule_names();

/// Layer of a module directory name (0 = common ... 4 = chaos),
/// or -1 when the name is not a known module.
int module_layer(std::string_view module);

/// Blank comments and string/char literals, preserving line and column
/// structure so later scans report true positions. Handles // and block
/// comments, escapes, digit separators (1'000'000), and raw strings — bare
/// R"(...)", custom-delimiter R"tag(...)tag", and the encoding-prefixed
/// forms u8R/uR/UR/LR — including multi-line spans. Exposed for unit tests.
std::vector<std::string> strip_comments_and_strings(const std::vector<std::string>& raw);

/// Violations as a JSON array of {file, line, rule, message} objects, with
/// proper string escaping — the CLI's --json payload.
std::string violations_to_json(const std::vector<Violation>& violations);

/// Lint the given files (paths relative to `root`, which is an src-like
/// tree whose first-level directories are modules).
Report run_files(const std::string& root, const std::vector<std::string>& rel_paths,
                 const Options& options = {});

/// Lint every .h/.cc under `root`, in deterministic (sorted) order.
Report run_tree(const std::string& root, const Options& options = {});

}  // namespace pingmesh::lint
