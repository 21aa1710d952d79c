// Tests for the pingmesh_lint rule engine: every rule must trip on its
// fixture tree (tests/lint_fixtures/<case>/), suppressions must silence
// exactly the named rule, and — the tier-1 gate — the real src/ tree must
// come back clean.
#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace lint = pingmesh::lint;

namespace {

std::string fixture(const std::string& name) {
  return std::string(PINGMESH_LINT_FIXTURE_DIR) + "/" + name;
}

TEST(LintRules, LayeringViolationFires) {
  lint::Report r = lint::run_tree(fixture("layering"));
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "layering");
  EXPECT_EQ(r.violations[0].file, "dsa/uses_core.h");
  EXPECT_EQ(r.violations[0].line, 2);  // the "core/fleet.h" include
  // "common/types.h" is a lower layer: must not fire.
}

TEST(LintRules, IncludeCycleFires) {
  lint::Report r = lint::run_tree(fixture("cycle"));
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "include-cycle");
  EXPECT_NE(r.violations[0].message.find("net/a.h"), std::string::npos);
  EXPECT_NE(r.violations[0].message.find("net/b.h"), std::string::npos);
}

TEST(LintRules, WallclockFires) {
  lint::Report r = lint::run_tree(fixture("wallclock"));
  std::set<int> lines;
  for (const auto& v : r.violations) {
    EXPECT_EQ(v.rule, "wallclock");
    lines.insert(v.line);
  }
  // system_clock, time(nullptr), gettimeofday — three distinct lines.
  EXPECT_EQ(lines.size(), 3u);
}

TEST(LintRules, RngFires) {
  lint::Report r = lint::run_tree(fixture("rng"));
  for (const auto& v : r.violations) EXPECT_EQ(v.rule, "rng");
  // random_device, mt19937, rand() — at least three findings.
  EXPECT_GE(r.violations.size(), 3u);
}

TEST(LintRules, UsingNamespaceInHeaderFires) {
  lint::Report r = lint::run_tree(fixture("using_ns"));
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "using-namespace-header");
  EXPECT_EQ(r.violations[0].line, 3);
}

TEST(LintRules, PrintfFamilyFires) {
  lint::Report r = lint::run_tree(fixture("printfy"));
  ASSERT_EQ(r.violations.size(), 2u);  // printf(...) and std::cout
  EXPECT_EQ(r.violations[0].rule, "printf");
  EXPECT_EQ(r.violations[1].rule, "printf");
}

TEST(LintRules, MetricsGlobalFires) {
  lint::Report r = lint::run_tree(fixture("metrics_global"));
  ASSERT_EQ(r.violations.size(), 2u);  // static MetricsRegistry + global_metrics()
  EXPECT_EQ(r.violations[0].rule, "metrics-global");
  EXPECT_EQ(r.violations[1].rule, "metrics-global");
  EXPECT_EQ(r.violations[0].file, "dsa/g.cc");
}

TEST(LintRules, ServeBoundaryFiresBothWays) {
  // core/uses_serve.h includes serve/ (nothing in src/ may consume the
  // serving tier) and serve/uses_core.h includes core/ and streaming/ (off
  // the serve allow-list). core/ is layer 3 like serve and streaming/ is
  // below it, so plain layering stays silent — the boundary rule is what
  // catches them.
  lint::Report r = lint::run_tree(fixture("serve_boundary"));
  ASSERT_EQ(r.violations.size(), 3u);
  for (const auto& v : r.violations) EXPECT_EQ(v.rule, "serve-boundary");
  EXPECT_EQ(r.violations[0].file, "core/uses_serve.h");
  EXPECT_EQ(r.violations[0].line, 2);  // the "serve/rollup.h" include
  EXPECT_EQ(r.violations[1].file, "serve/uses_core.h");
  EXPECT_EQ(r.violations[1].line, 2);  // the "core/fleet.h" include
  // agent/counters.h on line 3 is allow-listed for serve: must not fire.
  EXPECT_EQ(r.violations[2].file, "serve/uses_core.h");
  EXPECT_EQ(r.violations[2].line, 4);  // the "streaming/pipeline.h" include
}

TEST(LintRules, MissingHeaderGuardFires) {
  lint::Report r = lint::run_tree(fixture("guard"));
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "header-guard");
  EXPECT_EQ(r.violations[0].file, "topology/g.h");
}

TEST(LintRules, SuppressionsSilenceExactlyTheNamedRule) {
  // s.cc has a file-scope allow(printf) and a line-scope allow(wallclock):
  // both violations present, both suppressed, nothing else fires.
  lint::Report r = lint::run_tree(fixture("suppressed"));
  EXPECT_TRUE(r.violations.empty())
      << (r.violations.empty() ? "" : r.violations[0].rule + ": " + r.violations[0].message);
}

TEST(LintRules, CleanTreeIsClean) {
  lint::Report r = lint::run_tree(fixture("clean"));
  EXPECT_EQ(r.files_scanned, 1u);
  EXPECT_TRUE(r.violations.empty());
}

TEST(LintRules, DeterminismTaintFollowsTransitiveChain) {
  // core/engine.cc calls parallel_for (a shard-parallel root); the body
  // reaches analysis::jitter which reaches common/util.h's wall_nanos,
  // which touches steady_clock. Only the direct primitive user is flagged,
  // and the message carries the concrete call path.
  lint::Report r = lint::run_tree(fixture("determinism_taint"));
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "determinism-taint");
  EXPECT_EQ(r.violations[0].file, "common/util.h");
  EXPECT_NE(r.violations[0].message.find("steady_clock"), std::string::npos);
  EXPECT_NE(r.violations[0].message.find("run_shards -> jitter -> wall_nanos"),
            std::string::npos);
}

TEST(LintRules, DeterminismSinkDirectiveStopsTheTaint) {
  // Identical tree, but wall_nanos carries `// lint: determinism-sink`:
  // the sink neither fires nor propagates taint to its callers.
  lint::Report r = lint::run_tree(fixture("determinism_taint_sink"));
  EXPECT_TRUE(r.violations.empty())
      << (r.violations.empty() ? "" : r.violations[0].rule + ": " + r.violations[0].message);
}

TEST(LintRules, LockDisciplineCatchesUnlockedFieldAndRequiresCall) {
  // sum() reads a PM_GUARDED_BY field without the mutex; flush() calls a
  // PM_REQUIRES function without it. add() (the correct pattern) and the
  // .cc definition of flush_locked (covered by its decl's PM_REQUIRES)
  // must both stay silent.
  lint::Report r = lint::run_tree(fixture("lock_discipline"));
  ASSERT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(r.violations[0].rule, "lock-discipline");
  EXPECT_EQ(r.violations[0].file, "obs/store.h");
  EXPECT_NE(r.violations[0].message.find("'sum_' is PM_GUARDED_BY(mu_)"),
            std::string::npos);
  EXPECT_EQ(r.violations[1].rule, "lock-discipline");
  EXPECT_NE(r.violations[1].message.find("'Store::flush_locked' which PM_REQUIRES(mu_)"),
            std::string::npos);
}

TEST(LintRules, LockDisciplineAcceptsTheAnnotatedTwin) {
  lint::Report r = lint::run_tree(fixture("lock_discipline_ok"));
  EXPECT_TRUE(r.violations.empty())
      << (r.violations.empty() ? "" : r.violations[0].rule + ": " + r.violations[0].message);
}

TEST(LintRules, LockOrderCycleAndDoubleLockFire) {
  // fab/fbc/fca individually nest two locks innocently; only the global
  // graph sees a -> b -> c -> a. fdd re-acquires d while holding it.
  lint::Report r = lint::run_tree(fixture("lock_order"));
  ASSERT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(r.violations[0].rule, "lock-order");
  EXPECT_NE(r.violations[0].message.find(
                "net/order.cc::a -> net/order.cc::b -> net/order.cc::c -> "
                "net/order.cc::a"),
            std::string::npos);
  EXPECT_EQ(r.violations[1].rule, "lock-discipline");
  EXPECT_EQ(r.violations[1].line, 30);
  EXPECT_NE(r.violations[1].message.find("'d' is already held"), std::string::npos);
}

TEST(LintRules, AllowFileSilencesLockOrder) {
  lint::Report r = lint::run_tree(fixture("lock_order_suppressed"));
  EXPECT_TRUE(r.violations.empty())
      << (r.violations.empty() ? "" : r.violations[0].rule + ": " + r.violations[0].message);
}

TEST(LintRules, UnknownRuleInSuppressionIsAHardError) {
  lint::Report r = lint::run_tree(fixture("unknown_suppression"));
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "unknown-suppression");
  EXPECT_NE(r.violations[0].message.find("unknown rule 'wallclok'"), std::string::npos);
}

TEST(LintRules, OptionsRestrictWhichRulesRun) {
  // The lock_order fixture trips lock-order and lock-discipline; narrowing
  // Options to one rule must drop the other finding.
  lint::Options only_order;
  only_order.rules = {"lock-order"};
  lint::Report r = lint::run_tree(fixture("lock_order"), only_order);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].rule, "lock-order");
}

TEST(LintRules, ReportIsByteStableAcrossRuns) {
  auto render = [](const lint::Report& r) {
    std::string out;
    for (const auto& v : r.violations) {
      out += v.file + ":" + std::to_string(v.line) + " " + v.rule + " " + v.message + "\n";
    }
    return out;
  };
  std::string a = render(lint::run_tree(fixture("lock_order")));
  std::string b = render(lint::run_tree(fixture("lock_order")));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(render(lint::run_tree(fixture("determinism_taint"))),
            render(lint::run_tree(fixture("determinism_taint"))));
}

TEST(LintJson, EscapesAndStructuresViolations) {
  std::vector<lint::Violation> vs;
  vs.push_back({"net/a.h", 3, "printf", "bad \"quote\"\\slash\n\ttab"});
  std::string j = lint::violations_to_json(vs);
  EXPECT_NE(j.find("\"file\":\"net/a.h\""), std::string::npos);
  EXPECT_NE(j.find("\"line\":3"), std::string::npos);
  EXPECT_NE(j.find("\"rule\":\"printf\""), std::string::npos);
  EXPECT_NE(j.find("bad \\\"quote\\\"\\\\slash\\n\\ttab"), std::string::npos);
  EXPECT_EQ(lint::violations_to_json({}).find("[]"), 0u);
}

// The acceptance gate: the real source tree passes every rule. This is the
// same check the `pingmesh_lint` ctest performs via the binary; asserting
// it here too means a violation points at the rule engine output in a
// gtest failure message.
TEST(LintRules, RealSourceTreeIsClean) {
  lint::Report r = lint::run_tree(PINGMESH_SRC_DIR);
  EXPECT_GT(r.files_scanned, 90u);
  for (const auto& v : r.violations) {
    ADD_FAILURE() << v.file << ":" << v.line << " [" << v.rule << "] " << v.message;
  }
}

TEST(LintLexer, StripsCommentsAndStrings) {
  auto cooked = lint::strip_comments_and_strings({
      "int x = 1; // rand() in a comment",
      "const char* s = \"rand() in a string\";",
      "/* block rand()",
      "   still comment */ int y = 2;",
  });
  EXPECT_EQ(cooked[0].find("rand"), std::string::npos);
  EXPECT_EQ(cooked[1].find("rand"), std::string::npos);
  EXPECT_EQ(cooked[2].find("rand"), std::string::npos);
  EXPECT_NE(cooked[3].find("int y = 2;"), std::string::npos);
  // Positions survive: 'int x' still starts at column 0.
  EXPECT_EQ(cooked[0].rfind("int x", 0), 0u);
}

TEST(LintLexer, DigitSeparatorIsNotACharLiteral) {
  auto cooked = lint::strip_comments_and_strings({"std::size_t n = 100'000; rand();"});
  // If 100'000 opened a char literal the rand() call would be blanked.
  EXPECT_NE(cooked[0].find("rand()"), std::string::npos);
}

TEST(LintLexer, RawStringsAreBlanked) {
  auto cooked = lint::strip_comments_and_strings({
      "auto q = R\"(SELECT rand() FROM latency)\"; time(nullptr);",
  });
  EXPECT_EQ(cooked[0].find("SELECT"), std::string::npos);
  EXPECT_NE(cooked[0].find("time(nullptr)"), std::string::npos);
}

TEST(LintLexer, MultiLineRawString) {
  auto cooked = lint::strip_comments_and_strings({
      "auto q = R\"sql(line one rand()",
      "line two system_clock)sql\"; int z = 3;",
  });
  EXPECT_EQ(cooked[0].find("rand"), std::string::npos);
  EXPECT_EQ(cooked[1].find("system_clock"), std::string::npos);
  EXPECT_NE(cooked[1].find("int z = 3;"), std::string::npos);
}

TEST(LintLexer, EncodingPrefixedRawStringsAreBlanked) {
  // u8R/uR/UR/LR are raw-string openers too; before the fix they fell into
  // the ordinary-string path and the first embedded quote "ended" them.
  auto cooked = lint::strip_comments_and_strings({
      "auto a = u8R\"(one rand())\"; int keep1 = 1;",
      "auto b = LR\"(two system_clock)\"; int keep2 = 2;",
      "auto c = uR\"x(three \" quote)x\"; auto d = UR\"(four mt19937)\"; int keep3 = 3;",
  });
  EXPECT_EQ(cooked[0].find("rand"), std::string::npos);
  EXPECT_NE(cooked[0].find("keep1"), std::string::npos);
  EXPECT_EQ(cooked[1].find("system_clock"), std::string::npos);
  EXPECT_NE(cooked[1].find("keep2"), std::string::npos);
  EXPECT_EQ(cooked[2].find("quote"), std::string::npos);
  EXPECT_EQ(cooked[2].find("mt19937"), std::string::npos);
  EXPECT_NE(cooked[2].find("keep3"), std::string::npos);
}

TEST(LintLexer, IdentifierTailRIsNotARawStringPrefix) {
  // `fooR"..."` — the R belongs to a longer identifier, so this is an
  // ordinary string literal, blanked up to its closing quote.
  auto cooked = lint::strip_comments_and_strings({
      "auto s = fooR\"(not raw)\"; rand();",
  });
  EXPECT_EQ(cooked[0].find("not raw"), std::string::npos);
  EXPECT_NE(cooked[0].find("rand()"), std::string::npos);
}

TEST(LintLexer, FakeCloseInsideRawStringDoesNotEndIt) {
  // `)x"` inside an R"outer(...)outer" body is content, not a terminator.
  auto cooked = lint::strip_comments_and_strings({
      "auto q = R\"outer(body )x\" more rand())outer\"; int keep = 4;",
  });
  EXPECT_EQ(cooked[0].find("rand"), std::string::npos);
  EXPECT_NE(cooked[0].find("keep"), std::string::npos);
}

TEST(LintLexer, InvalidRawDelimiterFallsBackToOrdinaryString) {
  // A backslash cannot appear in a raw-string delimiter, so `R"\(...` is
  // lexed as an ordinary string and ends at the next quote.
  auto cooked = lint::strip_comments_and_strings({
      "auto s = R\"\\(oops\"; rand();",
  });
  EXPECT_EQ(cooked[0].find("oops"), std::string::npos);
  EXPECT_NE(cooked[0].find("rand()"), std::string::npos);
}

TEST(LintLayers, ModuleMapMatchesDesignDag) {
  EXPECT_EQ(lint::module_layer("common"), 0);
  EXPECT_EQ(lint::module_layer("net"), 1);
  EXPECT_EQ(lint::module_layer("topology"), 1);
  EXPECT_EQ(lint::module_layer("netsim"), 1);
  EXPECT_EQ(lint::module_layer("agent"), 2);
  EXPECT_EQ(lint::module_layer("controller"), 2);
  EXPECT_EQ(lint::module_layer("dsa"), 2);
  EXPECT_EQ(lint::module_layer("streaming"), 2);
  EXPECT_EQ(lint::module_layer("analysis"), 2);
  EXPECT_EQ(lint::module_layer("obs"), 2);
  EXPECT_EQ(lint::module_layer("autopilot"), 3);
  EXPECT_EQ(lint::module_layer("core"), 3);
  EXPECT_EQ(lint::module_layer("serve"), 3);
  EXPECT_EQ(lint::module_layer("no_such_module"), -1);
}

TEST(LintRules, RuleCatalogIsStable) {
  auto names = lint::rule_names();
  std::set<std::string> expected = {"layering",   "include-cycle",
                                    "wallclock",  "rng",
                                    "using-namespace-header", "printf",
                                    "header-guard", "metrics-global",
                                    "serve-boundary", "determinism-taint",
                                    "lock-discipline", "lock-order",
                                    "unknown-suppression"};
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), expected);
}

}  // namespace
