// elrec-lint suite: lexer, every shipped per-file rule (positive hit +
// suppression), the cross-TU project rules on multi-file fixtures, the
// symbol index round-trip, baseline filtering/pruning, registry/reporter
// round-trips, and the end-to-end driver (serial == parallel) on a temp
// tree. Runs under the `lint` ctest label.
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/driver.hpp"
#include "analyze/index.hpp"
#include "analyze/lexer.hpp"
#include "obs/json.hpp"

namespace elrec::analyze {
namespace {

namespace fs = std::filesystem;

// Mirrors the driver's per-file pass: run rules, drop NOLINT-suppressed —
// except nolint-rationale, which audits the markers themselves and must
// not be silenced by a reason-less marker.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source,
                                 const LintContext& ctx = {}) {
  static const RuleRegistry registry = RuleRegistry::with_builtin_rules();
  const SourceFile file = SourceFile::from_source(path, source);
  std::vector<Finding> kept;
  for (Finding& f : registry.run(file, ctx)) {
    if (f.rule == "nolint-rationale" || !file.suppressed(f.rule, f.line)) {
      kept.push_back(std::move(f));
    }
  }
  return kept;
}

// Mirrors the driver's cross-TU pass: index every (path, source) pair,
// finalize, run the project rules, apply NOLINT suppression.
std::vector<Finding> lint_project(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const LintContext& ctx = {}) {
  static const RuleRegistry registry = RuleRegistry::with_builtin_rules();
  ProjectIndex index;
  for (const auto& [path, text] : sources) {
    auto file =
        std::make_shared<SourceFile>(SourceFile::from_source(path, text));
    index.add(extract_facts(*file), file);
  }
  index.finalize();
  std::vector<Finding> kept;
  for (Finding& f : registry.run_project(index, ctx)) {
    const SourceFile* src = index.source(f.path);
    if (src == nullptr || f.rule == "nolint-rationale" ||
        !src->suppressed(f.rule, f.line)) {
      kept.push_back(std::move(f));
    }
  }
  return kept;
}

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  for (const auto& f : fs) out.push_back(f.rule);
  return out;
}

// ------------------------------------------------------------- lexer ----

TEST(Lexer, TokenKindsAndPositions) {
  const TokenStream ts = lex("int x = 42;\nfoo->bar(1'000, \"s\");");
  ASSERT_GE(ts.size(), 12u);
  EXPECT_EQ(ts[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(ts[0].text, "int");
  EXPECT_EQ(ts[0].line, 1u);
  EXPECT_EQ(ts[0].col, 1u);
  EXPECT_EQ(ts[3].kind, TokenKind::kNumber);
  EXPECT_EQ(ts[3].text, "42");
  // `->` stays one token; the digit separator stays inside the number.
  EXPECT_EQ(ts[6].text, "->");
  EXPECT_EQ(ts[6].line, 2u);
  bool found_number = false, found_string = false;
  for (const Token& t : ts) {
    if (t.text == "1'000") found_number = (t.kind == TokenKind::kNumber);
    if (t.text == "\"s\"") found_string = (t.kind == TokenKind::kString);
  }
  EXPECT_TRUE(found_number);
  EXPECT_TRUE(found_string);
}

TEST(Lexer, LiteralsAndCommentsAreOpaque) {
  // rand() inside strings, raw strings, chars and comments must not
  // surface as identifier tokens.
  const std::string src =
      "const char* a = \"rand()\";\n"
      "const char* b = R\"x(srand(1))x\";\n"
      "char c = 'r'; // rand() here\n"
      "/* srand(2) */\n";
  for (const Token& t : lex(src)) {
    EXPECT_NE(t.kind, TokenKind::kNumber) << t.text;
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "srand");
    }
  }
  EXPECT_TRUE(lint_source("src/x.cpp", src).empty());
}

TEST(Lexer, PreprocessorContinuationIsOneToken) {
  const TokenStream ts = lex("#pragma omp parallel for \\\n  reduction(+ : s)\nint x;");
  ASSERT_FALSE(ts.empty());
  EXPECT_EQ(ts[0].kind, TokenKind::kPpDirective);
  EXPECT_NE(ts[0].text.find("reduction"), std::string::npos);
  // `int` after the continuation is normal code again.
  EXPECT_EQ(ts[1].text, "int");
}

// -------------------------------------------------------------- rules ----

TEST(DeterminismRand, FlagsLibcRngAndRandomDevice) {
  const auto fs = lint_source("src/x.cpp",
                              "int a = rand();\n"
                              "std::random_device rd;\n"
                              "srand(42);\n");
  EXPECT_EQ(fs.size(), 3u);
  for (const auto& f : fs) EXPECT_EQ(f.rule, "determinism-rand");
  EXPECT_EQ(fs[0].line, 1u);
}

TEST(DeterminismRand, MemberAccessAndOtherScopesExempt) {
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "int a = prng.rand_r(s);\n"
                          "int b = gen->rand();\n"
                          "int c = MyGen::rand_r(s);\n"
                          "int rand = 3;  // not a call\n")
                  .empty());
}

TEST(DeterminismRand, NolintSuppresses) {
  EXPECT_TRUE(
      lint_source("src/x.cpp",
                  "int a = rand();  // NOLINT(elrec-determinism-rand): fixture\n")
          .empty());
  // A bare NOLINT also suppresses; a mismatched tag does not.
  EXPECT_TRUE(
      lint_source("src/x.cpp", "int a = rand();  // NOLINT: fixture\n").empty());
  const auto fs = lint_source(
      "src/x.cpp", "int a = rand();  // NOLINT(elrec-header-hygiene): fixture\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "determinism-rand");
}

TEST(NondeterministicReduction, FlagsParallelFloatShapesOnly) {
  EXPECT_EQ(rules_of(lint_source(
                "src/x.cpp",
                "#pragma omp parallel for reduction(+ : acc)\n"
                "for (int i = 0; i < n; ++i) acc += v[i];\n")),
            std::vector<std::string>{"nondeterministic-reduction"});
  EXPECT_EQ(lint_source("src/x.cpp", "#pragma omp atomic\nx += y;\n").size(),
            1u);
  // Single-thread SIMD reductions have a fixed lane order: deterministic.
  EXPECT_TRUE(
      lint_source("src/x.cpp", "#pragma omp simd reduction(+ : acc)\n")
          .empty());
  // min/max are exact in FP regardless of order.
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "#pragma omp parallel for reduction(max : m)\n")
                  .empty());
}

TEST(NondeterministicReduction, NolintNextlineOnPragma) {
  EXPECT_TRUE(lint_source(
                  "src/x.cpp",
                  "// NOLINTNEXTLINE(elrec-nondeterministic-reduction): fixture\n"
                  "#pragma omp parallel for reduction(+ : count)\n")
                  .empty());
}

TEST(OmpParallelIf, FlagsIfClauseOnParallelPragmas) {
  EXPECT_EQ(rules_of(lint_source(
                "src/x.cpp",
                "#pragma omp parallel for schedule(static) if (n >= 256)\n"
                "for (int i = 0; i < n; ++i) v[i] = 0;\n")),
            std::vector<std::string>{"omp-parallel-if"});
  EXPECT_EQ(rules_of(lint_source("src/x.cpp", "#pragma omp parallel if(b > 1)\n")),
            std::vector<std::string>{"omp-parallel-if"});
  // A clause on a backslash-continued line is still on the directive.
  const auto fs = lint_source("src/x.cpp",
                              "int a;\n"
                              "#pragma omp parallel for schedule(static) \\\n"
                              "    if (a.size() >= 64)\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "omp-parallel-if");
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(OmpParallelIf, SimdAndGuardedPragmasAreClean) {
  // SIMD loops never fork a team.
  EXPECT_TRUE(lint_source("src/x.cpp", "#pragma omp simd if (n > 8)\n").empty());
  // The guard idiom: a plain branch decides, the pragma carries no clause.
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "if (fork_omp_team(n >= 256)) {\n"
                          "#pragma omp parallel for schedule(dynamic, 1)\n"
                          "  for (int i = 0; i < n; ++i) f(i);\n"
                          "}\n")
                  .empty());
  // `if` inside another word is not a clause.
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "#pragma omp parallel for firstprivate(modif) "
                          "num_threads(diff(x))\n")
                  .empty());
}

TEST(NolintRationale, ReasonlessMarkersAreFindings) {
  // A reason-less marker is itself a finding, even though bare NOLINT
  // suppresses "all rules" — the rationale rule is exempt from NOLINT.
  const auto bare = lint_source("src/x.cpp", "int a = rand();  // NOLINT\n");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].rule, "nolint-rationale");
  const auto tagged = lint_source(
      "src/x.cpp", "int a = rand();  // NOLINT(elrec-determinism-rand)\n");
  ASSERT_EQ(tagged.size(), 1u);
  EXPECT_EQ(tagged[0].rule, "nolint-rationale");
  // A `: reason` tail satisfies it, and the suppression still works.
  EXPECT_TRUE(
      lint_source("src/x.cpp",
                  "int a = rand();  // NOLINT: fixture rng, seed irrelevant\n")
          .empty());
}

TEST(NolintRationale, ProseAndForeignToolsAreNotMarkers) {
  // Prose that mentions (or even ends with) the tag is not a marker.
  EXPECT_TRUE(
      lint_source("src/x.cpp", "// how the linter applies NOLINT\n").empty());
  EXPECT_TRUE(
      lint_source("src/x.cpp", "// NOLINT markers need a reason\n").empty());
  // Another tool's rule list is ignored entirely: it neither suppresses
  // our rules nor owes us a rationale.
  const auto fs = lint_source("src/x.cpp",
                              "int a = rand();  // NOLINT(bugprone-foo)\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "determinism-rand");
}

TEST(AtomicsOrdering, FlagsDefaultSeqCstRmwAndVolatile) {
  const auto fs = lint_source("src/x.cpp",
                              "v.fetch_add(1);\n"
                              "volatile int flag;\n"
                              "w.store(1, std::memory_order_seq_cst);\n");
  EXPECT_EQ(fs.size(), 3u);
  for (const auto& f : fs) EXPECT_EQ(f.rule, "atomics-ordering");
}

TEST(AtomicsOrdering, ExplicitOrderOk) {
  // Including when the order argument lands on a continuation line.
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "v.fetch_add(1, std::memory_order_relaxed);\n"
                          "w.exchange(true,\n"
                          "           std::memory_order_acq_rel);\n"
                          "x.load();  // load() alone carries no RMW fence\n")
                  .empty());
}

TEST(IostreamInLib, LibraryOnly) {
  const std::string src = "void f() { printf(\"x\"); std::cerr << 1; }\n";
  EXPECT_EQ(lint_source("src/foo/bar.cpp", src).size(), 2u);
  // Same content outside library code is fine.
  EXPECT_TRUE(lint_source("tools/bar.cpp", src).empty());
  EXPECT_TRUE(lint_source("bench/bar.cpp", src).empty());
  EXPECT_TRUE(lint_source("tests/bar.cpp", src).empty());
  // Buffer formatting is not I/O.
  EXPECT_TRUE(
      lint_source("src/x.cpp", "void f() { snprintf(b, 8, \"x\"); }\n")
          .empty());
}

TEST(LockDiscipline, FlagsManualLockOnMutexNames) {
  const auto fs = lint_source("src/x.cpp",
                              "std::mutex mu_;\n"
                              "void f() { mu_.lock(); mu_.unlock(); }\n");
  EXPECT_EQ(fs.size(), 2u);
  for (const auto& f : fs) EXPECT_EQ(f.rule, "lock-discipline");
  // Declaration pass catches mutexes with unconventional names too.
  EXPECT_EQ(lint_source("src/x.cpp",
                        "std::shared_mutex table_guard;\n"
                        "void f() { table_guard.lock_shared(); }\n")
                .size(),
            1u);
}

TEST(LockDiscipline, RaiiGuardsOk) {
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "std::mutex mu_;\n"
                          "void f() {\n"
                          "  std::unique_lock lock(mu_);\n"
                          "  lock.unlock();  // guard method, not the mutex\n"
                          "  std::lock_guard g(mu_);\n"
                          "}\n")
                  .empty());
}

TEST(HeaderHygiene, PragmaOnceAndUsingNamespace) {
  EXPECT_EQ(rules_of(lint_source("src/a.hpp", "int f();\n")),
            std::vector<std::string>{"header-hygiene"});
  EXPECT_EQ(lint_source("src/a.hpp",
                        "#pragma once\nusing namespace std;\n")
                .size(),
            1u);
  EXPECT_TRUE(lint_source("src/a.hpp", "#pragma once\nint f();\n").empty());
  // .cpp files may use-namespace locally and need no pragma.
  EXPECT_TRUE(lint_source("src/a.cpp", "using namespace std;\n").empty());
}

TEST(TraceSpanCoverage, ManifestDrivenHits) {
  LintContext ctx;
  ctx.trace_manifest = {{"hot.cpp", "run"}};
  // Covered: definition contains TRACE_SPAN.
  EXPECT_TRUE(lint_source("src/hot.cpp",
                          "void Foo::run(int n) {\n"
                          "  TRACE_SPAN(\"foo.run\");\n"
                          "}\n",
                          ctx)
                  .empty());
  // Uncovered definition is a finding at the definition line.
  const auto missing = lint_source("src/hot.cpp",
                                   "void Foo::run(int n) { work(n); }\n", ctx);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].rule, "trace-span-coverage");
  EXPECT_EQ(missing[0].line, 1u);
  // A call site is not a definition: the manifest entry must fail loudly.
  const auto drift =
      lint_source("src/hot.cpp", "void g() { if (run(3)) { stop(); } }\n", ctx);
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_NE(drift[0].message.find("no definition"), std::string::npos);
  // Files not named by the manifest are untouched.
  EXPECT_TRUE(lint_source("src/cold.cpp", "void run(int) {}\n", ctx).empty());
}

// ------------------------------------------- cross-TU project rules ----

// Two TUs acquiring the same pair of mutexes in opposite orders: the
// classic deadlock shape the lock-order graph exists to catch.
const char* kAlphaCpp =
    "#include <mutex>\n"
    "class Alpha {\n"
    " public:\n"
    "  void forward();\n"
    "  std::mutex mu_;\n"
    "};\n"
    "class Beta {\n"
    " public:\n"
    "  void reverse();\n"
    "  std::mutex mu_;\n"
    "};\n"
    "Alpha alpha;\n"
    "Beta beta;\n"
    "void Alpha::forward() {\n"
    "  std::lock_guard<std::mutex> g(mu_);\n"
    "  std::lock_guard<std::mutex> h(beta.mu_);\n"
    "}\n";

const char* kBetaCpp =
    "#include <mutex>\n"
    "extern Alpha alpha;\n"
    "extern Beta beta;\n"
    "void Beta::reverse() {\n"
    "  std::lock_guard<std::mutex> g(mu_);\n"
    "  std::lock_guard<std::mutex> h(alpha.mu_);\n"
    "}\n";

TEST(LockOrderGraph, TwoFileCycleWithWitnessPath) {
  const auto fs = lint_project(
      {{"src/pipeline/alpha.cpp", kAlphaCpp}, {"src/serve/beta.cpp", kBetaCpp}});
  ASSERT_EQ(fs.size(), 1u) << report_text(fs, {});
  EXPECT_EQ(fs[0].rule, "lock-order-graph");
  // The finding prints the cycle and a witness for every edge on it.
  EXPECT_NE(fs[0].message.find("Alpha::mu_"), std::string::npos)
      << fs[0].message;
  EXPECT_NE(fs[0].message.find("Beta::mu_"), std::string::npos);
  EXPECT_NE(fs[0].message.find("witness"), std::string::npos);
  EXPECT_NE(fs[0].message.find("alpha.cpp"), std::string::npos);
  EXPECT_NE(fs[0].message.find("beta.cpp"), std::string::npos);
}

TEST(LockOrderGraph, ConsistentOrderIsClean) {
  // Same two mutexes, both TUs take Alpha before Beta: no cycle.
  const char* consistent =
      "#include <mutex>\n"
      "extern Alpha alpha;\n"
      "extern Beta beta;\n"
      "void also_forward() {\n"
      "  std::lock_guard<std::mutex> g(alpha.mu_);\n"
      "  std::lock_guard<std::mutex> h(beta.mu_);\n"
      "}\n";
  EXPECT_TRUE(lint_project({{"src/pipeline/alpha.cpp", kAlphaCpp},
                            {"src/serve/other.cpp", consistent}})
                  .empty());
}

TEST(BlockingUnderLock, TransitiveThroughTwoCalls) {
  // deep() holds Store::mu_ and calls mid() -> leaf() -> sleep_for: the
  // blocking call is two hops away and in another TU.
  const char* store_hot =
      "#include <mutex>\n"
      "class Store {\n"
      " public:\n"
      "  void deep();\n"
      "  void mid();\n"
      "  void leaf();\n"
      "  std::mutex mu_;\n"
      "};\n"
      "void Store::deep() {\n"
      "  std::lock_guard<std::mutex> g(mu_);\n"
      "  mid();\n"
      "}\n";
  const char* store_cold =
      "#include <chrono>\n"
      "#include <thread>\n"
      "void Store::mid() { leaf(); }\n"
      "void Store::leaf() {\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "}\n";
  const auto fs = lint_project({{"src/embed/store_hot.cpp", store_hot},
                                {"src/embed/store_cold.cpp", store_cold}});
  ASSERT_EQ(fs.size(), 1u) << report_text(fs, {});
  EXPECT_EQ(fs[0].rule, "blocking-under-lock");
  EXPECT_NE(fs[0].message.find("sleep_for"), std::string::npos)
      << fs[0].message;
  EXPECT_NE(fs[0].message.find("Store::mu_"), std::string::npos);
  EXPECT_NE(fs[0].message.find("mid"), std::string::npos);  // call chain
  // Moving the call after the guard scope closes fixes it.
  const char* fixed =
      "#include <mutex>\n"
      "class Store {\n"
      " public:\n"
      "  void deep();\n"
      "  void mid();\n"
      "  void leaf();\n"
      "  std::mutex mu_;\n"
      "};\n"
      "void Store::deep() {\n"
      "  { std::lock_guard<std::mutex> g(mu_); }\n"
      "  mid();\n"
      "}\n";
  EXPECT_TRUE(lint_project({{"src/embed/store_hot.cpp", fixed},
                            {"src/embed/store_cold.cpp", store_cold}})
                  .empty());
}

TEST(LayeringDag, BackwardIncludeEdgeFails) {
  // common is the bottom layer; including pipeline from it inverts the DAG.
  const auto fs = lint_project(
      {{"src/common/util.hpp",
        "#pragma once\n#include \"pipeline/pipeline_trainer.hpp\"\n"}});
  ASSERT_EQ(fs.size(), 1u) << report_text(fs, {});
  EXPECT_EQ(fs[0].rule, "layering-dag");
  EXPECT_EQ(fs[0].path, "src/common/util.hpp");
  EXPECT_EQ(fs[0].line, 2u);
  // The forward direction is the sanctioned one.
  EXPECT_TRUE(lint_project({{"src/pipeline/x.cpp",
                             "#include \"common/util.hpp\"\n"}})
                  .empty());
}

TEST(LayeringDag, UnknownSubsystemIsLoud) {
  const auto fs = lint_project(
      {{"src/mystery/a.cpp", "#include \"common/util.hpp\"\nint x;\n"}});
  ASSERT_EQ(fs.size(), 1u) << report_text(fs, {});
  EXPECT_EQ(fs[0].rule, "layering-dag");
  EXPECT_NE(fs[0].message.find("layer_ranks"), std::string::npos)
      << fs[0].message;
}

TEST(FaultSiteCoverage, PointsArmsAndDeadEntries) {
  LintContext ctx;
  ctx.fault_manifest_path = "tools/test_fault.manifest";
  ctx.fault_manifest = {{"pipe/f.cpp", "pipe.ok", 3},
                        {"pipe/f.cpp", "pipe.gone", 4}};
  const auto fs = lint_project(
      {{"src/pipe/f.cpp",
        "void f() {\n"
        "  ELREC_FAULT_POINT(\"pipe.ok\");\n"
        "  ELREC_FAULT_POINT(\"pipe.naked\");\n"
        "}\n"
        "void g(FaultSpec spec) {\n"
        "  FaultInjector::instance().arm(\"pipe.armed\", spec);\n"
        "}\n"}},
      ctx);
  ASSERT_EQ(fs.size(), 3u) << report_text(fs, {});
  for (const auto& f : fs) EXPECT_EQ(f.rule, "fault-site-coverage");
  // An unmanifested plant, an unmanifested armed site, and a dead entry
  // anchored at its own manifest line.
  bool naked = false, armed = false, dead = false;
  for (const auto& f : fs) {
    if (f.message.find("pipe.naked") != std::string::npos) naked = true;
    if (f.message.find("pipe.armed") != std::string::npos) armed = true;
    if (f.message.find("pipe.gone") != std::string::npos) {
      dead = true;
      EXPECT_EQ(f.path, "tools/test_fault.manifest");
      EXPECT_EQ(f.line, 4u);
    }
  }
  EXPECT_TRUE(naked && armed && dead) << report_text(fs, {});
  // With no manifest configured the rule idles rather than spamming.
  EXPECT_TRUE(lint_project({{"src/pipe/f.cpp",
                             "void f() { ELREC_FAULT_POINT(\"pipe.x\"); }\n"}})
                  .empty());
}

TEST(ProjectRules, NolintSuppressesAtTheAnchorLine) {
  const auto fs = lint_project(
      {{"src/common/util.hpp",
        "#pragma once\n"
        "// NOLINTNEXTLINE(elrec-layering-dag): fixture exercises suppression\n"
        "#include \"pipeline/pipeline_trainer.hpp\"\n"}});
  EXPECT_TRUE(fs.empty()) << report_text(fs, {});
}

// --------------------------------------------------- symbol index ----

TEST(ProjectIndexFacts, ExtractsDeclsGuardsCallsAndIncludes) {
  const SourceFile file = SourceFile::from_source(
      "src/embed/cache.cpp",
      "#include \"common/log.hpp\"\n"
      "#include <mutex>\n"
      "class Cache {\n"
      " public:\n"
      "  void put();\n"
      "  std::mutex mu_;\n"
      "};\n"
      "void Cache::put() {\n"
      "  std::lock_guard<std::mutex> g(mu_);\n"
      "  evict();\n"
      "}\n");
  const FileFacts facts = extract_facts(file);
  EXPECT_TRUE(facts.library);
  ASSERT_EQ(facts.mutexes.size(), 1u);
  EXPECT_EQ(facts.mutexes[0].cls, "Cache");
  EXPECT_EQ(facts.mutexes[0].name, "mu_");
  // Quoted includes only: <mutex> is not a project edge.
  ASSERT_EQ(facts.includes.size(), 1u);
  EXPECT_EQ(facts.includes[0].header, "common/log.hpp");
  const FunctionFact* put = nullptr;
  for (const FunctionFact& fn : facts.functions) {
    if (fn.name == "put" && !fn.acquires.empty()) put = &fn;
  }
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->cls, "Cache");
  EXPECT_EQ(put->acquires[0].lock.name, "mu_");
  // The call records the guard context it runs under.
  bool saw_evict_held = false;
  for (const CallSite& c : put->calls) {
    if (c.callee == "evict" && c.held.size() == 1) saw_evict_held = true;
  }
  EXPECT_TRUE(saw_evict_held);
}

TEST(ProjectIndexFacts, RoundTripThroughIndex) {
  auto file = std::make_shared<SourceFile>(SourceFile::from_source(
      "src/embed/cache.cpp",
      "#include <mutex>\n"
      "class Cache { public: std::mutex mu_; };\n"
      "void touch() { ELREC_FAULT_POINT(\"cache.touch\"); }\n"));
  ProjectIndex index;
  index.add(extract_facts(*file), file);
  index.finalize();
  ASSERT_EQ(index.files().size(), 1u);
  ASSERT_EQ(index.fault_points().size(), 1u);
  EXPECT_EQ(index.fault_points()[0].site, "cache.touch");
  EXPECT_EQ(index.source("src/embed/cache.cpp"), file.get());
  EXPECT_EQ(index.source("src/no/such.cpp"), nullptr);
  EXPECT_NE(index.stats().find("1 files"), std::string::npos)
      << index.stats();
}

TEST(ProjectIndexFacts, LockGraphDotIsStable) {
  auto scan = [](const char* path, const char* text) {
    return std::make_shared<SourceFile>(SourceFile::from_source(path, text));
  };
  ProjectIndex index;
  auto a = scan("src/pipeline/alpha.cpp", kAlphaCpp);
  auto b = scan("src/serve/beta.cpp", kBetaCpp);
  index.add(extract_facts(*a), a);
  index.add(extract_facts(*b), b);
  index.finalize();
  const std::string dot = index.lock_graph_dot();
  EXPECT_NE(dot.find("digraph lock_order"), std::string::npos) << dot;
  EXPECT_NE(dot.find("\"Alpha::mu_\" -> \"Beta::mu_\""), std::string::npos);
  EXPECT_NE(dot.find("\"Beta::mu_\" -> \"Alpha::mu_\""), std::string::npos);
  ASSERT_EQ(index.cycles().size(), 1u);
  EXPECT_EQ(index.cycles()[0].size(), 2u);  // two edges close the loop
}

// ------------------------------------------------- baseline & reports ----

Finding finding_fixture(std::string rule, std::string path, std::size_t line,
                        std::string snippet) {
  Finding f;
  f.rule = std::move(rule);
  f.path = std::move(path);
  f.line = line;
  f.col = 1;
  f.message = "msg";
  f.snippet = std::move(snippet);
  return f;
}

TEST(Baseline, RoundTripAndContentMatch) {
  const std::vector<Finding> fs = {
      finding_fixture("atomics-ordering", "src/a.cpp", 10, "v.fetch_add(1);"),
      finding_fixture("iostream-in-lib", "src/b.cpp", 3, "printf(\"x\");")};
  const Baseline b = Baseline::from_findings(fs);
  EXPECT_EQ(b.size(), 2u);

  const fs::path file = fs::path(testing::TempDir()) / "elrec_baseline.txt";
  {
    std::ofstream out(file);
    out << b.serialize();
  }
  const Baseline loaded = Baseline::load(file.string());
  EXPECT_EQ(loaded.size(), 2u);

  // Same rule/path/snippet on a different line still matches (content
  // identity, not position)...
  Finding moved = fs[0];
  moved.line = 99;
  EXPECT_TRUE(loaded.contains(moved));
  // ...but a different snippet or file does not.
  Finding edited = fs[0];
  edited.snippet = "v.fetch_add(2);";
  EXPECT_FALSE(loaded.contains(edited));

  const BaselineSplit split = apply_baseline(loaded, {moved, edited});
  EXPECT_EQ(split.baselined, 1u);
  ASSERT_EQ(split.fresh.size(), 1u);
  EXPECT_EQ(split.fresh[0].snippet, "v.fetch_add(2);");
  fs::remove(file);
}

TEST(Baseline, ReformattingTheLineDoesNotChurn) {
  // Interior whitespace runs collapse on both sides of the match, so
  // reindenting or re-aligning the offending line keeps its entry live.
  const Baseline b = Baseline::from_findings({finding_fixture(
      "atomics-ordering", "src/a.cpp", 5, "v.fetch_add(1);  // ctr")});
  Finding reformatted = finding_fixture("atomics-ordering", "src/a.cpp", 12,
                                        "\tv.fetch_add(1); // ctr");
  EXPECT_TRUE(b.contains(reformatted));
  // An actual edit to the code still misses.
  reformatted.snippet = "v.fetch_add(2); // ctr";
  EXPECT_FALSE(b.contains(reformatted));
}

TEST(Baseline, PruneDropsStaleEntriesOnly) {
  const std::vector<Finding> fs = {
      finding_fixture("determinism-rand", "src/a.cpp", 1, "rand();"),
      finding_fixture("iostream-in-lib", "src/b.cpp", 2, "printf(\"x\");")};
  const Baseline b = Baseline::from_findings(fs);
  const BaselinePrune pruned = b.retain_matching({fs[0]});
  EXPECT_EQ(pruned.removed, 1u);
  EXPECT_EQ(pruned.kept.size(), 1u);
  EXPECT_TRUE(pruned.kept.contains(fs[0]));
  EXPECT_FALSE(pruned.kept.contains(fs[1]));
}

TEST(Baseline, MissingFileIsEmptyAndMalformedThrows) {
  EXPECT_EQ(Baseline::load("/nonexistent/elrec.txt").size(), 0u);
  const fs::path file = fs::path(testing::TempDir()) / "elrec_bad_base.txt";
  {
    std::ofstream out(file);
    out << "just-one-field\n";
  }
  EXPECT_THROW(Baseline::load(file.string()), std::runtime_error);
  fs::remove(file);
}

TEST(Reporter, TextFormat) {
  LintSummary sum;
  sum.files_scanned = 2;
  sum.findings = 1;
  sum.suppressed = 3;
  const std::string text = report_text(
      {finding_fixture("determinism-rand", "src/a.cpp", 7, "rand();")}, sum);
  EXPECT_NE(text.find("src/a.cpp:7:1: [elrec-determinism-rand]"),
            std::string::npos);
  EXPECT_NE(text.find("1 finding(s) across 2 file(s)"), std::string::npos);
  EXPECT_NE(text.find("3 NOLINT-suppressed"), std::string::npos);
}

TEST(Reporter, JsonParsesAndCarriesFields) {
  LintSummary sum;
  sum.files_scanned = 1;
  sum.findings = 1;
  sum.baselined = 2;
  // Snippet with characters that must be escaped.
  const std::string json = report_json(
      {finding_fixture("iostream-in-lib", "src/a.cpp", 4,
                       "printf(\"tab\\there\");")},
      sum);
  obs::JsonValue doc;
  ASSERT_EQ(obs::parse_json(json, doc), "") << json;
  const obs::JsonValue* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_TRUE(findings->is_array());
  ASSERT_EQ(findings->array.size(), 1u);
  EXPECT_EQ(findings->array[0].find("rule")->str, "elrec-iostream-in-lib");
  EXPECT_EQ(findings->array[0].find("line")->number, 4.0);
  const obs::JsonValue* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("baselined")->number, 2.0);
}

// ----------------------------------------------- registry and driver ----

TEST(Registry, BuiltinCatalogue) {
  const RuleRegistry r = RuleRegistry::with_builtin_rules();
  EXPECT_EQ(r.rules().size(), 9u);
  for (const char* name :
       {"determinism-rand", "nondeterministic-reduction", "omp-parallel-if",
        "atomics-ordering", "iostream-in-lib", "lock-discipline", "header-hygiene",
        "trace-span-coverage", "nolint-rationale"}) {
    EXPECT_NE(r.find(name), nullptr) << name;
    EXPECT_FALSE(r.find(name)->description().empty());
  }
  EXPECT_EQ(r.find("no-such-rule"), nullptr);
  // Cross-TU rules live in their own registry slot.
  EXPECT_EQ(r.project_rules().size(), 4u);
  for (const char* name : {"lock-order-graph", "blocking-under-lock",
                           "layering-dag", "fault-site-coverage"}) {
    EXPECT_NE(r.find_project(name), nullptr) << name;
    EXPECT_FALSE(r.find_project(name)->description().empty());
  }
  EXPECT_EQ(r.find_project("determinism-rand"), nullptr);
}

TEST(Registry, OnlyFilterRestrictsRules) {
  const RuleRegistry r = RuleRegistry::with_builtin_rules();
  const SourceFile file = SourceFile::from_source(
      "src/x.cpp", "int a = rand();\nvolatile int b;\n");
  EXPECT_EQ(r.run(file, {}).size(), 2u);
  const auto only = r.run(file, {}, {"atomics-ordering"});
  ASSERT_EQ(only.size(), 1u);
  EXPECT_EQ(only[0].rule, "atomics-ordering");
}

class DriverFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(testing::TempDir()) /
            ("elrec_lint_" + std::to_string(::getpid()));
    fs::create_directories(root_ / "src");
    fs::create_directories(root_ / "build-something" / "src");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const fs::path& rel, const std::string& content) {
    std::ofstream out(root_ / rel);
    out << content;
  }

  fs::path root_;
};

TEST_F(DriverFixture, EndToEndWithNolintAndBaseline) {
  write("src/bad.cpp",
        "int a = rand();\n"
        "int b = rand();  // NOLINT(elrec-determinism-rand): test fixture\n"
        "volatile int c;\n");
  // Generated/build trees must never be walked.
  write("build-something/src/worse.cpp", "int z = rand();\n");

  const RuleRegistry registry = RuleRegistry::with_builtin_rules();
  LintOptions opt;
  opt.paths = {(root_ / "src").string()};

  // First pass: the NOLINT line is suppressed, two findings remain.
  LintResult r1 = run_lint(registry, opt);
  EXPECT_EQ(r1.summary.files_scanned, 1u);
  EXPECT_EQ(r1.summary.suppressed, 1u);
  ASSERT_EQ(r1.fresh.size(), 2u);

  // Baseline the volatile finding only; the rand() stays fresh.
  const fs::path base = root_ / "baseline.txt";
  {
    std::ofstream out(base);
    out << Baseline::from_findings({r1.fresh[1]}).serialize();
  }
  opt.baseline_path = base.string();
  LintResult r2 = run_lint(registry, opt);
  EXPECT_EQ(r2.summary.baselined, 1u);
  ASSERT_EQ(r2.fresh.size(), 1u);
  EXPECT_EQ(r2.fresh[0].rule, "determinism-rand");
  EXPECT_EQ(r2.fresh[0].line, 1u);
}

TEST_F(DriverFixture, ParallelScanIsBitwiseDeterministic) {
  // Enough files that a 4-thread pool genuinely interleaves; each file
  // carries distinct findings so any ordering slip shows in the report.
  for (int i = 0; i < 12; ++i) {
    write("src/f" + std::to_string(i) + ".cpp",
          "int a" + std::to_string(i) + " = rand();\n"
          "volatile int b" + std::to_string(i) + ";\n");
  }
  const RuleRegistry registry = RuleRegistry::with_builtin_rules();
  LintOptions opt;
  opt.paths = {(root_ / "src").string()};
  opt.jobs = 1;
  const LintResult serial = run_lint(registry, opt);
  EXPECT_EQ(serial.fresh.size(), 24u);
  const std::string expected = report_text(serial.fresh, serial.summary);
  for (std::size_t jobs : {2u, 4u, 7u}) {
    opt.jobs = jobs;
    const LintResult parallel = run_lint(registry, opt);
    EXPECT_EQ(report_text(parallel.fresh, parallel.summary), expected)
        << "jobs=" << jobs;
  }
}

TEST_F(DriverFixture, CollectSourcesFiltersAndSorts) {
  write("src/a.cpp", "int x;\n");
  write("src/z.hpp", "#pragma once\n");
  write("src/notes.md", "not code\n");
  const auto files = collect_sources({root_.string()});
  ASSERT_EQ(files.size(), 2u);
  EXPECT_TRUE(files[0].ends_with("src/a.cpp"));
  EXPECT_TRUE(files[1].ends_with("src/z.hpp"));
  EXPECT_THROW(collect_sources({(root_ / "missing").string()}),
               std::runtime_error);
}

TEST_F(DriverFixture, TraceManifestParsing) {
  write("spans.manifest",
        "# comment line\n"
        "\n"
        "core/eff_tt_table.cpp forward   # trailing comment\n"
        "serve/request_scheduler.cpp worker_loop\n");
  const auto reqs = load_trace_manifest((root_ / "spans.manifest").string());
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].file_suffix, "core/eff_tt_table.cpp");
  EXPECT_EQ(reqs[0].function, "forward");

  write("bad.manifest", "only-one-field\n");
  EXPECT_THROW(load_trace_manifest((root_ / "bad.manifest").string()),
               std::runtime_error);
  EXPECT_THROW(load_trace_manifest((root_ / "absent.manifest").string()),
               std::runtime_error);
}

TEST_F(DriverFixture, FaultManifestParsingKeepsLineNumbers) {
  write("faults.manifest",
        "# plants\n"
        "shard_server.cpp shard.crash\n"
        "\n"
        "online_trainer.cpp online.checkpoint  # drill\n");
  const auto reqs = load_fault_manifest((root_ / "faults.manifest").string());
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].file_suffix, "shard_server.cpp");
  EXPECT_EQ(reqs[0].site, "shard.crash");
  EXPECT_EQ(reqs[0].line, 2u);  // dead-entry findings anchor here
  EXPECT_EQ(reqs[1].line, 4u);
}

}  // namespace
}  // namespace elrec::analyze
