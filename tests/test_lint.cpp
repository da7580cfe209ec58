// Tests for mcbp-lint (src/lint): every rule positive and negative,
// the suppression grammar, and the JSON rendering. Test sources are
// string literals here — tests/ is outside the lint_src gate's scan
// set, so the patterns below never trip the real-tree gate.
#include "lint/linter.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace {

using mcbp::lint::Finding;
using mcbp::lint::lintSource;
using mcbp::lint::LintResult;
using mcbp::lint::ruleNames;
using mcbp::lint::toJson;
using mcbp::lint::toText;

std::size_t
countRule(const std::vector<Finding> &fs, const std::string &rule)
{
    return static_cast<std::size_t>(
        std::count_if(fs.begin(), fs.end(), [&](const Finding &f) {
            return f.rule == rule;
        }));
}

const Finding *
firstOf(const std::vector<Finding> &fs, const std::string &rule)
{
    for (const Finding &f : fs)
        if (f.rule == rule)
            return &f;
    return nullptr;
}

TEST(Lint, RuleNamesCoverEveryRule)
{
    const auto &names = ruleNames();
    for (const char *expected :
         {"raw-thread", "raw-rng", "wall-clock", "unordered-accumulation",
          "stray-getenv", "include-hygiene", "eager-message",
          "bad-suppression"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
}

// ---- raw-thread -----------------------------------------------------------

TEST(Lint, RawThreadFlagsStdThreadOutsideParallel)
{
    const auto fs = lintSource("src/engine/foo.cpp",
                               "void f() {\n"
                               "    std::thread t([] {});\n"
                               "    t.join();\n"
                               "}\n");
    ASSERT_EQ(countRule(fs, "raw-thread"), 1u);
    EXPECT_EQ(firstOf(fs, "raw-thread")->line, 2u);
}

TEST(Lint, RawThreadAllowedInsideCommonParallel)
{
    const auto fs = lintSource("src/common/parallel.cpp",
                               "std::thread t([] {});\n");
    EXPECT_EQ(countRule(fs, "raw-thread"), 0u);
}

TEST(Lint, RawThreadFlagsOpenMpAndAsync)
{
    const auto fs = lintSource("src/brcr/x.cpp",
                               "#pragma omp parallel for\n"
                               "auto fut = std::async(work);\n");
    EXPECT_EQ(countRule(fs, "raw-thread"), 2u);
}

// ---- raw-rng --------------------------------------------------------------

TEST(Lint, RawRngFlagsEnginesOutsideCommonRng)
{
    const auto fs = lintSource("src/sim/x.cpp",
                               "std::mt19937 gen(42);\n"
                               "int r = rand();\n");
    EXPECT_EQ(countRule(fs, "raw-rng"), 2u);
}

TEST(Lint, RawRngAllowedInsideCommonRng)
{
    const auto fs =
        lintSource("src/common/rng.hpp", "std::mt19937_64 engine_;\n");
    EXPECT_EQ(countRule(fs, "raw-rng"), 0u);
}

TEST(Lint, RawRngRespectsIdentifierBoundaries)
{
    // "operand" contains "rand"; boundaries must stop the match.
    const auto fs = lintSource("src/sim/x.cpp",
                               "int operand = 1;\n"
                               "int grand_total = operand;\n");
    EXPECT_EQ(countRule(fs, "raw-rng"), 0u);
}

// ---- wall-clock (scoped to src/sim + src/engine) --------------------------

TEST(Lint, WallClockFlaggedInsideEngineAndSim)
{
    const std::string src =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_EQ(countRule(lintSource("src/engine/x.cpp", src),
                        "wall-clock"),
              1u);
    EXPECT_EQ(countRule(lintSource("src/sim/x.cpp", src), "wall-clock"),
              1u);
}

TEST(Lint, WallClockAllowedOutsideScope)
{
    // Benches legitimately time walls.
    const std::string src =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_EQ(countRule(lintSource("bench/profiling.cpp", src),
                        "wall-clock"),
              0u);
    EXPECT_EQ(countRule(lintSource("src/common/x.cpp", src),
                        "wall-clock"),
              0u);
}

// ---- stray-getenv ---------------------------------------------------------

TEST(Lint, StrayGetenvFlaggedEverywhere)
{
    const auto fs = lintSource("src/common/whatever.cpp",
                               "const char *v = std::getenv(\"X\");\n");
    EXPECT_EQ(countRule(fs, "stray-getenv"), 1u);
}

// ---- unordered-accumulation -----------------------------------------------

TEST(Lint, UnorderedAccumulationFlagsRangeForPlusEquals)
{
    const auto fs = lintSource(
        "src/engine/x.cpp",
        "std::unordered_map<int, double> m;\n"
        "double sum = 0;\n"
        "for (const auto &kv : m)\n"
        "    sum += kv.second;\n");
    ASSERT_EQ(countRule(fs, "unordered-accumulation"), 1u);
    EXPECT_EQ(firstOf(fs, "unordered-accumulation")->line, 3u);
}

TEST(Lint, UnorderedAccumulationFlagsBracedPushBack)
{
    const auto fs = lintSource(
        "src/engine/x.cpp",
        "std::unordered_set<int> s;\n"
        "std::vector<int> out;\n"
        "for (int v : s) {\n"
        "    out.push_back(v);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "unordered-accumulation"), 1u);
}

TEST(Lint, OrderedContainerAccumulationIsFine)
{
    const auto fs = lintSource("src/engine/x.cpp",
                               "std::map<int, double> m;\n"
                               "double sum = 0;\n"
                               "for (const auto &kv : m)\n"
                               "    sum += kv.second;\n");
    EXPECT_EQ(countRule(fs, "unordered-accumulation"), 0u);
}

TEST(Lint, UnorderedIterationWithoutAccumulationIsFine)
{
    // Pure membership scans don't depend on order.
    const auto fs = lintSource("src/engine/x.cpp",
                               "std::unordered_map<int, int> m;\n"
                               "bool any = false;\n"
                               "for (const auto &kv : m)\n"
                               "    any = any || kv.second > 0;\n");
    EXPECT_EQ(countRule(fs, "unordered-accumulation"), 0u);
}

// ---- include-hygiene ------------------------------------------------------

TEST(Lint, IncludeHygieneFlagsBitsHeaders)
{
    const auto fs = lintSource("src/common/x.cpp",
                               "#include <bits/stdc++.h>\n");
    ASSERT_EQ(countRule(fs, "include-hygiene"), 1u);
    EXPECT_EQ(firstOf(fs, "include-hygiene")->line, 1u);
}

TEST(Lint, IncludeHygieneSelfHeaderMustComeFirst)
{
    const auto fs = lintSource("src/engine/foo.cpp",
                               "#include <vector>\n"
                               "#include \"engine/foo.hpp\"\n");
    ASSERT_EQ(countRule(fs, "include-hygiene"), 1u);
    EXPECT_EQ(firstOf(fs, "include-hygiene")->line, 2u);
}

TEST(Lint, IncludeHygieneSelfHeaderFirstIsClean)
{
    const auto fs = lintSource("src/engine/foo.cpp",
                               "#include \"engine/foo.hpp\"\n"
                               "#include <vector>\n");
    EXPECT_EQ(countRule(fs, "include-hygiene"), 0u);
}

TEST(Lint, IncludeHygieneConsumerOfSameStemIsNotSelf)
{
    // examples/serving.cpp consuming engine/serving.hpp is not the
    // implementation of that header; order is unconstrained.
    const auto fs = lintSource("examples/serving.cpp",
                               "#include <vector>\n"
                               "#include \"engine/serving.hpp\"\n");
    EXPECT_EQ(countRule(fs, "include-hygiene"), 0u);
}

TEST(Lint, IncludeHygieneHeadersAreExempt)
{
    // Only .cpp files carry the self-header-first obligation.
    const auto fs = lintSource("src/engine/foo.hpp",
                               "#include <vector>\n"
                               "#include \"engine/foo.hpp\"\n");
    EXPECT_EQ(countRule(fs, "include-hygiene"), 0u);
}

// ---- eager-message --------------------------------------------------------

TEST(Lint, EagerMessageFlagsConcatenatedMessages)
{
    const auto fs = lintSource(
        "src/engine/x.cpp",
        "void f(std::size_t n, const std::string &name) {\n"
        "    fatalIf(n == 0, \"bad size \" + std::to_string(n));\n"
        "    panicIf(n > 9,\n"
        "            \"model \" + name + \" is too large\");\n"
        "    fatalIf(n == 3, describe(std::to_string(n)));\n"
        "}\n");
    ASSERT_EQ(countRule(fs, "eager-message"), 3u);
    EXPECT_EQ(firstOf(fs, "eager-message")->line, 2u);
}

TEST(Lint, EagerMessageAcceptsLiteralsAndStringVariables)
{
    const auto fs = lintSource(
        "src/engine/x.cpp",
        "void f(std::size_t a, std::size_t b, const std::string &msg) {\n"
        "    fatalIf(a + b == 0, \"empty range + nothing to do\");\n"
        "    panicIf(a > b, msg);\n"
        "    if (a == b)\n"
        "        fatal(\"bad size \" + std::to_string(a));\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "eager-message"), 0u) << mcbp::lint::toText(
        {fs, 1});
}

TEST(Lint, EagerMessageHonorsAJustifiedSuppression)
{
    const auto fs = lintSource(
        "bench/x.cpp",
        "// mcbp-lint: allow(eager-message): runs once per bench\n"
        "fatalIf(!ok, \"cannot open \" + path);\n");
    EXPECT_EQ(countRule(fs, "eager-message"), 0u);
    EXPECT_EQ(countRule(fs, "bad-suppression"), 0u);
}

// ---- comment / string immunity --------------------------------------------

TEST(Lint, PatternsInCommentsAndStringsDoNotFire)
{
    const auto fs = lintSource(
        "src/engine/x.cpp",
        "// std::thread is banned here; see common/parallel\n"
        "/* so is std::mt19937 and getenv */\n"
        "const char *msg = \"std::thread rand getenv\";\n"
        "char c = 'r';\n"
        "const char *raw = R\"(std::async steady_clock)\";\n");
    EXPECT_TRUE(fs.empty()) << mcbp::lint::toText(
        {fs, 1});
}

// ---- suppressions ---------------------------------------------------------

TEST(Lint, InlineSuppressionWithJustificationIsHonored)
{
    const auto fs = lintSource(
        "src/common/x.cpp",
        "const char *v = std::getenv(\"X\"); "
        "// mcbp-lint: allow(stray-getenv): the registry call site\n");
    EXPECT_EQ(countRule(fs, "stray-getenv"), 0u);
    EXPECT_EQ(countRule(fs, "bad-suppression"), 0u);
}

TEST(Lint, CommentOnlyLineSuppressesTheNextLine)
{
    const auto fs = lintSource(
        "src/common/x.cpp",
        "// mcbp-lint: allow(stray-getenv): the registry call site\n"
        "const char *v = std::getenv(\"X\");\n");
    EXPECT_EQ(countRule(fs, "stray-getenv"), 0u);
}

TEST(Lint, SuppressionOnlyCoversItsNamedRule)
{
    const auto fs = lintSource(
        "src/engine/x.cpp",
        "// mcbp-lint: allow(raw-rng): wrong rule named\n"
        "std::thread t([] {});\n");
    EXPECT_EQ(countRule(fs, "raw-thread"), 1u);
}

TEST(Lint, SuppressionDoesNotLeakToOtherLines)
{
    const auto fs = lintSource(
        "src/common/x.cpp",
        "// mcbp-lint: allow(stray-getenv): only shields line 2\n"
        "const char *a = std::getenv(\"A\");\n"
        "const char *b = std::getenv(\"B\");\n");
    ASSERT_EQ(countRule(fs, "stray-getenv"), 1u);
    EXPECT_EQ(firstOf(fs, "stray-getenv")->line, 3u);
}

TEST(Lint, SuppressionWithoutJustificationIsMalformed)
{
    const auto fs = lintSource(
        "src/common/x.cpp",
        "const char *v = std::getenv(\"X\"); "
        "// mcbp-lint: allow(stray-getenv)\n");
    // The malformed suppression is itself a finding AND fails to
    // shield the original diagnostic.
    EXPECT_EQ(countRule(fs, "bad-suppression"), 1u);
    EXPECT_EQ(countRule(fs, "stray-getenv"), 1u);
}

TEST(Lint, SuppressionOfUnknownRuleIsMalformed)
{
    const auto fs = lintSource(
        "src/common/x.cpp",
        "int x = 0; // mcbp-lint: allow(no-such-rule): whatever\n");
    ASSERT_EQ(countRule(fs, "bad-suppression"), 1u);
}

TEST(Lint, BadSuppressionIsNotItselfSuppressible)
{
    const auto fs = lintSource(
        "src/common/x.cpp",
        "int x = 0; // mcbp-lint: allow(bad-suppression): nice try\n");
    EXPECT_EQ(countRule(fs, "bad-suppression"), 1u);
}

TEST(Lint, MarkerWithoutAllowClauseIsMalformed)
{
    const auto fs = lintSource(
        "src/common/x.cpp", "int x = 0; // mcbp-lint: disable-all\n");
    EXPECT_EQ(countRule(fs, "bad-suppression"), 1u);
}

// ---- output formats --------------------------------------------------------

TEST(Lint, FindingsAreSortedAndDeduped)
{
    const auto fs = lintSource("src/sim/x.cpp",
                               "int b = rand();\n"
                               "std::mt19937 gen; int a = rand();\n");
    // Line 2 hits raw-rng twice (mt19937 and rand); deduped to one
    // finding per (line, rule).
    ASSERT_EQ(countRule(fs, "raw-rng"), 2u);
    EXPECT_EQ(fs[0].line, 1u);
    EXPECT_EQ(fs[1].line, 2u);
}

TEST(Lint, ToTextAndToJsonRenderFindings)
{
    LintResult result;
    result.filesScanned = 3;
    result.findings.push_back(
        {"src/a.cpp", 7, "raw-rng", "say \"no\" to rand"});

    const std::string text = toText(result);
    EXPECT_NE(text.find("src/a.cpp:7: [raw-rng]"), std::string::npos);
    EXPECT_NE(text.find("1 finding(s) in 3 file(s)"), std::string::npos);

    const std::string json = toJson(result);
    EXPECT_NE(json.find("\"tool\": \"mcbp_lint\""), std::string::npos);
    EXPECT_NE(json.find("\"filesScanned\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
    // Quotes in messages must be escaped.
    EXPECT_NE(json.find("say \\\"no\\\" to rand"), std::string::npos);
}

TEST(Lint, ToJsonEmptyFindingsIsStable)
{
    LintResult result;
    result.filesScanned = 2;
    const std::string json = toJson(result);
    EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
}

} // namespace
