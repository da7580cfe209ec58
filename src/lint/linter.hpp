/**
 * @file
 * mcbp-lint — source-level enforcement of the repo's determinism and
 * concurrency contracts.
 *
 * The runtime tests prove the contracts hold today; this linter keeps
 * future PRs from breaking them by construction. It tokenizes every
 * C++ source under src/, bench/ and examples/ (comments and string
 * literal contents stripped, so patterns cannot false-positive on
 * documentation) and reports file:line findings for:
 *
 *   raw-thread             std thread/async/OpenMP/pthread primitives
 *                          outside common/parallel — all host
 *                          parallelism must go through the
 *                          deterministic pool (index-ordered joins,
 *                          bit-identical at every thread count).
 *   raw-mutex              std mutexes, lock guards, condition
 *                          variables and once-flags outside
 *                          common/annotations — shared state locks
 *                          through the annotated Mutex/MutexLock/
 *                          CondVar, so the clang thread-safety
 *                          analysis sees every guard, and computes
 *                          each key once through SingleflightMap.
 *   raw-rng                std random engines / rand() / random_device
 *                          outside common/rng — stochastic work must
 *                          draw from the portable, explicitly seeded
 *                          (and stream-separated) mcbp::Rng.
 *   wall-clock             host time sources inside src/sim and
 *                          src/engine — simulator and serving code may
 *                          only consume simulated time, never the
 *                          machine's clocks (benches may time walls).
 *   unordered-accumulation range-for over an unordered container
 *                          whose body accumulates (+=) or emits
 *                          ordered output — iteration order is
 *                          unspecified, so float sums and logs would
 *                          differ run to run.
 *   stray-getenv           any getenv outside the env::get registry
 *                          (common/env.hpp documents every MCBP_*
 *                          knob; the registry is the one sanctioned,
 *                          suppressed call site).
 *   include-hygiene        a .cpp must include its own header first
 *                          (catches headers that don't stand alone),
 *                          and nothing may include libstdc++ internal
 *                          headers (a "bits/" path).
 *   eager-message          a fatalIf/panicIf message argument with a
 *                          top-level '+' or a to_string — it is built
 *                          before the check runs, so it allocates
 *                          even when the check passes; write
 *                          `if (cond) fatal(...)` instead.
 *   bad-suppression        a malformed suppression: unknown rule name
 *                          or missing justification text. Not itself
 *                          suppressible.
 *
 * Suppression syntax: a comment containing the tool's name followed
 * by a colon (the marker), then `allow(` a rule name `)`, then `:`
 * and a non-empty one-line justification — placed on the offending
 * line, or on a comment-only line directly above it. The
 * justification is mandatory; see README "Correctness tooling" for a
 * literal example (spelling one here would register a suppression in
 * this very file).
 *
 * The analysis is a tokenizer, not a compiler: it trades soundness
 * for zero build-time dependencies, and the rules are written so the
 * cheap approximation errs toward reporting. Anything it flags is
 * either fixed or carries a justified suppression — `ctest -R
 * lint_src` keeps the real tree at zero findings.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mcbp::lint {

/** One diagnostic: file:line, the rule that fired, and why. */
struct Finding
{
    std::string file;
    std::size_t line = 0; ///< 1-based.
    std::string rule;
    std::string message;
};

/** A linted tree: every finding plus how many files were scanned. */
struct LintResult
{
    std::vector<Finding> findings;
    std::size_t filesScanned = 0;
};

/** Names of every rule (validates allow() clauses; docs of record). */
const std::vector<std::string> &ruleNames();

/**
 * Lint one in-memory translation unit. @p path scopes the
 * path-dependent rules (allowed homes, wall-clock's src/sim+src/engine
 * restriction, self-header matching) and is echoed into findings;
 * use repo-relative paths like "src/engine/foo.cpp".
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &text);

/**
 * Lint every *.cpp / *.hpp / *.h under @p root's @p subdirs
 * (deterministic order: paths sorted). Unreadable files are reported
 * as findings under rule "io-error".
 */
LintResult lintTree(const std::string &root,
                    const std::vector<std::string> &subdirs);

/** Render findings as `file:line: [rule] message` lines. */
std::string toText(const LintResult &result);

/** Render the result as a stable JSON document (CI artifact). */
std::string toJson(const LintResult &result);

} // namespace mcbp::lint
