#include "lint/linter.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace mcbp::lint {

namespace {

// ---------------------------------------------------------------------------
// Lexing: split a TU into a code stream and a comment stream of the
// SAME length (non-members replaced by spaces, newlines kept in both),
// so offsets and line numbers stay shared. String and char literal
// CONTENTS are blanked from the code stream (the delimiters remain),
// which is what lets rule patterns ignore documentation and message
// text wholesale.
// ---------------------------------------------------------------------------

struct Streams
{
    std::string code;     ///< Source with comments/literals blanked.
    std::string comments; ///< Comment text only (rest blanked).
};

Streams
splitStreams(const std::string &text)
{
    enum class State
    {
        Normal,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    Streams out;
    out.code.assign(text.size(), ' ');
    out.comments.assign(text.size(), ' ');
    State state = State::Normal;
    std::string rawDelim; // the )delim" closer of a raw string
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') { // newlines live in both streams, every state
            out.code[i] = '\n';
            out.comments[i] = '\n';
            if (state == State::LineComment)
                state = State::Normal;
            continue;
        }
        switch (state) {
        case State::Normal:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                ++i; // swallow the marker itself
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                ++i;
            } else if (c == '"') {
                // R"delim( opens a raw string; a preceding encoding
                // prefix (u8R etc.) still ends in R.
                if (i > 0 && text[i - 1] == 'R' &&
                    (i < 2 || !std::isalnum(static_cast<unsigned char>(
                                  text[i - 2])))) {
                    std::size_t j = i + 1;
                    while (j < text.size() && text[j] != '(')
                        ++j;
                    rawDelim =
                        ")" + text.substr(i + 1, j - i - 1) + "\"";
                    state = State::RawString;
                    out.code[i] = '"';
                } else {
                    state = State::String;
                    out.code[i] = '"';
                }
            } else if (c == '\'') {
                // Skip digit separators (1'000'000): only treat ' as
                // a char literal when not sandwiched by digits/idents.
                const bool sep =
                    i > 0 &&
                    std::isalnum(static_cast<unsigned char>(text[i - 1]));
                if (sep) {
                    out.code[i] = c;
                } else {
                    state = State::Char;
                    out.code[i] = '\'';
                }
            } else {
                out.code[i] = c;
            }
            break;
        case State::LineComment:
            out.comments[i] = c;
            break;
        case State::BlockComment:
            if (c == '*' && next == '/') {
                ++i;
                state = State::Normal;
            } else {
                out.comments[i] = c;
            }
            break;
        case State::String:
            if (c == '\\') {
                ++i; // escaped char (newline-in-literal is ill-formed)
            } else if (c == '"') {
                out.code[i] = '"';
                state = State::Normal;
            }
            break;
        case State::Char:
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                out.code[i] = '\'';
                state = State::Normal;
            }
            break;
        case State::RawString:
            if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
                i += rawDelim.size() - 1;
                out.code[i] = '"';
                state = State::Normal;
            }
            break;
        }
    }
    return out;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Offsets where @p pattern occurs with identifier boundaries (when
 *  the pattern's own edge characters are identifier characters). */
std::vector<std::size_t>
findAll(const std::string &code, const std::string &pattern)
{
    std::vector<std::size_t> hits;
    if (pattern.empty())
        return hits;
    const bool boundedFront = isIdentChar(pattern.front());
    const bool boundedBack = isIdentChar(pattern.back());
    std::size_t pos = 0;
    while ((pos = code.find(pattern, pos)) != std::string::npos) {
        const bool okFront =
            !boundedFront || pos == 0 || !isIdentChar(code[pos - 1]);
        const std::size_t end = pos + pattern.size();
        const bool okBack = !boundedBack || end >= code.size() ||
                            !isIdentChar(code[end]);
        if (okFront && okBack)
            hits.push_back(pos);
        pos += 1;
    }
    return hits;
}

/** 1-based line of @p offset given sorted line-start offsets. */
std::size_t
lineOf(const std::vector<std::size_t> &lineStarts, std::size_t offset)
{
    const auto it = std::upper_bound(lineStarts.begin(),
                                     lineStarts.end(), offset);
    return static_cast<std::size_t>(it - lineStarts.begin());
}

std::vector<std::size_t>
computeLineStarts(const std::string &text)
{
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] == '\n')
            starts.push_back(i + 1);
    return starts;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
pathContains(const std::string &path, const std::string &needle)
{
    return path.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Suppressions. The marker is the word "mcbp-lint" + ':' followed by
// an allow clause naming one rule and a mandatory ': justification'.
// A comment-only line suppresses the next line; otherwise the
// suppression applies to its own line.
// ---------------------------------------------------------------------------

// Assembled from pieces so the linter never flags its own source as
// carrying a (justification-free) suppression marker.
const std::string kMarker = std::string("mcbp-lint") + ":";

struct Suppressions
{
    /** line -> rules allowed there. */
    std::map<std::size_t, std::set<std::string>> allowed;
    std::vector<Finding> malformed; ///< bad-suppression findings.
};

Suppressions
parseSuppressions(const std::string &path,
                  const std::vector<std::string> &commentLines,
                  const std::vector<std::string> &codeLines)
{
    Suppressions out;
    for (std::size_t li = 0; li < commentLines.size(); ++li) {
        const std::string &comment = commentLines[li];
        std::size_t pos = 0;
        while ((pos = comment.find(kMarker, pos)) != std::string::npos) {
            const std::size_t lineNo = li + 1;
            std::size_t p = pos + kMarker.size();
            while (p < comment.size() &&
                   std::isspace(static_cast<unsigned char>(comment[p])))
                ++p;
            const std::string allowKw = "allow(";
            if (comment.compare(p, allowKw.size(), allowKw) != 0) {
                out.malformed.push_back(
                    {path, lineNo, "bad-suppression",
                     "marker without an allow(<rule>) clause"});
                pos = p;
                continue;
            }
            p += allowKw.size();
            const std::size_t close = comment.find(')', p);
            if (close == std::string::npos) {
                out.malformed.push_back({path, lineNo, "bad-suppression",
                                         "unterminated allow clause"});
                break;
            }
            const std::string rule = trim(comment.substr(p, close - p));
            p = close + 1;
            const auto &known = ruleNames();
            if (std::find(known.begin(), known.end(), rule) ==
                    known.end() ||
                rule == "bad-suppression") {
                out.malformed.push_back(
                    {path, lineNo, "bad-suppression",
                     "unknown or unsuppressible rule '" + rule + "'"});
                pos = p;
                continue;
            }
            while (p < comment.size() &&
                   std::isspace(static_cast<unsigned char>(comment[p])))
                ++p;
            std::string justification;
            if (p < comment.size() && comment[p] == ':')
                justification = trim(comment.substr(p + 1));
            if (justification.empty()) {
                out.malformed.push_back(
                    {path, lineNo, "bad-suppression",
                     "suppression of '" + rule +
                         "' lacks a ': <one-line justification>'"});
                pos = p;
                continue;
            }
            // Comment-only lines shield the line below; inline
            // comments shield their own line.
            const bool ownLine = li < codeLines.size() &&
                                 trim(codeLines[li]).empty();
            out.allowed[ownLine ? lineNo + 1 : lineNo].insert(rule);
            pos = p;
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Pattern tables.
// ---------------------------------------------------------------------------

struct PatternRule
{
    const char *rule;
    const char *allowedPathPart; ///< nullptr = no sanctioned home.
    /** Restrict the rule to paths containing one of these (empty =
     *  everywhere). */
    std::vector<const char *> scopedTo;
    std::vector<const char *> patterns;
    const char *message;
};

const std::vector<PatternRule> &
patternRules()
{
    static const std::vector<PatternRule> rules = {
        {"raw-thread",
         "common/parallel",
         {},
         {"std::thread", "std::jthread", "std::async", "pthread_create",
          "pthread_join", "omp_set_num_threads", "omp_get_num_threads",
          "#pragma omp", "std::counting_semaphore", "std::barrier",
          "std::latch"},
         "raw threading primitive outside common/parallel; use "
         "parallel::parallelFor/parallelMap (deterministic pool, "
         "index-ordered joins)"},
        {"raw-rng",
         "common/rng",
         {},
         {"mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
          "random_device", "default_random_engine", "rand", "srand",
          "rand_r", "drand48", "lrand48"},
         "raw RNG outside common/rng; draw from the explicitly seeded "
         "mcbp::Rng so streams stay separated and reproducible"},
        {"wall-clock",
         nullptr,
         {"src/sim", "src/engine"},
         {"system_clock", "steady_clock", "high_resolution_clock",
          "utc_clock", "file_clock", "clock_gettime", "gettimeofday",
          "timespec_get", "localtime", "gmtime", "mktime",
          "std::time"},
         "host time source inside the simulator/engine layers; these "
         "may only consume simulated time (benches may time walls)"},
        {"stray-getenv",
         nullptr,
         {},
         {"getenv", "secure_getenv"},
         "environment read outside the env::get registry; declare the "
         "knob in common/env.hpp (name, default, consumer) and read "
         "it through env::get"},
    };
    return rules;
}

// ---------------------------------------------------------------------------
// unordered-accumulation: track names declared with an unordered
// container type, then flag range-fors over them whose body
// accumulates or emits in iteration order.
// ---------------------------------------------------------------------------

std::size_t
skipAngles(const std::string &code, std::size_t pos)
{
    // pos is at '<'; returns index one past the matching '>'.
    int depth = 0;
    for (std::size_t i = pos; i < code.size(); ++i) {
        if (code[i] == '<')
            ++depth;
        else if (code[i] == '>' && --depth == 0)
            return i + 1;
    }
    return code.size();
}

std::set<std::string>
unorderedNames(const std::string &code)
{
    std::set<std::string> names;
    for (const char *type :
         {"unordered_map", "unordered_set", "unordered_multimap",
          "unordered_multiset"}) {
        for (std::size_t hit : findAll(code, type)) {
            std::size_t p = hit + std::strlen(type);
            while (p < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[p])))
                ++p;
            if (p >= code.size() || code[p] != '<')
                continue;
            p = skipAngles(code, p);
            while (p < code.size() &&
                   (std::isspace(static_cast<unsigned char>(code[p])) ||
                    code[p] == '&' || code[p] == '*'))
                ++p;
            std::size_t q = p;
            while (q < code.size() && isIdentChar(code[q]))
                ++q;
            const std::string name = code.substr(p, q - p);
            if (!name.empty() &&
                !std::isdigit(static_cast<unsigned char>(name[0])) &&
                name != "const")
                names.insert(name);
        }
    }
    return names;
}

std::size_t
matchParen(const std::string &code, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i] == '(')
            ++depth;
        else if (code[i] == ')' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

std::size_t
matchBrace(const std::string &code, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i] == '{')
            ++depth;
        else if (code[i] == '}' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

void
checkUnorderedAccumulation(const std::string &path,
                           const std::string &code,
                           const std::vector<std::size_t> &lineStarts,
                           std::vector<Finding> &out)
{
    const std::set<std::string> tracked = unorderedNames(code);
    for (std::size_t forPos : findAll(code, "for")) {
        std::size_t p = forPos + 3;
        while (p < code.size() &&
               std::isspace(static_cast<unsigned char>(code[p])))
            ++p;
        if (p >= code.size() || code[p] != '(')
            continue;
        const std::size_t closeParen = matchParen(code, p);
        if (closeParen == std::string::npos)
            continue;
        const std::string head = code.substr(p + 1, closeParen - p - 1);
        // The range-for ':' at paren depth 0 (never part of a '::').
        std::size_t colon = std::string::npos;
        int depth = 0;
        for (std::size_t i = 0; i < head.size(); ++i) {
            const char c = head[i];
            if (c == '(' || c == '[' || c == '{')
                ++depth;
            else if (c == ')' || c == ']' || c == '}')
                --depth;
            else if (c == ':' && depth == 0 &&
                     (i + 1 >= head.size() || head[i + 1] != ':') &&
                     (i == 0 || head[i - 1] != ':')) {
                colon = i;
                break;
            }
        }
        if (colon == std::string::npos)
            continue;
        const std::string range = head.substr(colon + 1);
        bool overUnordered = pathContains(range, "unordered_");
        for (const std::string &name : tracked)
            if (!overUnordered && !findAll(range, name).empty())
                overUnordered = true;
        if (!overUnordered)
            continue;
        // Body: a braced block or the single statement up to ';'.
        std::size_t bodyBegin = closeParen + 1;
        while (bodyBegin < code.size() &&
               std::isspace(static_cast<unsigned char>(code[bodyBegin])))
            ++bodyBegin;
        std::size_t bodyEnd;
        if (bodyBegin < code.size() && code[bodyBegin] == '{')
            bodyEnd = matchBrace(code, bodyBegin);
        else
            bodyEnd = code.find(';', bodyBegin);
        if (bodyEnd == std::string::npos)
            continue;
        const std::string body =
            code.substr(bodyBegin, bodyEnd - bodyBegin + 1);
        const bool accumulates =
            body.find("+=") != std::string::npos ||
            body.find("<<") != std::string::npos ||
            !findAll(body, "push_back").empty() ||
            !findAll(body, "emplace_back").empty() ||
            !findAll(body, "append").empty();
        if (accumulates)
            out.push_back(
                {path, lineOf(lineStarts, forPos),
                 "unordered-accumulation",
                 "range-for over an unordered container accumulates or "
                 "emits in iteration order, which is unspecified; "
                 "iterate a sorted view (or an ordered container) so "
                 "results are bit-identical run to run"});
    }
}

// ---------------------------------------------------------------------------
// eager-message: a fatalIf/panicIf message built with '+' or to_string
// is evaluated before the call, so it allocates even when the check
// passes. The message is the last top-level argument; a '+' counts at
// the argument's own nesting level, a to_string anywhere inside it.
// ---------------------------------------------------------------------------

void
checkEagerMessage(const std::string &path, const std::string &code,
                  const std::vector<std::size_t> &lineStarts,
                  std::vector<Finding> &out)
{
    for (const char *call : {"fatalIf", "panicIf"}) {
        for (std::size_t hit : findAll(code, call)) {
            std::size_t p = hit + std::strlen(call);
            while (p < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[p])))
                ++p;
            if (p >= code.size() || code[p] != '(')
                continue;
            const std::size_t close = matchParen(code, p);
            if (close == std::string::npos)
                continue;
            std::size_t msgBegin = std::string::npos;
            int depth = 0;
            for (std::size_t i = p + 1; i < close; ++i) {
                const char c = code[i];
                if (c == '(' || c == '[' || c == '{')
                    ++depth;
                else if (c == ')' || c == ']' || c == '}')
                    --depth;
                else if (c == ',' && depth == 0)
                    msgBegin = i + 1;
            }
            if (msgBegin == std::string::npos)
                continue;
            const std::string msg = code.substr(msgBegin, close - msgBegin);
            bool eager = !findAll(msg, "to_string").empty();
            depth = 0;
            for (std::size_t i = 0; i < msg.size() && !eager; ++i) {
                const char c = msg[i];
                if (c == '(' || c == '[' || c == '{')
                    ++depth;
                else if (c == ')' || c == ']' || c == '}')
                    --depth;
                else if (c == '+' && depth == 0)
                    eager = true;
            }
            if (eager)
                out.push_back(
                    {path, lineOf(lineStarts, hit), "eager-message",
                     std::string("'") + call +
                         "' message is concatenated before the check "
                         "runs, so it allocates even when the check "
                         "passes; write 'if (cond) fatal(...)' / "
                         "'panic(...)' instead"});
        }
    }
}

// ---------------------------------------------------------------------------
// include-hygiene: runs over the ORIGINAL text (quoted include paths
// would be blanked from the code stream).
// ---------------------------------------------------------------------------

struct IncludeDirective
{
    std::string path;
    std::size_t line; ///< 1-based.
};

std::vector<IncludeDirective>
parseIncludes(const std::string &text)
{
    std::vector<IncludeDirective> out;
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    bool inBlockComment = false;
    while (std::getline(in, line)) {
        ++lineNo;
        std::string t = trim(line);
        if (inBlockComment) {
            const std::size_t close = t.find("*/");
            if (close == std::string::npos)
                continue;
            inBlockComment = false;
            t = trim(t.substr(close + 2));
        }
        if (t.rfind("/*", 0) == 0 &&
            t.find("*/", 2) == std::string::npos) {
            inBlockComment = true;
            continue;
        }
        if (t.empty() || t[0] != '#')
            continue;
        std::size_t p = 1;
        while (p < t.size() &&
               std::isspace(static_cast<unsigned char>(t[p])))
            ++p;
        if (t.compare(p, 7, "include") != 0)
            continue;
        p += 7;
        while (p < t.size() &&
               std::isspace(static_cast<unsigned char>(t[p])))
            ++p;
        if (p >= t.size() || (t[p] != '<' && t[p] != '"'))
            continue;
        const char closer = t[p] == '<' ? '>' : '"';
        const std::size_t end = t.find(closer, p + 1);
        if (end == std::string::npos)
            continue;
        out.push_back({t.substr(p + 1, end - p - 1), lineNo});
    }
    return out;
}

std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

void
checkIncludeHygiene(const std::string &path, const std::string &text,
                    std::vector<Finding> &out)
{
    const std::vector<IncludeDirective> includes = parseIncludes(text);
    for (const IncludeDirective &inc : includes) {
        if (inc.path.rfind("bits/", 0) == 0 ||
            inc.path.find("/bits/") != std::string::npos)
            out.push_back({path, inc.line, "include-hygiene",
                           "libstdc++ internal header '" + inc.path +
                               "' included; use the standard header"});
    }
    const std::string base = baseName(path);
    const std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos || base.substr(dot) != ".cpp")
        return;
    const std::string stem = base.substr(0, dot);
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : path.substr(0, slash);
    for (std::size_t i = 0; i < includes.size(); ++i) {
        const std::string incBase = baseName(includes[i].path);
        // "Self" needs the directory to agree too: examples/serving.cpp
        // including engine/serving.hpp is a consumer, not the impl.
        const std::size_t incSlash = includes[i].path.find_last_of('/');
        const std::string incDir =
            incSlash == std::string::npos
                ? ""
                : includes[i].path.substr(0, incSlash);
        const bool dirMatches =
            incDir.empty() || dir == incDir ||
            (dir.size() > incDir.size() &&
             dir.compare(dir.size() - incDir.size() - 1, 1, "/") == 0 &&
             dir.compare(dir.size() - incDir.size(), incDir.size(),
                         incDir) == 0);
        if ((incBase == stem + ".hpp" || incBase == stem + ".h") &&
            dirMatches) {
            if (i != 0)
                out.push_back(
                    {path, includes[i].line, "include-hygiene",
                     "a .cpp must include its own header first (so the "
                     "header is proven self-contained); '" +
                         includes[i].path + "' comes after " +
                         std::to_string(i) + " other include(s)"});
            break; // only the first matching header is "self"
        }
    }
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    lines.push_back(cur);
    return lines;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            out += c;
        }
    }
    return out;
}

} // namespace

const std::vector<std::string> &
ruleNames()
{
    static const std::vector<std::string> names = {
        "raw-thread",     "raw-rng",
        "wall-clock",     "unordered-accumulation",
        "stray-getenv",   "include-hygiene",
        "eager-message",  "bad-suppression"};
    return names;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &text)
{
    const Streams streams = splitStreams(text);
    const std::vector<std::size_t> lineStarts =
        computeLineStarts(streams.code);
    const Suppressions supp = parseSuppressions(
        path, splitLines(streams.comments), splitLines(streams.code));

    std::vector<Finding> raw;
    for (const PatternRule &rule : patternRules()) {
        if (rule.allowedPathPart != nullptr &&
            pathContains(path, rule.allowedPathPart))
            continue;
        if (!rule.scopedTo.empty()) {
            bool inScope = false;
            for (const char *dir : rule.scopedTo)
                inScope = inScope || pathContains(path, dir);
            if (!inScope)
                continue;
        }
        for (const char *pattern : rule.patterns)
            for (std::size_t hit : findAll(streams.code, pattern))
                raw.push_back({path, lineOf(lineStarts, hit), rule.rule,
                               std::string("'") + pattern + "': " +
                                   rule.message});
    }
    checkUnorderedAccumulation(path, streams.code, lineStarts, raw);
    checkEagerMessage(path, streams.code, lineStarts, raw);
    checkIncludeHygiene(path, text, raw);

    std::vector<Finding> findings = supp.malformed;
    for (Finding &f : raw) {
        const auto it = supp.allowed.find(f.line);
        if (it != supp.allowed.end() && it->second.count(f.rule))
            continue; // justified suppression
        findings.push_back(std::move(f));
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    // One (line, rule) may be hit by several patterns; report once.
    findings.erase(std::unique(findings.begin(), findings.end(),
                               [](const Finding &a, const Finding &b) {
                                   return a.file == b.file &&
                                          a.line == b.line &&
                                          a.rule == b.rule;
                               }),
                   findings.end());
    return findings;
}

LintResult
lintTree(const std::string &root,
         const std::vector<std::string> &subdirs)
{
    namespace fs = std::filesystem;
    LintResult result;
    std::vector<fs::path> files;
    for (const std::string &sub : subdirs) {
        const fs::path dir = fs::path(root) / sub;
        if (!fs::exists(dir))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext == ".cpp" || ext == ".hpp" || ext == ".h")
                files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &file : files) {
        const std::string display =
            fs::proximate(file, root).generic_string();
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            result.findings.push_back(
                {display, 0, "io-error", "cannot read file"});
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        ++result.filesScanned;
        std::vector<Finding> found = lintSource(display, buf.str());
        result.findings.insert(result.findings.end(), found.begin(),
                               found.end());
    }
    return result;
}

std::string
toText(const LintResult &result)
{
    std::string out;
    for (const Finding &f : result.findings) {
        out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule +
               "] " + f.message + "\n";
    }
    out += std::to_string(result.findings.size()) + " finding(s) in " +
           std::to_string(result.filesScanned) + " file(s)\n";
    return out;
}

std::string
toJson(const LintResult &result)
{
    std::string out = "{\n  \"tool\": \"mcbp_lint\",\n";
    out += "  \"filesScanned\": " +
           std::to_string(result.filesScanned) + ",\n";
    out += "  \"findings\": [";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding &f = result.findings[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"file\": \"" + jsonEscape(f.file) +
               "\", \"line\": " + std::to_string(f.line) +
               ", \"rule\": \"" + jsonEscape(f.rule) +
               "\", \"message\": \"" + jsonEscape(f.message) + "\"}";
    }
    out += result.findings.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace mcbp::lint
