/**
 * @file
 * Minimal logging / error-reporting helpers, in the spirit of gem5's
 * fatal()/panic() split:
 *
 *  - fatal(): the caller (user / configuration) asked for something the
 *    library cannot do -> throws std::runtime_error with the message.
 *  - panicIf(): an internal invariant was violated -> throws
 *    std::logic_error. Tests exercise these paths directly.
 */
#pragma once

#include <stdexcept>
#include <string>

namespace mcbp {

/** Throw std::runtime_error for user-level configuration errors. */
[[noreturn]] void fatal(const std::string &msg);

/** Throw std::logic_error: an internal invariant was violated. */
[[noreturn]] void panic(const std::string &msg);

/** panic() when @p cond is true. */
inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond)
        panic(msg);
}

/** panic() when @p cond is true. A literal message becomes a
 *  std::string only on failure, so a hot-path check allocates
 *  nothing. */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond)
        panic(msg);
}

/** fatal() when @p cond is true. */
inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond)
        fatal(msg);
}

/** fatal() when @p cond is true. A literal message becomes a
 *  std::string only on failure, so a check that passes allocates
 *  nothing. */
inline void
fatalIf(bool cond, const char *msg)
{
    if (cond)
        fatal(msg);
}

} // namespace mcbp
