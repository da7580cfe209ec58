/**
 * @file
 * Round half away from zero: std::lround's rule without its out-of-line
 * libm call, for the per-element quantize loops.
 *
 * Truncate, then step one away from zero when the dropped fraction is
 * at least a half. The fraction x - t is exact for every finite x (t
 * and x share a sign, and |t| >= |x| / 2 once |x| >= 1), and the steps
 * are comparisons added as integers, so a loop over these stays free
 * of branches. Like std::lround, the result is meaningful only when it
 * fits a long.
 */
#pragma once

namespace mcbp {

inline long
roundHalfAway(double x)
{
    const long t = static_cast<long>(x);
    const double frac = x - static_cast<double>(t);
    return t + static_cast<long>(frac >= 0.5) -
           static_cast<long>(frac <= -0.5);
}

inline long
roundHalfAway(float x)
{
    const long t = static_cast<long>(x);
    const float frac = x - static_cast<float>(t);
    return t + static_cast<long>(frac >= 0.5f) -
           static_cast<long>(frac <= -0.5f);
}

} // namespace mcbp
