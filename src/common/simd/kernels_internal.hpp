/**
 * @file
 * Private seam between the dispatcher and the per-tier translation
 * units. The AVX entry points return null when their TU was compiled
 * without the ISA (old compiler) — the dispatcher treats that exactly
 * like missing CPUID support.
 */
#pragma once

#include <algorithm>

#include "common/rounding.hpp"
#include "common/simd/simd.hpp"

namespace mcbp::simd::detail {

/**
 * One column of signedMagnitudeDot, q * sgn(k) * (|k| & mask), as an
 * unsigned term so the row sum wraps instead of overflowing. The scalar
 * tier is a loop of these; the vector tiers run their tails through it.
 */
inline std::uint32_t
signedMagnitudeTerm(std::int8_t q, std::int8_t k, std::uint8_t mask)
{
    // Branch-free, so g++ vectorizes the scalar tier's loop at the
    // baseline ISA: s is 0 or -1, (k ^ s) - s is |k| (128 for -128) and
    // (mag ^ s) - s gives it k's sign back.
    const int s = k >> 7;
    const int mag = ((k ^ s) - s) & mask;
    return static_cast<std::uint32_t>(q * ((mag ^ s) - s));
}

/**
 * One element of quantizeSymmetric. Rounding is monotone and fixes the
 * integers +-127, so clamping first gives the round-then-clamp result
 * without a long overflow for a huge quotient.
 */
inline std::int8_t
quantizeSymmetricOne(float x, double scale)
{
    return static_cast<std::int8_t>(roundHalfAway(
        std::clamp(static_cast<double>(x) / scale, -127.0, 127.0)));
}

const Kernels &scalarKernels();
const Kernels *avx2Kernels();
const Kernels *avx512Kernels();

} // namespace mcbp::simd::detail
