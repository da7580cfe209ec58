/**
 * @file
 * Scalar reference kernels — the semantics every vector tier must
 * reproduce bit-for-bit. Compiled at the project's baseline ISA (no
 * -m flags) so the scalar tier runs anywhere; kept deliberately plain
 * so they stay readable as the specification.
 */
#include <algorithm>
#include <bit>
#include <cmath>

#include "common/simd/box_muller.hpp"
#include "common/simd/kernels_internal.hpp"

namespace mcbp::simd::detail {

namespace {

std::uint64_t
popcountWordsScalar(const std::uint64_t *w, std::size_t n)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += static_cast<std::uint64_t>(std::popcount(w[i]));
    return total;
}

std::uint64_t
orWordsScalar(const std::uint64_t *w, std::size_t n)
{
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc |= w[i];
    return acc;
}

std::uint64_t
andPopcountWordsScalar(std::uint64_t *dst, const std::uint64_t *a,
                       const std::uint64_t *b, std::size_t n)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = a[i] & b[i];
        dst[i] = v;
        total += static_cast<std::uint64_t>(std::popcount(v));
    }
    return total;
}

bool
equalWordsScalar(const std::uint64_t *a, const std::uint64_t *b,
                 std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

std::size_t
countZero32Scalar(const std::uint32_t *v, std::size_t n)
{
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (v[i] == 0)
            ++zeros;
    return zeros;
}

void
nonzeroMask32Scalar(const std::uint32_t *v, std::size_t n,
                    std::uint64_t *mask)
{
    const std::size_t words = (n + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
        const std::size_t base = w << 6;
        const std::size_t lanes = n - base < 64 ? n - base : 64;
        std::uint64_t m = 0;
        for (std::size_t j = 0; j < lanes; ++j)
            m |= static_cast<std::uint64_t>(v[base + j] != 0) << j;
        mask[w] = m;
    }
}

std::uint8_t
sliceSignMagnitudeScalar(const std::int8_t *v, std::size_t rows,
                         std::size_t cols, std::size_t planes,
                         std::uint64_t *const *mag, std::uint64_t *sign,
                         std::size_t stride)
{
    const std::size_t words = (cols + 63) / 64;
    unsigned absOr = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::int8_t *row = v + r * cols;
        for (std::size_t w = 0; w < words; ++w) {
            const std::size_t base = w << 6;
            const std::size_t lanes = cols - base < 64 ? cols - base : 64;
            // One register word per plane, filled a column at a time.
            std::uint64_t planeWord[8] = {};
            std::uint64_t signWord = 0;
            for (std::size_t j = 0; j < lanes; ++j) {
                const int x = row[base + j];
                const unsigned a = static_cast<unsigned>(x < 0 ? -x : x);
                absOr |= a;
                signWord |= static_cast<std::uint64_t>(x < 0) << j;
                for (std::size_t p = 0; p < planes; ++p)
                    planeWord[p] |= static_cast<std::uint64_t>((a >> p) & 1u)
                                    << j;
            }
            const std::size_t at = r * stride + w;
            sign[at] = signWord;
            for (std::size_t p = 0; p < planes; ++p)
                mag[p][at] = planeWord[p];
        }
    }
    return static_cast<std::uint8_t>(absOr);
}

/** boxMullerLanes()'s bit-level steps for one double. */
struct ScalarLanes
{
    static bool
    splitLog(double x, double &xn, double &dk)
    {
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
        const std::uint64_t high = bits >> 32;
        const std::uint64_t hx = high & 0xfffff;
        // Normalize x or x/2, whichever puts the mantissa below sqrt(2).
        const std::uint64_t half = (hx + 0x95f64) & 0x100000;
        xn = std::bit_cast<double>(((hx | (half ^ 0x3ff00000)) << 32) |
                                   (bits & 0xffffffff));
        dk = static_cast<double>((high >> 20) + (half >> 20)) - 1023.0;
        return hx >= bm::kLogHfsqLo && hx <= bm::kLogHfsqHi;
    }

    static double
    select(bool mask, double a, double b)
    {
        return mask ? a : b;
    }

    static double
    sqrt(double v)
    {
        return std::sqrt(v);
    }

    static void
    quadrant(double rounded, double ks, double kc, double &sinR,
             double &cosR)
    {
        const std::uint64_t n = std::bit_cast<std::uint64_t>(rounded);
        const bool odd = (n & 1) != 0;
        sinR = std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(odd ? kc : ks) ^ ((n & 2) << 62));
        cosR = std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(odd ? ks : kc) ^
            (((n + 1) & 2) << 62));
    }
};

void
boxMullerScalar(const double *u1, const double *u2, std::size_t n,
                double *cosOut, double *sinOut)
{
    for (std::size_t i = 0; i < n; ++i)
        boxMullerLanes<ScalarLanes>(u1[i], u2[i], cosOut[i], sinOut[i]);
}

void
signedMagnitudeDotScalar(const std::int8_t *q, std::size_t d,
                         const std::int8_t *keys, std::size_t stride,
                         const std::uint32_t *rows, std::size_t n,
                         std::uint8_t magMask, std::int32_t *out)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::int8_t *k = keys + (rows ? rows[i] : i) * stride;
        std::uint32_t acc = 0;
        for (std::size_t c = 0; c < d; ++c)
            acc += signedMagnitudeTerm(q[c], k[c], magMask);
        out[i] = static_cast<std::int32_t>(acc);
    }
}

float
absMaxScalar(const float *x, std::size_t n)
{
    float m = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        m = std::max(m, std::abs(x[i]));
    return m;
}

void
quantizeSymmetricScalar(const float *x, std::size_t n, double scale,
                        std::int8_t *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = quantizeSymmetricOne(x[i], scale);
}

constexpr Kernels kScalar = {
    Tier::Scalar,       popcountWordsScalar, orWordsScalar,
    andPopcountWordsScalar, equalWordsScalar, countZero32Scalar,
    nonzeroMask32Scalar, sliceSignMagnitudeScalar, boxMullerScalar,
    signedMagnitudeDotScalar, absMaxScalar, quantizeSymmetricScalar,
};

} // namespace

const Kernels &
scalarKernels()
{
    return kScalar;
}

} // namespace mcbp::simd::detail
