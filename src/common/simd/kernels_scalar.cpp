/**
 * @file
 * Scalar reference kernels — the semantics every vector tier must
 * reproduce bit-for-bit. Compiled at the project's baseline ISA (no
 * -m flags) so the scalar tier runs anywhere; kept deliberately plain
 * so they stay readable as the specification.
 */
#include <bit>

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

constexpr Kernels kScalar = {
    Tier::Scalar,       popcountWordsScalar, orWordsScalar,
    andPopcountWordsScalar, equalWordsScalar, countZero32Scalar,
    nonzeroMask32Scalar, sliceSignMagnitudeScalar,
};

} // namespace

const Kernels &
scalarKernels()
{
    return kScalar;
}

} // namespace mcbp::simd::detail
