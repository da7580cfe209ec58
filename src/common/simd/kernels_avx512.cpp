/**
 * @file
 * AVX-512 tier (requires F + BW; VL/VPOPCNTDQ deliberately not assumed
 * so the tier covers Skylake-SP-era servers). Compiled with
 * -mavx512f -mavx512bw when the compiler supports them; stubs out
 * otherwise. Same Harley–Seal construction as the AVX2 tier, with the
 * carry-save adder collapsed into single vpternlogd ops, and mask
 * registers replacing movemask emulation in the 32-bit scans.
 */
#include "common/simd/kernels_internal.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <bit>
#include <immintrin.h>

namespace mcbp::simd::detail {

namespace {

inline __m512i
load(const std::uint64_t *p)
{
    return _mm512_loadu_si512(p);
}

/** Per-64-bit-lane popcount (nibble LUT + SAD, AVX512BW). */
inline __m512i
popcount512(__m512i v)
{
    const __m512i lookup = _mm512_broadcast_i32x4(
        _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    const __m512i low_mask = _mm512_set1_epi8(0x0f);
    const __m512i lo = _mm512_and_si512(v, low_mask);
    const __m512i hi =
        _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask);
    const __m512i cnt =
        _mm512_add_epi8(_mm512_shuffle_epi8(lookup, lo),
                        _mm512_shuffle_epi8(lookup, hi));
    return _mm512_sad_epu8(cnt, _mm512_setzero_si512());
}

/** Carry-save adder via ternary logic: XOR3 low, majority high. */
inline void
csa(__m512i &h, __m512i &l, __m512i a, __m512i b, __m512i c)
{
    h = _mm512_ternarylogic_epi32(a, b, c, 0xe8); // majority(a, b, c)
    l = _mm512_ternarylogic_epi32(a, b, c, 0x96); // a ^ b ^ c
}

std::uint64_t
popcountWordsAvx512(const std::uint64_t *w, std::size_t n)
{
    __m512i total = _mm512_setzero_si512();
    __m512i ones = total, twos = total, fours = total, eights = total;
    __m512i twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens;
    std::size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        const std::uint64_t *p = w + i;
        csa(twosA, ones, ones, load(p + 0), load(p + 8));
        csa(twosB, ones, ones, load(p + 16), load(p + 24));
        csa(foursA, twos, twos, twosA, twosB);
        csa(twosA, ones, ones, load(p + 32), load(p + 40));
        csa(twosB, ones, ones, load(p + 48), load(p + 56));
        csa(foursB, twos, twos, twosA, twosB);
        csa(eightsA, fours, fours, foursA, foursB);
        csa(twosA, ones, ones, load(p + 64), load(p + 72));
        csa(twosB, ones, ones, load(p + 80), load(p + 88));
        csa(foursA, twos, twos, twosA, twosB);
        csa(twosA, ones, ones, load(p + 96), load(p + 104));
        csa(twosB, ones, ones, load(p + 112), load(p + 120));
        csa(foursB, twos, twos, twosA, twosB);
        csa(eightsB, fours, fours, foursA, foursB);
        csa(sixteens, eights, eights, eightsA, eightsB);
        total = _mm512_add_epi64(total, popcount512(sixteens));
    }
    total = _mm512_slli_epi64(total, 4);
    total = _mm512_add_epi64(total,
                             _mm512_slli_epi64(popcount512(eights), 3));
    total = _mm512_add_epi64(total,
                             _mm512_slli_epi64(popcount512(fours), 2));
    total = _mm512_add_epi64(total,
                             _mm512_slli_epi64(popcount512(twos), 1));
    total = _mm512_add_epi64(total, popcount512(ones));
    std::uint64_t result =
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(total));
    for (; i + 8 <= n; i += 8)
        result += static_cast<std::uint64_t>(
            _mm512_reduce_add_epi64(popcount512(load(w + i))));
    for (; i < n; ++i)
        result += static_cast<std::uint64_t>(std::popcount(w[i]));
    return result;
}

std::uint64_t
orWordsAvx512(const std::uint64_t *w, std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm512_or_si512(acc, load(w + i));
    std::uint64_t out = _mm512_reduce_or_epi64(acc);
    for (; i < n; ++i)
        out |= w[i];
    return out;
}

std::uint64_t
andPopcountWordsAvx512(std::uint64_t *dst, const std::uint64_t *a,
                       const std::uint64_t *b, std::size_t n)
{
    __m512i total = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i v = _mm512_and_si512(load(a + i), load(b + i));
        _mm512_storeu_si512(dst + i, v);
        total = _mm512_add_epi64(total, popcount512(v));
    }
    std::uint64_t result =
        static_cast<std::uint64_t>(_mm512_reduce_add_epi64(total));
    for (; i < n; ++i) {
        const std::uint64_t v = a[i] & b[i];
        dst[i] = v;
        result += static_cast<std::uint64_t>(std::popcount(v));
    }
    return result;
}

bool
equalWordsAvx512(const std::uint64_t *a, const std::uint64_t *b,
                 std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        if (_mm512_cmpneq_epi64_mask(load(a + i), load(b + i)) != 0)
            return false;
    for (; i < n; ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

std::size_t
countZero32Avx512(const std::uint32_t *v, std::size_t n)
{
    const __m512i zero = _mm512_setzero_si512();
    std::size_t zeros = 0;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i x = _mm512_loadu_si512(v + i);
        zeros += static_cast<std::size_t>(std::popcount(
            static_cast<std::uint32_t>(_mm512_cmpeq_epi32_mask(x, zero))));
    }
    for (; i < n; ++i)
        if (v[i] == 0)
            ++zeros;
    return zeros;
}

void
nonzeroMask32Avx512(const std::uint32_t *v, std::size_t n,
                    std::uint64_t *mask)
{
    const std::size_t full = n >> 6;
    for (std::size_t w = 0; w < full; ++w) {
        const std::uint32_t *p = v + (w << 6);
        std::uint64_t m = 0;
        for (unsigned j = 0; j < 4; ++j) {
            const __m512i x = _mm512_loadu_si512(p + 16 * j);
            m |= static_cast<std::uint64_t>(
                     _mm512_test_epi32_mask(x, x))
                 << (16 * j);
        }
        mask[w] = m;
    }
    const std::size_t base = full << 6;
    if (base < n) {
        std::uint64_t m = 0;
        for (std::size_t j = 0; j < n - base; ++j)
            m |= static_cast<std::uint64_t>(v[base + j] != 0) << j;
        mask[full] = m;
    }
}

std::uint8_t
sliceSignMagnitudeAvx512(const std::int8_t *v, std::size_t rows,
                         std::size_t cols, std::size_t planes,
                         std::uint64_t *const *mag, std::uint64_t *sign,
                         std::size_t stride)
{
    const std::size_t words = (cols + 63) / 64;
    __m512i absOr = _mm512_setzero_si512();
    for (std::size_t r = 0; r < rows; ++r) {
        const std::int8_t *row = v + r * cols;
        for (std::size_t w = 0; w < words; ++w) {
            const std::size_t base = w << 6;
            // A masked load zeroes the lanes at or beyond cols.
            const std::size_t lanes = cols - base < 64 ? cols - base : 64;
            const __mmask64 live =
                lanes == 64 ? ~__mmask64{0}
                            : (__mmask64{1} << lanes) - 1;
            const __m512i x = _mm512_maskz_loadu_epi8(live, row + base);
            const std::size_t at = r * stride + w;
            sign[at] = _mm512_movepi8_mask(x);
            const __m512i a = _mm512_abs_epi8(x);
            absOr = _mm512_or_si512(absOr, a);
            // A 16-bit left shift by 7 - p lifts bit p of every byte
            // into that byte's top bit, where vpmovb2m reads it.
            for (std::size_t p = 0; p < planes; ++p)
                mag[p][at] = _mm512_movepi8_mask(_mm512_sll_epi16(
                    a, _mm_cvtsi32_si128(static_cast<int>(7 - p))));
        }
    }
    const std::uint64_t folded =
        static_cast<std::uint64_t>(_mm512_reduce_or_epi64(absOr));
    std::uint8_t out = 0;
    for (unsigned b = 0; b < 8; ++b)
        out |= static_cast<std::uint8_t>(folded >> (8 * b));
    return out;
}

constexpr Kernels kAvx512 = {
    Tier::Avx512,         popcountWordsAvx512, orWordsAvx512,
    andPopcountWordsAvx512, equalWordsAvx512,  countZero32Avx512,
    nonzeroMask32Avx512,  sliceSignMagnitudeAvx512,
};

} // namespace

const Kernels *
avx512Kernels()
{
    return &kAvx512;
}

} // namespace mcbp::simd::detail

#else // !(__AVX512F__ && __AVX512BW__)

namespace mcbp::simd::detail {

const Kernels *
avx512Kernels()
{
    return nullptr;
}

} // namespace mcbp::simd::detail

#endif
