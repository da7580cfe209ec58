/**
 * @file
 * AVX2 tier. Compiled with -mavx2 when the compiler supports it (see
 * CMakeLists.txt); otherwise the TU degrades to a stub and the
 * dispatcher falls back, exactly as if CPUID lacked AVX2.
 *
 * popcount uses the Harley–Seal carry-save tree over 64-word (512-byte)
 * blocks with Muła's nibble-LUT byte popcount at the leaves — the
 * standard ~3x-over-scalar-POPCNT construction for in-cache buffers.
 * All loads are unaligned (`loadu`): AlignedBuffer rows make them
 * cache-line clean, but correctness never depends on it.
 */
#include "common/simd/kernels_internal.hpp"

#if defined(__AVX2__)

#include <bit>
#include <cstring>
#include <immintrin.h>

namespace mcbp::simd::detail {

namespace {

inline __m256i
load(const std::uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

/** Per-64-bit-lane popcount of @p v (Muła nibble LUT + SAD). */
inline __m256i
popcount256(__m256i v)
{
    const __m256i lookup =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i cnt =
        _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                        _mm256_shuffle_epi8(lookup, hi));
    return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/** Carry-save adder: (h, l) = a + b + c in bit-sliced form. */
inline void
csa(__m256i &h, __m256i &l, __m256i a, __m256i b, __m256i c)
{
    const __m256i u = _mm256_xor_si256(a, b);
    h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
    l = _mm256_xor_si256(u, c);
}

inline std::uint64_t
hsum64(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
           static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

std::uint64_t
popcountWordsAvx2(const std::uint64_t *w, std::size_t n)
{
    __m256i total = _mm256_setzero_si256();
    __m256i ones = total, twos = total, fours = total, eights = total;
    __m256i twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens;
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const std::uint64_t *p = w + i;
        csa(twosA, ones, ones, load(p + 0), load(p + 4));
        csa(twosB, ones, ones, load(p + 8), load(p + 12));
        csa(foursA, twos, twos, twosA, twosB);
        csa(twosA, ones, ones, load(p + 16), load(p + 20));
        csa(twosB, ones, ones, load(p + 24), load(p + 28));
        csa(foursB, twos, twos, twosA, twosB);
        csa(eightsA, fours, fours, foursA, foursB);
        csa(twosA, ones, ones, load(p + 32), load(p + 36));
        csa(twosB, ones, ones, load(p + 40), load(p + 44));
        csa(foursA, twos, twos, twosA, twosB);
        csa(twosA, ones, ones, load(p + 48), load(p + 52));
        csa(twosB, ones, ones, load(p + 56), load(p + 60));
        csa(foursB, twos, twos, twosA, twosB);
        csa(eightsB, fours, fours, foursA, foursB);
        csa(sixteens, eights, eights, eightsA, eightsB);
        total = _mm256_add_epi64(total, popcount256(sixteens));
    }
    total = _mm256_slli_epi64(total, 4);
    total = _mm256_add_epi64(total,
                             _mm256_slli_epi64(popcount256(eights), 3));
    total = _mm256_add_epi64(total,
                             _mm256_slli_epi64(popcount256(fours), 2));
    total = _mm256_add_epi64(total,
                             _mm256_slli_epi64(popcount256(twos), 1));
    total = _mm256_add_epi64(total, popcount256(ones));
    std::uint64_t result = hsum64(total);
    for (; i + 4 <= n; i += 4)
        result += hsum64(popcount256(load(w + i)));
    for (; i < n; ++i)
        result += static_cast<std::uint64_t>(std::popcount(w[i]));
    return result;
}

std::uint64_t
orWordsAvx2(const std::uint64_t *w, std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_or_si256(
            acc, _mm256_or_si256(load(w + i), load(w + i + 4)));
    for (; i + 4 <= n; i += 4)
        acc = _mm256_or_si256(acc, load(w + i));
    std::uint64_t lanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::uint64_t out = lanes[0] | lanes[1] | lanes[2] | lanes[3];
    for (; i < n; ++i)
        out |= w[i];
    return out;
}

std::uint64_t
andPopcountWordsAvx2(std::uint64_t *dst, const std::uint64_t *a,
                     const std::uint64_t *b, std::size_t n)
{
    __m256i total = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_and_si256(load(a + i), load(b + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), v);
        total = _mm256_add_epi64(total, popcount256(v));
    }
    std::uint64_t result = hsum64(total);
    for (; i < n; ++i) {
        const std::uint64_t v = a[i] & b[i];
        dst[i] = v;
        result += static_cast<std::uint64_t>(std::popcount(v));
    }
    return result;
}

bool
equalWordsAvx2(const std::uint64_t *a, const std::uint64_t *b,
               std::size_t n)
{
    std::size_t i = 0;
    // Check in 16-vector strides so a mismatch deep in a long span
    // still exits early, like the scalar loop.
    while (i + 4 <= n) {
        __m256i acc = _mm256_setzero_si256();
        std::size_t j = 0;
        for (; j < 16 && i + 4 <= n; ++j, i += 4)
            acc = _mm256_or_si256(
                acc, _mm256_xor_si256(load(a + i), load(b + i)));
        if (!_mm256_testz_si256(acc, acc))
            return false;
    }
    for (; i < n; ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

std::size_t
countZero32Avx2(const std::uint32_t *v, std::size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    std::size_t zeros = 0;
    std::size_t i = 0;
    // cmpeq lanes are -1; accumulate by subtraction and flush the
    // 32-bit lane counters well before they can wrap.
    while (i + 8 <= n) {
        __m256i acc = _mm256_setzero_si256();
        std::size_t block = 0;
        for (; block < (1u << 24) && i + 8 <= n; block += 8, i += 8) {
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(v + i));
            acc = _mm256_sub_epi32(acc, _mm256_cmpeq_epi32(x, zero));
        }
        std::uint32_t lanes[8];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
        for (const std::uint32_t c : lanes)
            zeros += c;
    }
    for (; i < n; ++i)
        if (v[i] == 0)
            ++zeros;
    return zeros;
}

void
nonzeroMask32Avx2(const std::uint32_t *v, std::size_t n,
                  std::uint64_t *mask)
{
    const __m256i zero = _mm256_setzero_si256();
    const std::size_t full = n >> 6; // whole 64-lane mask words
    for (std::size_t w = 0; w < full; ++w) {
        const std::uint32_t *p = v + (w << 6);
        std::uint64_t m = 0;
        for (unsigned j = 0; j < 8; ++j) {
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(p + 8 * j));
            const __m256i eq = _mm256_cmpeq_epi32(x, zero);
            const unsigned zmask = static_cast<unsigned>(
                _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
            m |= static_cast<std::uint64_t>(~zmask & 0xffu) << (8 * j);
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

/** Byte sign bits of a 64-byte block held as two vectors. */
inline std::uint64_t
movemask64(__m256i lo, __m256i hi)
{
    return static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(_mm256_movemask_epi8(lo))) |
           static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(_mm256_movemask_epi8(hi)))
               << 32;
}

std::uint8_t
sliceSignMagnitudeAvx2(const std::int8_t *v, std::size_t rows,
                       std::size_t cols, std::size_t planes,
                       std::uint64_t *const *mag, std::uint64_t *sign,
                       std::size_t stride)
{
    const std::size_t words = (cols + 63) / 64;
    __m256i absOr = _mm256_setzero_si256();
    // Each row's partial last block is staged through this zeroed line,
    // so columns at or beyond cols slice to zero bits. Every row copies
    // the same cols % 64 bytes, so the rest of the line stays zero.
    alignas(64) std::int8_t tail[64] = {};
    for (std::size_t r = 0; r < rows; ++r) {
        const std::int8_t *row = v + r * cols;
        for (std::size_t w = 0; w < words; ++w) {
            const std::size_t base = w << 6;
            const std::int8_t *src = row + base;
            if (cols - base < 64) {
                std::memcpy(tail, src, cols - base);
                src = tail;
            }
            const __m256i lo =
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src));
            const __m256i hi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + 32));
            const std::size_t at = r * stride + w;
            sign[at] = movemask64(lo, hi);
            const __m256i alo = _mm256_abs_epi8(lo);
            const __m256i ahi = _mm256_abs_epi8(hi);
            absOr = _mm256_or_si256(absOr, _mm256_or_si256(alo, ahi));
            // A 16-bit left shift by 7 - p lifts bit p of every byte
            // into that byte's top bit, where vpmovmskb reads it.
            for (std::size_t p = 0; p < planes; ++p) {
                const __m128i shift =
                    _mm_cvtsi32_si128(static_cast<int>(7 - p));
                mag[p][at] = movemask64(_mm256_sll_epi16(alo, shift),
                                        _mm256_sll_epi16(ahi, shift));
            }
        }
    }
    alignas(32) std::uint8_t lanes[32] = {};
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), absOr);
    std::uint8_t out = 0;
    for (const std::uint8_t b : lanes)
        out |= b;
    return out;
}

constexpr Kernels kAvx2 = {
    Tier::Avx2,         popcountWordsAvx2, orWordsAvx2,
    andPopcountWordsAvx2, equalWordsAvx2,  countZero32Avx2,
    nonzeroMask32Avx2,  sliceSignMagnitudeAvx2,
};

} // namespace

const Kernels *
avx2Kernels()
{
    return &kAvx2;
}

} // namespace mcbp::simd::detail

#else // !__AVX2__

namespace mcbp::simd::detail {

const Kernels *
avx2Kernels()
{
    return nullptr;
}

} // namespace mcbp::simd::detail

#endif
