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
// g++ 12's avx512fintrin.h builds its "undefined" vectors with a
// deliberate self-initialization (`__m512i __Y = __Y;`), which
// -Wuninitialized reports at every inlined use; the warnings point
// into that header, not at this file, so they are silenced for it alone.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "common/simd/box_muller.hpp"

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

inline __m512i
splat64(std::uint64_t v)
{
    return _mm512_set1_epi64(static_cast<long long>(v));
}

/** boxMullerLanes()'s bit-level steps for eight doubles. */
struct Avx512Lanes
{
    static __mmask8
    splitLog(__m512d x, __m512d &xn, __m512d &dk)
    {
        const __m512i bits = _mm512_castpd_si512(x);
        const __m512i high = _mm512_srli_epi64(bits, 32);
        const __m512i hx = _mm512_and_si512(high, splat64(0xfffff));
        const __m512i half = _mm512_and_si512(
            _mm512_add_epi64(hx, splat64(0x95f64)), splat64(0x100000));
        const __m512i newHigh =
            _mm512_or_si512(hx, _mm512_xor_si512(half, splat64(0x3ff00000)));
        xn = _mm512_castsi512_pd(
            _mm512_or_si512(_mm512_slli_epi64(newHigh, 32),
                            _mm512_and_si512(bits, splat64(0xffffffff))));
        // As in AVX2: a 64-bit integer convert would need AVX512DQ.
        const __m512i biased = _mm512_add_epi64(
            _mm512_srli_epi64(high, 20), _mm512_srli_epi64(half, 20));
        dk = _mm512_castsi512_pd(_mm512_or_si512(
                 biased, _mm512_castpd_si512(_mm512_set1_pd(0x1p52)))) -
             (0x1p52 + 1023.0);
        return _mm512_cmpge_epu64_mask(hx, splat64(bm::kLogHfsqLo)) &
               _mm512_cmple_epu64_mask(hx, splat64(bm::kLogHfsqHi));
    }

    static __m512d
    select(__mmask8 mask, __m512d a, __m512d b)
    {
        return _mm512_mask_blend_pd(mask, b, a);
    }

    static __m512d
    sqrt(__m512d v)
    {
        return _mm512_sqrt_pd(v);
    }

    static void
    quadrant(__m512d rounded, __m512d ks, __m512d kc, __m512d &sinR,
             __m512d &cosR)
    {
        const __m512i n = _mm512_castpd_si512(rounded);
        const __mmask8 odd = _mm512_test_epi64_mask(n, splat64(1));
        const __m512i sinSign =
            _mm512_slli_epi64(_mm512_and_si512(n, splat64(2)), 62);
        const __m512i cosSign = _mm512_slli_epi64(
            _mm512_and_si512(_mm512_add_epi64(n, splat64(1)), splat64(2)),
            62);
        // vxorpd is AVX512DQ; the integer xor keeps the tier at F + BW.
        sinR = _mm512_castsi512_pd(_mm512_xor_si512(
            _mm512_castpd_si512(_mm512_mask_blend_pd(odd, ks, kc)),
            sinSign));
        cosR = _mm512_castsi512_pd(_mm512_xor_si512(
            _mm512_castpd_si512(_mm512_mask_blend_pd(odd, kc, ks)),
            cosSign));
    }
};

void
boxMullerAvx512(const double *u1, const double *u2, std::size_t n,
                double *cosOut, double *sinOut)
{
    std::size_t i = 0;
    __m512d c, s;
    for (; i + 8 <= n; i += 8) {
        boxMullerLanes<Avx512Lanes>(_mm512_loadu_pd(u1 + i),
                                    _mm512_loadu_pd(u2 + i), c, s);
        _mm512_storeu_pd(cosOut + i, c);
        _mm512_storeu_pd(sinOut + i, s);
    }
    if (i < n) {
        // Masked loads fill the unused lanes with u1 = 1, u2 = 0, which
        // keeps them finite; masked stores drop them.
        const __mmask8 live = static_cast<__mmask8>((1u << (n - i)) - 1);
        boxMullerLanes<Avx512Lanes>(
            _mm512_mask_loadu_pd(_mm512_set1_pd(1.0), live, u1 + i),
            _mm512_maskz_loadu_pd(live, u2 + i), c, s);
        _mm512_mask_storeu_pd(cosOut + i, live, c);
        _mm512_mask_storeu_pd(sinOut + i, live, s);
    }
}

/** Sign-extend 32 INT8 values to int16 lanes; @p live masks the load. */
inline __m512i
widen32(const std::int8_t *p, __mmask64 live)
{
    return _mm512_cvtepi8_epi16(
        _mm512_castsi512_si256(_mm512_maskz_loadu_epi8(live, p)));
}

/** One 32-column step of signedMagnitudeDot into @p acc. */
inline __m512i
dotStep(__m512i acc, __m512i qw, __m512i kw, __m512i mask)
{
    // In int16 lanes |-128| is 128 and a negated magnitude cannot
    // wrap; vpmaddwd's pair sums (at most 2^15) cannot saturate.
    const __m512i mag = _mm512_and_si512(_mm512_abs_epi16(kw), mask);
    const __m512i signedMag = _mm512_mask_sub_epi16(
        mag, _mm512_movepi16_mask(kw), _mm512_setzero_si512(), mag);
    return _mm512_add_epi32(acc, _mm512_madd_epi16(qw, signedMag));
}

void
signedMagnitudeDotAvx512(const std::int8_t *q, std::size_t d,
                         const std::int8_t *keys, std::size_t stride,
                         const std::uint32_t *rows, std::size_t n,
                         std::uint8_t magMask, std::int32_t *out)
{
    const __m512i mask = _mm512_set1_epi16(magMask);
    const std::size_t full = d & ~std::size_t{31};
    const __mmask64 all = 0xffffffffu;
    // A masked load zeroes the columns at or beyond d.
    const __mmask64 tail = (__mmask64{1} << (d - full)) - 1;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int8_t *k = keys + (rows ? rows[i] : i) * stride;
        __m512i acc = _mm512_setzero_si512();
        for (std::size_t c = 0; c < full; c += 32)
            acc = dotStep(acc, widen32(q + c, all), widen32(k + c, all),
                          mask);
        if (full < d)
            acc = dotStep(acc, widen32(q + full, tail),
                          widen32(k + full, tail), mask);
        // Integer adds wrap, as the scalar tier's unsigned sum does.
        const __m256i half = _mm256_add_epi32(
            _mm512_castsi512_si256(acc), _mm512_extracti64x4_epi64(acc, 1));
        __m128i s = _mm_add_epi32(_mm256_castsi256_si128(half),
                                  _mm256_extracti128_si256(half, 1));
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
        out[i] = _mm_cvtsi128_si32(s);
    }
}

float
absMaxAvx512(const float *x, std::size_t n)
{
    __m512 m = _mm512_setzero_ps();
    for (std::size_t i = 0; i < n; i += 16) {
        // Masked-off lanes load as zero, which never raises the max.
        const __mmask16 live =
            n - i >= 16 ? __mmask16{0xffff}
                        : static_cast<__mmask16>((1u << (n - i)) - 1);
        m = _mm512_max_ps(m, _mm512_abs_ps(_mm512_maskz_loadu_ps(live, x + i)));
    }
    return _mm512_reduce_max_ps(m);
}

/** quantizeSymmetricOne() on eight floats, as eight int32 lanes. */
inline __m256i
quantize8(__m256 x, __m512d scale)
{
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512d v = _mm512_min_pd(
        _mm512_max_pd(_mm512_div_pd(_mm512_cvtps_pd(x), scale),
                      _mm512_set1_pd(-127.0)),
        _mm512_set1_pd(127.0));
    const __m512d t =
        _mm512_roundscale_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m512d frac = _mm512_sub_pd(v, t);
    __m512d r = _mm512_mask_add_pd(
        t, _mm512_cmp_pd_mask(frac, _mm512_set1_pd(0.5), _CMP_GE_OQ), t,
        one);
    r = _mm512_mask_sub_pd(
        r, _mm512_cmp_pd_mask(frac, _mm512_set1_pd(-0.5), _CMP_LE_OQ), r,
        one);
    return _mm512_cvttpd_epi32(r);
}

void
quantizeSymmetricAvx512(const float *x, std::size_t n, double scale,
                        std::int8_t *out)
{
    const __m512d s = _mm512_set1_pd(scale);
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 live =
            n - i >= 16 ? __mmask16{0xffff}
                        : static_cast<__mmask16>((1u << (n - i)) - 1);
        const __m512 v = _mm512_maskz_loadu_ps(live, x + i);
        // vextractf32x8 is AVX512DQ; the 64-bit extract keeps F + BW.
        const __m512i q = _mm512_inserti64x4(
            _mm512_castsi256_si512(quantize8(_mm512_castps512_ps256(v), s)),
            quantize8(_mm256_castpd_ps(
                          _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)),
                      s),
            1);
        // The lanes already sit in [-127, 127], so the saturating
        // narrow only narrows; the masked store drops the dead lanes.
        _mm512_mask_cvtsepi32_storeu_epi8(out + i, live, q);
    }
}

constexpr Kernels kAvx512 = {
    Tier::Avx512,         popcountWordsAvx512, orWordsAvx512,
    andPopcountWordsAvx512, equalWordsAvx512,  countZero32Avx512,
    nonzeroMask32Avx512,  sliceSignMagnitudeAvx512, boxMullerAvx512,
    signedMagnitudeDotAvx512, absMaxAvx512, quantizeSymmetricAvx512,
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
