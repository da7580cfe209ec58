/**
 * @file
 * Golden tests for the dispatched SIMD kernels (common/simd/): every
 * compiled-and-runnable tier must be bit-identical to a local naive
 * reference on every shape — including empty spans, single words,
 * partial tail words and block-boundary sizes — plus the MCBP_SIMD
 * override-resolution rule and forceTier() plane-op identity. The
 * Box-Muller kernel has no naive reference to match bit for bit; its
 * tiers must agree with each other and stay within 4 ulp of libm.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bitslice/bit_plane.hpp"
#include "common/rng.hpp"
#include "common/simd/simd.hpp"
#include "runnable_tiers.hpp"

namespace mcbp::simd {
namespace {

/** Odd shapes: tails, single words, block boundaries of both ISAs. */
const std::size_t kWordSizes[] = {0,  1,  3,   7,   8,   15,  16,  17,
                                  63, 64, 65,  127, 128, 129, 200, 255,
                                  256, 257, 1000};

std::vector<std::uint64_t>
randomWords(Rng &rng, std::size_t n)
{
    std::vector<std::uint64_t> w(n);
    for (auto &v : w)
        v = rng.next();
    return w;
}

TEST(SimdKernels, PopcountOrMatchScalarReference)
{
    Rng rng(101);
    for (const std::size_t n : kWordSizes) {
        const auto words = randomWords(rng, n);
        std::uint64_t ref_pop = 0, ref_or = 0;
        for (const std::uint64_t v : words) {
            ref_pop += static_cast<std::uint64_t>(std::popcount(v));
            ref_or |= v;
        }
        for (const Tier t : runnableTiers()) {
            const Kernels &k = kernelsFor(t);
            EXPECT_EQ(k.popcountWords(words.data(), n), ref_pop)
                << tierName(t) << " n=" << n;
            EXPECT_EQ(k.orWords(words.data(), n), ref_or)
                << tierName(t) << " n=" << n;
        }
    }
}

TEST(SimdKernels, PopcountSpecialPatterns)
{
    for (const std::size_t n : {std::size_t{65}, std::size_t{129}}) {
        const std::vector<std::uint64_t> ones(n, ~std::uint64_t{0});
        const std::vector<std::uint64_t> zeros(n, 0);
        for (const Tier t : runnableTiers()) {
            const Kernels &k = kernelsFor(t);
            EXPECT_EQ(k.popcountWords(ones.data(), n), n * 64);
            EXPECT_EQ(k.popcountWords(zeros.data(), n), 0u);
        }
    }
}

TEST(SimdKernels, AndPopcountMatchesScalarReference)
{
    Rng rng(102);
    for (const std::size_t n : kWordSizes) {
        const auto a = randomWords(rng, n);
        const auto b = randomWords(rng, n);
        std::vector<std::uint64_t> ref_dst(n);
        std::uint64_t ref_count = 0;
        for (std::size_t i = 0; i < n; ++i) {
            ref_dst[i] = a[i] & b[i];
            ref_count +=
                static_cast<std::uint64_t>(std::popcount(ref_dst[i]));
        }
        for (const Tier t : runnableTiers()) {
            const Kernels &k = kernelsFor(t);
            std::vector<std::uint64_t> dst(n, 0xdeadbeefull);
            EXPECT_EQ(k.andPopcountWords(dst.data(), a.data(), b.data(),
                                         n),
                      ref_count)
                << tierName(t) << " n=" << n;
            EXPECT_EQ(dst, ref_dst) << tierName(t) << " n=" << n;
        }
    }
}

TEST(SimdKernels, EqualWordsFindsEveryDifferencePosition)
{
    Rng rng(103);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{7}, std::size_t{16},
          std::size_t{17}, std::size_t{64}, std::size_t{65},
          std::size_t{130}}) {
        const auto a = randomWords(rng, n);
        auto b = a;
        for (const Tier t : runnableTiers()) {
            EXPECT_TRUE(kernelsFor(t).equalWords(a.data(), b.data(), n))
                << tierName(t) << " n=" << n;
        }
        // Flip one bit at a time across the span: every position must
        // be seen by every tier (catches bad tail masking).
        for (std::size_t pos = 0; pos < n;
             pos = pos * 2 + 1) { // 0, 1, 3, 7, ... plus the last word
            b[pos] ^= 1;
            for (const Tier t : runnableTiers())
                EXPECT_FALSE(
                    kernelsFor(t).equalWords(a.data(), b.data(), n))
                    << tierName(t) << " n=" << n << " pos=" << pos;
            b[pos] ^= 1;
        }
        b[n - 1] ^= std::uint64_t{1} << 63;
        for (const Tier t : runnableTiers())
            EXPECT_FALSE(kernelsFor(t).equalWords(a.data(), b.data(), n))
                << tierName(t) << " n=" << n << " last-word MSB";
        b[n - 1] ^= std::uint64_t{1} << 63;
    }
    for (const Tier t : runnableTiers())
        EXPECT_TRUE(kernelsFor(t).equalWords(nullptr, nullptr, 0));
}

TEST(SimdKernels, CountZeroAndNonzeroMaskMatchScalarReference)
{
    Rng rng(104);
    const std::size_t sizes[] = {0,  1,  3,  31, 32,  33,  63,  64,
                                 65, 96, 127, 128, 129, 255, 1000};
    for (const std::size_t n : sizes) {
        std::vector<std::uint32_t> v(n);
        for (auto &x : v) // dense-in-zeros like a sparse plane
            x = rng.uniformInt(100) < 70
                    ? 0u
                    : static_cast<std::uint32_t>(rng.next());
        std::size_t ref_zeros = 0;
        const std::size_t mask_words = (n + 63) / 64;
        std::vector<std::uint64_t> ref_mask(mask_words, 0);
        for (std::size_t i = 0; i < n; ++i) {
            if (v[i] == 0)
                ++ref_zeros;
            else
                ref_mask[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
        for (const Tier t : runnableTiers()) {
            const Kernels &k = kernelsFor(t);
            EXPECT_EQ(k.countZero32(v.data(), n), ref_zeros)
                << tierName(t) << " n=" << n;
            // Pre-poison the mask: the kernel must fully overwrite it,
            // including zeroing the tail bits of a partial last word.
            std::vector<std::uint64_t> mask(mask_words,
                                            ~std::uint64_t{0});
            k.nonzeroMask32(v.data(), n, mask.data());
            EXPECT_EQ(mask, ref_mask) << tierName(t) << " n=" << n;
        }
    }
}

TEST(SimdKernels, SliceSignMagnitudeMatchesScalarReference)
{
    // Widths around the 64-column word and the 32/64-byte vector
    // blocks, INT4 (3 planes) and INT7 magnitudes (7 planes), values in
    // range and across the whole INT8 range (-128 included). The
    // kernel must store every row word whole (tail bits zero) and
    // leave the stride padding past the row's words zero.
    Rng rng(105);
    const std::size_t widths[] = {1, 63, 64, 65, 127, 4097};
    constexpr std::size_t kRows = 3;
    for (const std::size_t planes : {std::size_t{3}, std::size_t{7}}) {
        for (const bool full_range : {false, true}) {
            for (const std::size_t cols : widths) {
                const int level = (1 << planes) - 1;
                std::vector<std::int8_t> v(kRows * cols);
                for (auto &x : v)
                    x = full_range
                            ? static_cast<std::int8_t>(rng.next())
                            : static_cast<std::int8_t>(
                                  static_cast<int>(rng.uniformInt(
                                      2 * level + 1)) -
                                  level);
                const std::size_t words = (cols + 63) / 64;
                const std::size_t stride = (words + 7) / 8 * 8;
                // Reference: one bit at a time.
                std::vector<std::vector<std::uint64_t>> ref_mag(
                    planes, std::vector<std::uint64_t>(kRows * stride, 0));
                std::vector<std::uint64_t> ref_sign(kRows * stride, 0);
                unsigned ref_or = 0;
                for (std::size_t r = 0; r < kRows; ++r)
                    for (std::size_t c = 0; c < cols; ++c) {
                        const int x = v[r * cols + c];
                        const unsigned a =
                            static_cast<unsigned>(x < 0 ? -x : x);
                        ref_or |= a;
                        const std::size_t at = r * stride + (c >> 6);
                        const std::uint64_t bit = std::uint64_t{1}
                                                  << (c & 63);
                        if (x < 0)
                            ref_sign[at] |= bit;
                        for (std::size_t p = 0; p < planes; ++p)
                            if ((a >> p) & 1u)
                                ref_mag[p][at] |= bit;
                    }
                for (const Tier t : runnableTiers()) {
                    SCOPED_TRACE(::testing::Message()
                                 << tierName(t) << " planes=" << planes
                                 << " cols=" << cols
                                 << (full_range ? " full range" : ""));
                    // Poison the row words; padding starts zero.
                    std::vector<std::vector<std::uint64_t>> mag(
                        planes, std::vector<std::uint64_t>(kRows * stride, 0));
                    std::vector<std::uint64_t> sign(kRows * stride, 0);
                    for (std::size_t r = 0; r < kRows; ++r)
                        for (std::size_t w = 0; w < words; ++w) {
                            sign[r * stride + w] = ~std::uint64_t{0};
                            for (auto &plane : mag)
                                plane[r * stride + w] = ~std::uint64_t{0};
                        }
                    std::uint64_t *mag_ptrs[8] = {};
                    for (std::size_t p = 0; p < planes; ++p)
                        mag_ptrs[p] = mag[p].data();
                    const std::uint8_t got_or =
                        kernelsFor(t).sliceSignMagnitude(
                            v.data(), kRows, cols, planes, mag_ptrs,
                            sign.data(), stride);
                    EXPECT_EQ(got_or, ref_or);
                    EXPECT_EQ(sign, ref_sign);
                    for (std::size_t p = 0; p < planes; ++p)
                        EXPECT_EQ(mag[p], ref_mag[p]) << "plane " << p;
                }
            }
        }
    }
}

double
fromBits(std::uint64_t b)
{
    return std::bit_cast<double>(b);
}

/**
 * Box-Muller uniforms: fixed-seed pairs drawn as Rng::gaussian() draws
 * them, after the edges of every select in the kernel — u1 at 2^-53,
 * next to 1, next to the sqrt(2)/2 normalization points and next to
 * fdlibm's 0x6147a / 0x6b851 hfsq selects; u2 next to the quadrant
 * boundaries 0.25, 0.5 and 0.75 and the rounding ties between them.
 */
void
boxMullerInputs(std::size_t random_pairs, std::vector<double> &u1,
                std::vector<double> &u2)
{
    std::vector<double> edge1 = {0x1p-53, 0x1p-52, 0x1.8p-53, 0.5, 0.25,
                                 1.0};
    for (int k = 1; k <= 4; ++k)
        edge1.push_back(1.0 - k * 0x1p-53);
    for (const double r : {std::sqrt(0.5), std::sqrt(0.125),
                           std::sqrt(2.0) / 1024.0}) {
        double v = r;
        for (int k = 0; k < 3; ++k)
            v = std::nextafter(v, 0.0);
        for (int k = 0; k < 7; ++k, v = std::nextafter(v, 1.0))
            edge1.push_back(v);
    }
    Rng low_words(109);
    for (const std::uint64_t hx : {0x6147aull, 0x6b851ull}) {
        for (const std::uint64_t exp : {0x3fe00000ull, 0x3fd00000ull}) {
            for (const std::int64_t dh : {-1, 0, 1}) {
                const std::uint64_t high = exp | (hx + dh);
                edge1.push_back(fromBits(high << 32));
                edge1.push_back(fromBits((high << 32) | 0xffffffffull));
                for (int k = 0; k < 32; ++k)
                    edge1.push_back(
                        fromBits((high << 32) | (low_words.next() >> 32)));
            }
        }
    }
    std::vector<double> edge2 = {0.0, 0x1p-53, 1.0 - 0x1p-53};
    for (const double q : {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}) {
        double v = q;
        for (int k = 0; k < 3; ++k)
            v = std::nextafter(v, 0.0);
        for (int k = 0; k < 7; ++k, v = std::nextafter(v, 1.0))
            edge2.push_back(v);
    }
    u1.clear();
    u2.clear();
    for (const double a : edge1) {
        for (const double b : edge2) {
            u1.push_back(a);
            u2.push_back(b);
        }
    }
    Rng rng(107);
    for (std::size_t i = 0; i < random_pairs; ++i) {
        double a;
        do {
            a = rng.uniform();
        } while (a <= 1e-300);
        u1.push_back(a);
        u2.push_back(rng.uniform());
    }
}

/** Distance in units in the last place between two finite doubles. */
std::uint64_t
ulpDistance(double a, double b)
{
    const auto ordered = [](double v) {
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        return bits >> 63 ? -static_cast<std::int64_t>(bits << 1 >> 1)
                          : static_cast<std::int64_t>(bits);
    };
    const std::int64_t d = ordered(a) - ordered(b);
    return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

TEST(SimdKernels, BoxMullerIdenticalAcrossTiers)
{
    std::vector<double> u1, u2;
    boxMullerInputs(100000, u1, u2);
    const std::size_t n = u1.size();
    std::vector<double> ref_c(n), ref_s(n);
    kernelsFor(Tier::Scalar).boxMuller(u1.data(), u2.data(), n,
                                       ref_c.data(), ref_s.data());
    for (const Tier t : runnableTiers()) {
        std::vector<double> c(n), s(n);
        kernelsFor(t).boxMuller(u1.data(), u2.data(), n, c.data(),
                                s.data());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(c[i]),
                      std::bit_cast<std::uint64_t>(ref_c[i]))
                << tierName(t) << " cos of pair " << i << " (u1 "
                << u1[i] << ", u2 " << u2[i] << ")";
            ASSERT_EQ(std::bit_cast<std::uint64_t>(s[i]),
                      std::bit_cast<std::uint64_t>(ref_s[i]))
                << tierName(t) << " sin of pair " << i << " (u1 "
                << u1[i] << ", u2 " << u2[i] << ")";
        }
        // Tails: every short length writes exactly its n outputs.
        for (const std::size_t m : kWordSizes) {
            if (m > 20)
                continue;
            std::vector<double> tc(m + 1, -7.0), ts(m + 1, -7.0);
            kernelsFor(t).boxMuller(u1.data() + 5, u2.data() + 5, m,
                                    tc.data(), ts.data());
            for (std::size_t i = 0; i < m; ++i) {
                EXPECT_EQ(tc[i], ref_c[5 + i]) << tierName(t) << " m=" << m;
                EXPECT_EQ(ts[i], ref_s[5 + i]) << tierName(t) << " m=" << m;
            }
            EXPECT_EQ(tc[m], -7.0) << tierName(t) << " m=" << m;
            EXPECT_EQ(ts[m], -7.0) << tierName(t) << " m=" << m;
        }
        kernelsFor(t).boxMuller(nullptr, nullptr, 0, nullptr, nullptr);
    }
}

TEST(SimdKernels, BoxMullerWithinFourUlpOfLibm)
{
    std::vector<double> u1, u2;
    boxMullerInputs(1000000, u1, u2);
    const std::size_t n = u1.size();
    std::vector<double> c(n), s(n);
    kernels().boxMuller(u1.data(), u2.data(), n, c.data(), s.data());
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double theta = 6.283185307179586 * u2[i];
        const double mag = std::sqrt(-2.0 * std::log(u1[i]));
        const std::uint64_t dc = ulpDistance(c[i], mag * std::cos(theta));
        const std::uint64_t ds = ulpDistance(s[i], mag * std::sin(theta));
        worst = std::max(worst, std::max(dc, ds));
        ASSERT_LE(dc, 4u) << "cos: u1 " << u1[i] << ", u2 " << u2[i];
        ASSERT_LE(ds, 4u) << "sin: u1 " << u1[i] << ", u2 " << u2[i];
    }
    RecordProperty("worst_ulp", static_cast<int>(worst));
}

/** INT8 values where int8 shortcuts go wrong, then the edges around 0. */
const std::int8_t kEdgeInt8[] = {-128, -127, -1, 0, 1, 127};

/** Every magMask a caller passes: BGPP's planes, top-k's kept bits. */
std::vector<std::uint8_t>
callerMasks()
{
    std::vector<std::uint8_t> masks;
    for (unsigned plane = 0; plane < 7; ++plane)
        masks.push_back(static_cast<std::uint8_t>(1u << plane));
    for (unsigned drop = 0; drop < 8; ++drop)
        masks.push_back(static_cast<std::uint8_t>((0xFFu << drop) & 0xFFu));
    return masks;
}

/** Naive signed-magnitude dot of @p q and @p k, wrapped to int32. */
std::int32_t
naiveSignedMagnitudeDot(const std::int8_t *q, const std::int8_t *k,
                        std::size_t d, std::uint8_t mask)
{
    std::int64_t sum = 0;
    for (std::size_t c = 0; c < d; ++c) {
        const int mag = std::abs(static_cast<int>(k[c])) & mask;
        sum += static_cast<std::int64_t>(q[c]) * (k[c] < 0 ? -mag : mag);
    }
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(sum));
}

TEST(SimdKernels, SignedMagnitudeDotIdenticalAcrossTiers)
{
    // Widths around the 16- and 32-column int16 blocks, rows read out
    // of order (with repeats) from a strided matrix, and inputs drawn
    // from the int8 edges -128, -127, -1, 0, 1, 127 as well as at random.
    Rng rng(109);
    const std::size_t widths[] = {0,  1,  15, 16, 17,  31,
                                  32, 33, 64, 65, 128, 129};
    constexpr std::size_t kRows = 9;
    const std::vector<std::uint8_t> masks = callerMasks();
    for (const std::size_t d : widths) {
        for (const bool edges : {true, false}) {
            const std::size_t stride = d + 3;
            const auto draw = [&] {
                return edges ? kEdgeInt8[rng.uniformInt(6)]
                             : static_cast<std::int8_t>(rng.next());
            };
            std::vector<std::int8_t> q(d), keys(kRows * stride);
            for (auto &v : q)
                v = draw();
            for (auto &v : keys)
                v = draw();
            const std::vector<std::uint32_t> rows = {7, 2, 2, 8, 0, 5, 1};
            for (const std::uint8_t mask : masks) {
                std::vector<std::int32_t> want(rows.size()), all(kRows);
                for (std::size_t i = 0; i < rows.size(); ++i)
                    want[i] = naiveSignedMagnitudeDot(
                        q.data(), keys.data() + rows[i] * stride, d, mask);
                for (std::size_t r = 0; r < kRows; ++r)
                    all[r] = naiveSignedMagnitudeDot(
                        q.data(), keys.data() + r * stride, d, mask);
                for (const Tier t : runnableTiers()) {
                    const Kernels &k = kernelsFor(t);
                    // One slot past the rows checks nothing else is written.
                    std::vector<std::int32_t> got(rows.size() + 1, -7);
                    k.signedMagnitudeDot(q.data(), d, keys.data(), stride,
                                         rows.data(), rows.size(), mask,
                                         got.data());
                    for (std::size_t i = 0; i < rows.size(); ++i)
                        ASSERT_EQ(got[i], want[i])
                            << tierName(t) << " d=" << d << " mask="
                            << int{mask} << " row " << rows[i];
                    EXPECT_EQ(got.back(), -7) << tierName(t);
                    std::vector<std::int32_t> dense(kRows);
                    k.signedMagnitudeDot(q.data(), d, keys.data(), stride,
                                         nullptr, kRows, mask,
                                         dense.data());
                    EXPECT_EQ(dense, all) << tierName(t) << " d=" << d
                                          << " mask=" << int{mask};
                }
            }
        }
    }
    // The largest products (-128 * -128) in every lane, and a row long
    // enough that its sum wraps past the int32 range.
    for (const std::size_t d : {std::size_t{129}, std::size_t{140001}}) {
        const std::vector<std::int8_t> q(d, -128), key(d, -128);
        const std::int32_t want =
            naiveSignedMagnitudeDot(q.data(), key.data(), d, 0xFF);
        for (const Tier t : runnableTiers()) {
            std::int32_t got = 0;
            kernelsFor(t).signedMagnitudeDot(q.data(), d, key.data(), d,
                                             nullptr, 1, 0xFF, &got);
            EXPECT_EQ(got, want) << tierName(t) << " d=" << d;
        }
    }
    for (const Tier t : runnableTiers())
        kernelsFor(t).signedMagnitudeDot(nullptr, 0, nullptr, 0, nullptr, 0,
                                         0xFF, nullptr);
}

TEST(SimdKernels, QuantizeSymmetricIdenticalAcrossTiers)
{
    // Every half-integer quotient +-(n + 0.5) and its float neighbours,
    // quotients at and past the +-127.5 clamp, zeros of both signs, and
    // random values; a power-of-two scale makes the halves exact, an
    // arbitrary one exercises the IEEE division itself.
    Rng rng(113);
    for (const double scale : {0.0078125, 0.01234567, 3.0}) {
        std::vector<float> x = {0.0f, -0.0f};
        for (int n = 0; n <= 127; ++n) {
            for (const int sign : {1, -1}) {
                const float half =
                    static_cast<float>(sign * (n + 0.5) * scale);
                x.push_back(half);
                x.push_back(std::nextafter(half, 0.0f));
                x.push_back(std::nextafter(half, 2.0f * half));
            }
        }
        for (const double q : {127.5, 128.0, 200.0, 1e30})
            for (const int sign : {1, -1})
                x.push_back(static_cast<float>(sign * q * scale));
        for (int i = 0; i < 1000; ++i)
            x.push_back(static_cast<float>(rng.gaussian(0.0, 60.0 * scale)));
        std::vector<std::int8_t> want(x.size());
        float want_max = 0.0f;
        for (std::size_t i = 0; i < x.size(); ++i) {
            // Bounded first, so lround never sees a quotient past long.
            const long r = std::lround(std::clamp(
                static_cast<double>(x[i]) / scale, -1000.0, 1000.0));
            want[i] = static_cast<std::int8_t>(std::clamp(r, -127L, 127L));
            want_max = std::max(want_max, std::fabs(x[i]));
        }
        for (const Tier t : runnableTiers()) {
            const Kernels &k = kernelsFor(t);
            std::vector<std::int8_t> got(x.size());
            k.quantizeSymmetric(x.data(), x.size(), scale, got.data());
            for (std::size_t i = 0; i < x.size(); ++i)
                ASSERT_EQ(got[i], want[i])
                    << tierName(t) << " x=" << x[i] << " scale=" << scale;
            EXPECT_EQ(k.absMax(x.data(), x.size()), want_max) << tierName(t);
            // Short spans and tails: exactly n outputs, each one right.
            for (const std::size_t n : kWordSizes) {
                if (n + 3 > x.size())
                    continue;
                std::vector<std::int8_t> tail(n + 1, -7);
                k.quantizeSymmetric(x.data() + 3, n, scale, tail.data());
                float tail_max = 0.0f;
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(tail[i], want[3 + i])
                        << tierName(t) << " n=" << n;
                    tail_max = std::max(tail_max, std::fabs(x[3 + i]));
                }
                EXPECT_EQ(tail[n], -7) << tierName(t) << " n=" << n;
                EXPECT_EQ(k.absMax(x.data() + 3, n), tail_max)
                    << tierName(t) << " n=" << n;
            }
            k.quantizeSymmetric(nullptr, 0, scale, nullptr);
            EXPECT_EQ(k.absMax(nullptr, 0), 0.0f) << tierName(t);
        }
    }
    // The largest magnitude negative, in every lane of a block and tail.
    for (const Tier t : runnableTiers()) {
        for (const std::size_t n : kWordSizes) {
            for (std::size_t at = 0; at < n; at += 1 + at / 4) {
                std::vector<float> x(n);
                for (auto &v : x)
                    v = static_cast<float>(rng.uniform(-1.0, 1.0));
                x[at] = -2.5f;
                EXPECT_EQ(kernelsFor(t).absMax(x.data(), n), 2.5f)
                    << tierName(t) << " n=" << n << " at " << at;
            }
        }
    }
}

TEST(SimdDispatch, TierTablesReportTheirTier)
{
    for (const Tier t : runnableTiers())
        EXPECT_EQ(kernelsFor(t).tier, t);
    // Requests above the host's best clamp instead of faulting.
    EXPECT_EQ(kernelsFor(Tier::Avx512).tier <= availableTier(), true);
    EXPECT_LE(activeTier(), availableTier());
    EXPECT_EQ(kernels().popcountWords != nullptr, true);
}

TEST(SimdDispatch, ResolveTierClampsDownOnly)
{
    // Valid overrides clamp down, never up.
    EXPECT_EQ(resolveTier("scalar", Tier::Avx512), Tier::Scalar);
    EXPECT_EQ(resolveTier("avx2", Tier::Avx512), Tier::Avx2);
    EXPECT_EQ(resolveTier("avx512", Tier::Avx512), Tier::Avx512);
    EXPECT_EQ(resolveTier("avx512", Tier::Avx2), Tier::Avx2);
    EXPECT_EQ(resolveTier("avx512", Tier::Scalar), Tier::Scalar);
    EXPECT_EQ(resolveTier("avx2", Tier::Scalar), Tier::Scalar);
    // No/unknown override: the available tier wins.
    EXPECT_EQ(resolveTier(nullptr, Tier::Avx2), Tier::Avx2);
    EXPECT_EQ(resolveTier("", Tier::Avx2), Tier::Avx2);
    EXPECT_EQ(resolveTier("AVX2", Tier::Avx512), Tier::Avx512);
    EXPECT_EQ(resolveTier("neon", Tier::Avx2), Tier::Avx2);
}

TEST(SimdDispatch, ForceTierSwapsAndResets)
{
    const Tier installed = forceTier(Tier::Scalar);
    EXPECT_EQ(installed, Tier::Scalar);
    EXPECT_EQ(kernels().tier, Tier::Scalar);
    const Tier best = forceTier(Tier::Avx512); // clamped to available
    EXPECT_EQ(best, availableTier());
    EXPECT_EQ(kernels().tier, availableTier());
    resetTier();
    EXPECT_EQ(kernels().tier, activeTier());
}

/** Whole-plane ops must agree bit-for-bit across dispatch tiers. */
TEST(SimdPlaneOps, PlaneScansIdenticalAcrossTiers)
{
    struct Shape
    {
        std::size_t rows, cols;
    };
    // Odd shapes: empty, 1-column, partial tail word, multi-word rows.
    const Shape shapes[] = {{0, 0},   {4, 0},   {0, 5},  {1, 1},
                            {3, 1},   {5, 63},  {4, 64}, {7, 65},
                            {16, 100}, {8, 1000}};
    Rng rng(105);
    for (const Shape &sh : shapes) {
        bitslice::BitPlane plane(sh.rows, sh.cols);
        for (std::size_t r = 0; r < sh.rows; ++r)
            for (std::size_t c = 0; c < sh.cols; ++c)
                if (rng.uniformInt(100) < 30)
                    plane.set(r, c, true);
        bitslice::BitPlane all_ones(sh.rows, sh.cols);
        for (std::size_t r = 0; r < sh.rows; ++r)
            for (std::size_t c = 0; c < sh.cols; ++c)
                all_ones.set(r, c, true);

        std::uint64_t ref_count = 0;
        bool first = true;
        for (const Tier t : runnableTiers()) {
            forceTier(t);
            const std::uint64_t count = plane.countOnes();
            EXPECT_EQ(all_ones.countOnes(), sh.rows * sh.cols)
                << tierName(t);
            EXPECT_TRUE(plane == plane) << tierName(t);
            EXPECT_TRUE(all_ones == all_ones) << tierName(t);
            if (sh.rows > 0) {
                std::uint64_t row_sum = 0;
                for (std::size_t r = 0; r < sh.rows; ++r)
                    row_sum += plane.countOnesInRow(r);
                EXPECT_EQ(row_sum, count) << tierName(t);
            }
            if (first) {
                ref_count = count;
                first = false;
            } else {
                EXPECT_EQ(count, ref_count) << tierName(t);
            }
        }
        resetTier();
    }
}

} // namespace
} // namespace mcbp::simd
