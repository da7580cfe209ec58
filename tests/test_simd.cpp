/**
 * @file
 * Golden tests for the dispatched SIMD kernels (common/simd/): every
 * compiled-and-runnable tier must be bit-identical to a local naive
 * reference on every shape — including empty spans, single words,
 * partial tail words and block-boundary sizes — plus the MCBP_SIMD
 * override-resolution rule and forceTier() plane-op identity.
 */
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "bitslice/bit_plane.hpp"
#include "common/rng.hpp"
#include "common/simd/simd.hpp"

namespace mcbp::simd {
namespace {

/** Every tier the host can actually execute. */
std::vector<Tier>
runnableTiers()
{
    std::vector<Tier> tiers = {Tier::Scalar};
    if (availableTier() >= Tier::Avx2)
        tiers.push_back(Tier::Avx2);
    if (availableTier() >= Tier::Avx512)
        tiers.push_back(Tier::Avx512);
    return tiers;
}

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
