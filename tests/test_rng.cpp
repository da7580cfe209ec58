/** @file Unit tests for common/rng: determinism and distribution sanity. */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace mcbp {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntervalRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntBoundsAndCoverage)
{
    Rng rng(9);
    std::vector<int> hits(10, 0);
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.uniformInt(10);
        ASSERT_LT(v, 10u);
        ++hits[v];
    }
    for (int h : hits)
        EXPECT_GT(h, 1500); // ~2000 expected each
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sum2 = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

/** Bit patterns, so -0.0 / 0.0 and NaN payloads compare exactly. */
std::vector<std::uint64_t>
bitsOf(const std::vector<double> &v)
{
    std::vector<std::uint64_t> out;
    for (const double d : v)
        out.push_back(std::bit_cast<std::uint64_t>(d));
    return out;
}

TEST(Rng, GaussianBlockEqualsSuccessiveCalls)
{
    for (const bool spare_in : {false, true}) {
        for (const std::size_t n : {0, 1, 2, 3, 255, 256, 257, 513}) {
            SCOPED_TRACE(::testing::Message()
                         << "n " << n << " spare in " << spare_in);
            Rng block(31), calls(31);
            if (spare_in) { // leave each generator holding a spare
                (void)block.gaussian();
                (void)calls.gaussian();
            }
            std::vector<double> got(n), want(n);
            block.gaussianBlock(got.data(), n);
            for (double &v : want)
                v = calls.gaussian();
            EXPECT_EQ(bitsOf(got), bitsOf(want));
            // The spare left behind and the stream position match too.
            for (int k = 0; k < 3; ++k)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(block.gaussian()),
                          std::bit_cast<std::uint64_t>(calls.gaussian()));
            EXPECT_EQ(block.next(), calls.next());
        }
    }
}

TEST(Rng, GaussianBlockInterleavesDrawsInStreamOrder)
{
    // Uniform draws after each normal land where the per-element loop
    // puts them, across chunk boundaries and an odd spare-out tail.
    for (const std::size_t n : {1, 7, 512, 515, 1031}) {
        SCOPED_TRACE(::testing::Message() << "n " << n);
        Rng block(37), calls(37);
        std::vector<double> got(n), want(n), side_got(n), side_want(n);
        block.gaussianBlock(got.data(), n, [&](std::size_t i) {
            side_got[i] = block.bernoulli(0.3) ? block.uniform() : -1.0;
        });
        for (std::size_t i = 0; i < n; ++i) {
            want[i] = calls.gaussian();
            side_want[i] = calls.bernoulli(0.3) ? calls.uniform() : -1.0;
        }
        EXPECT_EQ(bitsOf(got), bitsOf(want));
        EXPECT_EQ(bitsOf(side_got), bitsOf(side_want));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(block.gaussian()),
                  std::bit_cast<std::uint64_t>(calls.gaussian()));
        EXPECT_EQ(block.next(), calls.next());
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(17);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ZipfSkew)
{
    Rng rng(19);
    std::vector<int> hits(100, 0);
    for (int i = 0; i < 20000; ++i)
        ++hits[rng.zipf(100, 1.2)];
    // Rank 0 must dominate rank 50 under a Zipf law.
    EXPECT_GT(hits[0], hits[50] * 5);
}

TEST(Rng, ZipfBounds)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.zipf(7, 1.0), 7u);
    EXPECT_EQ(rng.zipf(0, 1.0), 0u);
}

TEST(Rng, SplitIndependence)
{
    Rng parent(29);
    Rng child = parent.split();
    // Child stream differs from the parent's continued stream.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 4);
}

} // namespace
} // namespace mcbp
