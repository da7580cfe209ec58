/** @file Unit tests for bitslice/sign_magnitude. */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bitslice/sign_magnitude.hpp"
#include "common/rng.hpp"
#include "quant/gemm.hpp"

namespace mcbp::bitslice {
namespace {

Int8Matrix
randomInt8(std::uint64_t seed, std::size_t r, std::size_t c, int limit)
{
    Rng rng(seed);
    Int8Matrix m(r, c);
    m.fill([&](std::size_t, std::size_t) {
        return static_cast<std::int8_t>(
            static_cast<std::int64_t>(rng.uniformInt(2 * limit + 1)) -
            limit);
    });
    return m;
}

TEST(SignMagnitude, PlaneCount)
{
    Int8Matrix w(2, 2);
    EXPECT_EQ(decompose(w, quant::BitWidth::Int8).planeCount(), 7u);
    EXPECT_EQ(decompose(w, quant::BitWidth::Int4).planeCount(), 3u);
}

TEST(SignMagnitude, ExhaustiveInt8RoundTrip)
{
    // Every representable INT8 SM value round-trips exactly.
    Int8Matrix w(1, 255);
    for (int v = -127; v <= 127; ++v)
        w.at(0, static_cast<std::size_t>(v + 127)) =
            static_cast<std::int8_t>(v);
    SignMagnitude sm = decompose(w, quant::BitWidth::Int8);
    EXPECT_EQ(reconstruct(sm), w);
}

TEST(SignMagnitude, ExhaustiveInt4RoundTrip)
{
    Int8Matrix w(1, 15);
    for (int v = -7; v <= 7; ++v)
        w.at(0, static_cast<std::size_t>(v + 7)) =
            static_cast<std::int8_t>(v);
    SignMagnitude sm = decompose(w, quant::BitWidth::Int4);
    EXPECT_EQ(reconstruct(sm), w);
}

TEST(SignMagnitude, RandomRoundTrip)
{
    Int8Matrix w = randomInt8(1, 33, 129, 127);
    SignMagnitude sm = decompose(w, quant::BitWidth::Int8);
    EXPECT_EQ(reconstruct(sm), w);
}

TEST(SignMagnitude, OutOfRangeInt4Fatal)
{
    Int8Matrix w(1, 1);
    w.at(0, 0) = 9;
    EXPECT_THROW(decompose(w, quant::BitWidth::Int4), std::runtime_error);
}

TEST(SignMagnitude, OutsideSymmetricRangeFatal)
{
    // The quantizer is symmetric (+-maxLevel), so INT8 -128 and INT4
    // +-8 never come from it; decompose() still refuses them.
    const struct
    {
        std::int8_t value;
        quant::BitWidth bw;
    } cases[] = {{-128, quant::BitWidth::Int8},
                 {8, quant::BitWidth::Int4},
                 {-8, quant::BitWidth::Int4}};
    for (const auto &c : cases) {
        // In the middle of a multi-word row, not just at element 0.
        Int8Matrix w(3, 130);
        w.at(1, 97) = c.value;
        try {
            (void)decompose(w, c.bw);
            ADD_FAILURE() << int{c.value} << " decomposed";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "value out of range for the requested bit width"),
                      std::string::npos)
                << e.what();
        }
    }
    Int8Matrix edge(1, 2);
    edge.at(0, 0) = -127;
    edge.at(0, 1) = 127;
    EXPECT_EQ(reconstruct(decompose(edge, quant::BitWidth::Int8)), edge);
}

/** The per-element decomposition: one BitPlane::set() per set bit. */
SignMagnitude
decomposeReference(const Int8Matrix &w, quant::BitWidth bw)
{
    const std::size_t planes =
        static_cast<std::size_t>(quant::magnitudeBits(bw));
    SignMagnitude sm;
    sm.rows = w.rows();
    sm.cols = w.cols();
    sm.sign = BitPlane(w.rows(), w.cols());
    sm.magnitude.assign(planes, BitPlane(w.rows(), w.cols()));
    for (std::size_t r = 0; r < w.rows(); ++r)
        for (std::size_t c = 0; c < w.cols(); ++c) {
            const int v = w.at(r, c);
            const unsigned mag = static_cast<unsigned>(v < 0 ? -v : v);
            sm.sign.set(r, c, v < 0);
            for (std::size_t p = 0; p < planes; ++p)
                sm.magnitude[p].set(r, c, (mag >> p) & 1u);
        }
    return sm;
}

/** The value-level sign split decomposeSignSplit() used to build. */
SignSplit
signSplitReference(const Int8Matrix &w, quant::BitWidth bw)
{
    Int8Matrix pos(w.rows(), w.cols());
    Int8Matrix neg(w.rows(), w.cols());
    for (std::size_t r = 0; r < w.rows(); ++r)
        for (std::size_t c = 0; c < w.cols(); ++c) {
            const int v = w.at(r, c);
            pos.at(r, c) = static_cast<std::int8_t>(v > 0 ? v : 0);
            neg.at(r, c) = static_cast<std::int8_t>(v < 0 ? -v : 0);
        }
    return {decomposeReference(pos, bw), decomposeReference(neg, bw)};
}

void
expectSameDecomposition(const SignMagnitude &a, const SignMagnitude &b)
{
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    // BitPlane equality compares whole buffers, stride padding included.
    EXPECT_TRUE(a.sign == b.sign);
    ASSERT_EQ(a.planeCount(), b.planeCount());
    for (std::size_t p = 0; p < a.planeCount(); ++p)
        EXPECT_TRUE(a.magnitude[p] == b.magnitude[p]) << "plane " << p;
}

TEST(SignMagnitude, WordParallelMatchesPerElementReference)
{
    for (const quant::BitWidth bw :
         {quant::BitWidth::Int8, quant::BitWidth::Int4}) {
        const int level = quant::maxLevel(bw);
        for (const std::size_t cols : {1u, 63u, 64u, 65u, 127u, 4097u}) {
            SCOPED_TRACE(::testing::Message()
                         << "level " << level << " cols " << cols);
            const Int8Matrix w = randomInt8(cols, 5, cols, level);
            const SignMagnitude sm = decompose(w, bw);
            expectSameDecomposition(sm, decomposeReference(w, bw));

            const SignSplit split = splitSigns(sm);
            const SignSplit ref = signSplitReference(w, bw);
            expectSameDecomposition(split.positive, ref.positive);
            expectSameDecomposition(split.negative, ref.negative);
            const SignSplit wrapped = decomposeSignSplit(w, bw);
            expectSameDecomposition(wrapped.positive, ref.positive);
            expectSameDecomposition(wrapped.negative, ref.negative);
        }
    }
}

TEST(SignMagnitude, SignPlaneOnlyForNegatives)
{
    Int8Matrix w(1, 3);
    w.at(0, 0) = 5;
    w.at(0, 1) = -5;
    w.at(0, 2) = 0;
    SignMagnitude sm = decompose(w, quant::BitWidth::Int8);
    EXPECT_FALSE(sm.sign.get(0, 0));
    EXPECT_TRUE(sm.sign.get(0, 1));
    EXPECT_FALSE(sm.sign.get(0, 2));
}

TEST(SignMagnitude, PlaneBitsMatchMagnitude)
{
    Int8Matrix w(1, 1);
    w.at(0, 0) = -0b0101101; // magnitude 45
    SignMagnitude sm = decompose(w, quant::BitWidth::Int8);
    EXPECT_TRUE(sm.magnitude[0].get(0, 0));  // bit 0
    EXPECT_FALSE(sm.magnitude[1].get(0, 0)); // bit 1
    EXPECT_TRUE(sm.magnitude[2].get(0, 0));  // bit 2
    EXPECT_TRUE(sm.magnitude[3].get(0, 0));  // bit 3
    EXPECT_FALSE(sm.magnitude[4].get(0, 0));
    EXPECT_TRUE(sm.magnitude[5].get(0, 0));
    EXPECT_FALSE(sm.magnitude[6].get(0, 0));
}

TEST(SignMagnitude, BitSerialGemvMatchesReference)
{
    // The shift-and-accumulate compute equivalence of section 2.3.
    for (std::uint64_t seed : {2u, 3u, 4u}) {
        Int8Matrix w = randomInt8(seed, 24, 96, 127);
        Rng rng(seed + 100);
        std::vector<std::int8_t> x(96);
        for (auto &v : x)
            v = static_cast<std::int8_t>(
                static_cast<std::int64_t>(rng.uniformInt(255)) - 127);
        SignMagnitude sm = decompose(w, quant::BitWidth::Int8);
        EXPECT_EQ(bitSerialGemv(sm, x), quant::gemvInt(w, x));
    }
}

TEST(SignMagnitude, SignSplitDisjointSupport)
{
    Int8Matrix w = randomInt8(5, 16, 64, 127);
    SignSplit split = decomposeSignSplit(w, quant::BitWidth::Int8);
    Int8Matrix pos = reconstruct(split.positive);
    Int8Matrix neg = reconstruct(split.negative);
    for (std::size_t r = 0; r < w.rows(); ++r) {
        for (std::size_t c = 0; c < w.cols(); ++c) {
            // w = pos - neg, with disjoint support.
            EXPECT_EQ(w.at(r, c), pos.at(r, c) - neg.at(r, c));
            EXPECT_TRUE(pos.at(r, c) == 0 || neg.at(r, c) == 0);
            EXPECT_GE(pos.at(r, c), 0);
            EXPECT_GE(neg.at(r, c), 0);
        }
    }
    // Sign planes of the halves are empty (all magnitudes non-negative).
    EXPECT_EQ(split.positive.sign.countOnes(), 0u);
    EXPECT_EQ(split.negative.sign.countOnes(), 0u);
}

TEST(SignMagnitude, TotalBitsConserved)
{
    // Sign-split does not change the total number of magnitude one-bits.
    Int8Matrix w = randomInt8(6, 20, 80, 127);
    SignMagnitude sm = decompose(w, quant::BitWidth::Int8);
    SignSplit split = decomposeSignSplit(w, quant::BitWidth::Int8);
    std::uint64_t whole = 0, halves = 0;
    for (std::size_t p = 0; p < 7; ++p) {
        whole += sm.magnitude[p].countOnes();
        halves += split.positive.magnitude[p].countOnes() +
                  split.negative.magnitude[p].countOnes();
    }
    EXPECT_EQ(whole, halves);
}

} // namespace
} // namespace mcbp::bitslice
