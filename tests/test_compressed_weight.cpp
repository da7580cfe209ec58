/** @file Unit + property tests for bstc/compressed_weight. */
#include <gtest/gtest.h>

#include <tuple>

#include "bitslice/sparsity.hpp"
#include "bstc/compressed_weight.hpp"
#include "common/rng.hpp"
#include "model/synthetic.hpp"

namespace mcbp::bstc {
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

// Round-trip property sweep: bit width x group size x shape.
class CompressedWeightRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<quant::BitWidth, std::size_t, std::size_t,
                     std::size_t, std::size_t>>
{
};

TEST_P(CompressedWeightRoundTrip, Lossless)
{
    const auto [bw, m, rows, cols, seg] = GetParam();
    const int limit = quant::maxLevel(bw);
    Int8Matrix w = randomInt8(rows * 131 + cols, rows, cols, limit);
    PlanePolicy policy = paperDefaultPolicy(
        static_cast<std::size_t>(quant::magnitudeBits(bw)));
    CompressedWeight cw(w, bw, m, policy, seg);
    EXPECT_EQ(cw.decompressToMatrix(), w);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressedWeightRoundTrip,
    ::testing::Values(
        std::make_tuple(quant::BitWidth::Int8, 4u, 16u, 256u, 64u),
        std::make_tuple(quant::BitWidth::Int8, 4u, 17u, 250u, 64u),
        std::make_tuple(quant::BitWidth::Int8, 2u, 8u, 100u, 32u),
        std::make_tuple(quant::BitWidth::Int8, 8u, 32u, 128u, 128u),
        std::make_tuple(quant::BitWidth::Int8, 4u, 4u, 1500u, 1024u),
        std::make_tuple(quant::BitWidth::Int4, 4u, 16u, 256u, 64u),
        std::make_tuple(quant::BitWidth::Int4, 3u, 9u, 65u, 16u)));

TEST(CompressedWeight, AdaptivePolicyRoundTrip)
{
    Rng rng(2);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 32, 512, quant::BitWidth::Int8, profile);
    bitslice::SparsityReport rep =
        bitslice::analyzeSparsity(qw.values, quant::BitWidth::Int8);
    PlanePolicy policy = adaptivePolicy(rep);
    CompressedWeight cw(qw.values, quant::BitWidth::Int8, 4, policy, 128);
    EXPECT_EQ(cw.decompressToMatrix(), qw.values);
}

TEST(CompressedWeight, CompressesGaussianWeights)
{
    Rng rng(3);
    model::WeightProfile profile;
    profile.dynamicRange = 16.0;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 64, 2048, quant::BitWidth::Int8, profile);
    PlanePolicy policy = paperDefaultPolicy(7);
    CompressedWeight cw(qw.values, quant::BitWidth::Int8, 4, policy);
    EXPECT_GT(cw.compressionRatio(), 1.05);
    EXPECT_LT(cw.storedBits(), cw.originalBits());
}

TEST(CompressedWeight, DenseWeightsBarelyCompress)
{
    // Uniform random values in full range: little bit sparsity.
    Int8Matrix w = randomInt8(4, 64, 512, 127);
    PlanePolicy policy = paperDefaultPolicy(7);
    CompressedWeight cw(w, quant::BitWidth::Int8, 4, policy);
    EXPECT_LT(cw.compressionRatio(), 1.2);
}

TEST(CompressedWeight, DecodeSegmentMatchesFull)
{
    Rng rng(5);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 16, 300, quant::BitWidth::Int8, profile);
    PlanePolicy policy = paperDefaultPolicy(7);
    CompressedWeight cw(qw.values, quant::BitWidth::Int8, 4, policy, 128);
    bitslice::SignMagnitude sm =
        bitslice::decompose(qw.values, quant::BitWidth::Int8);
    for (std::size_t p = 0; p < 7; ++p) {
        for (std::size_t g = 0; g < cw.rowGroups(); ++g) {
            for (std::size_t s = 0; s < cw.segmentsPerRowGroup(); ++s) {
                auto pats = cw.decodeSegment(p, g, s);
                const std::size_t c0 = s * 128;
                for (std::size_t i = 0; i < pats.size(); ++i) {
                    EXPECT_EQ(pats[i], sm.magnitude[p].columnPattern(
                                           g * 4, 4, c0 + i))
                        << "plane " << p << " group " << g << " seg "
                        << s << " col " << i;
                }
            }
        }
    }
}

TEST(CompressedWeight, DirectoryBitsAccounted)
{
    Int8Matrix w = randomInt8(6, 16, 256, 127);
    PlanePolicy policy = paperDefaultPolicy(7);
    CompressedWeight cw(w, quant::BitWidth::Int8, 4, policy, 64);
    // 5 encoded planes x 4 row groups x 4 segments x 16 bits.
    EXPECT_EQ(cw.directoryBits(), 5u * 4u * 4u * 16u);
}

TEST(CompressedWeight, PlaneEncodedFlags)
{
    Int8Matrix w = randomInt8(7, 8, 64, 127);
    PlanePolicy policy = paperDefaultPolicy(7);
    CompressedWeight cw(w, quant::BitWidth::Int8, 4, policy);
    EXPECT_FALSE(cw.planeEncoded(0));
    EXPECT_FALSE(cw.planeEncoded(1));
    for (std::size_t p = 2; p < 7; ++p)
        EXPECT_TRUE(cw.planeEncoded(p));
}

TEST(CompressedWeight, InvalidArgumentsFatal)
{
    Int8Matrix w(4, 4);
    PlanePolicy policy = paperDefaultPolicy(7);
    EXPECT_THROW(
        CompressedWeight(w, quant::BitWidth::Int8, 0, policy),
        std::runtime_error);
    EXPECT_THROW(
        CompressedWeight(w, quant::BitWidth::Int8, 4, policy, 0),
        std::runtime_error);
    PlanePolicy bad;
    bad.compress = {true}; // arity mismatch with 7 planes
    EXPECT_THROW(CompressedWeight(w, quant::BitWidth::Int8, 4, bad),
                 std::runtime_error);
}

TEST(CompressedWeight, SegmentCoordsChecked)
{
    Int8Matrix w(8, 64);
    PlanePolicy policy = paperDefaultPolicy(7);
    CompressedWeight cw(w, quant::BitWidth::Int8, 4, policy, 32);
    EXPECT_THROW(cw.decodeSegment(7, 0, 0), std::runtime_error);
    EXPECT_THROW(cw.decodeSegment(0, 2, 0), std::runtime_error);
    EXPECT_THROW(cw.decodeSegment(0, 0, 2), std::runtime_error);
}

TEST(CompressedWeight, StoredBitsCountsWithoutEncoding)
{
    // The counted size must equal the encoder's on every group size,
    // both policies and both widths, with partial row groups, a partial
    // last word and a partial last segment.
    struct Shape
    {
        std::size_t rows, cols, seg;
    };
    for (const quant::BitWidth bw :
         {quant::BitWidth::Int8, quant::BitWidth::Int4}) {
        for (const Shape sh : {Shape{37, 150, 64}, Shape{16, 256, 64},
                               Shape{9, 65, 16}, Shape{5, 1030, 1024}}) {
            // A uniform tile (dense planes) and a Gaussian one (sparse
            // high planes, so the adaptive policy encodes some).
            Rng rng(sh.rows * 7 + sh.cols);
            model::WeightProfile profile;
            const Int8Matrix tiles[2] = {
                randomInt8(sh.rows * 131 + sh.cols, sh.rows, sh.cols,
                           quant::maxLevel(bw)),
                model::synthesizeQuantizedWeight(rng, sh.rows, sh.cols, bw,
                                                 profile)
                    .values};
            for (const Int8Matrix &w : tiles) {
                const bitslice::SignMagnitude sm = bitslice::decompose(w, bw);
                const PlanePolicy policies[2] = {
                    paperDefaultPolicy(sm.planeCount()),
                    adaptivePolicy(bitslice::analyzeSparsity(w, sm))};
                for (const PlanePolicy &policy : policies) {
                    for (std::size_t m = 1; m <= 16; ++m) {
                        SCOPED_TRACE(::testing::Message()
                                     << sh.rows << "x" << sh.cols << " seg "
                                     << sh.seg << " m " << m);
                        const CompressedWeight cw(sm, bw, m, policy, sh.seg);
                        EXPECT_EQ(storedBits(sm, m, policy, sh.seg),
                                  cw.storedBits());
                    }
                }
            }
        }
    }
    const bitslice::SignMagnitude sm =
        bitslice::decompose(Int8Matrix(4, 4), quant::BitWidth::Int8);
    const PlanePolicy policy = paperDefaultPolicy(7);
    EXPECT_THROW(storedBits(sm, 0, policy), std::runtime_error);
    EXPECT_THROW(storedBits(sm, 4, policy, 0), std::runtime_error);
    EXPECT_THROW(storedBits(sm, 4, paperDefaultPolicy(3)),
                 std::runtime_error);
}

} // namespace
} // namespace mcbp::bstc
