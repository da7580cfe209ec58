/** @file Unit + property tests for bstc/value_codec (RLE + Huffman). */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "bstc/value_codec.hpp"
#include "common/rng.hpp"
#include "model/synthetic.hpp"

namespace mcbp::bstc {
namespace {

Int8Matrix
randomInt8(std::uint64_t seed, std::size_t r, std::size_t c,
           double zero_prob)
{
    Rng rng(seed);
    Int8Matrix m(r, c);
    m.fill([&](std::size_t, std::size_t) -> std::int8_t {
        if (rng.bernoulli(zero_prob))
            return 0;
        return static_cast<std::int8_t>(
            static_cast<std::int64_t>(rng.uniformInt(255)) - 127);
    });
    return m;
}

TEST(Rle, RoundTripDenseAndSparse)
{
    for (double zp : {0.0, 0.1, 0.5, 0.95, 1.0}) {
        Int8Matrix w = randomInt8(
            static_cast<std::uint64_t>(zp * 100) + 1, 13, 77, zp);
        ValueCompressed blob = rleEncode(w);
        EXPECT_EQ(rleDecode(blob), w) << "zero prob " << zp;
    }
}

TEST(Rle, LongRunsSplit)
{
    Int8Matrix w(1, 100); // 100 zeros -> 7 run symbols
    ValueCompressed blob = rleEncode(w);
    EXPECT_EQ(blob.bitCount, 7u * 5u);
    EXPECT_EQ(rleDecode(blob), w);
    EXPECT_GT(valueCompressionRatio(blob), 20.0);
}

TEST(Rle, DenseDataExpands)
{
    Int8Matrix w(8, 64, 3); // no zeros: 9 bits per 8-bit value
    ValueCompressed blob = rleEncode(w);
    EXPECT_LT(valueCompressionRatio(blob), 1.0);
}

/** Re-encode @p w flag by flag and field by field: the emitter
 *  rleEncode() replaced. */
BitWriter
perSymbolRleReference(const Int8Matrix &w)
{
    BitWriter ref;
    std::size_t run = 0;
    auto flush = [&] {
        while (run > 0) {
            const std::size_t chunk = std::min<std::size_t>(run, 16);
            ref.putBit(false);
            ref.putBits(static_cast<std::uint32_t>(chunk - 1), 4);
            run -= chunk;
        }
    };
    w.forEach([&](std::size_t, std::size_t, std::int8_t v) {
        if (v == 0) {
            ++run;
            return;
        }
        flush();
        ref.putBit(true);
        ref.putBits(static_cast<std::uint8_t>(v), 8);
    });
    flush();
    return ref;
}

TEST(Rle, StreamMatchesPerSymbolEmitter)
{
    // Zero runs of 1, 16, 17 and 33 straddle the 16-zero chunk limit,
    // between negative, positive and extreme literals.
    Int8Matrix w(1, 1 + 1 + 16 + 1 + 17 + 1 + 33 + 1);
    std::size_t c = 0;
    for (const auto &[zeros, literal] :
         {std::pair<std::size_t, std::int8_t>{1, -128}, {16, 127},
          {17, -1}, {33, 5}}) {
        c += zeros;
        w.at(0, c++) = literal;
    }
    for (const Int8Matrix &m :
         {w, randomInt8(7, 13, 77, 0.6), randomInt8(8, 5, 200, 0.95)}) {
        const ValueCompressed blob = rleEncode(m);
        const BitWriter ref = perSymbolRleReference(m);
        ASSERT_EQ(blob.bitCount, ref.bitCount());
        EXPECT_TRUE(std::equal(ref.words(),
                               ref.words() + ref.wordCount(),
                               blob.data.data()));
        EXPECT_EQ(rleDecode(blob), m);
    }
}

TEST(Huffman, RoundTripRandom)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Int8Matrix w = randomInt8(seed, 17, 93, 0.3);
        ValueCompressed blob = huffmanEncode(w);
        EXPECT_EQ(huffmanDecode(blob), w) << "seed " << seed;
    }
}

TEST(Huffman, SingleSymbolMatrix)
{
    Int8Matrix w(4, 4, -7);
    ValueCompressed blob = huffmanEncode(w);
    EXPECT_EQ(huffmanDecode(blob), w);
    // 1 bit per value + header.
    EXPECT_EQ(blob.bitCount, 256u * 6u + 16u);
}

TEST(Huffman, SkewedDistributionCompresses)
{
    // Gaussian-quantized weights: low-magnitude values dominate, so
    // Huffman beats the raw 8 bits despite the header.
    Rng rng(5);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 64, 1024, quant::BitWidth::Int8, profile);
    ValueCompressed blob = huffmanEncode(qw.values);
    EXPECT_GT(valueCompressionRatio(blob), 1.1);
    EXPECT_EQ(huffmanDecode(blob), qw.values);
}

TEST(Huffman, UniformDataBarelyCompresses)
{
    Int8Matrix w = randomInt8(6, 64, 256, 0.0);
    ValueCompressed blob = huffmanEncode(w);
    const double cr = valueCompressionRatio(blob);
    EXPECT_GT(cr, 0.85);
    EXPECT_LT(cr, 1.1);
}

/**
 * Re-encode @p w one bit at a time from the canonical code lengths in
 * @p blob's header: the emitter huffmanEncode() replaced. Canonical
 * codes follow from the lengths alone (symbols ordered by length, then
 * value), so this is an independent rebuild of the stream.
 */
BitWriter
perBitHuffmanReference(const Int8Matrix &w, const ValueCompressed &blob,
                       unsigned &max_len)
{
    BitReader header(blob.data, blob.bitCount);
    std::uint8_t lengths[256] = {};
    for (auto &len : lengths)
        len = static_cast<std::uint8_t>(header.getBits(6));
    std::uint64_t codes[256] = {};
    std::uint64_t code = 0;
    unsigned prev = 0;
    max_len = 0;
    for (unsigned len = 1; len < 64; ++len)
        for (unsigned s = 0; s < 256; ++s) {
            if (lengths[s] != len)
                continue;
            code <<= len - prev;
            prev = len;
            codes[s] = code++;
            max_len = len;
        }
    BitWriter ref;
    for (const std::uint8_t len : lengths)
        ref.putBits(len, 6);
    w.forEach([&](std::size_t, std::size_t, std::int8_t v) {
        const auto s = static_cast<std::uint8_t>(v);
        for (int b = lengths[s] - 1; b >= 0; --b)
            ref.putBit((codes[s] >> b) & 1u);
    });
    return ref;
}

void
expectStreamMatchesPerBitReference(const Int8Matrix &w,
                                   unsigned &max_len)
{
    const ValueCompressed blob = huffmanEncode(w);
    const BitWriter ref = perBitHuffmanReference(w, blob, max_len);
    ASSERT_EQ(blob.bitCount, ref.bitCount());
    EXPECT_TRUE(std::equal(ref.words(), ref.words() + ref.wordCount(),
                           blob.data.data()));
    EXPECT_EQ(huffmanDecode(blob), w);
}

TEST(Huffman, StreamMatchesPerBitEmitter)
{
    unsigned max_len = 0;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        expectStreamMatchesPerBitReference(randomInt8(seed, 17, 93, 0.3),
                                           max_len);
        EXPECT_LE(max_len, 32u);
    }
    Rng rng(5);
    model::WeightProfile profile;
    expectStreamMatchesPerBitReference(
        model::synthesizeQuantizedWeight(rng, 64, 1024,
                                         quant::BitWidth::Int8, profile)
            .values,
        max_len);
}

TEST(Huffman, CodesLongerThan32BitsSplit)
{
    // Fibonacci frequencies F1..F34 build a fully skewed Huffman tree,
    // so the two rarest symbols get 33-bit codes: each is written in
    // two pieces, and the stream must still match the per-bit emitter.
    constexpr std::size_t kSymbols = 34;
    std::uint64_t fib[kSymbols] = {1, 1};
    for (std::size_t i = 2; i < kSymbols; ++i)
        fib[i] = fib[i - 1] + fib[i - 2];
    std::size_t total = 0;
    for (const std::uint64_t f : fib)
        total += f;
    Int8Matrix w(1, total);
    std::size_t at = 0;
    for (std::size_t i = 0; i < kSymbols; ++i)
        for (std::uint64_t k = 0; k < fib[i]; ++k)
            w.at(0, at++) = static_cast<std::int8_t>(
                static_cast<int>(i) - 17);
    unsigned max_len = 0;
    expectStreamMatchesPerBitReference(w, max_len);
    EXPECT_EQ(max_len, kSymbols - 1);
}

TEST(Huffman, EmptyMatrixFatal)
{
    Int8Matrix w;
    EXPECT_THROW(huffmanEncode(w), std::runtime_error);
}

TEST(ValueCodec, BstcMotivatingComparison)
{
    // Section 2.3 / Fig 5(c): on LLM-like weights value-level coding is
    // materially weaker than what the bit dimension offers. Huffman here
    // lands well under the ~2x the high-order planes give BSTC.
    Rng rng(7);
    model::WeightProfile profile;
    profile.dynamicRange = 16.0;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 64, 2048, quant::BitWidth::Int8, profile);
    const double huff =
        valueCompressionRatio(huffmanEncode(qw.values));
    const double rle = valueCompressionRatio(rleEncode(qw.values));
    EXPECT_LT(rle, 1.05);  // few exact zeros -> RLE useless
    EXPECT_LT(huff, 2.0);  // entropy of the value alphabet
    EXPECT_GT(huff, 1.0);
}

} // namespace
} // namespace mcbp::bstc
