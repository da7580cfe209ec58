/** @file Unit tests for bitslice/bit_plane. */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "bitslice/bit_plane.hpp"
#include "common/rng.hpp"

namespace mcbp::bitslice {
namespace {

TEST(BitPlane, StartsZero)
{
    BitPlane p(8, 100);
    EXPECT_EQ(p.countOnes(), 0u);
    EXPECT_DOUBLE_EQ(p.sparsity(), 1.0);
    EXPECT_FALSE(p.get(3, 99));
}

TEST(BitPlane, SetGetClear)
{
    BitPlane p(4, 70); // crosses the 64-bit word boundary
    p.set(2, 65, true);
    EXPECT_TRUE(p.get(2, 65));
    EXPECT_FALSE(p.get(2, 64));
    EXPECT_FALSE(p.get(1, 65));
    p.set(2, 65, false);
    EXPECT_FALSE(p.get(2, 65));
}

TEST(BitPlane, CountOnesAndRows)
{
    BitPlane p(3, 128);
    p.set(0, 0, true);
    p.set(0, 127, true);
    p.set(2, 64, true);
    EXPECT_EQ(p.countOnes(), 3u);
    EXPECT_EQ(p.countOnesInRow(0), 2u);
    EXPECT_EQ(p.countOnesInRow(1), 0u);
    EXPECT_EQ(p.countOnesInRow(2), 1u);
}

TEST(BitPlane, Sparsity)
{
    BitPlane p(2, 10);
    for (int c = 0; c < 5; ++c)
        p.set(0, c, true);
    EXPECT_DOUBLE_EQ(p.sparsity(), 0.75);
}

TEST(BitPlane, ColumnPattern)
{
    BitPlane p(8, 4);
    // Column 1: rows 0, 2, 3 of the group starting at row 0.
    p.set(0, 1, true);
    p.set(2, 1, true);
    p.set(3, 1, true);
    EXPECT_EQ(p.columnPattern(0, 4, 1), 0b1101u);
    EXPECT_EQ(p.columnPattern(0, 4, 0), 0u);
    // Group starting at row 2 sees rows 2..5: bits 0 and 1 set.
    EXPECT_EQ(p.columnPattern(2, 4, 1), 0b0011u);
}

TEST(BitPlane, ColumnPatternTailGroup)
{
    // Plane rows not divisible by m: the tail group zero-pads.
    BitPlane p(6, 2);
    p.set(4, 0, true);
    p.set(5, 0, true);
    EXPECT_EQ(p.columnPattern(4, 4, 0), 0b0011u);
}

TEST(BitPlane, ColumnPatternsMatchScalar)
{
    Rng rng(3);
    BitPlane p(12, 150);
    for (std::size_t r = 0; r < 12; ++r)
        for (std::size_t c = 0; c < 150; ++c)
            p.set(r, c, rng.bernoulli(0.3));
    std::vector<std::uint32_t> pats;
    for (std::size_t row0 = 0; row0 < 12; row0 += 4) {
        p.columnPatterns(row0, 4, pats);
        ASSERT_EQ(pats.size(), 150u);
        for (std::size_t c = 0; c < 150; ++c)
            EXPECT_EQ(pats[c], p.columnPattern(row0, 4, c));
    }
}

TEST(BitPlane, PatternsAtBlocksMatchScalar)
{
    Rng rng(9);
    BitPlane p(8, 200); // 4 words per row, last one partial (8 cols)
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 200; ++c)
            p.set(r, c, rng.bernoulli(0.1));
    std::uint32_t block[64];
    for (std::size_t row0 = 0; row0 < 8; row0 += 4) {
        for (std::size_t w = 0; w < 4; ++w) {
            const std::size_t width = p.patternsAt(row0, 4, w, block);
            ASSERT_EQ(width, w < 3 ? 64u : 8u);
            for (std::size_t c = 0; c < width; ++c)
                EXPECT_EQ(block[c],
                          p.columnPattern(row0, 4, (w << 6) + c));
        }
    }
}

TEST(BitPlane, PatternsAtZeroBlockFastPath)
{
    BitPlane p(4, 128);
    p.set(1, 100, true); // word 0 stays all-zero, word 1 does not.
    std::uint32_t block[64];
    ASSERT_EQ(p.patternsAt(0, 4, 0, block), 64u);
    for (std::size_t c = 0; c < 64; ++c)
        EXPECT_EQ(block[c], 0u);
    ASSERT_EQ(p.patternsAt(0, 4, 1, block), 64u);
    EXPECT_EQ(block[100 - 64], 2u); // row 1 -> bit 1 of the pattern.
}

TEST(BitPlane, Equality)
{
    BitPlane a(4, 4), b(4, 4);
    EXPECT_TRUE(a == b);
    b.set(1, 1, true);
    EXPECT_FALSE(a == b);
}

TEST(BitPlane, GroupSizeLimit)
{
    BitPlane p(32, 8);
    EXPECT_THROW(p.columnPattern(0, 17, 0), std::logic_error);
}

TEST(BitPlane, AlignedStrideContract)
{
    // 100 cols = 2 packed words, padded to a whole 64-byte line (8).
    BitPlane p(3, 100);
    EXPECT_EQ(p.wordsPerRow(), 2u);
    EXPECT_EQ(p.rowStride(), 8u);
    EXPECT_EQ(p.totalWords(), 3u * 8u);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.rowData(r)) % 64,
                  0u)
            << "row " << r;
        EXPECT_EQ(p.rowData(r), p.data() + r * p.rowStride());
    }

    // Every bit at or beyond cols() stays zero: the tail word's high
    // columns and the whole stride padding.
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 100; ++c)
            p.set(r, c, true);
    EXPECT_EQ(p.countOnes(), 3u * 100u);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(p.rowWord(r, 1) >> (100 - 64), 0u) << "tail cols";
        for (std::size_t w = p.wordsPerRow(); w < p.rowStride(); ++w)
            EXPECT_EQ(p.rowData(r)[w], 0u) << "stride pad word " << w;
    }

    // Clearing bits keeps the contract intact.
    p.set(1, 99, false);
    EXPECT_EQ(p.countOnes(), 3u * 100u - 1);
    EXPECT_EQ(p.countOnesInRow(1), 99u);
}

TEST(GroupCensus, MatchesPerColumnPatterns)
{
    // Every group size on a 37-row plane, so most sizes end in a
    // partial group; a census that expected 2^m patterns there would
    // miscount. Dense and sparse planes exercise both the early stop
    // and the full walk.
    for (const double density : {0.05, 0.5}) {
        Rng rng(static_cast<std::uint64_t>(density * 100) + 5);
        BitPlane p(37, 150);
        for (std::size_t r = 0; r < 37; ++r)
            for (std::size_t c = 0; c < 150; ++c)
                p.set(r, c, rng.bernoulli(density));
        for (std::size_t m = 1; m <= 16; ++m) {
            const std::vector<GroupCensus> census = groupCensus(p, m);
            ASSERT_EQ(census.size(), (37 + m - 1) / m);
            for (std::size_t g = 0; g < census.size(); ++g) {
                const std::size_t row0 = g * m;
                std::set<std::uint32_t> distinct;
                std::size_t nonzero = 0;
                for (std::size_t c = 0; c < 150; ++c) {
                    const std::uint32_t pat = p.columnPattern(row0, m, c);
                    if (pat != 0) {
                        ++nonzero;
                        distinct.insert(pat);
                    }
                }
                std::uint64_t bits = 0;
                std::uint32_t rows = 0;
                for (const std::uint32_t pat : distinct) {
                    bits += static_cast<std::uint64_t>(std::popcount(pat));
                    rows |= pat;
                }
                SCOPED_TRACE(::testing::Message() << "density " << density
                                                  << " m " << m << " group "
                                                  << g);
                EXPECT_EQ(census[g].nonzeroColumns, nonzero);
                EXPECT_EQ(p.nonzeroColumns(row0, m), nonzero);
                EXPECT_EQ(census[g].distinctPatterns, distinct.size());
                EXPECT_EQ(census[g].patternBits, bits);
                EXPECT_EQ(census[g].patternUnion, rows);
            }
        }
    }
    EXPECT_THROW(groupCensus(BitPlane(4, 4), 0), std::runtime_error);
    EXPECT_THROW(groupCensus(BitPlane(4, 4), 17), std::runtime_error);
}

} // namespace
} // namespace mcbp::bitslice
