/** @file Unit + property tests for brcr/brcr_engine: exactness and cost. */
#include <gtest/gtest.h>

#include <tuple>

#include "brcr/brcr_engine.hpp"
#include "common/rng.hpp"
#include "model/synthetic.hpp"
#include "quant/gemm.hpp"

namespace mcbp::brcr {
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

std::vector<std::int8_t>
randomVec(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::int8_t> x(n);
    for (auto &v : x)
        v = static_cast<std::int8_t>(
            static_cast<std::int64_t>(rng.uniformInt(255)) - 127);
    return x;
}

// ---------------------------------------------------------------------
// Exactness sweep: group size x matrix shape x value range.
// ---------------------------------------------------------------------
class BrcrExactness
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, int>>
{
};

TEST_P(BrcrExactness, GemvMatchesReference)
{
    const auto [m, rows, cols, limit] = GetParam();
    Int8Matrix w = randomInt8(rows * 31 + cols, rows, cols, limit);
    std::vector<std::int8_t> x = randomVec(cols, cols);
    BrcrEngine engine({m, quant::BitWidth::Int8});
    BrcrGemvResult res = engine.gemv(w, x);
    EXPECT_EQ(res.y, quant::gemvInt(w, x));
}

TEST_P(BrcrExactness, TernaryMatchesReference)
{
    const auto [m, rows, cols, limit] = GetParam();
    if (m > 6)
        GTEST_SKIP() << "3^m MAV too large for the ternary variant";
    Int8Matrix w = randomInt8(rows * 17 + cols, rows, cols, limit);
    std::vector<std::int8_t> x = randomVec(cols + 1, cols);
    BrcrEngine engine({m, quant::BitWidth::Int8});
    BrcrGemvResult res = engine.gemvTernary(w, x);
    EXPECT_EQ(res.y, quant::gemvInt(w, x));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BrcrExactness,
    ::testing::Values(
        std::make_tuple(1u, 8u, 32u, 127),
        std::make_tuple(2u, 8u, 32u, 127),
        std::make_tuple(3u, 12u, 64u, 127),
        std::make_tuple(4u, 16u, 64u, 127),
        std::make_tuple(4u, 17u, 63u, 127), // non-divisible shapes
        std::make_tuple(4u, 5u, 200u, 127),
        std::make_tuple(5u, 20u, 64u, 127),
        std::make_tuple(6u, 24u, 48u, 127),
        std::make_tuple(8u, 32u, 40u, 127),
        std::make_tuple(4u, 16u, 64u, 1),   // near-binary weights
        std::make_tuple(4u, 16u, 64u, 7)));  // INT4-ish range

TEST(BrcrEngine, GemmMatchesReference)
{
    Int8Matrix w = randomInt8(11, 24, 96, 127);
    Int8Matrix x = randomInt8(12, 96, 9, 127);
    BrcrEngine engine;
    BrcrGemmResult res = engine.gemm(w, x);
    EXPECT_EQ(res.y, quant::gemmInt(w, x));
}

TEST(BrcrEngine, Int4GemvMatchesReference)
{
    Int8Matrix w = randomInt8(13, 16, 64, 7);
    std::vector<std::int8_t> x = randomVec(14, 64);
    BrcrEngine engine({4, quant::BitWidth::Int4});
    BrcrGemvResult res = engine.gemv(w, x);
    EXPECT_EQ(res.y, quant::gemvInt(w, x));
}

TEST(BrcrEngine, AllZeroWeight)
{
    Int8Matrix w(8, 32);
    std::vector<std::int8_t> x = randomVec(15, 32);
    BrcrEngine engine;
    BrcrGemvResult res = engine.gemv(w, x);
    for (auto y : res.y)
        EXPECT_EQ(y, 0);
    EXPECT_EQ(res.ops.mergeAdds, 0u);
    EXPECT_EQ(res.ops.reconAdds, 0u);
    EXPECT_EQ(res.ops.shiftAccAdds, 0u);
}

TEST(BrcrEngine, AllNegativeWeight)
{
    Int8Matrix w(8, 32, -5);
    std::vector<std::int8_t> x = randomVec(16, 32);
    BrcrEngine engine;
    EXPECT_EQ(engine.gemv(w, x).y, quant::gemvInt(w, x));
}

TEST(BrcrEngine, ExtremeValues)
{
    Int8Matrix w(4, 16);
    for (std::size_t c = 0; c < 16; ++c) {
        w.at(0, c) = 127;
        w.at(1, c) = -127;
        w.at(2, c) = (c % 2) ? 127 : -127;
    }
    std::vector<std::int8_t> x(16, 127);
    BrcrEngine engine;
    EXPECT_EQ(engine.gemv(w, x).y, quant::gemvInt(w, x));
}

TEST(BrcrEngine, OpCountsBeatNaiveBitSerial)
{
    // On realistic (Gaussian, sparse-bit) weights the engine must beat
    // the naive bit-serial add count, which is the whole point of BRCR.
    Rng rng(18);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 64, 1024, quant::BitWidth::Int8, profile);
    std::vector<std::int8_t> x = randomVec(19, 1024);
    BrcrEngine engine;
    BrcrGemvResult res = engine.gemv(qw.values, x);

    std::uint64_t naive = 0; // one add per set magnitude bit
    bitslice::SignMagnitude sm =
        bitslice::decompose(qw.values, quant::BitWidth::Int8);
    for (const auto &p : sm.magnitude)
        naive += p.countOnes();
    EXPECT_LT(res.ops.totalAdds(), naive);
    EXPECT_GT(res.ops.camSearches, 0u);
    EXPECT_GT(res.ops.groupsProcessed, 0u);
}

TEST(BrcrEngine, OpCountsMatchGolden)
{
    // Pinned op counts from the original (pre-scratch-reuse, per-group
    // allocating) implementation on a fixed synthetic tile: the scratch
    // rework must change allocation behavior only, never a count. The
    // synthesizer and Rng are portable, so these values are stable
    // across platforms.
    Rng rng(18);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 64, 1024, quant::BitWidth::Int8, profile);
    std::vector<std::int8_t> x = randomVec(19, 1024);
    BrcrEngine engine;
    const BrcrGemvResult res = engine.gemv(qw.values, x);
    EXPECT_EQ(res.ops.mergeAdds, 94848u);
    EXPECT_EQ(res.ops.reconAdds, 3916u);
    EXPECT_EQ(res.ops.shiftAccAdds, 839u);
    EXPECT_EQ(res.ops.camSearches, 3360u);
    EXPECT_EQ(res.ops.groupsProcessed, 224u);
    EXPECT_EQ(res.ops.zeroColumns, 132114u);

    // A second run on the same engine must reproduce them exactly
    // (no state leaks through the reused scratch path).
    const BrcrGemvResult again = engine.gemv(qw.values, x);
    EXPECT_EQ(again.ops.mergeAdds, res.ops.mergeAdds);
    EXPECT_EQ(again.ops.reconAdds, res.ops.reconAdds);
    EXPECT_EQ(again.ops.shiftAccAdds, res.ops.shiftAccAdds);
    EXPECT_EQ(again.y, res.y);
}

TEST(BrcrEngine, GemmAmortizesPatternExtraction)
{
    // CAM searches depend only on the weights: GEMM with N columns must
    // issue the same number of searches as a single GEMV.
    Int8Matrix w = randomInt8(20, 16, 64, 127);
    Int8Matrix x1 = randomInt8(21, 64, 1, 127);
    Int8Matrix x8 = randomInt8(22, 64, 8, 127);
    BrcrEngine engine;
    EXPECT_EQ(engine.gemm(w, x1).ops.camSearches,
              engine.gemm(w, x8).ops.camSearches);
}

TEST(BrcrEngine, MergeAddsScaleWithColumns)
{
    Int8Matrix w = randomInt8(23, 16, 64, 127);
    Int8Matrix x1 = randomInt8(24, 64, 1, 127);
    Int8Matrix x4 = randomInt8(25, 64, 4, 127);
    BrcrEngine engine;
    const auto a = engine.gemm(w, x1).ops.mergeAdds;
    const auto b = engine.gemm(w, x4).ops.mergeAdds;
    EXPECT_EQ(b, a * 4);
}

TEST(BrcrEngine, GroupSizeTradeoffExists)
{
    // Total adds at m=4 beat both m=1 (no repetition exploited) and
    // m=10 (reconstruction blow-up) on realistic weights — the Fig 18
    // sweet spot.
    Rng rng(26);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 40, 2048, quant::BitWidth::Int8, profile);
    std::vector<std::int8_t> x = randomVec(27, 2048);
    auto run_at = [&](std::size_t m) {
        BrcrEngine engine({m, quant::BitWidth::Int8});
        return engine.gemv(qw.values, x).ops;
    };
    const BrcrOpCounts m1 = run_at(1);
    const BrcrOpCounts m4 = run_at(4);
    const BrcrOpCounts m10 = run_at(10);
    // Grouping exploits repetition: m=4 spends far fewer adds than m=1.
    EXPECT_LT(m4.totalAdds(), m1.totalAdds());
    // The large-m penalty is the exponentially growing CAM search space
    // (2^m - 1 keys per group-plane), which the fixed hardware must
    // enumerate: m=10 costs ~32x more searches than m=4 per group and
    // ends up issuing far more searches overall.
    EXPECT_GT(m10.camSearches, m4.camSearches * 5);
}

TEST(BrcrEngine, InvalidConfigFatal)
{
    EXPECT_THROW(BrcrEngine({0, quant::BitWidth::Int8}),
                 std::runtime_error);
    EXPECT_THROW(BrcrEngine({13, quant::BitWidth::Int8}),
                 std::runtime_error);
}

TEST(BrcrEngine, ShapeMismatchFatal)
{
    Int8Matrix w(4, 8);
    BrcrEngine engine;
    EXPECT_THROW(engine.gemv(w, std::vector<std::int8_t>(7)),
                 std::runtime_error);
    Int8Matrix x(7, 2);
    EXPECT_THROW(engine.gemm(w, x), std::runtime_error);
}

TEST(BrcrEngine, OpCountsMatchExecution)
{
    // The counters gemv()/gemm() report must come out of opCounts()
    // without executing, at every group size, on a 37-row tile (partial
    // last group for most m) and with several activation columns.
    Rng rng(40);
    model::WeightProfile profile;
    const Int8Matrix tiles[2] = {
        randomInt8(41, 37, 150, 127),
        model::synthesizeQuantizedWeight(rng, 37, 150,
                                         quant::BitWidth::Int8, profile)
            .values};
    const std::vector<std::int8_t> x = randomVec(42, 150);
    const Int8Matrix xs = randomInt8(43, 150, 3, 127);
    const auto expectSame = [](const BrcrOpCounts &a, const BrcrOpCounts &b) {
        EXPECT_EQ(a.mergeAdds, b.mergeAdds);
        EXPECT_EQ(a.reconAdds, b.reconAdds);
        EXPECT_EQ(a.shiftAccAdds, b.shiftAccAdds);
        EXPECT_EQ(a.camSearches, b.camSearches);
        EXPECT_EQ(a.groupsProcessed, b.groupsProcessed);
        EXPECT_EQ(a.zeroColumns, b.zeroColumns);
    };
    for (const Int8Matrix &w : tiles) {
        const bitslice::SignSplit split =
            bitslice::decomposeSignSplit(w, quant::BitWidth::Int8);
        for (std::size_t m = 1; m <= 12; ++m) {
            SCOPED_TRACE(::testing::Message() << "m " << m);
            const BrcrEngine engine({m, quant::BitWidth::Int8});
            expectSame(engine.opCounts(split), engine.gemv(split, x).ops);
            expectSame(engine.opCounts(split, 3), engine.gemm(w, xs).ops);
        }
    }
}

} // namespace
} // namespace mcbp::brcr
