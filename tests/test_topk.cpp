/** @file Unit tests for bgpp/topk_baseline. */
#include <gtest/gtest.h>

#include "bgpp/topk_baseline.hpp"
#include "common/rng.hpp"
#include "common/simd/simd.hpp"
#include "model/synthetic.hpp"
#include "reference_kernels.hpp"
#include "runnable_tiers.hpp"

namespace mcbp::bgpp {
namespace {

TEST(ExactTopk, PicksLargestScores)
{
    // Keys aligned/anti-aligned with a unit query.
    Int8Matrix keys(4, 2);
    keys.at(0, 0) = 10;
    keys.at(1, 0) = -10;
    keys.at(2, 0) = 50;
    keys.at(3, 0) = 1;
    std::vector<std::int8_t> q = {1, 0};
    TopkResult r = exactTopk(q, keys, 2);
    ASSERT_EQ(r.selected.size(), 2u);
    EXPECT_EQ(r.selected[0], 0u);
    EXPECT_EQ(r.selected[1], 2u);
    EXPECT_EQ(r.estimates[2], 50);
}

TEST(ExactTopk, KLargerThanSetKeepsAll)
{
    Int8Matrix keys(3, 2);
    std::vector<std::int8_t> q = {1, 1};
    TopkResult r = exactTopk(q, keys, 10);
    EXPECT_EQ(r.selected.size(), 3u);
}

TEST(ExactTopk, TrafficAccounting)
{
    Int8Matrix keys(16, 8);
    std::vector<std::int8_t> q(8, 1);
    TopkResult r = exactTopk(q, keys, 4);
    EXPECT_EQ(r.bitsFetched, 16u * 8u * 8u);
    EXPECT_EQ(r.macs, 16u * 8u);
}

TEST(ValueTopk, FourBitTraffic)
{
    Int8Matrix keys(16, 8);
    std::vector<std::int8_t> q(8, 1);
    TopkResult r = valueTopk(q, keys, 4, 4);
    EXPECT_EQ(r.bitsFetched, 16u * 8u * 5u); // 4 bits + sign
}

TEST(ValueTopk, EstimateUsesHighBits)
{
    // Keys distinguished only by low bits look identical to a 4-bit
    // estimator; keys distinguished by high bits do not.
    Int8Matrix keys(2, 1);
    keys.at(0, 0) = 0b01110000;
    keys.at(1, 0) = 0b01110111; // same top-4 magnitude bits
    std::vector<std::int8_t> q = {1};
    TopkResult r = valueTopk(q, keys, 1, 4);
    EXPECT_EQ(r.estimates[0], r.estimates[1]);
    keys.at(1, 0) = 0b00010111; // different high bits now
    r = valueTopk(q, keys, 1, 4);
    EXPECT_GT(r.estimates[0], r.estimates[1]);
}

TEST(ValueTopk, HighRecallOnSeparableSets)
{
    Rng rng(3);
    model::AttentionSet set = model::synthesizeAttention(rng, 256, 64, 0.1);
    TopkResult truth = exactTopk(set.query, set.keys, 26);
    TopkResult value = valueTopk(set.query, set.keys, 26);
    EXPECT_GT(recall(value.selected, truth.selected), 0.85);
}

TEST(ValueTopk, FullBitsEqualsExact)
{
    Rng rng(4);
    model::AttentionSet set = model::synthesizeAttention(rng, 128, 32, 0.2);
    TopkResult truth = exactTopk(set.query, set.keys, 16);
    TopkResult full = valueTopk(set.query, set.keys, 16, 8);
    EXPECT_EQ(full.selected, truth.selected);
}

TEST(Topk, EstimatesMatchPerElementReference)
{
    // Both baselines' scores, on every dispatch tier, against the
    // per-element loops: a synthesized set and full-range INT8 keys
    // and queries (-128 included) at an odd width, for every
    // estimate_bits value.
    std::vector<std::pair<std::vector<std::int8_t>, Int8Matrix>> sets;
    Rng rng(41);
    const model::AttentionSet synth =
        model::synthesizeAttention(rng, 300, 64, 0.1);
    sets.emplace_back(synth.query, synth.keys);
    for (const std::size_t d : {std::size_t{77}, std::size_t{128}}) {
        std::vector<std::int8_t> q(d);
        for (auto &v : q)
            v = static_cast<std::int8_t>(rng.next());
        q[d - 1] = -128;
        Int8Matrix keys(130, d);
        for (std::size_t j = 0; j < keys.rows(); ++j)
            for (std::size_t i = 0; i < d; ++i)
                keys.at(j, i) = rng.uniformInt(5) == 0
                                    ? std::int8_t{-128}
                                    : static_cast<std::int8_t>(rng.next());
        sets.emplace_back(q, keys);
    }
    for (std::size_t i = 0; i < sets.size(); ++i) {
        const auto &[q, keys] = sets[i];
        for (const simd::Tier t : simd::runnableTiers()) {
            SCOPED_TRACE(::testing::Message()
                         << "set " << i << " on " << simd::tierName(t));
            simd::forceTier(t);
            const TopkResult exact = exactTopk(q, keys, 10);
            EXPECT_EQ(exact.estimates, bench::exactScoresPerElement(q, keys));
            EXPECT_EQ(exact.macs, keys.rows() * q.size());
            for (unsigned bits = 1; bits <= 8; ++bits) {
                const TopkResult value = valueTopk(q, keys, 10, bits);
                EXPECT_EQ(value.estimates,
                          bench::valueScoresPerElement(q, keys, bits))
                    << "estimate_bits " << bits;
                EXPECT_EQ(value.macs, keys.rows() * q.size());
            }
        }
        simd::resetTier();
    }
}

TEST(Recall, Basics)
{
    EXPECT_DOUBLE_EQ(recall({1, 2, 3}, {1, 2, 3}), 1.0);
    EXPECT_DOUBLE_EQ(recall({1, 2}, {1, 2, 3, 4}), 0.5);
    EXPECT_DOUBLE_EQ(recall({}, {1}), 0.0);
    EXPECT_DOUBLE_EQ(recall({5, 6}, {}), 1.0);
    EXPECT_DOUBLE_EQ(recall({2, 4, 6}, {1, 3, 5}), 0.0);
}

TEST(Topk, BadShapesFatal)
{
    Int8Matrix keys(4, 8);
    std::vector<std::int8_t> q(7);
    EXPECT_THROW(exactTopk(q, keys, 2), std::runtime_error);
    EXPECT_THROW(valueTopk(q, keys, 2), std::runtime_error);
    std::vector<std::int8_t> q8(8);
    EXPECT_THROW(valueTopk(q8, keys, 2, 0), std::runtime_error);
    EXPECT_THROW(valueTopk(q8, keys, 2, 9), std::runtime_error);
}

} // namespace
} // namespace mcbp::bgpp
