/** @file Unit tests for model/: llm_config, workload, synthetic. */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.hpp"
#include "common/simd/simd.hpp"
#include "model/llm_config.hpp"
#include "model/synthetic.hpp"
#include "model/workload.hpp"
#include "reference_kernels.hpp"
#include "runnable_tiers.hpp"

namespace mcbp::model {
namespace {

TEST(LlmConfig, ZooHasFiveModels)
{
    EXPECT_EQ(modelZoo().size(), 5u);
    EXPECT_NO_THROW(findModel("Llama7B"));
    EXPECT_NO_THROW(findModel("Llama13B"));
    EXPECT_NO_THROW(findModel("OPT1B3"));
    EXPECT_NO_THROW(findModel("Bloom1B7"));
    EXPECT_NO_THROW(findModel("Qwen7B"));
    EXPECT_THROW(findModel("GPT5"), std::runtime_error);
}

TEST(LlmConfig, Llama7BParameterCount)
{
    const LlmConfig &m = findModel("Llama7B");
    // Attention + FFN params of the decoder stack: ~6.5B for Llama-7B.
    const double params = static_cast<double>(m.totalParams());
    EXPECT_GT(params, 5.5e9);
    EXPECT_LT(params, 7.5e9);
    EXPECT_EQ(m.headDim(), 128u);
}

TEST(LlmConfig, LargerModelMoreParams)
{
    EXPECT_GT(findModel("Llama13B").totalParams(),
              findModel("Llama7B").totalParams());
    EXPECT_GT(findModel("Llama7B").totalParams(),
              findModel("OPT1B3").totalParams());
}

TEST(LlmConfig, MacsScaleWithSequence)
{
    const LlmConfig &m = findModel("Llama7B");
    EXPECT_GT(m.prefillMacs(2048), m.prefillMacs(1024));
    // Attention grows quadratically: doubling S more than doubles the
    // attention-only MACs.
    EXPECT_GT(m.prefillAttentionMacs(2048),
              3 * m.prefillAttentionMacs(1024));
}

TEST(LlmConfig, DecodeMacsGrowWithContext)
{
    const LlmConfig &m = findModel("Llama7B");
    EXPECT_GT(m.decodeMacsPerToken(8192), m.decodeMacsPerToken(1024));
    // Linear part dominates small contexts.
    EXPECT_GT(m.decodeMacsPerToken(128),
              m.totalParams());
}

TEST(LlmConfig, TrafficAccounting)
{
    const LlmConfig &m = findModel("OPT1B3");
    EXPECT_EQ(m.weightBytes(), m.totalParams());
    EXPECT_EQ(m.kvBytesPerToken(), 2u * 2048u * 24u);
    EXPECT_EQ(m.kvReadBytesPerToken(100), 100u * 2u * 2048u * 24u);
}

TEST(Workload, ZooHasNineTasks)
{
    EXPECT_EQ(taskZoo().size(), 9u);
    EXPECT_EQ(findTask("Dolly").promptLen, 8192u);
    EXPECT_EQ(findTask("Cola").promptLen, 256u);
    EXPECT_THROW(findTask("nonsense"), std::runtime_error);
}

TEST(Workload, WithLengths)
{
    Workload w = withLengths(findTask("Dolly"), 1024, 48);
    EXPECT_EQ(w.promptLen, 1024u);
    EXPECT_EQ(w.decodeLen, 48u);
    EXPECT_EQ(w.name, "Dolly");
}

TEST(Synthetic, GaussianWeightsMoments)
{
    Rng rng(1);
    WeightProfile profile;
    profile.sigma = 0.02;
    profile.outlierFraction = 0.0;
    FloatMatrix w = gaussianWeights(rng, 64, 256, profile);
    double sum = 0.0, sum2 = 0.0;
    w.forEach([&](std::size_t, std::size_t, float v) {
        sum += v;
        sum2 += static_cast<double>(v) * v;
    });
    const double n = 64.0 * 256.0;
    EXPECT_NEAR(sum / n, 0.0, 0.001);
    EXPECT_NEAR(std::sqrt(sum2 / n), 0.02, 0.002);
}

TEST(Synthetic, GaussianWeightsMatchPerElementLoop)
{
    // The chunked block walk draws exactly what one gaussian() plus
    // its outlier draws per element draw: odd sizes leave a spare
    // behind, a pre-drawn normal brings one in, and a high outlier
    // fraction exercises the interleaved draws.
    struct Case
    {
        std::size_t rows, cols;
        double outlierFraction;
        bool spareIn;
    };
    const Case cases[] = {{1, 1, 0.0015, false}, {3, 171, 0.0015, true},
                          {7, 73, 0.3, false},   {16, 64, 0.3, true},
                          {33, 257, 0.0015, false}, {0, 5, 0.0015, false}};
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message() << c.rows << "x" << c.cols
                                          << " spare " << c.spareIn);
        WeightProfile profile;
        profile.outlierFraction = c.outlierFraction;
        profile.dynamicRange = 40.0;
        Rng block(41), loop(41);
        if (c.spareIn) {
            (void)block.gaussian();
            (void)loop.gaussian();
        }
        const FloatMatrix got =
            gaussianWeights(block, c.rows, c.cols, profile);
        const FloatMatrix want =
            bench::gaussianWeightsPerElement(loop, c.rows, c.cols, profile);
        ASSERT_EQ(got.rows(), want.rows());
        ASSERT_EQ(got.cols(), want.cols());
        for (std::size_t r = 0; r < got.rows(); ++r)
            for (std::size_t col = 0; col < got.cols(); ++col)
                ASSERT_EQ(std::bit_cast<std::uint32_t>(got.at(r, col)),
                          std::bit_cast<std::uint32_t>(want.at(r, col)))
                    << "element (" << r << ", " << col << ")";
        EXPECT_EQ(std::bit_cast<std::uint64_t>(block.gaussian()),
                  std::bit_cast<std::uint64_t>(loop.gaussian()));
        EXPECT_EQ(block.next(), loop.next());
    }
}

TEST(Synthetic, OutliersWidenRange)
{
    Rng rng1(2), rng2(2);
    WeightProfile no_out;
    no_out.outlierFraction = 0.0;
    WeightProfile with_out;
    with_out.outlierFraction = 0.01;
    with_out.dynamicRange = 20.0;
    float max_plain = 0.0f, max_out = 0.0f;
    gaussianWeights(rng1, 64, 256, no_out)
        .forEach([&](std::size_t, std::size_t, float v) {
            max_plain = std::max(max_plain, std::abs(v));
        });
    gaussianWeights(rng2, 64, 256, with_out)
        .forEach([&](std::size_t, std::size_t, float v) {
            max_out = std::max(max_out, std::abs(v));
        });
    EXPECT_GT(max_out, max_plain * 2.0f);
}

TEST(Synthetic, AttentionSetShapes)
{
    Rng rng(3);
    AttentionSet set = synthesizeAttention(rng, 100, 32, 0.2);
    EXPECT_EQ(set.query.size(), 32u);
    EXPECT_EQ(set.keys.rows(), 100u);
    EXPECT_EQ(set.keys.cols(), 32u);
    EXPECT_GT(set.logitScale, 0.0);
}

TEST(Synthetic, AttentionMatchesPerElementReference)
{
    // The dispatched |max| scan and key quantizer give the per-element
    // loop's bytes and scale on every tier, and leave the stream where
    // it left it.
    struct Shape
    {
        std::size_t s, d;
    };
    for (const Shape sh : {Shape{64, 128}, Shape{1000, 33}, Shape{2048, 128}}) {
        Rng ref_rng(43 + sh.s);
        const AttentionSet want =
            bench::synthesizeAttentionPerElement(ref_rng, sh.s, sh.d, 0.1);
        for (const simd::Tier t : simd::runnableTiers()) {
            SCOPED_TRACE(::testing::Message() << sh.s << " x " << sh.d
                                              << " on " << simd::tierName(t));
            simd::forceTier(t);
            Rng rng(43 + sh.s);
            const AttentionSet got = synthesizeAttention(rng, sh.s, sh.d, 0.1);
            EXPECT_EQ(got.query, want.query);
            EXPECT_TRUE(got.keys == want.keys);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.logitScale),
                      std::bit_cast<std::uint64_t>(want.logitScale));
            Rng after(43 + sh.s);
            (void)bench::synthesizeAttentionPerElement(after, sh.s, sh.d, 0.1);
            EXPECT_EQ(rng.next(), after.next());
        }
        simd::resetTier();
    }
}

TEST(Synthetic, AttentionConcentrationSeparable)
{
    // Scores in logit units must show a vital subset near the max and a
    // bulk far below it (> radius 3 gap).
    Rng rng(4);
    AttentionSet set = synthesizeAttention(rng, 200, 64, 0.1);
    std::vector<double> logits(200);
    double mx = -1e30;
    for (std::size_t j = 0; j < 200; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < 64; ++i)
            acc += static_cast<double>(set.query[i]) * set.keys.at(j, i);
        logits[j] = acc * set.logitScale;
        mx = std::max(mx, logits[j]);
    }
    std::size_t near = 0, far = 0;
    for (double l : logits) {
        if (mx - l < 3.0)
            ++near;
        if (mx - l > 4.0)
            ++far;
    }
    EXPECT_GT(near, 5u);
    EXPECT_LT(near, 80u);
    EXPECT_GT(far, 100u);
}

TEST(Synthetic, BadArgumentsFatal)
{
    Rng rng(5);
    EXPECT_THROW(synthesizeAttention(rng, 0, 8, 0.1), std::runtime_error);
    EXPECT_THROW(synthesizeAttention(rng, 8, 8, 0.0), std::runtime_error);
    WeightProfile bad;
    bad.sigma = 0.0;
    EXPECT_THROW(gaussianWeights(rng, 2, 2, bad), std::runtime_error);
}

} // namespace
} // namespace mcbp::model
