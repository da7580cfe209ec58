/** @file Unit tests for accel/profiles: measured workload statistics. */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "accel/profile_cache.hpp"
#include "accel/profiles.hpp"
#include "engine/registry.hpp"
#include "model/request.hpp"
#include "model/workload.hpp"

namespace mcbp::accel {
namespace {

TEST(WeightProfile, RangesAreRealistic)
{
    const model::LlmConfig &m = model::findModel("Llama7B");
    WeightStats ws = profileWeights(m, quant::BitWidth::Int8, 1);
    // Fig 5(d)/Fig 25: value sparsity a few percent, bit sparsity ~0.7.
    EXPECT_GT(ws.valueSparsity, 0.005);
    EXPECT_LT(ws.valueSparsity, 0.2);
    EXPECT_GT(ws.meanBitSparsity, 0.55);
    EXPECT_LT(ws.meanBitSparsity, 0.92);
    EXPECT_EQ(ws.planeSparsity.size(), 7u);
    // BRCR must beat the sparse bit-serial reference per MAC.
    EXPECT_LT(ws.brcrAddsPerMac, ws.bscAddsPerMac);
    EXPECT_GT(ws.brcrAddsPerMac, 0.1);
    // Fractions partition the adds.
    EXPECT_GT(ws.mergeFraction, 0.0);
    EXPECT_GT(ws.reconFraction, 0.0);
    EXPECT_LT(ws.mergeFraction + ws.reconFraction, 1.01);
    EXPECT_GT(ws.bstcCompressionRatio, 1.0);
    EXPECT_GT(ws.bstcSymbolsPerByte, 0.0);
}

/**
 * Exact bit patterns of every WeightStats field, recorded before the
 * profiler decomposed each tile once with the word-parallel slice
 * kernel. Any change to how a tile is sliced, compressed or coded must
 * leave every double bit-identical.
 */
struct GoldenWeightStats
{
    const char *model;
    quant::BitWidth bw;
    std::uint64_t seed;
    std::size_t sampleRows;
    /** valueSparsity, meanBitSparsity, brcrAddsPerMac, mergeFraction,
     *  reconFraction, camSearchesPerMac, bscAddsPerMac,
     *  bstcCompressionRatio, valueCompressionRatio, bstcSymbolsPerByte. */
    std::uint64_t fields[10];
    std::vector<std::uint64_t> planeSparsity;
};

const GoldenWeightStats kGoldenWeightStats[] = {
    {"Llama7B", quant::BitWidth::Int8, 1, 128,
     {0x3fac558000000000, 0x3fe844cdb6db6db7, 0x3ff3d32600000000,
      0x3fef8ac5e8d3d574, 0x3f87d8ad6a7fbb73, 0x3f8a400000000000,
      0x3ffb0f3000000000, 0x3ff54a5cc3b2d2c5, 0x3ff9a814f970658b,
      0x3ff4000000000000},
     {0x3fe0009400000000, 0x3fe0de8c00000000, 0x3fe2d16400000000,
      0x3fe776cc00000000, 0x3feee00800000000, 0x3fefe65c00000000,
      0x3feff3ec00000000}},
    {"Llama7B", quant::BitWidth::Int8, 1, 37,
     {0x3fac6c1bacf914c2, 0x3fe8466abfc0bdc7, 0x3ff3ff6eb3e45307,
      0x3fef8e41f61c163f, 0x3f8715696de3a32c, 0x3f8c60dd67c8a60e,
      0x3ffb098a60dd67c8, 0x3ff411d2db26bc05, 0x3ff9c00d22d644cc,
      0x3ff59f22983759f2},
     {0x3fdffbc8a60dd67c, 0x3fe0e28a60dd67c8, 0x3fe2cc5306eb3e45,
      0x3fe771914c1bacf9, 0x3feedcb3e45306eb, 0x3feff94c1bacf915,
      0x3feff8983759f22a}},
    {"Llama7B", quant::BitWidth::Int8, 7, 128,
     {0x3fac224000000000, 0x3fe82f99b6db6db7, 0x3ff4100e00000000,
      0x3fef8b8a494af71f, 0x3f87b35fe8e8ef6a, 0x3f8a400000000000,
      0x3ffb596600000000, 0x3ff519cf0726004d, 0x3ff93bc992f18c15,
      0x3ff4000000000000},
     {0x3fdff22000000000, 0x3fe0e67000000000, 0x3fe2b53c00000000,
      0x3fe762f800000000, 0x3feea7e000000000, 0x3fefc1bc00000000,
      0x3fefebe400000000}},
    {"Llama7B", quant::BitWidth::Int8, 7, 37,
     {0x3fab2983759f2298, 0x3fe801e05ee355fe, 0x3ff4c7c8a60dd67d,
      0x3fef91aad8d616e4, 0x3f865427747e05e9, 0x3f8c60dd67c8a60e,
      0x3ffbf96eb3e45307, 0x3ff3862a053d5b63, 0x3ff874cf6ede44b3,
      0x3ff59f22983759f2},
     {0x3fdfe660dd67c8a6, 0x3fe0e00000000000, 0x3fe28b22983759f2,
      0x3fe721d67c8a60de, 0x3fee445306eb3e45, 0x3fef726eb3e45307,
      0x3fefd63759f22983}},
    {"Llama7B", quant::BitWidth::Int4, 1, 128,
     {0x3fe9403c00000000, 0x3fedb96eaaaaaaab, 0x3fc7a96000000000,
      0x3fef39b446af2018, 0x3f913e3ca2dbd168, 0x3f76800000000000,
      0x3fcb4ecffffffffc, 0x3ff3a220d30ee0dd, 0x4017f7e2ff1158c9,
      0x3fd0000000000000},
     {0x3fe9577c00000000, 0x3fefe0e400000000, 0x3feff3ec00000000}},
    {"Llama7B", quant::BitWidth::Int4, 1, 37,
     {0x3fe93f14c1bacf91, 0x3fedbc1bacf914c3, 0x3fc780a60dd67c8a,
      0x3fef3b0d8862b1c2, 0x3f91131b970356e9, 0x3f785306eb3e4530,
      0x3fcb2eb3e45306dc, 0x3ff22ccaeef213be, 0x40180aa3d81462f8,
      0x3fd14c1bacf914c2},
     {0x3fe944eb3e45306f, 0x3feff6cf914c1bad, 0x3feff8983759f22a}},
    {"Llama7B", quant::BitWidth::Int4, 7, 128,
     {0x3fe8f0c000000000, 0x3fed994955555555, 0x3fc8f14000000000,
      0x3fef444991ce5877, 0x3f903f5892fa8eb5, 0x3f76800000000000,
      0x3fccd09000000004, 0x3ff39c0dc7e30f41, 0x4017576e9d32ce6e,
      0x3fd0000000000000},
     {0x3fe92cfc00000000, 0x3fefb2fc00000000, 0x3fefebe400000000}},
    {"Llama7B", quant::BitWidth::Int4, 7, 37,
     {0x3fe84106eb3e4530, 0x3fed5114c1bacf91, 0x3fcc0a60dd67c8a6,
      0x3fef5c6820921300, 0x3f8bf1b04cfc2ce8, 0x3f785306eb3e4530,
      0x3fd01983759f229a, 0x3ff216aeee806188, 0x4015faccbe6c919c,
      0x3fd14c1bacf914c2},
     {0x3fe8c9914c1bacf9, 0x3fef53759f229837, 0x3fefd63759f22983}},
    {"Llama13B", quant::BitWidth::Int8, 1, 128,
     {0x3fad09999999999a, 0x3fe85925f15f15f1, 0x3ff391699999999a,
      0x3fefa0651fcb289f, 0x3f836f4d59f1d142, 0x3f85000000000000,
      0x3ffac7fb33333334, 0x3ff571b8101c4235, 0x3ffa088af74065e0,
      0x3ff4000000000000},
     {0x3fe000eccccccccd, 0x3fe0e43ccccccccd, 0x3fe2db9666666666,
      0x3fe7afbccccccccd, 0x3fef0f099999999a, 0x3feff8c000000000,
      0x3feff7c333333333}},
    {"Llama13B", quant::BitWidth::Int8, 1, 37,
     {0x3fad2a349572daa3, 0x3fe859caa01fa11b, 0x3ff3c5b54692ae5b,
      0x3fefa38375be202d, 0x3f82c199472f3b57, 0x3f86b3e45306eb3e,
      0x3ffac5bacf914c22, 0x3ff4293516e38a27, 0x3ffa0006bef81057,
      0x3ff59f22983759f2},
     {0x3fdffbacf914c1ba, 0x3fe0ec8a60dd67c8, 0x3fe2e1bacf914c1c,
      0x3fe7abacf914c1bb, 0x3fef0a135f7b2821, 0x3feff9f22983759f,
      0x3feff8bc31d0f38c}},
    {"Llama13B", quant::BitWidth::Int8, 7, 128,
     {0x3facbccccccccccd, 0x3fe8440db6db6db7, 0x3ff3cf719999999a,
      0x3fefa12e46d4c3c1, 0x3f834affecdbc498, 0x3f85000000000000,
      0x3ffb11d000000000, 0x3ff541e8819a1a50, 0x3ff98dc5fc4a3276,
      0x3ff4000000000000},
     {0x3fdfee6000000000, 0x3fe0f12000000000, 0x3fe2bf5333333333,
      0x3fe795d000000000, 0x3feed7b000000000, 0x3fefd5d000000000,
      0x3feff16ccccccccd}},
    {"Llama13B", quant::BitWidth::Int8, 7, 37,
     {0x3fac00b11fd3b80b, 0x3fe81701623fa770, 0x3ff4823fa7701624,
      0x3fefa53726890dd3, 0x3f825c6bb860b03d, 0x3f86b3e45306eb3e,
      0x3ffbaf7b282135f8, 0x3ff3a9f43333d677, 0x3ff8b3ee23f827ba,
      0x3ff59f22983759f2},
     {0x3fdfedeca084d7de, 0x3fe0e8588fe9dc06, 0x3fe2a48a60dd67c8,
      0x3fe7531d0f38bc32, 0x3fee684d7deca085, 0x3fef7ff4ee02c47f,
      0x3fefe1d0f38bc31d}},
    {"Llama13B", quant::BitWidth::Int4, 1, 128,
     {0x3fe9a09ccccccccd, 0x3feddc6bbbbbbbbc, 0x3fc64a8000000000,
      0x3fef57527a282695, 0x3f8d0d540784cb1d, 0x3f72000000000000,
      0x3fc9aaf333333330, 0x3ff3a4fda0fc2fab, 0x401886a7e7ce926c,
      0x3fd0000000000000},
     {0x3fe9a5499999999a, 0x3feff83666666666, 0x3feff7c333333333}},
    {"Llama13B", quant::BitWidth::Int4, 1, 37,
     {0x3fe9a08fe9dc0589, 0x3feddce2f0c743cf, 0x3fc660dd67c8a60e,
      0x3fef5c02f7d67246, 0x3f8c12cc4e290f17, 0x3f73759f2298375a,
      0x3fc9a55cb6a8d24c, 0x3ff22cd937d3ca43, 0x40186b5aba5e6673,
      0x3fd14c1bacf914c2},
     {0x3fe9a4c1bacf914c, 0x3feff92ae5b54693, 0x3feff8bc31d0f38c}},
    {"Llama13B", quant::BitWidth::Int4, 7, 128,
     {0x3fe94f7333333333, 0x3fedbc4222222221, 0x3fc7a7b333333333,
      0x3fef602b6c907e48, 0x3f8b9d0fb8c6c1a9, 0x3f72000000000000,
      0x3fcb2ce666666674, 0x3ff3a037f2f2b2cb, 0x4017dcbf47d01b8e,
      0x3fd0000000000000},
     {0x3fe9770333333333, 0x3fefcc5666666666, 0x3feff16ccccccccd}},
    {"Llama13B", quant::BitWidth::Int4, 7, 37,
     {0x3fe89a82135f7b28, 0x3fed738bc31d0f39, 0x3fcac00000000000,
      0x3fef72ac499cb42d, 0x3f8800b966b28c02, 0x3f73759f2298375a,
      0x3fce9572daa34954, 0x3ff21e22d186a1f9, 0x401672ba70e87d78,
      0x3fd14c1bacf914c2},
     {0x3fe91717863a1e72, 0x3fef61bacf914c1c, 0x3fefe1d0f38bc31d}},
};

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(WeightProfile, GoldenBitPatterns)
{
    for (const GoldenWeightStats &g : kGoldenWeightStats) {
        SCOPED_TRACE(::testing::Message()
                     << g.model << " int"
                     << (g.bw == quant::BitWidth::Int8 ? 8 : 4) << " seed "
                     << g.seed << " rows " << g.sampleRows);
        const WeightStats ws = profileWeights(model::findModel(g.model),
                                              g.bw, g.seed, g.sampleRows);
        const double got[10] = {
            ws.valueSparsity,       ws.meanBitSparsity,
            ws.brcrAddsPerMac,      ws.mergeFraction,
            ws.reconFraction,       ws.camSearchesPerMac,
            ws.bscAddsPerMac,       ws.bstcCompressionRatio,
            ws.valueCompressionRatio, ws.bstcSymbolsPerByte,
        };
        for (int f = 0; f < 10; ++f)
            EXPECT_EQ(bits(got[f]), g.fields[f]) << "field " << f;
        ASSERT_EQ(ws.planeSparsity.size(), g.planeSparsity.size());
        for (std::size_t p = 0; p < g.planeSparsity.size(); ++p)
            EXPECT_EQ(bits(ws.planeSparsity[p]), g.planeSparsity[p])
                << "plane " << p + 1;
    }
}

TEST(WeightProfile, DeterministicForSeed)
{
    const model::LlmConfig &m = model::findModel("OPT1B3");
    WeightStats a = profileWeights(m, quant::BitWidth::Int8, 7);
    WeightStats b = profileWeights(m, quant::BitWidth::Int8, 7);
    EXPECT_DOUBLE_EQ(a.brcrAddsPerMac, b.brcrAddsPerMac);
    EXPECT_DOUBLE_EQ(a.bstcCompressionRatio, b.bstcCompressionRatio);
}

TEST(WeightProfile, Int4SparserValues)
{
    // Fig 25(c): INT4 quantization raises value sparsity markedly.
    const model::LlmConfig &m = model::findModel("Llama13B");
    WeightStats w8 = profileWeights(m, quant::BitWidth::Int8, 3);
    WeightStats w4 = profileWeights(m, quant::BitWidth::Int4, 3);
    EXPECT_GT(w4.valueSparsity, w8.valueSparsity * 1.5);
    EXPECT_EQ(w4.planeSparsity.size(), 3u);
}

/**
 * Exact bit patterns of every AttentionStats field: Llama7B at the
 * 512, 1024 and 2048 context buckets, plus a second model, task and
 * alpha. Attention synthesis makes most of the profile warm-up's
 * Gaussian draws, so a change to how a normal is drawn, how a set is
 * synthesized or how BGPP selects must leave every double identical.
 */
struct GoldenAttentionStats
{
    const char *model;
    const char *task;
    std::size_t context;
    double alpha;
    std::uint64_t seed;
    /** bgppSelectedFraction, topkFraction, bgppPredBitsPerElem,
     *  valuePredBitsPerElem, bgppBitMacsPerElem, bgppRecall,
     *  valueTopkRecall. */
    std::uint64_t fields[7];
};

const GoldenAttentionStats kGoldenAttentionStats[] = {
    {"Llama7B", "Dolly", 512, 0.6, 1,
     {0x3fb8800000000000, 0x3fb8800000000000, 0x4008f90000000000,
      0x4014000000000000, 0x4000f90000000000, 0x3ff0000000000000,
      0x3fefeb851eb851ec}},
    {"Llama7B", "Dolly", 1024, 0.6, 1,
     {0x3fb8900000000000, 0x3fb8900000000000, 0x4009200000000000,
      0x4014000000000000, 0x4001200000000000, 0x3fefca5ab8000cb2,
      0x3fef8908a39fd01b}},
    {"Llama7B", "Dolly", 2048, 0.6, 1,
     {0x3fb7800000000000, 0x3fb7800000000000, 0x40095a6000000000,
      0x4014000000000000, 0x40015a6000000000, 0x3fef995c31d16d14,
      0x3fef2b26ad6d58e7}},
    {"OPT1B3", "MMLU", 512, 0.5, 3,
     {0x3fc9c80000000000, 0x3fc9c80000000000, 0x400a0c0000000000,
      0x4014000000000000, 0x40020c0000000000, 0x3fef9c1184877727,
      0x3fef015785ca6715}},
};

TEST(AttentionProfile, GoldenBitPatterns)
{
    for (const GoldenAttentionStats &g : kGoldenAttentionStats) {
        SCOPED_TRACE(::testing::Message()
                     << g.model << " " << g.task << " context "
                     << g.context << " alpha " << g.alpha << " seed "
                     << g.seed);
        model::Workload task = model::findTask(g.task);
        task.promptLen = g.context;
        const AttentionStats as = profileAttention(
            model::findModel(g.model), task, g.alpha, g.seed);
        const double got[7] = {
            as.bgppSelectedFraction, as.topkFraction,
            as.bgppPredBitsPerElem,  as.valuePredBitsPerElem,
            as.bgppBitMacsPerElem,   as.bgppRecall,
            as.valueTopkRecall,
        };
        for (int f = 0; f < 7; ++f)
            EXPECT_EQ(bits(got[f]), g.fields[f]) << "field " << f;
    }
}

TEST(AttentionProfile, RangesAreRealistic)
{
    const model::LlmConfig &m = model::findModel("Llama7B");
    const model::Workload &t = model::findTask("Dolly");
    AttentionStats as = profileAttention(m, t, 0.6, 1);
    EXPECT_GT(as.bgppSelectedFraction, 0.01);
    EXPECT_LT(as.bgppSelectedFraction, 0.6);
    // BGPP prediction traffic sits below the 5-bit value baseline.
    EXPECT_LT(as.bgppPredBitsPerElem, as.valuePredBitsPerElem);
    EXPECT_GT(as.bgppPredBitsPerElem, 1.9); // at least sign+MSB round.
    EXPECT_GT(as.bgppRecall, 0.75);
}

TEST(AttentionProfile, AlphaMonotone)
{
    const model::LlmConfig &m = model::findModel("Llama7B");
    const model::Workload &t = model::findTask("MMLU");
    AttentionStats strict = profileAttention(m, t, 0.3, 2);
    AttentionStats loose = profileAttention(m, t, 0.8, 2);
    EXPECT_LE(strict.bgppSelectedFraction,
              loose.bgppSelectedFraction + 0.02);
}

TEST(AttentionProfile, ParallelBitIdenticalToSerial)
{
    // The per-query fan-out derives each query's RNG from (seed, qi)
    // and joins partial sums in index order, so every statistic must
    // be bit-identical between the serial reference path (threads=1)
    // and the thread-pool path (threads=0) — across context buckets,
    // concentrations and alphas.
    const model::LlmConfig &m = model::findModel("Llama7B");
    const struct
    {
        std::size_t promptLen;
        double concentration;
        double alpha;
    } cases[] = {
        {64, 0.10, 0.6},  {256, 0.25, 0.6},  {512, 0.15, 0.5},
        {2048, 0.10, 0.6}, {1024, 0.20, 0.8},
    };
    for (const auto &c : cases) {
        model::Workload task = model::findTask("Cola");
        task.promptLen = c.promptLen;
        task.attentionConcentration = c.concentration;
        const AttentionStats serial =
            profileAttention(m, task, c.alpha, 1, 2048, 8, 1);
        const AttentionStats pooled =
            profileAttention(m, task, c.alpha, 1, 2048, 8, 0);
        EXPECT_EQ(serial.bgppSelectedFraction,
                  pooled.bgppSelectedFraction);
        EXPECT_EQ(serial.topkFraction, pooled.topkFraction);
        EXPECT_EQ(serial.bgppPredBitsPerElem, pooled.bgppPredBitsPerElem);
        EXPECT_EQ(serial.bgppBitMacsPerElem, pooled.bgppBitMacsPerElem);
        EXPECT_EQ(serial.bgppRecall, pooled.bgppRecall);
        EXPECT_EQ(serial.valueTopkRecall, pooled.valueTopkRecall);
    }
}

TEST(AttentionProfile, LongContextSparser)
{
    // Dolly (concentration 0.10) prunes harder than Cola (0.25).
    const model::LlmConfig &m = model::findModel("Llama7B");
    AttentionStats dolly =
        profileAttention(m, model::findTask("Dolly"), 0.6, 4);
    AttentionStats cola =
        profileAttention(m, model::findTask("Cola"), 0.6, 4);
    EXPECT_LT(dolly.bgppSelectedFraction, cola.bgppSelectedFraction);
}

/** Announce @p accel's needs once per distinct shape of @p trace, as a
 *  serving warm-up does. */
std::vector<ProfileRequest>
announceShapes(const engine::Accelerator &accel,
               const std::vector<model::Request> &trace)
{
    std::vector<ProfileRequest> needs;
    std::set<std::pair<std::size_t, std::size_t>> shapes;
    for (const model::Request &r : trace)
        if (shapes.insert({r.promptLen, r.decodeLen}).second)
            accel.profileRequests(model::findModel(r.model), r.workload(),
                                  needs);
    return needs;
}

TEST(ProfileCache, AnnounceKeepsOneNeedPerKey)
{
    engine::Registry registry;
    const auto mcbp = registry.make("mcbp");
    const auto gpu = registry.make("a100");
    const auto weightsOnly = registry.make("bitwave");
    const auto attentionOnly = registry.make("spatten");

    // Dolly's jittered prompts (4096..12288) all clamp into the 2048
    // bucket: every shape names the same two keys.
    model::TraceConfig dolly;
    dolly.model = "OPT1B3";
    dolly.task = "Dolly";
    dolly.requests = 10000;
    dolly.lengthJitter = 0.5;
    const std::vector<model::Request> dollyTrace =
        model::synthesizeTrace(dolly);
    EXPECT_EQ(announceShapes(*mcbp, dollyTrace).size(), 1u);
    EXPECT_EQ(announceShapes(*gpu, dollyTrace).size(), 1u);
    EXPECT_EQ(announceShapes(*weightsOnly, dollyTrace).size(), 1u);
    EXPECT_EQ(announceShapes(*attentionOnly, dollyTrace).size(), 1u);

    // MBPP's jittered prompts (512..1536) reach several buckets: one
    // need per bucket, except for a design that profiles weights only.
    model::TraceConfig mbpp = dolly;
    mbpp.task = "MBPP";
    mbpp.requests = 2000;
    const std::vector<model::Request> mbppTrace =
        model::synthesizeTrace(mbpp);
    std::set<std::size_t> buckets;
    for (const model::Request &r : mbppTrace)
        buckets.insert(std::bit_ceil(
            std::clamp<std::size_t>(r.promptLen, 64, 2048)));
    ASSERT_GT(buckets.size(), 1u);
    const std::vector<ProfileRequest> mbppNeeds =
        announceShapes(*mcbp, mbppTrace);
    EXPECT_EQ(mbppNeeds.size(), buckets.size());
    EXPECT_EQ(announceShapes(*gpu, mbppTrace).size(), buckets.size());
    EXPECT_EQ(announceShapes(*attentionOnly, mbppTrace).size(),
              buckets.size());
    EXPECT_EQ(announceShapes(*weightsOnly, mbppTrace).size(), 1u);

    // Needs that differ in any key field are all kept; a field outside
    // the needed keys does not split a need.
    const model::LlmConfig &m = model::findModel("OPT1B3");
    const model::Workload &task = model::findTask("Dolly");
    model::Workload sparser = task;
    sparser.attentionConcentration = 0.05;
    ProfileNeeds both;
    both.weights = true;
    both.attention = true;
    ProfileNeeds alpha = both, seed = both, weights = both;
    alpha.alpha = 0.7;
    seed.seed = 2;
    weights.attention = false;
    ProfileNeeds weightsAlpha = weights;
    weightsAlpha.alpha = 0.7;
    std::vector<ProfileRequest> out;
    for (int pass = 0; pass < 2; ++pass) {
        announce(out, m, task, both);
        announce(out, m, task, alpha);
        announce(out, m, task, seed);
        announce(out, m, sparser, both);
        announce(out, m, task, weights);
        announce(out, m, sparser, weightsAlpha);
        announce(out, m, task, ProfileNeeds{});
    }
    EXPECT_EQ(out.size(), 5u);

    // Warming the announced needs profiles each distinct key once: one
    // weight tile plus one attention set per bucket.
    ProfileCache cache;
    cache.warm(mbppNeeds);
    EXPECT_EQ(cache.profileCalls(), 1 + buckets.size());
    EXPECT_EQ(cache.size(), 1 + buckets.size());
}

} // namespace
} // namespace mcbp::accel
