/** @file Integration tests crossing module boundaries: the full MCBP
 *  pipeline (quantize -> compress -> decompress -> BRCR -> verify) and
 *  the prediction + attention flow against the reference transformer. */
#include <gtest/gtest.h>

#include "accel/mcbp_accelerator.hpp"
#include "bgpp/bgpp_predictor.hpp"
#include "brcr/brcr_engine.hpp"
#include "brcr/cam.hpp"
#include "brcr/enumeration.hpp"
#include "bstc/compressed_weight.hpp"
#include "common/rng.hpp"
#include "model/synthetic.hpp"
#include "model/transformer.hpp"
#include <cmath>

#include "quant/gemm.hpp"

namespace mcbp {
namespace {

TEST(Integration, CompressDecompressComputeExact)
{
    // The full weight path of Fig 6: offline BSTC compression -> online
    // decompression -> BRCR GEMM, exactly equal to the reference integer
    // GEMM on the original weights.
    Rng rng(1);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 48, 768, quant::BitWidth::Int8, profile);

    bstc::PlanePolicy policy = bstc::paperDefaultPolicy(7);
    bstc::CompressedWeight cw(qw.values, quant::BitWidth::Int8, 4, policy,
                              256);
    Int8Matrix restored = cw.decompressToMatrix();
    ASSERT_EQ(restored, qw.values);

    Int8Matrix x(768, 4);
    x.fill([&](std::size_t, std::size_t) {
        return static_cast<std::int8_t>(
            static_cast<std::int64_t>(rng.uniformInt(255)) - 127);
    });
    brcr::BrcrEngine engine;
    brcr::BrcrGemmResult res = engine.gemm(restored, x);
    EXPECT_EQ(res.y, quant::gemmInt(qw.values, x));
}

TEST(Integration, SegmentDecodeFeedsCamMatch)
{
    // Hardware flow of Fig 10 steps 2-4: decode one segment, load its
    // patterns into the CAM, and verify search results against the
    // enumeration-based factorization.
    Rng rng(2);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 8, 128, quant::BitWidth::Int8, profile);
    bstc::PlanePolicy policy = bstc::paperDefaultPolicy(7);
    bstc::CompressedWeight cw(qw.values, quant::BitWidth::Int8, 4, policy,
                              64);
    bitslice::SignMagnitude sm =
        bitslice::decompose(qw.values, quant::BitWidth::Int8);

    const std::size_t plane = 4, group = 1, segment = 0;
    std::vector<std::uint32_t> pats =
        cw.decodeSegment(plane, group, segment);
    brcr::CamMatchUnit cam(4, 64);
    cam.load(pats);

    for (std::uint32_t key = 1; key < 16; ++key) {
        auto bitmap = cam.search(key);
        for (std::size_t c = 0; c < 64; ++c) {
            const bool hw = (bitmap[c >> 6] >> (c & 63)) & 1u;
            const bool expect =
                sm.magnitude[plane].columnPattern(group * 4, 4, c) == key;
            EXPECT_EQ(hw, expect) << "key " << key << " col " << c;
        }
    }
}

TEST(Integration, DecodeAttentionWithBgppOverKvCache)
{
    // Decode-stage flow: hold one head's INT8 K and V rows, predict
    // vital keys with BGPP, compute sparse attention, and compare with
    // the dense softmax-weighted output.
    Rng rng(3);
    const std::size_t d = 64, s = 384;
    model::AttentionSet set = model::synthesizeAttention(rng, s, d, 0.12);

    const Int8Matrix &keys = set.keys;
    Int8Matrix values(s, d);
    for (std::size_t j = 0; j < s; ++j)
        for (std::size_t i = 0; i < d; ++i)
            values.at(j, i) = static_cast<std::int8_t>(
                static_cast<std::int64_t>(rng.uniformInt(255)) - 127);

    bgpp::BgppConfig cfg;
    cfg.logitScale = set.logitScale;
    bgpp::BgppPredictor predictor(cfg);
    bgpp::BgppResult sel = predictor.predict(set.query, keys);
    ASSERT_GE(sel.selected.size(), 1u);
    ASSERT_LT(sel.selected.size(), s);

    // Dense reference attention output (float softmax over int scores).
    auto attend = [&](const std::vector<std::uint32_t> &keys_used) {
        std::vector<double> out(d, 0.0);
        double denom = 0.0, mx = -1e30;
        std::vector<double> logits;
        logits.reserve(keys_used.size());
        for (std::uint32_t j : keys_used) {
            double acc = 0.0;
            for (std::size_t i = 0; i < d; ++i)
                acc += static_cast<double>(set.query[i]) * keys.at(j, i);
            const double l = acc * set.logitScale;
            logits.push_back(l);
            mx = std::max(mx, l);
        }
        for (std::size_t n = 0; n < keys_used.size(); ++n) {
            const double w = std::exp(logits[n] - mx);
            denom += w;
            for (std::size_t i = 0; i < d; ++i)
                out[i] += w * values.at(keys_used[n], i);
        }
        for (auto &o : out)
            o /= denom;
        return out;
    };

    std::vector<std::uint32_t> all(s);
    for (std::size_t j = 0; j < s; ++j)
        all[j] = static_cast<std::uint32_t>(j);
    std::vector<double> dense = attend(all);
    std::vector<double> sparse = attend(sel.selected);

    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
        dot += dense[i] * sparse[i];
        na += dense[i] * dense[i];
        nb += sparse[i] * sparse[i];
    }
    EXPECT_GT(dot / std::sqrt(na * nb), 0.985);
}

TEST(Integration, TransformerWithBgppSelectorEndToEnd)
{
    // A full decoder block executed with BGPP attention pruning stays
    // close to the FP32 reference — the Table 2 proxy path.
    Rng rng(4);
    model::WeightProfile profile;
    profile.sigma = 0.08;
    model::TransformerLayer layer(
        model::randomLayer(rng, 64, 4, 128, profile));
    FloatMatrix x = model::gaussianActivations(rng, 20, 64, 1.0);

    model::KeySelector selector = [](const std::vector<std::int8_t> &q,
                                     const Int8Matrix &keys,
                                     double logit_scale) {
        bgpp::BgppConfig cfg;
        cfg.alpha = 0.7;
        cfg.logitScale = logit_scale;
        bgpp::BgppPredictor pred(cfg);
        return pred.predict(q, keys).selected;
    };
    quant::ErrorStats e = model::layerFidelity(
        layer.forwardF32(x), layer.forwardPruned(x, selector));
    EXPECT_GT(e.cosine, 0.96);
}

TEST(Integration, EnumerationMatchesEnginePerGroup)
{
    // The explicit E x I x X factorization and the production engine
    // agree group by group on the merged-activation totals.
    Rng rng(5);
    Int8Matrix w(4, 200);
    w.fill([&](std::size_t, std::size_t) {
        return static_cast<std::int8_t>(rng.uniformInt(2)); // bits 0/1
    });
    std::vector<std::int8_t> x(200);
    for (auto &v : x)
        v = static_cast<std::int8_t>(
            static_cast<std::int64_t>(rng.uniformInt(255)) - 127);

    // Plane 1 of a 0/1 matrix is the matrix itself.
    bitslice::SignMagnitude sm =
        bitslice::decompose(w, quant::BitWidth::Int8);
    brcr::GroupFactorization fact =
        brcr::factorizeGroup(sm.magnitude[0], 0, 4);
    brcr::ReconResult recon = brcr::reconstructOutputs(
        fact, brcr::mergeActivations(fact, x));

    brcr::BrcrEngine engine;
    brcr::BrcrGemvResult res = engine.gemv(w, x);
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_EQ(res.y[r], recon.y[r]);
}

TEST(Integration, FullAcceleratorRunAllModelsAllTasks)
{
    // Smoke the entire modeling stack: every (model, task) pair runs and
    // produces finite, positive metrics.
    accel::McbpAccelerator mcbp = accel::makeMcbpStandard();
    for (const auto &m : model::modelZoo()) {
        for (const auto &t : model::taskZoo()) {
            accel::RunMetrics r = mcbp.run(m, t);
            EXPECT_GT(r.totalCycles(), 0.0) << m.name << "/" << t.name;
            EXPECT_GT(r.joules(), 0.0) << m.name << "/" << t.name;
            EXPECT_GT(r.gops(), 0.0) << m.name << "/" << t.name;
            EXPECT_TRUE(std::isfinite(r.gopsPerWatt()));
        }
    }
}

} // namespace
} // namespace mcbp
