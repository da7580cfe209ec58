#include "accel/profiles.hpp"

#include <algorithm>
#include <cmath>

#include "bgpp/bgpp_predictor.hpp"
#include "bgpp/topk_baseline.hpp"
#include "brcr/brcr_engine.hpp"
#include "bstc/compressed_weight.hpp"
#include "bstc/value_codec.hpp"
#include "bitslice/sparsity.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "model/synthetic.hpp"

namespace mcbp::accel {

WeightStats
profileWeights(const model::LlmConfig &model, quant::BitWidth bw,
               std::uint64_t seed, std::size_t sample_rows)
{
    fatalIf(sample_rows == 0, "sample must be non-empty");
    Rng rng(seed ^ 0x57a7e11eull);
    model::WeightProfile profile;
    profile.dynamicRange = model.dynamicRange;
    const std::size_t cols = model.hidden;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, sample_rows, cols, bw, profile);

    // Slice the tile once, as MCBP does offline; sparsity, BRCR and
    // BSTC all read this one decomposition.
    const bitslice::SignMagnitude sm = bitslice::decompose(qw.values, bw);

    WeightStats stats;
    bitslice::SparsityReport sr = bitslice::analyzeSparsity(qw.values, sm);
    stats.valueSparsity = sr.valueSparsity;
    stats.meanBitSparsity = sr.meanBitSparsity;
    stats.planeSparsity = sr.planeSparsity;

    // Run the real BRCR engine on one activation vector and extrapolate
    // per-MAC (all counted quantities are linear in rows x cols).
    std::vector<std::int8_t> x(cols);
    for (auto &v : x)
        v = static_cast<std::int8_t>(
            static_cast<std::int64_t>(rng.uniformInt(255)) - 127);
    brcr::BrcrEngine engine({4, bw});
    brcr::BrcrGemvResult res = engine.gemv(bitslice::splitSigns(sm), x);
    const double macs =
        static_cast<double>(sample_rows) * static_cast<double>(cols);
    const double total = static_cast<double>(res.ops.totalAdds());
    stats.brcrAddsPerMac = total / macs;
    stats.mergeFraction =
        total > 0 ? static_cast<double>(res.ops.mergeAdds) / total : 0.0;
    stats.reconFraction =
        total > 0 ? static_cast<double>(res.ops.reconAdds) / total : 0.0;
    stats.camSearchesPerMac =
        static_cast<double>(res.ops.camSearches) / macs;

    const double planes = static_cast<double>(quant::magnitudeBits(bw));
    stats.bscAddsPerMac = planes * (1.0 - stats.meanBitSparsity);

    // BSTC compression with the paper's plane policy.
    bstc::PlanePolicy policy = bstc::paperDefaultPolicy(
        static_cast<std::size_t>(quant::magnitudeBits(bw)));
    bstc::CompressedWeight cw(sm, bw, 4, policy);
    stats.bstcCompressionRatio = cw.compressionRatio();
    stats.bstcSymbolsPerByte =
        static_cast<double>(cw.rowGroups()) * cols *
        static_cast<double>(policy.compressedCount()) / macs;

    // Value-level baseline: the better of a real zero-RLE and a real
    // canonical Huffman code on the same weights (what EIE/Deep-
    // Compression style value compression achieves).
    stats.valueCompressionRatio = std::max(
        bstc::valueCompressionRatio(bstc::rleEncode(qw.values)),
        bstc::valueCompressionRatio(bstc::huffmanEncode(qw.values)));
    return stats;
}

namespace {

/** Per-query accumulands of profileAttention (joined in index order). */
struct QuerySample
{
    double sel = 0.0;
    double predBits = 0.0;
    double macs = 0.0;
    double recallBgpp = 0.0;
    double recallTopk = 0.0;
    double topkFrac = 0.0;
};

} // namespace

AttentionStats
profileAttention(const model::LlmConfig &model, const model::Workload &task,
                 double alpha, std::uint64_t seed, std::size_t max_context,
                 std::size_t queries, std::size_t threads)
{
    const std::size_t s =
        std::min<std::size_t>(max_context,
                              std::max<std::size_t>(64, task.promptLen));
    const std::size_t d = model.headDim();

    // Each query derives its own RNG from (seed, qi), so the per-query
    // work is self-contained: the fan-out below produces the same
    // samples at every thread count, and joining them in index order
    // keeps the floating-point reduction order fixed — parallel output
    // is bit-identical to the serial path.
    const std::vector<QuerySample> samples =
        parallel::parallelMap<QuerySample>(
            queries,
            [&](std::size_t qi) {
                Rng rng(seed ^ 0xa77e4710ull ^
                        (static_cast<std::uint64_t>(qi) *
                         0x9e3779b97f4a7c15ull));
                model::AttentionSet set = model::synthesizeAttention(
                    rng, s, d, task.attentionConcentration);

                bgpp::BgppConfig cfg;
                cfg.alpha = alpha;
                cfg.logitScale = set.logitScale;
                bgpp::BgppPredictor predictor(cfg);
                bgpp::BgppResult res =
                    predictor.predict(set.query, set.keys);

                QuerySample q;
                const double elems = static_cast<double>(s) * d;
                q.sel = static_cast<double>(res.selected.size()) /
                        static_cast<double>(s);
                q.predBits = static_cast<double>(res.bitsFetched) / elems;
                q.macs = static_cast<double>(res.macs) / elems;

                // Match the top-k budget to what BGPP kept, so the
                // traffic comparison (Fig 5g) is at equal selectivity.
                const std::size_t k =
                    std::max<std::size_t>(1, res.selected.size());
                bgpp::TopkResult truth =
                    bgpp::exactTopk(set.query, set.keys, k);
                bgpp::TopkResult value =
                    bgpp::valueTopk(set.query, set.keys, k);
                q.recallBgpp = bgpp::recall(res.selected, truth.selected);
                q.recallTopk =
                    bgpp::recall(value.selected, truth.selected);
                q.topkFrac =
                    static_cast<double>(k) / static_cast<double>(s);
                return q;
            },
            threads);

    double sel = 0.0, pred_bits = 0.0, macs = 0.0;
    double recall_bgpp = 0.0, recall_topk = 0.0, topk_frac = 0.0;
    for (const QuerySample &q : samples) {
        sel += q.sel;
        pred_bits += q.predBits;
        macs += q.macs;
        recall_bgpp += q.recallBgpp;
        recall_topk += q.recallTopk;
        topk_frac += q.topkFrac;
    }

    AttentionStats stats;
    const double n = static_cast<double>(queries);
    stats.bgppSelectedFraction = sel / n;
    stats.topkFraction = topk_frac / n;
    stats.bgppPredBitsPerElem = pred_bits / n;
    stats.bgppBitMacsPerElem = macs / n;
    stats.bgppRecall = recall_bgpp / n;
    stats.valueTopkRecall = recall_topk / n;
    stats.valuePredBitsPerElem = 5.0; // 4-bit magnitude + sign.
    return stats;
}

} // namespace mcbp::accel
