/**
 * @file
 * Profiling fast-path benchmark: wall-clock of the expensive
 * measure-then-model loop that gates every figure, serving run and
 * cluster sweep.
 *
 * Eight sections:
 *  1. Cold fleet warm-up — a registry fleet's full profile working set
 *     ((model, bw) weight keys + (model, ctx-bucket, alpha) attention
 *     keys), filled serially vs fanned out over the thread pool via
 *     Registry::warmFleet. On a 1-core host the two are equal by
 *     construction; on 4+ cores the fan-out targets >= 3x. Either way
 *     the resulting stats are verified bit-identical here.
 *  2. factorizeGroup — the original unordered_map pattern dedup
 *     (bench/reference_kernels.hpp) vs the direct-index GroupScratch
 *     fast path.
 *  3. compareMergeStrategies' full-column dedup — the original
 *     per-bit get() key build (reference_kernels.hpp) vs the
 *     word-parallel packed-word walk now in bitslice/sparsity.cpp.
 *  4. SIMD dispatch tiers — the scalar reference kernels vs the
 *     CPUID-dispatched tier (common/simd/) on the popcount-scan and
 *     non-zero-mask kernels. On an AVX2-or-better host the dispatched
 *     tier must win by >= 2x; on a scalar-only host the gate skips.
 *     Section 1 doubles as the end-to-end bit-identity check: the
 *     serial fleet warms under a forced-scalar dispatch table and must
 *     match the SIMD-dispatched parallel fleet stat-for-stat.
 *  5. decompose — the original per-element set() loop
 *     (reference_kernels.hpp) vs the dispatched word-parallel slice
 *     kernel on one Llama7B INT8 profile tile, then each profileWeights
 *     stage on that tile: the Gaussian draws, quantization and sparsity
 *     analysis, and for BRCR, BSTC, RLE and Huffman the encoder (or
 *     GEMV) against the count profileWeights reads instead; then
 *     profileWeights end to end. The planes must match bit for bit and
 *     every count must equal its encoder's (in the exit code); the
 *     times are recorded, not gated.
 *  6. Gaussian synthesis — the per-call libm Box-Muller
 *     (reference_kernels.hpp) vs the dispatched boxMuller kernel in
 *     draws/s, then synthesizeAttention at context 2048. Every tier
 *     must give the same bits; how many draws differ from libm is
 *     recorded, and the times are recorded, not gated.
 *  7. Profile announcement — an MCBP accelerator announces its needs
 *     once per distinct shape of a 100k-request jittered Dolly trace,
 *     the way a serving warm-up does, and a fresh cache is warmed from
 *     them. Host-independent gate: the needs announced may not exceed
 *     the profile keys they name (profileCalls() of the warm). The
 *     times are recorded, not gated.
 *  8. Attention profile — the per-element loops (reference_kernels.hpp)
 *     vs the dispatched signed-magnitude dot and key quantizer on each
 *     runnable tier, for BGPP predict, both top-k baselines and key
 *     quantization on one Llama7B-head key set at context 2048; then
 *     synthesizeAttention and profileAttention (serial) at contexts
 *     1024 and 2048. Every tier must reproduce the per-element
 *     results bit for bit (in the exit code); the times are recorded,
 *     not gated.
 *
 * `--json <path>` archives the records (bench_util.hpp schema).
 */
#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <set>
#include <utility>

#include "bench_util.hpp"
#include "reference_kernels.hpp"
#include "bitslice/sign_magnitude.hpp"
#include "bitslice/sparsity.hpp"
#include "brcr/brcr_engine.hpp"
#include "brcr/enumeration.hpp"
#include "bstc/compressed_weight.hpp"
#include "bstc/value_codec.hpp"
#include "common/aligned_buffer.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "accel/profiles.hpp"
#include "bgpp/bgpp_predictor.hpp"
#include "bgpp/topk_baseline.hpp"
#include "common/simd/simd.hpp"
#include "engine/adapters.hpp"
#include "engine/registry.hpp"
#include "model/request.hpp"
#include "model/synthetic.hpp"

using namespace mcbp;

namespace {

double
seconds(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best-of-@p reps wall time (reduces scheduler noise). */
double
bestOf(int reps, const std::function<void()> &fn)
{
    double best = seconds(fn);
    for (int i = 1; i < reps; ++i)
        best = std::min(best, seconds(fn));
    return best;
}

// ---- Section 1: cold fleet warm-up -----------------------------------------

const std::vector<std::string> kFleet = {"mcbp", "mcbp-aggressive",
                                         "spatten", "bitwave", "a100"};
const std::vector<std::string> kModels = {"OPT1B3", "Bloom1B7", "Llama7B"};
const std::vector<std::string> kTasks = {"Cola", "MMLU", "Dolly",
                                         "Wikitext2"};

/** Warm a fresh registry's fleet at the given thread cap. */
double
coldWarmSeconds(std::size_t threads, engine::Registry &registry,
                std::vector<std::unique_ptr<engine::Accelerator>> &fleet)
{
    fleet = registry.fleet(kFleet);
    return seconds(
        [&] { registry.warmFleet(fleet, kModels, kTasks, threads); });
}

/** Exact equality of every profiled stat two fleets would consume. */
bool
fleetsBitIdentical(
    const std::vector<std::unique_ptr<engine::Accelerator>> &a,
    const std::vector<std::unique_ptr<engine::Accelerator>> &b)
{
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto *ma = dynamic_cast<const engine::McbpAdapter *>(a[i].get());
        const auto *mb = dynamic_cast<const engine::McbpAdapter *>(b[i].get());
        if (ma == nullptr || mb == nullptr)
            continue; // baselines consume the same cached keys.
        for (const std::string &mn : kModels) {
            const model::LlmConfig &m = model::findModel(mn);
            const accel::WeightStats &wa =
                ma->underlying().weightStats(m);
            const accel::WeightStats &wb =
                mb->underlying().weightStats(m);
            if (wa.brcrAddsPerMac != wb.brcrAddsPerMac ||
                wa.bstcCompressionRatio != wb.bstcCompressionRatio ||
                wa.meanBitSparsity != wb.meanBitSparsity)
                return false;
            for (const std::string &tn : kTasks) {
                const model::Workload &t = model::findTask(tn);
                const accel::AttentionStats &aa =
                    ma->underlying().attentionStats(m, t);
                const accel::AttentionStats &ab =
                    mb->underlying().attentionStats(m, t);
                if (aa.bgppSelectedFraction != ab.bgppSelectedFraction ||
                    aa.bgppPredBitsPerElem != ab.bgppPredBitsPerElem ||
                    aa.bgppRecall != ab.bgppRecall)
                    return false;
            }
        }
    }
    return true;
}

/** Every counter of two BRCR op tallies agrees. */
bool
sameOps(const brcr::BrcrOpCounts &a, const brcr::BrcrOpCounts &b)
{
    return a.mergeAdds == b.mergeAdds && a.reconAdds == b.reconAdds &&
           a.shiftAccAdds == b.shiftAccAdds &&
           a.camSearches == b.camSearches &&
           a.groupsProcessed == b.groupsProcessed &&
           a.zeroColumns == b.zeroColumns;
}

/**
 * Section 5, second half: each stage of profileWeights on the Llama7B
 * INT8 profile tile @p tile (drawn from Rng(@p tile_seed)), timed best
 * of 5. For BRCR, BSTC, RLE and
 * Huffman the stage runs twice, as the encoder (or GEMV) whose counts
 * profileWeights used to read and as the count it reads now. Returns
 * whether every count equals its encoder's.
 */
bool
weightProfileStages(bench::JsonRecords &json, const model::LlmConfig &llama,
                    std::uint64_t tile_seed, const Int8Matrix &tile)
{
    constexpr int kReps = 5;
    const quant::BitWidth bw = quant::BitWidth::Int8;
    model::WeightProfile profile;
    profile.dynamicRange = llama.dynamicRange;
    FloatMatrix fw;
    quant::QuantizedWeight qw;
    const double gauss_s = bestOf(kReps, [&] {
        Rng rng(tile_seed);
        fw = model::gaussianWeights(rng, tile.rows(), tile.cols(), profile);
    });
    const double quant_s =
        bestOf(kReps, [&] { qw = quant::quantizeWeight(fw, bw); });
    const bitslice::SignMagnitude sm = bitslice::decompose(tile, bw);
    const double sparsity_s = bestOf(kReps, [&] {
        (void)bitslice::analyzeSparsity(tile, sm);
    });
    std::printf("  profileWeights stages on that tile, ms:\n");
    std::printf("    %-22s %8.2f\n", "Gaussian tile", gauss_s * 1e3);
    std::printf("    %-22s %8.2f\n", "quantizeWeight", quant_s * 1e3);
    std::printf("    %-22s %8.2f\n", "analyzeSparsity", sparsity_s * 1e3);
    json.begin()
        .field("section", "weight_profile_stages")
        .field("gaussian_s", gauss_s)
        .field("quantize_s", quant_s)
        .field("analyze_sparsity_s", sparsity_s)
        .field("tile_matches_profile", qw.values == tile ? 1 : 0);

    bool all_match = qw.values == tile;
    const auto stage = [&](const char *name,
                           const std::function<void()> &encode,
                           const std::function<void()> &count, bool match) {
        const double encode_s = bestOf(kReps, encode);
        const double count_s = bestOf(kReps, count);
        std::printf("    %-22s %8.2f encode  %8.2f count  (%s)\n", name,
                    encode_s * 1e3, count_s * 1e3,
                    match ? "counts match" : "COUNT MISMATCH");
        json.begin()
            .field("section", "weight_profile_stages")
            .field("stage", name)
            .field("encode_s", encode_s)
            .field("count_s", count_s)
            .field("counts_match", match ? 1 : 0);
        all_match = all_match && match;
    };

    const bitslice::SignSplit split = bitslice::splitSigns(sm);
    const brcr::BrcrEngine engine({4, bw});
    std::vector<std::int8_t> x(tile.cols());
    Rng xrng(7);
    for (auto &v : x)
        v = static_cast<std::int8_t>(
            static_cast<std::int64_t>(xrng.uniformInt(255)) - 127);
    brcr::BrcrOpCounts run_ops, counted_ops;
    const auto brcr_run = [&] { run_ops = engine.gemv(split, x).ops; };
    const auto brcr_count = [&] { counted_ops = engine.opCounts(split); };
    brcr_run();
    brcr_count();
    stage("BRCR gemv / opCounts", brcr_run, brcr_count,
          sameOps(run_ops, counted_ops));

    const bstc::PlanePolicy policy = bstc::paperDefaultPolicy(sm.planeCount());
    std::uint64_t encoded = 0, counted = 0;
    const auto bstc_encode = [&] {
        encoded = bstc::CompressedWeight(sm, bw, 4, policy).storedBits();
    };
    const auto bstc_count = [&] { counted = bstc::storedBits(sm, 4, policy); };
    bstc_encode();
    bstc_count();
    stage("BSTC storedBits", bstc_encode, bstc_count, encoded == counted);

    const auto rle_encode = [&] { encoded = bstc::rleEncode(tile).bitCount; };
    const auto rle_count = [&] { counted = bstc::rleEncodedBits(tile); };
    rle_encode();
    rle_count();
    stage("RLE bits", rle_encode, rle_count, encoded == counted);

    const auto huff_encode = [&] {
        encoded = bstc::huffmanEncode(tile).bitCount;
    };
    const auto huff_count = [&] { counted = bstc::huffmanEncodedBits(tile); };
    huff_encode();
    huff_count();
    stage("Huffman bits", huff_encode, huff_count, encoded == counted);

    const double profile_s = bestOf(kReps, [&] {
        (void)accel::profileWeights(llama, bw, 1);
    });
    std::printf("    %-22s %8.2f (Llama7B INT8, end to end)\n",
                "profileWeights", profile_s * 1e3);
    json.begin()
        .field("section", "weight_profile_stages")
        .field("stage", "profile_weights")
        .field("profile_weights_s", profile_s);
    std::printf("  every count equals its encoder: %s\n",
                all_match ? "yes" : "NO (BUG)");
    return all_match;
}

/** Same fields, same values: two BGPP results agree bit for bit. */
bool
sameResult(const bgpp::BgppResult &a, const bgpp::BgppResult &b)
{
    return a.selected == b.selected && a.estimates == b.estimates &&
           a.bitsFetched == b.bitsFetched && a.macs == b.macs &&
           a.roundsRun == b.roundsRun &&
           a.clockGatedRounds == b.clockGatedRounds &&
           a.survivorsPerRound == b.survivorsPerRound;
}

/**
 * Section 8: the attention profile's per-element loops vs the
 * dispatched kernels on every runnable tier, then synthesizeAttention
 * and profileAttention end to end. Returns whether every tier matched
 * the per-element results bit for bit.
 */
bool
attentionProfileSection(bench::JsonRecords &json)
{
    bench::banner("Attention profile: per-element loops vs dispatched "
                  "kernels");
    const model::LlmConfig &llama = model::findModel("Llama7B");
    const std::size_t s = accel::kProfileMaxContext;
    const std::size_t d = llama.headDim();
    Rng set_rng(0xa77e);
    const model::AttentionSet set =
        model::synthesizeAttention(set_rng, s, d, 0.10);
    bgpp::BgppConfig cfg;
    cfg.alpha = 0.6;
    cfg.logitScale = set.logitScale;
    const std::size_t k = s / 10;
    Rng key_rng(0xa77f);
    const FloatMatrix keys_f = model::gaussianActivations(key_rng, s, d);

    constexpr int kReps = 5;
    bgpp::BgppResult bgpp_ref;
    std::vector<std::int32_t> exact_ref, value_ref;
    Int8Matrix keys_ref;
    double scale_ref = 0.0;
    const double bgpp_ref_s = bestOf(kReps, [&] {
        bgpp_ref = bench::bgppPredictPerElement(cfg, set.query, set.keys);
    });
    const double exact_ref_s = bestOf(kReps, [&] {
        exact_ref = bench::exactScoresPerElement(set.query, set.keys);
    });
    const double value_ref_s = bestOf(kReps, [&] {
        value_ref = bench::valueScoresPerElement(set.query, set.keys, 4);
    });
    const double quant_ref_s = bestOf(kReps, [&] {
        scale_ref = bench::quantizeKeysPerElement(keys_f, keys_ref);
    });
    std::printf("  %zu keys x %zu dims (Llama7B head), times in ms\n", s,
                d);
    std::printf("  %-10s %12s %12s %12s %12s\n", "tier", "bgpp", "exact",
                "value-topk", "key-quant");
    std::printf("  %-10s %12.3f %12.3f %12.3f %12.3f\n", "per-elem",
                bgpp_ref_s * 1e3, exact_ref_s * 1e3, value_ref_s * 1e3,
                quant_ref_s * 1e3);
    json.begin()
        .field("section", "attention_profile")
        .field("tier", "per_element")
        .field("bgpp_s", bgpp_ref_s)
        .field("exact_topk_s", exact_ref_s)
        .field("value_topk_s", value_ref_s)
        .field("key_quant_s", quant_ref_s)
        .field("bit_identical", 1);

    bool all_match = true;
    for (const simd::Tier t :
         {simd::Tier::Scalar, simd::Tier::Avx2, simd::Tier::Avx512}) {
        if (t > simd::availableTier())
            continue;
        simd::forceTier(t);
        bgpp::BgppResult res;
        bgpp::TopkResult exact, value;
        Int8Matrix keys(s, d);
        double scale = 0.0;
        const double bgpp_s = bestOf(kReps, [&] {
            res = bgpp::BgppPredictor(cfg).predict(set.query, set.keys);
        });
        const double exact_s = bestOf(kReps, [&] {
            exact = bgpp::exactTopk(set.query, set.keys, k);
        });
        const double value_s = bestOf(kReps, [&] {
            value = bgpp::valueTopk(set.query, set.keys, k, 4);
        });
        const double quant_s = bestOf(kReps, [&] {
            const simd::Kernels &kern = simd::kernels();
            const float kmax = kern.absMax(keys_f.data(), keys_f.size());
            scale = kmax > 0 ? kmax / 127.0 : 1.0;
            kern.quantizeSymmetric(keys_f.data(), keys_f.size(), scale,
                                   keys.data());
        });
        const bool match = sameResult(res, bgpp_ref) &&
                           exact.estimates == exact_ref &&
                           value.estimates == value_ref &&
                           keys == keys_ref && scale == scale_ref;
        all_match = all_match && match;
        std::printf("  %-10s %12.3f %12.3f %12.3f %12.3f   (%s)\n",
                    simd::tierName(t), bgpp_s * 1e3, exact_s * 1e3,
                    value_s * 1e3, quant_s * 1e3,
                    match ? "bit-identical" : "DIFFER");
        json.begin()
            .field("section", "attention_profile")
            .field("tier", simd::tierName(t))
            .field("bgpp_s", bgpp_s)
            .field("exact_topk_s", exact_s)
            .field("value_topk_s", value_s)
            .field("key_quant_s", quant_s)
            .field("bit_identical", match ? 1 : 0);
    }
    simd::resetTier();

    model::Workload task = model::findTask("Dolly");
    for (const std::size_t context : {std::size_t{1024}, std::size_t{2048}}) {
        const double synth_s = bestOf(3, [&] {
            for (std::size_t q = 0; q < accel::kProfileQueries; ++q) {
                Rng qrng(0xa77e4710ull ^ q);
                (void)model::synthesizeAttention(qrng, context, d, 0.10);
            }
        });
        task.promptLen = context;
        const double profile_s = bestOf(3, [&] {
            (void)accel::profileAttention(llama, task, 0.6, 1,
                                          accel::kProfileMaxContext,
                                          accel::kProfileQueries, 1);
        });
        std::printf("  context %4zu: synthesizeAttention %7.2f ms, "
                    "profileAttention %7.2f ms (%zu queries, serial, %s)\n",
                    context, synth_s * 1e3, profile_s * 1e3,
                    accel::kProfileQueries,
                    simd::tierName(simd::activeTier()));
        json.begin()
            .field("section", "attention_profile")
            .field("tier", simd::tierName(simd::activeTier()))
            .field("context", context)
            .field("synthesize_attention_s", synth_s)
            .field("profile_attention_s", profile_s);
    }
    std::printf("  every tier matches the per-element loops: %s\n",
                all_match ? "yes" : "NO (BUG)");
    return all_match;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::validatedJsonPathFromArgs(argc, argv);
    bench::JsonRecords json("profiling_speed");

    bench::banner("Cold fleet warm-up: serial vs thread-pool fan-out");
    std::cout << "fleet: " << kFleet.size() << " accelerators x "
              << kModels.size() << " models x " << kTasks.size()
              << " tasks; pool threads = " << parallel::hardwareThreads()
              << "\n";
    engine::Registry serial_registry, parallel_registry;
    std::vector<std::unique_ptr<engine::Accelerator>> serial_fleet,
        parallel_fleet;
    // Warm the serial fleet with the dispatch table pinned to the
    // scalar reference kernels, the parallel one with the CPUID tier:
    // the bit-identity check below then covers scalar-vs-SIMD as well
    // as serial-vs-parallel.
    simd::forceTier(simd::Tier::Scalar);
    const double serial_s = coldWarmSeconds(1, serial_registry,
                                            serial_fleet);
    simd::resetTier();
    const double parallel_s = coldWarmSeconds(0, parallel_registry,
                                              parallel_fleet);
    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 1.0;
    const bool identical =
        fleetsBitIdentical(serial_fleet, parallel_fleet);
    std::printf("  serial    %8.3f s  (%zu profiles)\n", serial_s,
                serial_registry.profileCache()->size());
    std::printf("  parallel  %8.3f s  (%zu profiles)\n", parallel_s,
                parallel_registry.profileCache()->size());
    std::printf("  speedup   %8.2fx   bit-identical: %s\n", speedup,
                identical ? "yes" : "NO (BUG)");
    json.begin()
        .field("section", "cold_fleet_warmup")
        .field("threads", parallel::hardwareThreads())
        .field("serial_s", serial_s)
        .field("parallel_s", parallel_s)
        .field("speedup", speedup)
        .field("profiles",
               parallel_registry.profileCache()->size())
        .field("bit_identical", identical ? 1 : 0);

    // ---- Kernel rewrites (single-thread wins) ---------------------------
    bench::banner("factorizeGroup: unordered_map vs direct-index scratch");
    Rng rng(1234);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 64, 2048, quant::BitWidth::Int8, profile);
    bitslice::SignMagnitude sm =
        bitslice::decompose(qw.values, quant::BitWidth::Int8);
    const bitslice::BitPlane &plane = sm.magnitude[5];

    constexpr int kIters = 40;
    std::uint64_t distinct_ref = 0, distinct_fast = 0;
    const double hashed_s = bestOf(3, [&] {
        distinct_ref = 0;
        for (int it = 0; it < kIters; ++it)
            for (std::size_t row0 = 0; row0 < plane.rows(); row0 += 4)
                distinct_ref +=
                    bench::factorizeGroupHashed(plane, row0, 4)
                        .distinctCount();
    });
    const double direct_s = bestOf(3, [&] {
        distinct_fast = 0;
        brcr::GroupScratch scratch;
        brcr::GroupFactorization fact;
        for (int it = 0; it < kIters; ++it)
            for (std::size_t row0 = 0; row0 < plane.rows(); row0 += 4) {
                brcr::factorizeGroup(plane, row0, 4, scratch, fact);
                distinct_fast += fact.distinctCount();
            }
    });
    const double fact_speedup =
        direct_s > 0.0 ? hashed_s / direct_s : 1.0;
    std::printf("  unordered_map %8.1f us/plane\n",
                hashed_s / kIters * 1e6);
    std::printf("  direct-index  %8.1f us/plane   speedup %.2fx  "
                "(counts %s)\n",
                direct_s / kIters * 1e6, fact_speedup,
                distinct_ref == distinct_fast ? "match" : "MISMATCH");
    json.begin()
        .field("section", "factorize_group")
        .field("hashed_s", hashed_s / kIters)
        .field("direct_s", direct_s / kIters)
        .field("speedup", fact_speedup)
        .field("counts_match", distinct_ref == distinct_fast ? 1 : 0);

    bench::banner(
        "compareMergeStrategies dedup: per-bit get() vs word-parallel");
    std::uint64_t scalar_adds = 0, word_adds = 0;
    const double scalar_s = bestOf(3, [&] {
        scalar_adds = 0;
        for (int it = 0; it < kIters; ++it)
            scalar_adds += bench::fullMergeAddsScalar(plane);
    });
    const double word_s = bestOf(3, [&] {
        word_adds = 0;
        for (int it = 0; it < kIters; ++it)
            word_adds +=
                bitslice::compareMergeStrategies(plane, 4).fullMergeAdds;
    });
    // word_s also pays the naive/group sections; the comparison is
    // conservative for the rewrite.
    const double dedup_speedup = word_s > 0.0 ? scalar_s / word_s : 1.0;
    std::printf("  per-bit get()  %8.1f us/plane\n",
                scalar_s / kIters * 1e6);
    std::printf("  word-parallel  %8.1f us/plane   speedup %.2fx  "
                "(adds %s)\n",
                word_s / kIters * 1e6, dedup_speedup,
                scalar_adds == word_adds ? "match" : "MISMATCH");
    json.begin()
        .field("section", "full_column_dedup")
        .field("scalar_s", scalar_s / kIters)
        .field("word_s", word_s / kIters)
        .field("speedup", dedup_speedup)
        .field("counts_match", scalar_adds == word_adds ? 1 : 0);

    // ---- Section 4: SIMD dispatch tiers ---------------------------------
    const simd::Tier tier = simd::activeTier();
    bench::banner(std::string("SIMD kernels: scalar vs dispatched (") +
                  simd::tierName(tier) + ")");
    const simd::Kernels &scalar_k =
        simd::kernelsFor(simd::Tier::Scalar);
    const simd::Kernels &simd_k = simd::kernels();

    constexpr std::size_t kWords = std::size_t{1} << 18; // 2 MiB
    common::AlignedBuffer<std::uint64_t> words(kWords);
    Rng wrng(7);
    for (std::size_t i = 0; i < kWords; ++i)
        words[i] = wrng.next();
    constexpr int kKernelIters = 64;
    std::uint64_t pop_scalar = 0, pop_simd = 0;
    const double pop_scalar_s = bestOf(3, [&] {
        pop_scalar = 0;
        for (int i = 0; i < kKernelIters; ++i)
            pop_scalar += scalar_k.popcountWords(words.data(), kWords);
    });
    const double pop_simd_s = bestOf(3, [&] {
        pop_simd = 0;
        for (int i = 0; i < kKernelIters; ++i)
            pop_simd += simd_k.popcountWords(words.data(), kWords);
    });
    const double pop_speedup =
        pop_simd_s > 0.0 ? pop_scalar_s / pop_simd_s : 1.0;
    const bool pop_match = pop_scalar == pop_simd;

    constexpr std::size_t kSlots = std::size_t{1} << 20;
    std::vector<std::uint32_t> slots(kSlots);
    for (auto &s : slots) // sparse-plane-like: ~85% zero slots
        s = wrng.uniformInt(100) < 85
                ? 0u
                : static_cast<std::uint32_t>(1 + wrng.uniformInt(15));
    std::vector<std::uint64_t> mask_scalar(kSlots / 64),
        mask_simd(kSlots / 64);
    const double mask_scalar_s = bestOf(3, [&] {
        for (int i = 0; i < kKernelIters; ++i)
            scalar_k.nonzeroMask32(slots.data(), kSlots,
                                   mask_scalar.data());
    });
    const double mask_simd_s = bestOf(3, [&] {
        for (int i = 0; i < kKernelIters; ++i)
            simd_k.nonzeroMask32(slots.data(), kSlots,
                                 mask_simd.data());
    });
    const double mask_speedup =
        mask_simd_s > 0.0 ? mask_scalar_s / mask_simd_s : 1.0;
    const bool mask_match = mask_scalar == mask_simd;

    std::printf("  popcountWords   scalar %7.2f ms  %-7s %7.2f ms  "
                "speedup %5.2fx  (%s)\n",
                pop_scalar_s * 1e3, simd::tierName(tier),
                pop_simd_s * 1e3, pop_speedup,
                pop_match ? "counts match" : "COUNT MISMATCH");
    std::printf("  nonzeroMask32   scalar %7.2f ms  %-7s %7.2f ms  "
                "speedup %5.2fx  (%s)\n",
                mask_scalar_s * 1e3, simd::tierName(tier),
                mask_simd_s * 1e3, mask_speedup,
                mask_match ? "masks match" : "MASK MISMATCH");

    // >= 2x is required only when a vector tier actually dispatches;
    // a scalar-only host skips the speedup gate (identity still binds).
    const bool vector_tier = tier >= simd::Tier::Avx2;
    const bool simd_gate =
        pop_match && mask_match &&
        (!vector_tier || (pop_speedup >= 2.0 && mask_speedup >= 2.0));
    if (!vector_tier)
        std::printf("  speedup gate skipped (scalar-only dispatch)\n");
    else
        std::printf("  speedup gate (>= 2x): %s\n",
                    simd_gate ? "pass" : "FAIL");
    json.begin()
        .field("section", "simd_kernels")
        .field("simd_tier", simd::tierName(tier))
        .field("popcount_scalar_s", pop_scalar_s / kKernelIters)
        .field("popcount_simd_s", pop_simd_s / kKernelIters)
        .field("popcount_speedup", pop_speedup)
        .field("nonzero_mask_scalar_s", mask_scalar_s / kKernelIters)
        .field("nonzero_mask_simd_s", mask_simd_s / kKernelIters)
        .field("nonzero_mask_speedup", mask_speedup)
        .field("bit_identical", pop_match && mask_match ? 1 : 0)
        .field("gate_enforced", vector_tier ? 1 : 0);

    // ---- Section 5: decompose and the weight profile it feeds ---------
    bench::banner(std::string("decompose: per-element set() vs slice "
                              "kernel (") +
                  simd::tierName(tier) + ")");
    const model::LlmConfig &llama = model::findModel("Llama7B");
    constexpr std::uint64_t kTileSeed = 99;
    Rng tile_rng(kTileSeed);
    model::WeightProfile llama_profile;
    llama_profile.dynamicRange = llama.dynamicRange;
    const Int8Matrix tile =
        model::synthesizeQuantizedWeight(tile_rng, 128, llama.hidden,
                                         quant::BitWidth::Int8,
                                         llama_profile)
            .values;
    constexpr int kSliceIters = 5;
    bitslice::SignMagnitude sm_ref, sm_kernel;
    const double ref_s = bestOf(kSliceIters, [&] {
        sm_ref = bench::decomposePerElement(tile, quant::BitWidth::Int8);
    });
    const double kernel_s = bestOf(kSliceIters, [&] {
        sm_kernel = bitslice::decompose(tile, quant::BitWidth::Int8);
    });
    bool planes_match = sm_ref.sign == sm_kernel.sign &&
                        sm_ref.planeCount() == sm_kernel.planeCount();
    for (std::size_t p = 0; planes_match && p < sm_ref.planeCount(); ++p)
        planes_match = sm_ref.magnitude[p] == sm_kernel.magnitude[p];
    const double slice_speedup = kernel_s > 0.0 ? ref_s / kernel_s : 1.0;
    std::printf("  per-element set()  %8.2f ms/tile (128 x %zu)\n",
                ref_s * 1e3, llama.hidden);
    std::printf("  slice kernel       %8.2f ms/tile   speedup %.2fx  "
                "(planes %s)\n",
                kernel_s * 1e3, slice_speedup,
                planes_match ? "match" : "MISMATCH");
    json.begin()
        .field("section", "decompose")
        .field("simd_tier", simd::tierName(tier))
        .field("per_element_s", ref_s)
        .field("kernel_s", kernel_s)
        .field("speedup", slice_speedup)
        .field("bit_identical", planes_match ? 1 : 0);
    const bool counts_match = weightProfileStages(json, llama, kTileSeed, tile);

    // ---- Section 6: Gaussian synthesis ----------------------------------
    bench::banner(std::string("Gaussian draws: per-call libm vs block "
                              "kernel (") +
                  simd::tierName(tier) + ")");
    constexpr std::size_t kPairs = std::size_t{1} << 18;
    std::vector<double> bm_u1(kPairs), bm_u2(kPairs);
    Rng urng(11);
    for (std::size_t i = 0; i < kPairs; ++i) {
        do {
            bm_u1[i] = urng.uniform();
        } while (bm_u1[i] <= 1e-300);
        bm_u2[i] = urng.uniform();
    }
    std::vector<double> libm_c(kPairs), libm_s(kPairs), kern_c(kPairs),
        kern_s(kPairs);
    const double libm_t = bestOf(3, [&] {
        bench::boxMullerLibm(bm_u1.data(), bm_u2.data(), kPairs,
                             libm_c.data(), libm_s.data());
    });
    const double kernel_t = bestOf(3, [&] {
        simd_k.boxMuller(bm_u1.data(), bm_u2.data(), kPairs, kern_c.data(),
                         kern_s.data());
    });
    const auto same_bits = [](const std::vector<double> &a,
                              const std::vector<double> &b) {
        return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
    };
    bool tiers_match = true;
    for (const simd::Tier t :
         {simd::Tier::Scalar, simd::Tier::Avx2, simd::Tier::Avx512}) {
        if (t > simd::availableTier())
            continue;
        std::vector<double> c(kPairs), sn(kPairs);
        simd::kernelsFor(t).boxMuller(bm_u1.data(), bm_u2.data(), kPairs,
                                      c.data(), sn.data());
        tiers_match = tiers_match && same_bits(c, kern_c) &&
                      same_bits(sn, kern_s);
    }
    std::size_t differ = 0, float_differ = 0;
    for (std::size_t i = 0; i < kPairs; ++i) {
        differ += (kern_c[i] != libm_c[i]) + (kern_s[i] != libm_s[i]);
        float_differ += (static_cast<float>(kern_c[i]) !=
                         static_cast<float>(libm_c[i])) +
                        (static_cast<float>(kern_s[i]) !=
                         static_cast<float>(libm_s[i]));
    }
    const double draws = 2.0 * static_cast<double>(kPairs);
    const double libm_rate = draws / libm_t;
    const double kernel_rate = draws / kernel_t;
    const double differ_share = static_cast<double>(differ) / draws;

    const model::LlmConfig &attn_model = model::findModel("Llama7B");
    const double attention_s = bestOf(3, [&] {
        for (std::size_t q = 0; q < accel::kProfileQueries; ++q) {
            Rng qrng(0xa77e4710ull ^ q);
            (void)model::synthesizeAttention(
                qrng, accel::kProfileMaxContext, attn_model.headDim(), 0.10);
        }
    });
    std::printf("  per-call libm   %8.1f M draws/s\n", libm_rate * 1e-6);
    std::printf("  %-7s kernel  %8.1f M draws/s   speedup %.2fx  "
                "(tiers %s)\n",
                simd::tierName(tier), kernel_rate * 1e-6,
                kernel_rate / libm_rate,
                tiers_match ? "bit-identical" : "DIFFER");
    std::printf("  vs libm: %.1f%% of doubles differ (last bits), %zu of "
                "%.0f float casts\n",
                differ_share * 100.0, float_differ, draws);
    std::printf("  synthesizeAttention %7.2f ms (context %zu, %zu "
                "queries, Llama7B head)\n",
                attention_s * 1e3, accel::kProfileMaxContext,
                accel::kProfileQueries);
    json.begin()
        .field("section", "gaussian")
        .field("simd_tier", simd::tierName(tier))
        .field("libm_draws_per_s", libm_rate)
        .field("kernel_draws_per_s", kernel_rate)
        .field("speedup", kernel_rate / libm_rate)
        .field("libm_differ_share", differ_share)
        .field("float_casts_differ", float_differ)
        .field("synthesize_attention_s", attention_s)
        .field("bit_identical", tiers_match ? 1 : 0);

    // ---- Section 7: profile announcement ---------------------------------
    bench::banner("Profile announcement: one need per profile key");
    model::TraceConfig tc;
    tc.task = "Dolly";
    tc.requests = 100000;
    tc.lengthJitter = 0.5;
    const std::vector<model::Request> trace = model::synthesizeTrace(tc);
    const std::unique_ptr<engine::Accelerator> announcer =
        parallel_registry.make("mcbp");
    std::vector<accel::ProfileRequest> needs;
    std::size_t shapes = 0;
    const double announce_s = seconds([&] {
        std::set<std::pair<std::size_t, std::size_t>> seen;
        for (const model::Request &r : trace)
            if (seen.insert({r.promptLen, r.decodeLen}).second)
                announcer->profileRequests(model::findModel(r.model),
                                           r.workload(), needs);
        shapes = seen.size();
    });
    accel::ProfileCache keys;
    const double announce_warm_s = seconds([&] { keys.warm(needs); });
    const std::uint64_t profile_keys = keys.profileCalls();
    const bool announce_gate = needs.size() <= profile_keys;
    std::printf("  %zu requests, %zu shapes -> %zu needs announced, %llu "
                "profile keys  (gate needs <= keys: %s)\n",
                trace.size(), shapes, needs.size(),
                static_cast<unsigned long long>(profile_keys),
                announce_gate ? "pass" : "FAIL");
    std::printf("  announce %8.2f ms   warm %8.2f ms\n", announce_s * 1e3,
                announce_warm_s * 1e3);
    json.begin()
        .field("section", "profile_announcement")
        .field("requests", trace.size())
        .field("shapes", shapes)
        .field("needs_announced", needs.size())
        .field("profile_keys", profile_keys)
        .field("announce_s", announce_s)
        .field("warm_s", announce_warm_s);

    const bool attention_match = attentionProfileSection(json);

    json.writeIfRequested(argc, argv);
    return identical && distinct_ref == distinct_fast &&
                   scalar_adds == word_adds && simd_gate && planes_match &&
                   counts_match && tiers_match && announce_gate &&
                   attention_match
               ? 0
               : 1;
}
