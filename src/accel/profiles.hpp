/**
 * @file
 * Measured workload profiles feeding the accelerator models.
 *
 * Rather than hard-coding the paper's sparsity/repetition numbers, the
 * models *measure* them on synthetic weights/attention generated by
 * src/model, through the real BGPP engine and the exact op and size
 * counts of the BRCR/BSTC engines, then
 * extrapolate linearly to full model scale (the quantities scale with
 * element count by construction). This keeps the figures mechanistic:
 * change the weight distribution or the group size and every downstream
 * figure moves accordingly.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "model/llm_config.hpp"
#include "model/workload.hpp"
#include "quant/quantizer.hpp"

namespace mcbp::accel {

/** Measured weight-side statistics for one model (per bit width). */
struct WeightStats
{
    double valueSparsity = 0.0;
    double meanBitSparsity = 0.0;
    std::vector<double> planeSparsity;
    /** BRCR additions per dense MAC (merge+recon+shift, both halves). */
    double brcrAddsPerMac = 0.0;
    /** Split of BRCR adds (for the pipelined cycle model). */
    double mergeFraction = 0.0;
    double reconFraction = 0.0;
    /** CAM searches per dense MAC. */
    double camSearchesPerMac = 0.0;
    /** Naive sparse bit-serial adds per MAC: planes x (1 - bs). */
    double bscAddsPerMac = 0.0;
    /** BSTC whole-weight compression ratio (paper plane policy). */
    double bstcCompressionRatio = 0.0;
    /** Value-level (Huffman-like) compression ratio baseline. */
    double valueCompressionRatio = 0.0;
    /** BSTC symbols per weight byte (decoder occupancy). */
    double bstcSymbolsPerByte = 0.0;
};

/** Measured attention/prediction statistics for one (task, model). */
struct AttentionStats
{
    /** Keys surviving BGPP (fraction of context). */
    double bgppSelectedFraction = 0.0;
    /** Keys kept by value top-k (matched budget). */
    double topkFraction = 0.0;
    /** Prediction K-bits fetched per (key element) by BGPP. */
    double bgppPredBitsPerElem = 0.0;
    /** Prediction K-bits fetched per element by value top-k (5 = 4+sign). */
    double valuePredBitsPerElem = 5.0;
    /** BGPP bit-MACs per key element. */
    double bgppBitMacsPerElem = 0.0;
    /** Recall of BGPP selection vs exact top-k. */
    double bgppRecall = 1.0;
    /** Recall of value top-k vs exact top-k. */
    double valueTopkRecall = 1.0;
};

/**
 * Profile weights of @p model: synthesizes a sample weight tile with the
 * model's dynamic range, slices it once and extracts per-MAC statistics.
 * The BRCR op counts, BSTC size and value-codec sizes are counted from
 * the planes and values (BrcrEngine::opCounts, bstc::storedBits,
 * bstc::rleEncodedBits / huffmanEncodedBits) rather than by running the
 * GEMV and encoders whose counts they equal (the tests hold each count
 * to its encoder).
 *
 * @param sample_rows rows of the sample tile (columns = model hidden).
 */
WeightStats profileWeights(const model::LlmConfig &model,
                           quant::BitWidth bw, std::uint64_t seed,
                           std::size_t sample_rows = 128);

/**
 * Profile attention of (@p task, @p model): synthesizes attention sets at
 * the task's concentration and a capped context length, runs BGPP and the
 * value-level baseline and extracts traffic/selection statistics.
 *
 * Each query's RNG derives from (seed, query index), and per-query
 * results are reduced in index order — so the statistics are
 * bit-identical at every thread count (tests/test_profiles.cpp asserts
 * parallel == serial exactly).
 *
 * @param alpha BGPP alpha_r (0.6 standard, 0.5 aggressive).
 * @param threads parallel::parallelFor cap for the per-query fan-out
 *        (0 = full global pool, 1 = serial reference path).
 */
inline constexpr std::size_t kProfileMaxContext = 2048;
inline constexpr std::size_t kProfileQueries = 8;

AttentionStats profileAttention(const model::LlmConfig &model,
                                const model::Workload &task, double alpha,
                                std::uint64_t seed,
                                std::size_t max_context = kProfileMaxContext,
                                std::size_t queries = kProfileQueries,
                                std::size_t threads = 0);

} // namespace mcbp::accel
