/**
 * @file
 * Value-level vs bit-level sparsity and repetition analytics
 * (paper Figs 4, 5(a)(b)(d), 8(c), 25).
 *
 * These analyses drive the motivation figures and feed the BSTC plane
 * policy (compress planes whose sparsity ratio exceeds 65%).
 */
#pragma once

#include <cstddef>
#include <vector>

#include "bitslice/sign_magnitude.hpp"
#include "common/matrix.hpp"

namespace mcbp::bitslice {

/** Sparsity report for one matrix. */
struct SparsityReport
{
    double valueSparsity = 0.0;          ///< Fraction of exact-zero values.
    std::vector<double> planeSparsity;   ///< SR per magnitude plane (1..k).
    double meanBitSparsity = 0.0;        ///< Mean over magnitude planes.
    double signSparsity = 0.0;           ///< Fraction of non-negative values.
};

/** Analyze an integer matrix at the given bit width. */
SparsityReport analyzeSparsity(const Int8Matrix &w, quant::BitWidth bw);

/** Analyze @p w given its decomposition @p sm (no re-slicing). */
SparsityReport analyzeSparsity(const Int8Matrix &w, const SignMagnitude &sm);

/** Repetition statistics for grouped bit-slice column vectors (Fig 5a). */
struct RepetitionReport
{
    std::size_t totalColumns = 0;   ///< Columns examined (per group-plane).
    std::size_t distinctColumns = 0;///< Distinct non-zero patterns seen.
    std::size_t zeroColumns = 0;    ///< All-zero group columns.
    /** Columns whose pattern already occurred: the exploitable repetition. */
    std::size_t repeatedColumns() const
    {
        return totalColumns - distinctColumns - zeroColumns;
    }
    double repetitionRate() const
    {
        return totalColumns == 0
                   ? 0.0
                   : static_cast<double>(repeatedColumns()) /
                         static_cast<double>(totalColumns);
    }
};

/**
 * Measure column-pattern repetition for a single plane when rows are
 * processed in groups of @p m (Fig 5(a): smaller m -> fewer "holes" ->
 * more repetition). Aggregated over all row groups of the plane.
 */
RepetitionReport measureRepetition(const BitPlane &plane, std::size_t m);

/**
 * Addition counts for computing one plane-GEMV three ways (Fig 5(b)):
 * value-level sparse, full-size merge (whole plane as one group) and
 * group-wise merge with group size @p m. Used to reproduce the 5.1x mean
 * group-wise-vs-full-size gain.
 */
struct MergeCost
{
    std::uint64_t denseAdds = 0;     ///< Dense bit-serial (all bits).
    std::uint64_t naiveAdds = 0;     ///< Sparse bit-serial (set bits).
    std::uint64_t fullMergeAdds = 0; ///< Full-height merge, zero-skipping.
    /**
     * Full-height merge on a dense datapath (the paper's "vanilla
     * full-size merge"): each distinct column still streams all m rows;
     * only exact duplicates merge. With H >> 2^rows duplicates are rare,
     * so this barely beats dense — which is the Fig 5(a) point.
     */
    std::uint64_t fullMergeDenseAdds = 0;
    std::uint64_t groupMergeAdds = 0;///< Groups of m rows (BRCR).
};

MergeCost compareMergeStrategies(const BitPlane &plane, std::size_t m);

} // namespace mcbp::bitslice
