/**
 * @file
 * The BRCR computation engine (paper section 3.1 / Fig 7): bit-slice
 * repetitiveness-enabled GEMV/GEMM with exact operation accounting.
 *
 * Per m-row group of every magnitude bit-plane the engine:
 *   1. extracts the H column patterns (the CAM match in hardware),
 *   2. merges activations of identical patterns into a 2^m-entry merged
 *      activation vector (MAV, the addition-merge units),
 *   3. reconstructs the m partial outputs from the MAV (reconstruction
 *      unit) and shift-accumulates them at the plane's weight 2^(p-1).
 *
 * Sign handling follows DESIGN.md 4.1: the default engine splits
 * W = W+ - W- (disjoint support) so the column pattern is purely binary;
 * a ternary-pattern variant (3^m MAV over {-1, 0, +1}) is provided as an
 * ablation to quantify the alternative.
 *
 * Every result is bit-exact equal to quant::gemvInt / gemmInt, which the
 * test suite asserts on random and adversarial inputs.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "bitslice/sign_magnitude.hpp"
#include "brcr/group_scratch.hpp"
#include "common/matrix.hpp"
#include "quant/quantizer.hpp"

namespace mcbp::brcr {

/** Exact operation counts accumulated while executing a BRCR kernel. */
struct BrcrOpCounts
{
    std::uint64_t mergeAdds = 0;     ///< Additions in MAV accumulation.
    std::uint64_t reconAdds = 0;     ///< Additions in output reconstruction.
    std::uint64_t shiftAccAdds = 0;  ///< Plane shift-accumulate additions.
    std::uint64_t camSearches = 0;   ///< CAM search-key probes issued.
    std::uint64_t groupsProcessed = 0; ///< (group, plane) pairs touched.
    std::uint64_t zeroColumns = 0;   ///< Group columns skipped as all-zero.

    std::uint64_t
    totalAdds() const
    {
        return mergeAdds + reconAdds + shiftAccAdds;
    }

    void
    merge(const BrcrOpCounts &o)
    {
        mergeAdds += o.mergeAdds;
        reconAdds += o.reconAdds;
        shiftAccAdds += o.shiftAccAdds;
        camSearches += o.camSearches;
        groupsProcessed += o.groupsProcessed;
        zeroColumns += o.zeroColumns;
    }
};

/** Configuration of the BRCR engine. */
struct BrcrConfig
{
    std::size_t groupSize = 4;                  ///< m (paper default 4).
    quant::BitWidth bitWidth = quant::BitWidth::Int8;
};

/** Result of a BRCR GEMV. */
struct BrcrGemvResult
{
    std::vector<std::int32_t> y;
    BrcrOpCounts ops;
};

/** Result of a BRCR GEMM. */
struct BrcrGemmResult
{
    Int32Matrix y;
    BrcrOpCounts ops;
};

/**
 * BRCR execution engine. Stateless apart from its configuration; safe to
 * reuse across calls.
 */
class BrcrEngine
{
  public:
    explicit BrcrEngine(BrcrConfig cfg = {});

    const BrcrConfig &config() const { return cfg_; }

    /** y = W x, exact, with op accounting (sign-split binary patterns). */
    BrcrGemvResult gemv(const Int8Matrix &w,
                        const std::vector<std::int8_t> &x) const;

    /** gemv() over an existing sign split of W (no re-slicing). */
    BrcrGemvResult gemv(const bitslice::SignSplit &split,
                        const std::vector<std::int8_t> &x) const;

    /**
     * Y = W X, exact. Column patterns are extracted once per group-plane
     * and reused across all N activation columns (weight-stationary reuse,
     * the paper's Fig 12 tiling premise).
     */
    BrcrGemmResult gemm(const Int8Matrix &w, const Int8Matrix &x) const;

    /**
     * The op counts gemv() / gemm() report for @p split with
     * @p activations activation columns, without executing them: the
     * counters depend on the weights alone, so each (half, plane,
     * group) contributes what its bitslice::groupCensus() implies.
     */
    BrcrOpCounts opCounts(const bitslice::SignSplit &split,
                          std::size_t activations = 1) const;

    /**
     * Ternary-pattern ablation variant: one pass over the SM planes with
     * {-1, 0, +1}^m patterns (3^m MAV). Exact; generally captures less
     * repetition per pattern table but avoids the sign split.
     */
    BrcrGemvResult gemvTernary(const Int8Matrix &w,
                               const std::vector<std::int8_t> &x) const;

  private:
    /** Process all planes of one sign-split half, adding into y.
     *  @p scratch is reused across row groups, planes and both halves
     *  of one gemv/gemm call (no per-group allocations). */
    void accumulateHalf(const bitslice::SignMagnitude &half, int sign,
                        const Int8Matrix &x, Int32Matrix &y,
                        BrcrOpCounts &ops, GroupScratch &scratch) const;

    BrcrConfig cfg_;
};

} // namespace mcbp::brcr
