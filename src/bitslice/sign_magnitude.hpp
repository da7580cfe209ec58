/**
 * @file
 * Sign-magnitude (SM) bit-slice decomposition of integer matrices
 * (paper section 3.2: "we adopt the sign-magnitude format for all weights").
 *
 * An INT8 weight w decomposes into a sign bit s and 7 magnitude bit-planes
 * b1 (LSB) ... b7 (MSB), with
 *
 *     w = (1 - 2 s) * sum_{p=1..7} b_p * 2^(p-1).
 *
 * Plane numbering follows the paper (Fig 8c / Fig 25): plane 1 = lowest
 * magnitude bit, plane k = highest, sign stored separately ("8th BS").
 *
 * The file also provides the sign-split view used by the BRCR engine:
 * W = W+ - W- with disjoint non-negative support, each bit-sliced on its
 * own, which keeps column-pattern matching purely binary (DESIGN.md 4.1).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "bitslice/bit_plane.hpp"
#include "common/matrix.hpp"
#include "quant/quantizer.hpp"

namespace mcbp::bitslice {

/** Full SM decomposition of an integer matrix. */
struct SignMagnitude
{
    /** Magnitude planes, index 0 = plane 1 (LSB) ... back = MSB. */
    std::vector<BitPlane> magnitude;
    /** Sign plane: bit set where the value is negative. */
    BitPlane sign;
    std::size_t rows = 0;
    std::size_t cols = 0;

    /** Number of magnitude planes (7 for INT8, 3 for INT4). */
    std::size_t planeCount() const { return magnitude.size(); }
};

/**
 * Decompose @p w into sign + magnitude planes in one word-parallel pass
 * (the dispatched simd::Kernels::sliceSignMagnitude).
 * @param w integer matrix within the width's symmetric range: [-127, 127]
 *        for INT8, [-7, 7] for INT4; anything else fatal()s.
 * @param bw bit width, controls the number of magnitude planes.
 */
SignMagnitude decompose(const Int8Matrix &w, quant::BitWidth bw);

/** Rebuild the integer matrix; exact inverse of decompose(). */
Int8Matrix reconstruct(const SignMagnitude &sm);

/**
 * Bit-serial reference GEMV over the SM planes:
 *     y_i = sum_p 2^(p-1) * sum_j (+-x_j) [b_p(i,j) = 1]
 * This is the "shift-and-accumulate over bit-slice matrices" equivalence of
 * section 2.3 and the golden model for the BRCR engine.
 */
std::vector<std::int32_t> bitSerialGemv(const SignMagnitude &sm,
                                        const std::vector<std::int8_t> &x);

/** Sign-split decomposition: planes of max(w, 0) and of max(-w, 0). */
struct SignSplit
{
    SignMagnitude positive; ///< Magnitude planes of w where w > 0.
    SignMagnitude negative; ///< Magnitude planes of -w where w < 0.
};

/**
 * Sign-split an existing decomposition with word operations: the
 * positive half's planes are mag & ~sign, the negative half's mag & sign.
 * Both halves carry an all-zero sign plane.
 */
SignSplit splitSigns(const SignMagnitude &sm);

/** Split @p w by sign and bit-slice both halves. */
SignSplit decomposeSignSplit(const Int8Matrix &w, quant::BitWidth bw);

} // namespace mcbp::bitslice
