/**
 * @file
 * Full BSTC-compressed weight store with the segmented, parallel-decodable
 * layout of Fig 15(c).
 *
 * A weight matrix is decomposed into sign-magnitude bit planes; each plane
 * is either stored raw (packed bits) or two-state encoded. For parallel
 * decoding, each plane's stream is partitioned along the hidden dimension
 * into fixed-length column segments ("sub-weights"), and a start-address
 * directory records each segment's bit offset — the address area the
 * hardware controller fetches before decompression.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "bitslice/sign_magnitude.hpp"
#include "bstc/bitstream.hpp"
#include "bstc/plane_policy.hpp"
#include "common/aligned_buffer.hpp"
#include "common/matrix.hpp"

namespace mcbp::bstc {

/** Storage for one bit plane inside a CompressedWeight. */
struct StoredPlane
{
    bool encoded = false;             ///< BSTC-coded vs raw bits.
    /** Packed stream, LSB-first 64-bit words (64B-aligned, zero tail). */
    common::AlignedBuffer<std::uint64_t> data;
    std::uint64_t bitCount = 0;       ///< Valid bits in data.
    /**
     * Per (row-group, segment) start bit offset. Row-group-major:
     * index = group * segmentsPerRow + segment. Raw planes use implicit
     * addressing and leave this empty.
     */
    std::vector<std::uint64_t> segmentStart;
};

/** A weight matrix in MCBP's on-DRAM/SRAM bit-plane format. */
class CompressedWeight
{
  public:
    /**
     * Compress @p w.
     * @param w quantized weights (within the bit width's range).
     * @param bw bit width (INT8 / INT4).
     * @param m BSTC/BRCR group size.
     * @param policy which planes to encode.
     * @param segment_cols columns per decodable segment (Fig 15c uses 1k).
     */
    CompressedWeight(const Int8Matrix &w, quant::BitWidth bw, std::size_t m,
                     const PlanePolicy &policy,
                     std::size_t segment_cols = 1024);

    /** Compress an existing decomposition @p sm of a @p bw matrix. */
    CompressedWeight(const bitslice::SignMagnitude &sm, quant::BitWidth bw,
                     std::size_t m, const PlanePolicy &policy,
                     std::size_t segment_cols = 1024);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t groupSize() const { return m_; }
    quant::BitWidth bitWidth() const { return bw_; }
    std::size_t planeCount() const { return planes_.size(); }

    /** Whether magnitude plane @p p (0-based) is BSTC-encoded. */
    bool planeEncoded(std::size_t p) const { return planes_[p].encoded; }

    /** Decompress everything back to the sign-magnitude form (exact). */
    bitslice::SignMagnitude decompress() const;

    /** Decompress all the way back to the integer matrix (exact). */
    Int8Matrix decompressToMatrix() const;

    /**
     * Decode the column patterns of one (plane, row-group, segment)
     * directly — the unit of work of one hardware decoder lane.
     */
    std::vector<std::uint32_t> decodeSegment(std::size_t plane,
                                             std::size_t group,
                                             std::size_t segment) const;

    /** Total stored bits (all planes + sign + directory). */
    std::uint64_t storedBits() const;

    /** Uncompressed size: rows x cols x (magnitude planes + sign). */
    std::uint64_t originalBits() const;

    /** originalBits / storedBits. */
    double compressionRatio() const;

    /** Bits of the start-address directory (compression overhead). */
    std::uint64_t directoryBits() const;

    std::size_t segmentsPerRowGroup() const { return segmentsPerRow_; }
    std::size_t rowGroups() const { return rowGroups_; }

  private:
    /** Decode one plane entirely. */
    bitslice::BitPlane decodePlaneFull(std::size_t p) const;

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t m_ = 4;
    std::size_t segmentCols_ = 1024;
    std::size_t segmentsPerRow_ = 0;
    std::size_t rowGroups_ = 0;
    quant::BitWidth bw_ = quant::BitWidth::Int8;
    std::vector<StoredPlane> planes_; ///< Magnitude planes, LSB first.
    StoredPlane sign_;                ///< Sign plane (always raw).
};

} // namespace mcbp::bstc
