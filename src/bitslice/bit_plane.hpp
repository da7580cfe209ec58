/**
 * @file
 * Packed 1-bit matrices ("bit-slice matrices" in the paper, section 2.3).
 *
 * A BitPlane stores one bit position of a sign-magnitude weight matrix:
 * rows x cols single bits, packed 64 columns per word. The BRCR engine
 * extracts m-row column patterns from it, and the BSTC codec compresses it
 * group-column by group-column.
 */
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/aligned_buffer.hpp"

namespace mcbp::bitslice {

/**
 * A rows x cols binary matrix packed in 64-bit words (row-major).
 *
 * Storage contract (the enabler of the SIMD plane-scan backend): rows
 * live at a fixed stride of whole 64-byte cache lines inside a
 * 64-byte-aligned buffer (common/AlignedBuffer), and every bit beyond
 * cols() — the tail-word columns and the stride padding words — is
 * zero. A vector load that starts at any in-row word therefore never
 * straddles into the next row's data, and whole-row kernels consume
 * rowStride() words with no tail branch at all. External code that
 * previously indexed a dense rows x wordsPerRow() vector must switch
 * to rowData()/rowStride() (see README "Performance").
 */
class BitPlane
{
  public:
    BitPlane() = default;

    /** Create an all-zero plane. */
    BitPlane(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Read bit (r, c). */
    bool
    get(std::size_t r, std::size_t c) const
    {
        return (words_[wordIndex(r, c)] >> (c & 63)) & 1u;
    }

    /** Write bit (r, c). */
    void
    set(std::size_t r, std::size_t c, bool v)
    {
        std::uint64_t &w = words_[wordIndex(r, c)];
        const std::uint64_t mask = std::uint64_t{1} << (c & 63);
        if (v)
            w |= mask;
        else
            w &= ~mask;
    }

    /** Number of set bits in the whole plane. */
    std::uint64_t countOnes() const;

    /** Number of set bits in row @p r. */
    std::uint64_t countOnesInRow(std::size_t r) const;

    /** Fraction of zero bits (the paper's per-plane sparsity ratio SR). */
    double sparsity() const;

    /**
     * Column pattern of @p m consecutive rows starting at @p row0, at
     * column @p c. Bit i of the result is row (row0 + i)'s bit — i.e. the
     * "grouped index" of Fig 7(b). @p m must be <= 16.
     */
    std::uint32_t columnPattern(std::size_t row0, std::size_t m,
                                std::size_t c) const;

    /**
     * All column patterns for a row group, appended to @p out (resized to
     * cols()). Word-parallel over the packed words (patternsAt); this is
     * the hot loop of both BRCR and BSTC.
     */
    void columnPatterns(std::size_t row0, std::size_t m,
                        std::vector<std::uint32_t> &out) const;

    /** Packed 64-column words per row (cols rounded up to 64). */
    std::size_t wordsPerRow() const { return wordsPerRow_; }

    /**
     * Allocated words per row: wordsPerRow() rounded up to a whole
     * 64-byte line. Words in [wordsPerRow(), rowStride()) are zero.
     */
    std::size_t rowStride() const { return rowStride_; }

    /** First packed word of row @p r (rowStride() words, 64B-aligned). */
    const std::uint64_t *
    rowData(std::size_t r) const
    {
        return words_.data() + r * rowStride_;
    }

    /** Whole backing buffer: rows() * rowStride() words, padding zero. */
    const std::uint64_t *data() const { return words_.data(); }

    /**
     * Writable backing buffer, for whole-plane word builders (the
     * slice kernel, splitSigns). A writer must leave every bit at or
     * beyond cols() zero.
     */
    std::uint64_t *data() { return words_.data(); }

    std::size_t totalWords() const { return words_.size(); }

    /**
     * Packed word @p word of row @p r: bit c of the result is column
     * (word * 64 + c). Bits at or beyond cols() are always zero. This
     * is the raw word patternsAt() reads — exposed so full-column
     * analyses (sparsity.cpp's column dedup) can walk set bits
     * word-parallel instead of calling get() per (row, column).
     */
    std::uint64_t
    rowWord(std::size_t r, std::size_t word) const
    {
        return words_[r * rowStride_ + word];
    }

    /**
     * Column patterns of one word-aligned 64-column block: columns
     * [word*64, word*64+64) of the @p m-row group starting at @p row0,
     * written to @p out (caller provides >= 64 slots; entries past
     * cols() are zeroed). Reads one packed word per group row instead
     * of one BitPlane::get() per (row, column) — 64x fewer loads — and
     * skips all-zero words outright, which dominates on the sparse
     * high-magnitude planes BRCR and BSTC actually walk.
     * @return patterns written that lie inside the plane (<= 64).
     */
    std::size_t patternsAt(std::size_t row0, std::size_t m,
                           std::size_t word, std::uint32_t *out) const;

    bool operator==(const BitPlane &other) const;

  private:
    std::size_t
    wordIndex(std::size_t r, std::size_t c) const
    {
        return r * rowStride_ + (c >> 6);
    }

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t wordsPerRow_ = 0;
    std::size_t rowStride_ = 0;
    common::AlignedBuffer<std::uint64_t> words_;
};

} // namespace mcbp::bitslice
