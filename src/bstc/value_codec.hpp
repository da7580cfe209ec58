/**
 * @file
 * Value-level compression baselines (EIE / Deep-Compression style) that
 * the paper's ablation baseline and FuseKNA comparisons assume: a
 * zero-run-length code and a canonical Huffman code over INT8 values.
 *
 * These exist to ground the "value-level compression achieves only ~30%
 * of the bit-level sparsity benefit" claim (Fig 5(c), section 2.3) in a
 * real codec rather than an assumed ratio: the benches measure the
 * actual compressed size of the same weights BSTC compresses. The
 * weight profile reads only those sizes, so rleEncodedBits() and
 * huffmanEncodedBits() count them without writing a stream; tests hold
 * each to its encoder's bitCount.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "bstc/bitstream.hpp"
#include "common/aligned_buffer.hpp"
#include "common/matrix.hpp"

namespace mcbp::bstc {

/** A compressed value-level weight blob. */
struct ValueCompressed
{
    /** Packed stream, LSB-first 64-bit words (64B-aligned, zero tail). */
    common::AlignedBuffer<std::uint64_t> data;
    std::uint64_t bitCount = 0;
    std::size_t rows = 0;
    std::size_t cols = 0;
};

/**
 * Zero-run-length coding: each symbol is {1'b0, 4-bit run length} for a
 * run of up to 16 zeros, or {1'b1, 8-bit value} for a non-zero value.
 * Lossless for any INT8 matrix.
 */
ValueCompressed rleEncode(const Int8Matrix &w);

/**
 * rleEncode(w).bitCount, counted without encoding: 9 bits per non-zero
 * plus 5 bits per started 16-zero chunk of each zero run, in row-major
 * order.
 */
std::uint64_t rleEncodedBits(const Int8Matrix &w);

/** Inverse of rleEncode (exact). */
Int8Matrix rleDecode(const ValueCompressed &blob);

/**
 * Canonical Huffman coding over the INT8 value alphabet, with the code
 * table (canonical lengths) stored in the blob. Lossless.
 */
ValueCompressed huffmanEncode(const Int8Matrix &w);

/**
 * huffmanEncode(w).bitCount, counted without encoding: the 256 x 6-bit
 * length header plus each symbol's frequency times its code length.
 */
std::uint64_t huffmanEncodedBits(const Int8Matrix &w);

/** Inverse of huffmanEncode (exact). */
Int8Matrix huffmanDecode(const ValueCompressed &blob);

/** Compression ratio of a blob: 8 * rows * cols / bitCount. */
double valueCompressionRatio(const ValueCompressed &blob);

/** The same ratio for @p values INT8 values coded in @p bits bits
 *  (1 when @p bits is 0). */
double valueCompressionRatio(std::uint64_t values, std::uint64_t bits);

} // namespace mcbp::bstc
