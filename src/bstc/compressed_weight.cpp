#include "bstc/compressed_weight.hpp"

#include <bit>

#include "bstc/codec.hpp"
#include "common/bit_util.hpp"
#include "common/logging.hpp"

namespace mcbp::bstc {

namespace {

/** Pack a plane raw: per row group, per column, m pattern bits. */
void
packRawPlane(const bitslice::BitPlane &plane, std::size_t m,
             StoredPlane &out)
{
    BitWriter w;
    const unsigned mbits = static_cast<unsigned>(m);
    // Walk the padded words instead of re-extracting bits per column:
    // a zero column contributes m zero bits, so runs of them collapse
    // into a single cursor advance. Bit stream is identical to the
    // per-column packing.
    for (std::size_t row0 = 0; row0 < plane.rows(); row0 += m) {
        const std::size_t last = std::min(row0 + m, plane.rows());
        for (std::size_t word = 0; word < plane.wordsPerRow(); ++word) {
            const std::size_t width =
                std::min<std::size_t>(64, plane.cols() - (word << 6));
            std::uint64_t rowWords[16];
            std::uint64_t any = 0;
            std::size_t nrows = 0;
            for (std::size_t r = row0; r < last; ++r) {
                const std::uint64_t rw = plane.rowWord(r, word);
                rowWords[nrows++] = rw;
                any |= rw;
            }
            std::size_t prev = 0;
            while (any != 0) {
                const std::size_t c =
                    static_cast<std::size_t>(std::countr_zero(any));
                any &= any - 1;
                w.putZeroBits((c - prev) * mbits);
                std::uint32_t p = 0;
                for (std::size_t r = 0; r < nrows; ++r)
                    p |= static_cast<std::uint32_t>(
                             (rowWords[r] >> c) & 1u)
                         << r;
                w.putBits(p, mbits);
                prev = c + 1;
            }
            w.putZeroBits((width - prev) * mbits);
        }
    }
    out.encoded = false;
    out.bitCount = w.bitCount();
    out.data = w.takeWords();
}

} // namespace

CompressedWeight::CompressedWeight(const Int8Matrix &w, quant::BitWidth bw,
                                   std::size_t m, const PlanePolicy &policy,
                                   std::size_t segment_cols)
    : CompressedWeight(bitslice::decompose(w, bw), bw, m, policy,
                       segment_cols)
{
}

CompressedWeight::CompressedWeight(const bitslice::SignMagnitude &sm,
                                   quant::BitWidth bw, std::size_t m,
                                   const PlanePolicy &policy,
                                   std::size_t segment_cols)
    : rows_(sm.rows), cols_(sm.cols), m_(m), segmentCols_(segment_cols),
      bw_(bw)
{
    fatalIf(m_ == 0 || m_ > 16, "group size must be in [1, 16]");
    fatalIf(segmentCols_ == 0, "segment length must be positive");
    segmentsPerRow_ = ceilDiv(cols_, segmentCols_);
    rowGroups_ = ceilDiv(rows_, m_);

    fatalIf(sm.planeCount() !=
                static_cast<std::size_t>(quant::magnitudeBits(bw)),
            "decomposition does not match bit width");
    fatalIf(policy.compress.size() != sm.magnitude.size(),
            "plane policy arity does not match bit width");

    planes_.resize(sm.magnitude.size());
    for (std::size_t p = 0; p < sm.magnitude.size(); ++p) {
        const bitslice::BitPlane &plane = sm.magnitude[p];
        if (!policy.compress[p]) {
            packRawPlane(plane, m_, planes_[p]);
            continue;
        }
        StoredPlane &sp = planes_[p];
        sp.encoded = true;
        sp.segmentStart.reserve(rowGroups_ * segmentsPerRow_);
        BitWriter writer;
        std::vector<std::uint32_t> patterns;
        for (std::size_t row0 = 0; row0 < rows_; row0 += m_) {
            plane.columnPatterns(row0, m_, patterns);
            for (std::size_t s = 0; s < segmentsPerRow_; ++s) {
                sp.segmentStart.push_back(writer.bitCount());
                const std::size_t c0 = s * segmentCols_;
                const std::size_t c1 =
                    std::min(c0 + segmentCols_, cols_);
                // Zero symbols are single '0' bits; batch runs of them
                // into one cursor advance.
                std::size_t zeroRun = 0;
                for (std::size_t c = c0; c < c1; ++c) {
                    const std::uint32_t pat = patterns[c];
                    if (pat == 0) {
                        ++zeroRun;
                        continue;
                    }
                    writer.putZeroBits(zeroRun);
                    zeroRun = 0;
                    writer.putBit(true);
                    writer.putBits(pat, static_cast<unsigned>(m_));
                }
                writer.putZeroBits(zeroRun);
            }
        }
        sp.bitCount = writer.bitCount();
        sp.data = writer.takeWords();
    }
    packRawPlane(sm.sign, m_, sign_);
}

std::vector<std::uint32_t>
CompressedWeight::decodeSegment(std::size_t plane, std::size_t group,
                                std::size_t segment) const
{
    fatalIf(plane >= planes_.size(), "plane index out of range");
    fatalIf(group >= rowGroups_ || segment >= segmentsPerRow_,
            "segment coordinates out of range");
    const StoredPlane &sp = planes_[plane];
    const std::size_t c0 = segment * segmentCols_;
    const std::size_t c1 = std::min(c0 + segmentCols_, cols_);
    const std::size_t n = c1 - c0;
    BitReader reader(sp.data, sp.bitCount);
    if (sp.encoded) {
        reader.seek(sp.segmentStart[group * segmentsPerRow_ + segment]);
        return decodeColumns(reader, m_, n);
    }
    // Raw planes use implicit addressing: fixed m bits per column.
    reader.seek((static_cast<std::uint64_t>(group) * cols_ + c0) * m_);
    std::vector<std::uint32_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = reader.getBits(static_cast<unsigned>(m_));
    return out;
}

bitslice::BitPlane
CompressedWeight::decodePlaneFull(std::size_t p) const
{
    bitslice::BitPlane plane(rows_, cols_);
    for (std::size_t g = 0; g < rowGroups_; ++g) {
        const std::size_t row0 = g * m_;
        const std::size_t rows_here = std::min(m_, rows_ - row0);
        for (std::size_t s = 0; s < segmentsPerRow_; ++s) {
            const std::size_t c0 = s * segmentCols_;
            std::vector<std::uint32_t> pats = decodeSegment(p, g, s);
            for (std::size_t i = 0; i < pats.size(); ++i) {
                const std::uint32_t pat = pats[i];
                if (pat == 0)
                    continue;
                for (std::size_t r = 0; r < rows_here; ++r) {
                    if ((pat >> r) & 1u)
                        plane.set(row0 + r, c0 + i, true);
                }
            }
        }
    }
    return plane;
}

bitslice::SignMagnitude
CompressedWeight::decompress() const
{
    bitslice::SignMagnitude sm;
    sm.rows = rows_;
    sm.cols = cols_;
    sm.magnitude.reserve(planes_.size());
    for (std::size_t p = 0; p < planes_.size(); ++p)
        sm.magnitude.push_back(decodePlaneFull(p));

    // Sign plane: raw m-bit patterns, implicit addressing.
    sm.sign = bitslice::BitPlane(rows_, cols_);
    BitReader reader(sign_.data, sign_.bitCount);
    for (std::size_t g = 0; g < rowGroups_; ++g) {
        const std::size_t row0 = g * m_;
        const std::size_t rows_here = std::min(m_, rows_ - row0);
        for (std::size_t c = 0; c < cols_; ++c) {
            const std::uint32_t pat =
                reader.getBits(static_cast<unsigned>(m_));
            for (std::size_t r = 0; r < rows_here; ++r) {
                if ((pat >> r) & 1u)
                    sm.sign.set(row0 + r, c, true);
            }
        }
    }
    return sm;
}

Int8Matrix
CompressedWeight::decompressToMatrix() const
{
    return bitslice::reconstruct(decompress());
}

std::uint64_t
CompressedWeight::storedBits() const
{
    std::uint64_t bits = sign_.bitCount + directoryBits();
    for (const auto &sp : planes_)
        bits += sp.bitCount;
    return bits;
}

std::uint64_t
CompressedWeight::originalBits() const
{
    return static_cast<std::uint64_t>(rows_) * cols_ *
           (planes_.size() + 1);
}

double
CompressedWeight::compressionRatio() const
{
    const std::uint64_t stored = storedBits();
    return stored == 0 ? 1.0
                       : static_cast<double>(originalBits()) /
                             static_cast<double>(stored);
}

std::uint64_t
CompressedWeight::directoryBits() const
{
    // The paper's address area uses 16-bit (6-bit column + 10-bit row)
    // start addresses per sub-weight.
    std::uint64_t entries = 0;
    for (const auto &sp : planes_)
        entries += sp.segmentStart.size();
    return entries * 16;
}

} // namespace mcbp::bstc
