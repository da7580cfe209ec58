#include "bitslice/bit_plane.hpp"

#include <bit>

#include "common/bit_util.hpp"
#include "common/logging.hpp"

namespace mcbp::bitslice {

namespace {

/** Words per 64-byte line: the row-stride quantum. */
constexpr std::size_t kLineWords =
    common::AlignedBuffer<std::uint64_t>::kLineElems;

} // namespace

BitPlane::BitPlane(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), wordsPerRow_((cols + 63) / 64),
      rowStride_((wordsPerRow_ + kLineWords - 1) / kLineWords *
                 kLineWords),
      words_(rows * rowStride_)
{
}

std::uint64_t
BitPlane::countOnes() const
{
    // Stride padding is all-zero, so the whole buffer counts in one
    // dispatched scan.
    return popcountSpan(words_.data(), words_.size());
}

std::uint64_t
BitPlane::countOnesInRow(std::size_t r) const
{
    return popcountSpan(rowData(r), rowStride_);
}

double
BitPlane::sparsity() const
{
    if (rows_ == 0 || cols_ == 0)
        return 1.0;
    const double total = static_cast<double>(rows_) * cols_;
    return 1.0 - static_cast<double>(countOnes()) / total;
}

std::uint32_t
BitPlane::columnPattern(std::size_t row0, std::size_t m, std::size_t c) const
{
    panicIf(m > 16, "group size > 16 unsupported");
    std::uint32_t p = 0;
    const std::size_t last = std::min(row0 + m, rows_);
    for (std::size_t r = row0; r < last; ++r)
        p |= static_cast<std::uint32_t>(get(r, c)) << (r - row0);
    return p;
}

std::size_t
BitPlane::patternsAt(std::size_t row0, std::size_t m, std::size_t word,
                     std::uint32_t *out) const
{
    panicIf(m > 16, "group size > 16 unsupported");
    panicIf(word >= wordsPerRow_, "word index out of range");
    const std::size_t col0 = word << 6;
    const std::size_t width = std::min<std::size_t>(64, cols_ - col0);
    const std::size_t last = std::min(row0 + m, rows_);

    // One packed word per group row covers all 64 columns of the block.
    std::uint64_t rowWords[16];
    std::uint64_t any = 0;
    std::size_t nrows = 0;
    for (std::size_t r = row0; r < last; ++r) {
        const std::uint64_t w = words_[r * rowStride_ + word];
        rowWords[nrows++] = w;
        any |= w;
    }

    for (std::size_t c = 0; c < 64; ++c)
        out[c] = 0;
    // Walk only the columns where any group row has a bit (countr_zero
    // over the OR word): zero columns — the common case on the sparse
    // planes — cost nothing beyond the blanking above.
    while (any != 0) {
        const int c = std::countr_zero(any);
        any &= any - 1;
        std::uint32_t p = 0;
        for (std::size_t r = 0; r < nrows; ++r)
            p |= static_cast<std::uint32_t>((rowWords[r] >> c) & 1u)
                 << r;
        out[c] = p;
    }
    return width;
}

void
BitPlane::columnPatterns(std::size_t row0, std::size_t m,
                         std::vector<std::uint32_t> &out) const
{
    panicIf(m > 16, "group size > 16 unsupported");
    out.resize(cols_);
    for (std::size_t w = 0; w < wordsPerRow_; ++w) {
        if (((w + 1) << 6) <= cols_) { // full block: write in place.
            (void)patternsAt(row0, m, w, out.data() + (w << 6));
        } else { // final partial word: stage through a 64-slot buffer.
            std::uint32_t block[64];
            const std::size_t width = patternsAt(row0, m, w, block);
            std::uint32_t *dst = out.data() + (w << 6);
            for (std::size_t c = 0; c < width; ++c)
                dst[c] = block[c];
        }
    }
}

std::size_t
BitPlane::nonzeroColumns(std::size_t row0, std::size_t m) const
{
    const std::size_t last = std::min(row0 + m, rows_);
    std::size_t n = 0;
    for (std::size_t w = 0; w < wordsPerRow_; ++w) {
        std::uint64_t any = 0;
        for (std::size_t r = row0; r < last; ++r)
            any |= words_[r * rowStride_ + w];
        n += static_cast<std::size_t>(popcount64(any));
    }
    return n;
}

bool
BitPlane::operator==(const BitPlane &other) const
{
    // Equal dims imply equal strides, and padding is zero on both
    // sides, so whole-buffer comparison is exact.
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           equalSpan(words_.data(), other.words_.data(), words_.size());
}

std::vector<GroupCensus>
groupCensus(const BitPlane &plane, std::size_t m)
{
    fatalIf(m == 0 || m > 16, "group size must be in [1, 16]");
    std::vector<GroupCensus> out;
    out.reserve(ceilDiv(plane.rows(), m));
    // seen[p] == the group's 1-based index marks p as seen in that
    // group, so the table never needs clearing between groups.
    std::vector<std::uint32_t> seen(pow2(static_cast<unsigned>(m)), 0);
    std::uint32_t group = 0;
    for (std::size_t row0 = 0; row0 < plane.rows(); row0 += m) {
        ++group;
        const std::size_t nrows = std::min(m, plane.rows() - row0);
        // A partial last group has fewer rows, so fewer patterns to
        // find: count against its own 2^nrows - 1, not 2^m - 1.
        const std::size_t all = pow2(static_cast<unsigned>(nrows)) - 1;
        GroupCensus gc;
        for (std::size_t word = 0; word < plane.wordsPerRow(); ++word) {
            std::uint64_t rowWords[16];
            std::uint64_t any = 0;
            for (std::size_t r = 0; r < nrows; ++r) {
                rowWords[r] = plane.rowWord(row0 + r, word);
                any |= rowWords[r];
            }
            gc.nonzeroColumns += static_cast<std::size_t>(popcount64(any));
            while (any != 0 && gc.distinctPatterns < all) {
                const int c = std::countr_zero(any);
                any &= any - 1;
                std::uint32_t p = 0;
                for (std::size_t r = 0; r < nrows; ++r)
                    p |= static_cast<std::uint32_t>(
                             (rowWords[r] >> c) & 1u)
                         << r;
                if (seen[p] != group) {
                    seen[p] = group;
                    gc.addDistinct(p);
                }
            }
        }
        out.push_back(gc);
    }
    return out;
}

} // namespace mcbp::bitslice
