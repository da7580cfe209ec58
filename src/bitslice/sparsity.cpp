#include "bitslice/sparsity.hpp"

#include <bit>
#include <unordered_map>

#include "common/bit_util.hpp"
#include "common/logging.hpp"

namespace mcbp::bitslice {

SparsityReport
analyzeSparsity(const Int8Matrix &w, quant::BitWidth bw)
{
    return analyzeSparsity(w, decompose(w, bw));
}

SparsityReport
analyzeSparsity(const Int8Matrix &w, const SignMagnitude &sm)
{
    SparsityReport rep;
    const double total = static_cast<double>(w.size());
    std::size_t zeros = 0, nonneg = 0;
    w.forEach([&](std::size_t, std::size_t, std::int8_t v) {
        if (v == 0)
            ++zeros;
        if (v >= 0)
            ++nonneg;
    });
    rep.valueSparsity = zeros / total;
    rep.signSparsity = nonneg / total;

    rep.planeSparsity.reserve(sm.magnitude.size());
    double acc = 0.0;
    for (const auto &plane : sm.magnitude) {
        const double s = plane.sparsity();
        rep.planeSparsity.push_back(s);
        acc += s;
    }
    rep.meanBitSparsity =
        sm.magnitude.empty() ? 1.0 : acc / static_cast<double>(
                                               sm.magnitude.size());
    return rep;
}

RepetitionReport
measureRepetition(const BitPlane &plane, std::size_t m)
{
    fatalIf(m == 0 || m > 16, "group size must be in [1, 16]");
    RepetitionReport rep;
    std::vector<bool> seen(pow2(static_cast<unsigned>(m)), false);
    for (std::size_t row0 = 0; row0 < plane.rows(); row0 += m) {
        const std::size_t last = std::min(row0 + m, plane.rows());
        std::fill(seen.begin(), seen.end(), false);
        // Word-parallel: the block's OR word names the non-zero columns,
        // so zero columns are counted by popcount instead of visited.
        for (std::size_t word = 0; word < plane.wordsPerRow(); ++word) {
            const std::size_t width =
                std::min<std::size_t>(64, plane.cols() - (word << 6));
            std::uint64_t rowWords[16];
            std::uint64_t any = 0;
            std::size_t nrows = 0;
            for (std::size_t r = row0; r < last; ++r) {
                const std::uint64_t w = plane.rowWord(r, word);
                rowWords[nrows++] = w;
                any |= w;
            }
            rep.totalColumns += width;
            rep.zeroColumns += width - popcount64(any);
            while (any != 0) {
                const int c = std::countr_zero(any);
                any &= any - 1;
                std::uint32_t p = 0;
                for (std::size_t r = 0; r < nrows; ++r)
                    p |= static_cast<std::uint32_t>(
                             (rowWords[r] >> c) & 1u)
                         << r;
                if (!seen[p]) {
                    seen[p] = true;
                    ++rep.distinctColumns;
                }
            }
        }
    }
    return rep;
}

namespace {

/** Hash key for a full-height bit column. */
struct ColumnKey
{
    std::vector<std::uint64_t> words;
    bool operator==(const ColumnKey &o) const { return words == o.words; }
};

struct ColumnKeyHash
{
    std::size_t
    operator()(const ColumnKey &k) const
    {
        std::size_t h = 0xcbf29ce484222325ull;
        for (auto w : k.words) {
            h ^= w;
            h *= 0x100000001b3ull;
        }
        return h;
    }
};

} // namespace

MergeCost
compareMergeStrategies(const BitPlane &plane, std::size_t m)
{
    MergeCost cost;
    // Dense bit-serial processes every bit; sparse skips zeros.
    cost.denseAdds =
        static_cast<std::uint64_t>(plane.rows()) * plane.cols();
    cost.naiveAdds = plane.countOnes();

    // Full-size merge: deduplicate full columns, then each distinct
    // non-zero column contributes (its popcount) row-additions, plus one
    // merge addition per duplicated occurrence.
    //
    // Keys build word-parallel, 64 columns per block: each row
    // contributes one packed BitPlane word, and only its set bits are
    // scattered into the block's transposed column keys — one word
    // load per (row, block) instead of one get() per (row, column),
    // with all-zero columns skipped outright via the block's OR word.
    {
        std::unordered_map<ColumnKey, std::size_t, ColumnKeyHash> uniq;
        std::uint64_t merge_adds = 0;
        const std::size_t tall_words = (plane.rows() + 63) / 64;
        std::vector<ColumnKey> block(64);
        for (std::size_t wi = 0; wi < plane.wordsPerRow(); ++wi) {
            for (ColumnKey &key : block)
                key.words.assign(tall_words, 0);
            std::uint64_t any = 0; // columns of the block with a bit
            for (std::size_t r = 0; r < plane.rows(); ++r) {
                std::uint64_t w = plane.rowWord(r, wi);
                any |= w;
                while (w != 0) {
                    const int c = std::countr_zero(w);
                    w &= w - 1;
                    block[c].words[r >> 6] |= std::uint64_t{1}
                                              << (r & 63);
                }
            }
            // Bits beyond cols() are zero by construction, so `any`
            // only names real, non-zero columns.
            while (any != 0) {
                const int c = std::countr_zero(any);
                any &= any - 1;
                const std::uint64_t ones = popcountSpan(
                    block[c].words.data(), block[c].words.size());
                auto [it, inserted] =
                    uniq.try_emplace(std::move(block[c]), ones);
                if (!inserted)
                    ++merge_adds; // accumulate duplicate's activation
            }
        }
        std::uint64_t recon_adds = 0;
        // mcbp-lint: allow(unordered-accumulation): uint64 sum is commutative, order cannot change the result
        for (const auto &kv : uniq)
            recon_adds += kv.second; // distinct column feeds its rows
        cost.fullMergeAdds = merge_adds + recon_adds;
        // Dense-datapath variant: every distinct column costs all rows.
        cost.fullMergeDenseAdds =
            merge_adds + uniq.size() * plane.rows();
    }

    // Group-wise merge (BRCR): per m-row group, merging costs one addition
    // per non-zero column beyond the first of its pattern; reconstruction
    // adds each present pattern's popcount once.
    {
        fatalIf(m == 0 || m > 16, "group size must be in [1, 16]");
        std::vector<std::uint32_t> count(pow2(static_cast<unsigned>(m)), 0);
        std::uint64_t adds = 0;
        for (std::size_t row0 = 0; row0 < plane.rows(); row0 += m) {
            const std::size_t last = std::min(row0 + m, plane.rows());
            std::fill(count.begin(), count.end(), 0);
            // Same word-walk as measureRepetition: only non-zero
            // columns (set bits of the block OR) are visited.
            for (std::size_t word = 0; word < plane.wordsPerRow();
                 ++word) {
                std::uint64_t rowWords[16];
                std::uint64_t any = 0;
                std::size_t nrows = 0;
                for (std::size_t r = row0; r < last; ++r) {
                    const std::uint64_t w = plane.rowWord(r, word);
                    rowWords[nrows++] = w;
                    any |= w;
                }
                while (any != 0) {
                    const int c = std::countr_zero(any);
                    any &= any - 1;
                    std::uint32_t p = 0;
                    for (std::size_t r = 0; r < nrows; ++r)
                        p |= static_cast<std::uint32_t>(
                                 (rowWords[r] >> c) & 1u)
                             << r;
                    if (count[p] > 0)
                        ++adds; // merge into existing MAV entry
                    ++count[p];
                }
            }
            for (std::size_t p = 1; p < count.size(); ++p) {
                if (count[p] > 0)
                    adds += static_cast<std::uint64_t>(
                        popcount64(p)); // reconstruction additions
            }
        }
        cost.groupMergeAdds = adds;
    }
    return cost;
}

} // namespace mcbp::bitslice
