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
    // Branch-free over the contiguous bytes: the sign of a Gaussian
    // weight is a coin flip, so a branch on it mispredicts half the
    // time.
    const std::int8_t *v = w.data();
    std::size_t zeros = 0, nonneg = 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        zeros += static_cast<std::size_t>(v[i] == 0);
        nonneg += static_cast<std::size_t>(v[i] >= 0);
    }
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
    RepetitionReport rep;
    for (const GroupCensus &g : groupCensus(plane, m)) {
        rep.totalColumns += plane.cols();
        rep.zeroColumns += plane.cols() - g.nonzeroColumns;
        rep.distinctColumns += g.distinctPatterns;
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
    for (const GroupCensus &g : groupCensus(plane, m))
        cost.groupMergeAdds +=
            g.nonzeroColumns - g.distinctPatterns + g.patternBits;
    return cost;
}

} // namespace mcbp::bitslice
