#include "bgpp/topk_baseline.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"
#include "common/simd/simd.hpp"

namespace mcbp::bgpp {

namespace {

/** Pick the indices of the k largest scores (stable by index on ties). */
std::vector<std::uint32_t>
selectTopk(const std::vector<std::int32_t> &scores, std::size_t k)
{
    std::vector<std::uint32_t> idx(scores.size());
    std::iota(idx.begin(), idx.end(), 0u);
    k = std::min(k, idx.size());
    std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          if (scores[a] != scores[b])
                              return scores[a] > scores[b];
                          return a < b;
                      });
    idx.resize(k);
    std::sort(idx.begin(), idx.end());
    return idx;
}

/** Every key's score q . (sgn(k) * (|k| & mag_mask)). */
std::vector<std::int32_t>
estimateScores(const std::vector<std::int8_t> &q, const Int8Matrix &keys,
               std::uint8_t mag_mask)
{
    std::vector<std::int32_t> scores(keys.rows());
    simd::kernels().signedMagnitudeDot(q.data(), q.size(), keys.data(),
                                       keys.cols(), nullptr, keys.rows(),
                                       mag_mask, scores.data());
    return scores;
}

} // namespace

TopkResult
exactTopk(const std::vector<std::int8_t> &q, const Int8Matrix &keys,
          std::size_t k)
{
    fatalIf(q.size() != keys.cols(), "query/key width mismatch");
    TopkResult out;
    out.estimates = estimateScores(q, keys, 0xFF);
    out.macs = static_cast<std::uint64_t>(keys.rows()) * q.size();
    out.bitsFetched =
        static_cast<std::uint64_t>(keys.rows()) * keys.cols() * 8;
    out.selected = selectTopk(out.estimates, k);
    return out;
}

TopkResult
valueTopk(const std::vector<std::int8_t> &q, const Int8Matrix &keys,
          std::size_t k, unsigned estimate_bits)
{
    fatalIf(q.size() != keys.cols(), "query/key width mismatch");
    fatalIf(estimate_bits == 0 || estimate_bits > 8,
            "estimate bit width must be in [1, 8]");
    TopkResult out;
    // Keep the top estimate_bits of the 7-bit magnitude (+ sign): a
    // 4-bit estimate keeps magnitude bits 7..4 and zeroes 3..1.
    const unsigned drop = estimate_bits >= 8 ? 0 : 7 - (estimate_bits - 1);
    out.estimates = estimateScores(
        q, keys, static_cast<std::uint8_t>((0xFFu << drop) & 0xFFu));
    out.macs = static_cast<std::uint64_t>(keys.rows()) * q.size();
    // The baseline loads (estimate_bits + sign) of every key element.
    out.bitsFetched = static_cast<std::uint64_t>(keys.rows()) *
                      keys.cols() * (estimate_bits + 1);
    out.selected = selectTopk(out.estimates, k);
    return out;
}

double
recall(const std::vector<std::uint32_t> &predicted,
       const std::vector<std::uint32_t> &truth)
{
    if (truth.empty())
        return 1.0;
    std::size_t hit = 0;
    // Both lists are sorted by construction.
    std::size_t i = 0;
    for (std::uint32_t t : truth) {
        while (i < predicted.size() && predicted[i] < t)
            ++i;
        if (i < predicted.size() && predicted[i] == t)
            ++hit;
    }
    return static_cast<double>(hit) / static_cast<double>(truth.size());
}

} // namespace mcbp::bgpp
