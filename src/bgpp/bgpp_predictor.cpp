#include "bgpp/bgpp_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "common/simd/simd.hpp"

namespace mcbp::bgpp {

BgppPredictor::BgppPredictor(BgppConfig cfg) : cfg_(cfg)
{
    fatalIf(cfg_.rounds == 0 || cfg_.rounds > 7,
            "BGPP rounds must be in [1, 7]");
    fatalIf(cfg_.alpha < 0.0 || cfg_.alpha > 1.0,
            "alpha must be in [0, 1]");
    for (double a : cfg_.alphaSchedule)
        fatalIf(a < 0.0 || a > 1.0, "alpha schedule entry out of [0, 1]");
    fatalIf(cfg_.radius <= 0.0, "radius must be positive");
    fatalIf(cfg_.logitScale <= 0.0, "logit scale must be positive");
    fatalIf(cfg_.minKeep == 0, "minKeep must be at least 1");
}

BgppResult
BgppPredictor::predict(const std::vector<std::int8_t> &q,
                       const Int8Matrix &keys) const
{
    fatalIf(q.size() != keys.cols(), "query/key width mismatch");
    const std::size_t d = q.size();
    const std::size_t s = keys.rows();

    BgppResult out;
    out.estimates.assign(s, 0);
    std::vector<std::uint32_t> alive(s);
    for (std::size_t j = 0; j < s; ++j)
        alive[j] = static_cast<std::uint32_t>(j);
    std::vector<std::int32_t> contrib(s);
    const auto dot = simd::kernels().signedMagnitudeDot;

    // Score-domain threshold gap derived from the logit-domain radius;
    // alpha_r may vary per round (Eq 1).
    auto alpha_at = [&](std::size_t r) {
        if (cfg_.alphaSchedule.empty())
            return cfg_.alpha;
        return cfg_.alphaSchedule[std::min(
            r, cfg_.alphaSchedule.size() - 1)];
    };

    for (std::size_t r = 0; r < cfg_.rounds && !alive.empty(); ++r) {
        const double gap =
            alpha_at(r) * cfg_.radius / cfg_.logitScale;
        const int plane = 6 - static_cast<int>(r); // MSB magnitude first.
        panicIf(plane < 0, "round count exceeds magnitude planes");
        ++out.roundsRun;

        // Fetch this round's bits and update the partial estimates:
        // masking |k| to one plane sums that plane's AND-and-add terms
        // already weighted by 2^plane.
        dot(q.data(), d, keys.data(), d, alive.data(), alive.size(),
            static_cast<std::uint8_t>(1u << plane), contrib.data());
        for (std::size_t i = 0; i < alive.size(); ++i)
            out.estimates[alive[i]] += contrib[i];
        out.macs += static_cast<std::uint64_t>(alive.size()) * d;
        // Round 1 additionally loads the sign plane of every key.
        out.bitsFetched += static_cast<std::uint64_t>(alive.size()) * d *
                           (r == 0 ? 2 : 1);

        // Threshold update: track max/min over survivors (Eq 1).
        std::int32_t mx = std::numeric_limits<std::int32_t>::min();
        std::int32_t mn = std::numeric_limits<std::int32_t>::max();
        for (std::uint32_t j : alive) {
            mx = std::max(mx, out.estimates[j]);
            mn = std::min(mn, out.estimates[j]);
        }
        const double theta = static_cast<double>(mx) - gap;

        if (theta <= static_cast<double>(mn)) {
            // Clipping module clock-gated: nothing can be pruned.
            ++out.clockGatedRounds;
            out.survivorsPerRound.push_back(alive.size());
            continue;
        }

        std::vector<std::uint32_t> next;
        next.reserve(alive.size());
        for (std::uint32_t j : alive) {
            if (static_cast<double>(out.estimates[j]) >= theta)
                next.push_back(j);
        }
        if (next.size() < cfg_.minKeep) {
            // Keep the best minKeep survivors instead of over-pruning.
            std::vector<std::uint32_t> ranked = alive;
            std::partial_sort(
                ranked.begin(),
                ranked.begin() +
                    std::min(cfg_.minKeep, ranked.size()),
                ranked.end(), [&](std::uint32_t a, std::uint32_t b) {
                    return out.estimates[a] > out.estimates[b];
                });
            ranked.resize(std::min(cfg_.minKeep, ranked.size()));
            std::sort(ranked.begin(), ranked.end());
            next = std::move(ranked);
        }
        alive = std::move(next);
        out.survivorsPerRound.push_back(alive.size());
    }

    out.selected = std::move(alive);
    return out;
}

double
BgppPredictor::attentionSparsity(const BgppResult &r, std::size_t total_keys)
{
    if (total_keys == 0)
        return 0.0;
    return 1.0 - static_cast<double>(r.selected.size()) /
                     static_cast<double>(total_keys);
}

} // namespace mcbp::bgpp
