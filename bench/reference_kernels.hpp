/**
 * @file
 * Pre-rewrite reference implementations of the profiling-path kernels,
 * kept verbatim as the "before" side of the before/after timings in
 * bench_micro_kernels and bench_profiling_speed, and as the reference
 * loops tests compare the fast paths against. One copy here so both
 * benches measure against the same baseline. Do not "improve" these:
 * their whole value is being the original code.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "bgpp/bgpp_predictor.hpp"
#include "bitslice/bit_plane.hpp"
#include "bitslice/sign_magnitude.hpp"
#include "brcr/enumeration.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/rounding.hpp"
#include "model/synthetic.hpp"

namespace mcbp::bench {

/** The pre-direct-index factorizeGroup: fresh unordered_map per group. */
inline brcr::GroupFactorization
factorizeGroupHashed(const bitslice::BitPlane &plane, std::size_t row0,
                     std::size_t m)
{
    brcr::GroupFactorization fact;
    fact.m = m;
    fact.columnIndex.assign(plane.cols(), -1);
    std::vector<std::uint32_t> raw;
    plane.columnPatterns(row0, m, raw);
    std::unordered_map<std::uint32_t, std::int32_t> index_of;
    for (std::size_t c = 0; c < raw.size(); ++c) {
        const std::uint32_t p = raw[c];
        if (p == 0)
            continue;
        auto [it, inserted] = index_of.try_emplace(
            p, static_cast<std::int32_t>(fact.patterns.size()));
        if (inserted)
            fact.patterns.push_back(p);
        fact.columnIndex[c] = it->second;
    }
    return fact;
}

/**
 * Full-column merge adds via per-bit get(): the pre-word-parallel
 * dedup inside compareMergeStrategies, reduced to the fullMergeAdds
 * quantity it computed.
 */
inline std::uint64_t
fullMergeAddsScalar(const bitslice::BitPlane &plane)
{
    struct Key
    {
        std::vector<std::uint64_t> words;
        bool operator==(const Key &o) const { return words == o.words; }
    };
    struct Hash
    {
        std::size_t
        operator()(const Key &k) const
        {
            std::size_t h = 0xcbf29ce484222325ull;
            for (auto w : k.words) {
                h ^= w;
                h *= 0x100000001b3ull;
            }
            return h;
        }
    };
    std::unordered_map<Key, std::size_t, Hash> uniq;
    std::uint64_t merge_adds = 0;
    const std::size_t words = (plane.rows() + 63) / 64;
    for (std::size_t c = 0; c < plane.cols(); ++c) {
        Key key;
        key.words.assign(words, 0);
        std::uint64_t ones = 0;
        for (std::size_t r = 0; r < plane.rows(); ++r) {
            if (plane.get(r, c)) {
                key.words[r >> 6] |= std::uint64_t{1} << (r & 63);
                ++ones;
            }
        }
        if (ones == 0)
            continue;
        auto [it, inserted] = uniq.try_emplace(std::move(key), ones);
        if (!inserted)
            ++merge_adds;
    }
    std::uint64_t recon_adds = 0;
    // mcbp-lint: allow(unordered-accumulation): uint64 sum is commutative, order cannot change the result
    for (const auto &kv : uniq)
        recon_adds += kv.second;
    return merge_adds + recon_adds;
}

/**
 * The pre-kernel bitslice::decompose: one BitPlane::set() per (value,
 * set bit), with the range check on every element.
 */
inline bitslice::SignMagnitude
decomposePerElement(const Int8Matrix &w, quant::BitWidth bw)
{
    const int planes = quant::magnitudeBits(bw);
    const int level = quant::maxLevel(bw);
    bitslice::SignMagnitude sm;
    sm.rows = w.rows();
    sm.cols = w.cols();
    sm.sign = bitslice::BitPlane(w.rows(), w.cols());
    sm.magnitude.assign(planes, bitslice::BitPlane(w.rows(), w.cols()));
    for (std::size_t r = 0; r < w.rows(); ++r) {
        for (std::size_t c = 0; c < w.cols(); ++c) {
            const int v = w.at(r, c);
            fatalIf(v > level || v < -level,
                    "value out of range for the requested bit width");
            const unsigned mag = static_cast<unsigned>(v < 0 ? -v : v);
            if (v < 0)
                sm.sign.set(r, c, true);
            for (int p = 0; p < planes; ++p) {
                if ((mag >> p) & 1u)
                    sm.magnitude[p].set(r, c, true);
            }
        }
    }
    return sm;
}

/**
 * The per-element model::gaussianWeights loop before block Gaussian
 * synthesis: one Rng::gaussian() call, then that element's outlier
 * draws.
 */
inline FloatMatrix
gaussianWeightsPerElement(Rng &rng, std::size_t rows, std::size_t cols,
                          const model::WeightProfile &profile)
{
    fatalIf(profile.sigma <= 0.0, "weight sigma must be positive");
    FloatMatrix w(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            double v = rng.gaussian(0.0, profile.sigma);
            if (rng.bernoulli(profile.outlierFraction)) {
                const double mag = profile.dynamicRange *
                                   profile.sigma *
                                   rng.uniform(0.8, 1.2);
                v = rng.bernoulli(0.5) ? mag : -mag;
            }
            w.at(r, c) = static_cast<float>(v);
        }
    }
    return w;
}

/**
 * The pre-kernel Box-Muller evaluation inside Rng::gaussian(): one
 * libm log, sin and cos per pair.
 */
inline void
boxMullerLibm(const double *u1, const double *u2, std::size_t n,
              double *cosOut, double *sinOut)
{
    const double two_pi = 6.283185307179586;
    for (std::size_t i = 0; i < n; ++i) {
        const double mag = std::sqrt(-2.0 * std::log(u1[i]));
        sinOut[i] = mag * std::sin(two_pi * u2[i]);
        cosOut[i] = mag * std::cos(two_pi * u2[i]);
    }
}

/**
 * The pre-kernel bgpp::BgppPredictor::predict: each round sends every
 * surviving key element through a branchy per-element loop.
 */
inline bgpp::BgppResult
bgppPredictPerElement(const bgpp::BgppConfig &cfg,
                      const std::vector<std::int8_t> &q,
                      const Int8Matrix &keys)
{
    fatalIf(q.size() != keys.cols(), "query/key width mismatch");
    const std::size_t d = q.size();
    const std::size_t s = keys.rows();

    bgpp::BgppResult out;
    out.estimates.assign(s, 0);
    std::vector<std::uint32_t> alive(s);
    for (std::size_t j = 0; j < s; ++j)
        alive[j] = static_cast<std::uint32_t>(j);

    auto alpha_at = [&](std::size_t r) {
        if (cfg.alphaSchedule.empty())
            return cfg.alpha;
        return cfg.alphaSchedule[std::min(r, cfg.alphaSchedule.size() - 1)];
    };

    for (std::size_t r = 0; r < cfg.rounds && !alive.empty(); ++r) {
        const double gap = alpha_at(r) * cfg.radius / cfg.logitScale;
        const int plane = 6 - static_cast<int>(r);
        ++out.roundsRun;
        for (std::uint32_t j : alive) {
            const std::int8_t *row = keys.rowPtr(j);
            std::int32_t contrib = 0;
            for (std::size_t i = 0; i < d; ++i) {
                const int v = row[i];
                const int mag = v < 0 ? -v : v;
                if ((mag >> plane) & 1)
                    contrib += v < 0 ? -static_cast<std::int32_t>(q[i])
                                     : static_cast<std::int32_t>(q[i]);
            }
            out.estimates[j] += contrib << plane;
            out.macs += d;
        }
        out.bitsFetched += static_cast<std::uint64_t>(alive.size()) * d *
                           (r == 0 ? 2 : 1);

        std::int32_t mx = std::numeric_limits<std::int32_t>::min();
        std::int32_t mn = std::numeric_limits<std::int32_t>::max();
        for (std::uint32_t j : alive) {
            mx = std::max(mx, out.estimates[j]);
            mn = std::min(mn, out.estimates[j]);
        }
        const double theta = static_cast<double>(mx) - gap;
        if (theta <= static_cast<double>(mn)) {
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
        if (next.size() < cfg.minKeep) {
            std::vector<std::uint32_t> ranked = alive;
            std::partial_sort(
                ranked.begin(),
                ranked.begin() + std::min(cfg.minKeep, ranked.size()),
                ranked.end(), [&](std::uint32_t a, std::uint32_t b) {
                    return out.estimates[a] > out.estimates[b];
                });
            ranked.resize(std::min(cfg.minKeep, ranked.size()));
            std::sort(ranked.begin(), ranked.end());
            next = std::move(ranked);
        }
        alive = std::move(next);
        out.survivorsPerRound.push_back(alive.size());
    }
    out.selected = std::move(alive);
    return out;
}

/** The pre-kernel bgpp::exactTopk score loop: q . k per key. */
inline std::vector<std::int32_t>
exactScoresPerElement(const std::vector<std::int8_t> &q,
                      const Int8Matrix &keys)
{
    std::vector<std::int32_t> scores(keys.rows());
    for (std::size_t j = 0; j < keys.rows(); ++j) {
        std::int32_t acc = 0;
        const std::int8_t *row = keys.rowPtr(j);
        for (std::size_t i = 0; i < q.size(); ++i)
            acc += static_cast<std::int32_t>(q[i]) *
                   static_cast<std::int32_t>(row[i]);
        scores[j] = acc;
    }
    return scores;
}

/**
 * The pre-kernel bgpp::valueTopk score loop: q . k with the dropped
 * low magnitude bits of every key element zeroed.
 */
inline std::vector<std::int32_t>
valueScoresPerElement(const std::vector<std::int8_t> &q,
                      const Int8Matrix &keys, unsigned estimate_bits)
{
    const unsigned drop = estimate_bits >= 8 ? 0 : 7 - (estimate_bits - 1);
    std::vector<std::int32_t> scores(keys.rows());
    for (std::size_t j = 0; j < keys.rows(); ++j) {
        std::int32_t acc = 0;
        const std::int8_t *row = keys.rowPtr(j);
        for (std::size_t i = 0; i < q.size(); ++i) {
            const int v = row[i];
            const int mag = (v < 0 ? -v : v) >> drop << drop;
            const int approx = v < 0 ? -mag : mag;
            acc += static_cast<std::int32_t>(q[i]) * approx;
        }
        scores[j] = acc;
    }
    return scores;
}

/**
 * The pre-kernel symmetric key quantization inside
 * model::synthesizeAttention: a forEach |max| scan, then one rounded,
 * clamped division per element.
 */
inline double
quantizeKeysPerElement(const FloatMatrix &keys_f, Int8Matrix &keys)
{
    float kmax = 0.0f;
    keys_f.forEach([&](std::size_t, std::size_t, float v) {
        kmax = std::max(kmax, std::abs(v));
    });
    const double k_scale = kmax > 0 ? kmax / 127.0 : 1.0;
    keys = Int8Matrix(keys_f.rows(), keys_f.cols());
    for (std::size_t j = 0; j < keys_f.rows(); ++j) {
        for (std::size_t i = 0; i < keys_f.cols(); ++i) {
            const long kq = roundHalfAway(keys_f.at(j, i) / k_scale);
            keys.at(j, i) = static_cast<std::int8_t>(
                std::clamp<long>(kq, -127, 127));
        }
    }
    return k_scale;
}

/**
 * The pre-kernel model::synthesizeAttention: the same draws, with the
 * keys quantized by quantizeKeysPerElement().
 */
inline model::AttentionSet
synthesizeAttentionPerElement(Rng &rng, std::size_t s, std::size_t d,
                              double concentration)
{
    std::vector<double> qf(d);
    rng.gaussianBlock(qf.data(), d);
    double qnorm2 = 0.0;
    for (double v : qf)
        qnorm2 += v * v;

    const std::size_t vital =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     concentration * static_cast<double>(s)));
    std::vector<double> logits(s);
    for (std::size_t j = 0; j < vital; ++j)
        logits[j] = -rng.uniform(0.0, 1.5);
    rng.gaussianBlock(logits.data() + vital, s - vital);
    for (std::size_t j = vital; j < s; ++j)
        logits[j] = -5.0 - std::abs(2.0 * logits[j]);
    std::vector<std::size_t> perm(s);
    for (std::size_t j = 0; j < s; ++j)
        perm[j] = j;
    for (std::size_t j = s; j > 1; --j)
        std::swap(perm[j - 1], perm[rng.uniformInt(j)]);

    const double sqrt_d = std::sqrt(static_cast<double>(d));
    FloatMatrix keys_f(s, d);
    std::vector<double> noise(d);
    for (std::size_t j = 0; j < s; ++j) {
        const double l = logits[perm[j]];
        const double coef = l * sqrt_d / qnorm2;
        rng.gaussianBlock(noise.data(), d);
        for (std::size_t i = 0; i < d; ++i)
            keys_f.at(j, i) =
                static_cast<float>(coef * qf[i] + 0.35 * noise[i]);
    }

    model::AttentionSet out;
    double qmax = 0.0;
    for (double v : qf)
        qmax = std::max(qmax, std::abs(v));
    const double q_scale = qmax > 0 ? qmax / 127.0 : 1.0;
    out.query.resize(d);
    for (std::size_t i = 0; i < d; ++i) {
        const long qq = roundHalfAway(qf[i] / q_scale);
        out.query[i] =
            static_cast<std::int8_t>(std::clamp<long>(qq, -127, 127));
    }
    const double k_scale = quantizeKeysPerElement(keys_f, out.keys);
    out.logitScale = q_scale * k_scale / sqrt_d;
    return out;
}

} // namespace mcbp::bench
