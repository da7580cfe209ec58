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

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bitslice/bit_plane.hpp"
#include "bitslice/sign_magnitude.hpp"
#include "brcr/enumeration.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
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

} // namespace mcbp::bench
