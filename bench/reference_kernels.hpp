/**
 * @file
 * Pre-rewrite reference implementations of the profiling-path kernels,
 * kept verbatim as the "before" side of the before/after timings in
 * bench_micro_kernels and bench_profiling_speed. One copy here so both
 * benches measure against the same baseline. Do not "improve" these:
 * their whole value is being the original code.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bitslice/bit_plane.hpp"
#include "bitslice/sign_magnitude.hpp"
#include "brcr/enumeration.hpp"
#include "common/logging.hpp"

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

} // namespace mcbp::bench
