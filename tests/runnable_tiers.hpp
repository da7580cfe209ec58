/**
 * @file
 * The dispatch tiers a test can run on this host, weakest first: the
 * scalar reference always, AVX2 and AVX-512 when both the CPU and the
 * build support them. Tests loop over these with kernelsFor() or
 * forceTier() to check every tier gives the same bits.
 */
#pragma once

#include <vector>

#include "common/simd/simd.hpp"

namespace mcbp::simd {

inline std::vector<Tier>
runnableTiers()
{
    std::vector<Tier> tiers = {Tier::Scalar};
    if (availableTier() >= Tier::Avx2)
        tiers.push_back(Tier::Avx2);
    if (availableTier() >= Tier::Avx512)
        tiers.push_back(Tier::Avx512);
    return tiers;
}

} // namespace mcbp::simd
