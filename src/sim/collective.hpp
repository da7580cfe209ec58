/**
 * @file
 * Hierarchical (tree) collective cost model over tiered fabrics.
 *
 * sim/interconnect prices a flat ring across one link configuration;
 * real pods are not flat: chips inside a group share a fast intra-stage
 * fabric while groups talk over slower boundary links (the CIM scale-out
 * survey models multi-chip inference exactly as such stage-partitioned
 * hierarchies). This module composes the flat ring into a tree: a
 * topology is an ordered stack of tiers, innermost first, each with its
 * own degree and InterconnectConfig, and an all-reduce decomposes into
 *
 *   reduce-scatter(innermost tier, bytes)
 *   all-reduce(remaining tiers, bytes / degree0)   <- recursion
 *   all-gather(innermost tier, bytes)
 *
 * so the slow outer tier only ever moves the 1/degree0 shard the inner
 * reduce-scatter left behind. A single-tier topology delegates verbatim
 * to Interconnect::allReduce — hierarchical pricing of a flat topology
 * is bit-identical to the flat ring, which is what lets
 * ClusterAccelerator route every tensor-parallel group (nested or not)
 * through this one model.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "sim/interconnect.hpp"

namespace mcbp::sim {

/** One level of the fabric hierarchy. */
struct CollectiveTier
{
    /** Ring degree at this level (groups joined by this fabric). */
    std::size_t degree = 1;
    /** Link parameters of this level's fabric. */
    InterconnectConfig link;
};

/**
 * Prices collectives over an ordered tier stack (innermost tier first).
 * Degenerate stacks are fine: an empty stack or all-degree-1 tiers make
 * every collective free, matching Interconnect's N = 1 behavior.
 */
class CollectiveTopology
{
  public:
    /** @param clockGhz core clock the returned cycles are counted in. */
    CollectiveTopology(std::vector<CollectiveTier> tiers, double clockGhz);

    /** Total chips spanned: the product of all tier degrees. */
    std::size_t chips() const;

    /**
     * Hierarchical all-reduce of a @p bytes vector across all tiers.
     * Cost is per chip (charged once on the critical path, once per
     * chip in energy), exactly like Interconnect::allReduce — to which
     * a single-tier stack delegates bit-for-bit.
     */
    InterconnectCost allReduce(double bytes) const;

    /**
     * Hierarchical reduce-scatter: each tier scatters its level's
     * shard, so tier k moves (d_k - 1)/d_k of bytes / prod(d_0..d_k-1)
     * over d_k - 1 hops. Leaves each chip holding a 1/chips() shard.
     */
    InterconnectCost reduceScatter(double bytes) const;

    /** Hierarchical all-gather: the exact mirror of reduceScatter(). */
    InterconnectCost allGather(double bytes) const;

    const std::vector<CollectiveTier> &tiers() const { return tiers_; }
    double clockGhz() const { return clockGhz_; }

  private:
    /** All-reduce over tiers_[first..], of a vector of @p bytes. */
    InterconnectCost allReduceFrom(std::size_t first, double bytes) const;
    /** One tier's ring reduce-scatter (== all-gather) cost. */
    InterconnectCost ringHalf(const CollectiveTier &tier,
                              double bytes) const;

    std::vector<CollectiveTier> tiers_;
    double clockGhz_;
};

} // namespace mcbp::sim
