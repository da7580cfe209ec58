/**
 * @file
 * Lightweight statistics counters used by the functional engines and the
 * cycle-level simulator to account for operations, bytes and cycles.
 *
 * Counters are plain named uint64 accumulators grouped in a registry; the
 * benchmark harness prints them as the rows of the paper's tables. No
 * global state: each engine owns its registry.
 */
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace mcbp {

/** A named group of monotonically increasing counters. */
class StatRegistry
{
  public:
    /** Add @p delta to counter @p name (creates it at zero first). */
    void add(const std::string &name, std::uint64_t delta);

    /** Increment counter @p name by one. */
    void inc(const std::string &name) { add(name, 1); }

    /** Current value (zero if never touched). */
    std::uint64_t get(const std::string &name) const;

    /** True if the counter has been created. */
    bool has(const std::string &name) const;

    /** Reset all counters to zero (keeps names). */
    void clear();

    /** Merge another registry into this one (summing counters). */
    void merge(const StatRegistry &other);

    /** Stable (sorted) list of counter names. */
    std::vector<std::string> names() const;

    /** Render as "name = value" lines, for logs and debugging. */
    std::string toString() const;

  private:
    std::map<std::string, std::uint64_t> counters_;
};

/**
 * Simple accumulator for a stream of doubles: count / sum / min / max /
 * mean. Used for latency distributions and sparsity samples.
 */
class RunningStat
{
  public:
    void observe(double v);
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return min_; }
    double max() const { return max_; }
    double mean() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * The @p p-quantile (0 <= p <= 1) of @p samples by linear interpolation
 * between order statistics. fatal() on an empty sample set. Used for the
 * serving engine's latency percentiles.
 */
double percentile(std::vector<double> samples, double p);

/** percentile() for an already ascending-sorted sample set (no copy). */
double percentileSorted(const std::vector<double> &sorted, double p);

/**
 * Where the p-quantile of n ascending samples falls: between the order
 * statistics lo and hi (lo or lo + 1), a fraction frac of the way. The
 * one rank and interpolation rule that percentileSorted() and
 * selectPercentiles() share.
 */
struct QuantileRank
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;

    /** The quantile, from the values of order statistics lo and hi. */
    double interpolate(double atLo, double atHi) const
    {
        return atLo + (atHi - atLo) * frac;
    }
};

/** The QuantileRank of the @p p-quantile of @p n samples. fatal() on
 *  n == 0 or p outside [0, 1]. */
QuantileRank quantileRank(std::size_t n, double p);

/**
 * The @p ps[k]-quantile of @p samples into @p out[k], for ascending
 * @p ps: bit-identical to percentileSorted() over a sorted copy, but
 * found by order-statistic selection (std::nth_element), each quantile
 * narrowing the range the next one searches, so nothing is sorted.
 * Reorders @p samples. fatal() on an empty sample set, on @p ps out of
 * order, or on @p out not the size of @p ps.
 */
void selectPercentiles(std::vector<double> &samples,
                       std::span<const double> ps, std::span<double> out);

} // namespace mcbp
