#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"

namespace mcbp {

void
StatRegistry::add(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

std::uint64_t
StatRegistry::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

bool
StatRegistry::has(const std::string &name) const
{
    return counters_.find(name) != counters_.end();
}

void
StatRegistry::clear()
{
    for (auto &kv : counters_)
        kv.second = 0;
}

void
StatRegistry::merge(const StatRegistry &other)
{
    for (const auto &kv : other.counters_)
        counters_[kv.first] += kv.second;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(counters_.size());
    for (const auto &kv : counters_)
        out.push_back(kv.first);
    return out;
}

std::string
StatRegistry::toString() const
{
    std::ostringstream os;
    for (const auto &kv : counters_)
        os << kv.first << " = " << kv.second << "\n";
    return os.str();
}

void
RunningStat::observe(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    ++count_;
    sum_ += v;
}

double
RunningStat::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
percentile(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, p);
}

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    const QuantileRank q = quantileRank(sorted.size(), p);
    return q.interpolate(sorted[q.lo], sorted[q.hi]);
}

QuantileRank
quantileRank(std::size_t n, double p)
{
    fatalIf(n == 0, "percentile of an empty sample set");
    fatalIf(p < 0.0 || p > 1.0, "percentile p must be in [0, 1]");
    const double rank = p * static_cast<double>(n - 1);
    QuantileRank q;
    q.lo = static_cast<std::size_t>(std::floor(rank));
    q.hi = static_cast<std::size_t>(std::ceil(rank));
    q.frac = rank - static_cast<double>(q.lo);
    return q;
}

void
selectPercentiles(std::vector<double> &samples, std::span<const double> ps,
                  std::span<double> out)
{
    fatalIf(ps.size() != out.size(),
            "selectPercentiles needs one output per quantile");
    auto first = samples.begin();
    for (std::size_t k = 0; k < ps.size(); ++k) {
        fatalIf(k > 0 && ps[k] < ps[k - 1],
                "selectPercentiles needs ascending quantiles");
        const QuantileRank q = quantileRank(samples.size(), ps[k]);
        // After this, [lo, end) holds exactly the order statistics
        // lo..n-1, so the next (higher) quantile searches only there,
        // and statistic lo + 1 is the smallest value above lo.
        const auto lo = samples.begin() + static_cast<std::ptrdiff_t>(q.lo);
        std::nth_element(first, lo, samples.end());
        const double atHi =
            q.hi == q.lo ? *lo : *std::min_element(lo + 1, samples.end());
        out[k] = q.interpolate(*lo, atHi);
        first = lo;
    }
}

} // namespace mcbp
