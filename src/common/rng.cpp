#include "common/rng.hpp"

#include <cmath>

#include "common/simd/simd.hpp"

namespace mcbp {

namespace {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

void
Rng::pairUniforms(double &u1, double &u2)
{
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    u2 = uniform();
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u1, u2, c;
    pairUniforms(u1, u2);
    simd::kernelsFor(simd::Tier::Scalar).boxMuller(&u1, &u2, 1, &c, &spare_);
    haveSpare_ = true;
    return c;
}

void
Rng::gaussianBlock(double *out, std::size_t n)
{
    gaussianBlock(out, n, [](std::size_t) {});
}

void
Rng::emitPairs(const double *u1, const double *u2, std::size_t pairs,
               double *out, std::size_t room)
{
    double c[kBlockPairs], s[kBlockPairs];
    simd::kernels().boxMuller(u1, u2, pairs, c, s);
    for (std::size_t p = 0; p < pairs; ++p) {
        out[2 * p] = c[p];
        if (2 * p + 1 < room) {
            out[2 * p + 1] = s[p];
        } else {
            spare_ = s[p];
            haveSpare_ = true;
        }
    }
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::zipf(std::size_t n, double s)
{
    if (n == 0)
        return 0;
    // Inverse-CDF on the (truncated) harmonic weights. n here is at most a
    // few thousand (sequence lengths), so the linear scan is fine and keeps
    // the generator exactly reproducible.
    double norm = 0.0;
    for (std::size_t i = 1; i <= n; ++i)
        norm += 1.0 / std::pow(static_cast<double>(i), s);
    double u = uniform() * norm;
    double acc = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i), s);
        if (u <= acc)
            return i - 1;
    }
    return n - 1;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd2b74407b1ce6e93ull);
}

} // namespace mcbp
