/**
 * @file
 * Deterministic random number generation for the MCBP reproduction.
 *
 * Every stochastic component (synthetic weights, activations, attention
 * skew) draws from an explicitly seeded Rng so that all benchmark tables are
 * reproducible run-to-run and across platforms. The core generator is
 * xoshiro256** seeded through SplitMix64, which is portable (unlike
 * std::normal_distribution, whose output is implementation-defined),
 * and normals come from a Box-Muller kernel that calls no libm routine
 * (common/simd), so they are portable too.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace mcbp {

/** Portable, explicitly-seeded pseudo-random generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @p n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /**
     * Standard normal via Box-Muller on two uniforms. log, sin and cos
     * are simd::Kernels::boxMuller's own routines (+ - * /, sqrt and bit
     * operations; no libm call, no FMA), so the normals have the same
     * bits on every libm and every dispatch tier. Returns the cosine
     * half of a pair and keeps the sine half for the next call.
     */
    double gaussian();

    /**
     * Write the values of @p n successive gaussian() calls to @p out,
     * taking a spare carried in and leaving one behind exactly as those
     * calls would. Pairs go through the dispatched boxMuller kernel a
     * fixed-size stack chunk at a time.
     */
    void gaussianBlock(double *out, std::size_t n);

    /**
     * gaussianBlock() with other draws interleaved: @p afterEach(i)
     * runs where the loop `out[i] = gaussian(); afterEach(i);` would run
     * it in the stream, so it may draw uniforms (but no normal) from
     * this Rng and the whole walk draws what that loop draws.
     */
    template <class AfterEach>
    void gaussianBlock(double *out, std::size_t n, AfterEach &&afterEach);

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli draw with probability @p p of true. */
    bool bernoulli(double p);

    /**
     * Draw from a Zipf-like distribution over [0, n) with exponent @p s.
     * Used to synthesize attention-score concentration (a few keys receive
     * most of the attention mass, as observed in LLMs).
     */
    std::size_t zipf(std::size_t n, double s);

    /** Split off an independent child generator (stable derivation). */
    Rng split();

  private:
    /** Box-Muller pairs per kernel call (4 KiB of stack per array). */
    static constexpr std::size_t kBlockPairs = 256;

    /** Draw one pair's uniforms as gaussian() does (u1 > 1e-300). */
    void pairUniforms(double &u1, double &u2);

    /**
     * Run the kernel on @p pairs pairs and store them interleaved
     * (cos, sin) from @p out on; a sine past @p room becomes the spare.
     */
    void emitPairs(const double *u1, const double *u2, std::size_t pairs,
                   double *out, std::size_t room);

    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

template <class AfterEach>
void
Rng::gaussianBlock(double *out, std::size_t n, AfterEach &&afterEach)
{
    std::size_t i = 0;
    if (n > 0 && haveSpare_) {
        haveSpare_ = false;
        out[i] = spare_;
        afterEach(i++);
    }
    double u1[kBlockPairs], u2[kBlockPairs];
    while (i < n) {
        const std::size_t first = i;
        std::size_t pairs = 0;
        for (; pairs < kBlockPairs && i < n; ++pairs) {
            pairUniforms(u1[pairs], u2[pairs]);
            afterEach(i++);
            if (i < n)
                afterEach(i++);
        }
        emitPairs(u1, u2, pairs, out + first, n - first);
    }
}

} // namespace mcbp
