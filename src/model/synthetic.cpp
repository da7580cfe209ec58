#include "model/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rounding.hpp"
#include "common/simd/simd.hpp"

namespace mcbp::model {

FloatMatrix
gaussianWeights(Rng &rng, std::size_t rows, std::size_t cols,
                const WeightProfile &profile)
{
    fatalIf(profile.sigma <= 0.0, "weight sigma must be positive");
    FloatMatrix w(rows, cols);
    // Element order is the stream order: each element draws its normal,
    // then its outlier draws. A chunk at a time, the outlier draws ride
    // in the block walk and the chunk's normals come from one kernel
    // call; fixed-size scratch keeps a large tile's peak memory flat.
    constexpr std::size_t kChunk = 512;
    double normal[kChunk], outlier[kChunk];
    bool isOutlier[kChunk];
    float *out = w.data();
    const std::size_t total = rows * cols;
    for (std::size_t base = 0; base < total; base += kChunk) {
        const std::size_t m = std::min(kChunk, total - base);
        rng.gaussianBlock(normal, m, [&](std::size_t e) {
            isOutlier[e] = rng.bernoulli(profile.outlierFraction);
            if (isOutlier[e]) {
                const double mag = profile.dynamicRange * profile.sigma *
                                   rng.uniform(0.8, 1.2);
                outlier[e] = rng.bernoulli(0.5) ? mag : -mag;
            }
        });
        for (std::size_t e = 0; e < m; ++e)
            out[base + e] = static_cast<float>(
                isOutlier[e] ? outlier[e] : profile.sigma * normal[e]);
    }
    return w;
}

quant::QuantizedWeight
synthesizeQuantizedWeight(Rng &rng, std::size_t rows, std::size_t cols,
                          quant::BitWidth bw, const WeightProfile &profile)
{
    return quant::quantizeWeight(gaussianWeights(rng, rows, cols, profile),
                                 bw);
}

FloatMatrix
gaussianActivations(Rng &rng, std::size_t rows, std::size_t cols,
                    double sigma, double mean)
{
    FloatMatrix x(rows, cols);
    std::vector<double> normal(cols);
    for (std::size_t r = 0; r < rows; ++r) {
        rng.gaussianBlock(normal.data(), cols);
        for (std::size_t c = 0; c < cols; ++c)
            x.at(r, c) = static_cast<float>(mean + sigma * normal[c]);
    }
    return x;
}

AttentionSet
synthesizeAttention(Rng &rng, std::size_t s, std::size_t d,
                    double concentration)
{
    fatalIf(s == 0 || d == 0, "attention set must be non-empty");
    fatalIf(concentration <= 0.0 || concentration > 1.0,
            "concentration must be in (0, 1]");

    // Float query.
    std::vector<double> qf(d);
    rng.gaussianBlock(qf.data(), d);
    double qnorm2 = 0.0;
    for (double v : qf)
        qnorm2 += v * v;
    fatalIf(qnorm2 == 0.0, "degenerate query");

    // Target logits: a concentrated subset sits near the max, the rest
    // falls well below the softmax radius.
    const std::size_t vital =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     concentration * static_cast<double>(s)));
    std::vector<double> logits(s);
    for (std::size_t j = 0; j < vital; ++j)
        logits[j] = -rng.uniform(0.0, 1.5); // near the max (0).
    rng.gaussianBlock(logits.data() + vital, s - vital);
    for (std::size_t j = vital; j < s; ++j)
        logits[j] = -5.0 - std::abs(2.0 * logits[j]);
    // Shuffle key positions so vital keys are scattered through the cache.
    std::vector<std::size_t> perm(s);
    for (std::size_t j = 0; j < s; ++j)
        perm[j] = j;
    for (std::size_t j = s; j > 1; --j)
        std::swap(perm[j - 1], perm[rng.uniformInt(j)]);

    // Keys: k_j = q * (l_j * sqrt(d) / ||q||^2) + noise.
    const double sqrt_d = std::sqrt(static_cast<double>(d));
    FloatMatrix keys_f(s, d);
    std::vector<double> noise(d);
    for (std::size_t j = 0; j < s; ++j) {
        const double l = logits[perm[j]];
        const double coef = l * sqrt_d / qnorm2;
        rng.gaussianBlock(noise.data(), d);
        for (std::size_t i = 0; i < d; ++i) {
            keys_f.at(j, i) =
                static_cast<float>(coef * qf[i] + 0.35 * noise[i]);
        }
    }

    // Quantize query and keys symmetrically (per tensor).
    AttentionSet out;
    double qmax = 0.0;
    for (double v : qf)
        qmax = std::max(qmax, std::abs(v));
    const double q_scale = qmax > 0 ? qmax / 127.0 : 1.0;
    out.query.resize(d);
    for (std::size_t i = 0; i < d; ++i) {
        const long qq = roundHalfAway(qf[i] / q_scale);
        out.query[i] = static_cast<std::int8_t>(
            std::clamp<long>(qq, -127, 127));
    }

    const simd::Kernels &kernels = simd::kernels();
    const float kmax = kernels.absMax(keys_f.data(), keys_f.size());
    const double k_scale = kmax > 0 ? kmax / 127.0 : 1.0;
    out.keys = Int8Matrix(s, d);
    kernels.quantizeSymmetric(keys_f.data(), keys_f.size(), k_scale,
                              out.keys.data());
    out.logitScale = q_scale * k_scale / sqrt_d;
    return out;
}

} // namespace mcbp::model
