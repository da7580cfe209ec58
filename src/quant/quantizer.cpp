#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rounding.hpp"
#include "common/simd/simd.hpp"

namespace mcbp::quant {

int
maxLevel(BitWidth bw)
{
    return bw == BitWidth::Int8 ? 127 : 7;
}

int
magnitudeBits(BitWidth bw)
{
    return bw == BitWidth::Int8 ? 7 : 3;
}

namespace {

std::int8_t
clampToLevel(long v, int level)
{
    if (v > level)
        v = level;
    if (v < -level)
        v = -level;
    return static_cast<std::int8_t>(v);
}

QuantizedWeight
quantizeWithChannelMax(const FloatMatrix &w, BitWidth bw,
                       const std::vector<float> &channel_max)
{
    const int level = maxLevel(bw);
    QuantizedWeight out;
    out.values = Int8Matrix(w.rows(), w.cols());
    out.params.bitWidth = bw;
    out.params.scales.resize(w.rows());
    for (std::size_t r = 0; r < w.rows(); ++r) {
        float mx = channel_max[r];
        float scale = mx > 0.0f ? mx / static_cast<float>(level) : 1.0f;
        out.params.scales[r] = scale;
        for (std::size_t c = 0; c < w.cols(); ++c) {
            long q = roundHalfAway(w.at(r, c) / scale);
            out.values.at(r, c) = clampToLevel(q, level);
        }
    }
    return out;
}

} // namespace

QuantizedWeight
quantizeWeight(const FloatMatrix &w, BitWidth bw)
{
    fatalIf(w.rows() == 0 || w.cols() == 0, "cannot quantize empty weight");
    std::vector<float> channel_max(w.rows());
    for (std::size_t r = 0; r < w.rows(); ++r)
        channel_max[r] = simd::kernels().absMax(w.rowPtr(r), w.cols());
    return quantizeWithChannelMax(w, bw, channel_max);
}

QuantizedWeight
quantizeWeightQat(const FloatMatrix &w, BitWidth bw, double clip_percentile)
{
    fatalIf(w.rows() == 0 || w.cols() == 0, "cannot quantize empty weight");
    fatalIf(clip_percentile <= 0.0 || clip_percentile > 1.0,
            "clip percentile must be in (0, 1]");
    std::vector<float> channel_max(w.rows(), 0.0f);
    std::vector<float> mags(w.cols());
    for (std::size_t r = 0; r < w.rows(); ++r) {
        for (std::size_t c = 0; c < w.cols(); ++c)
            mags[c] = std::abs(w.at(r, c));
        std::size_t idx = static_cast<std::size_t>(
            clip_percentile * static_cast<double>(w.cols() - 1));
        std::nth_element(mags.begin(), mags.begin() + idx, mags.end());
        channel_max[r] = mags[idx];
    }
    return quantizeWithChannelMax(w, bw, channel_max);
}

FloatMatrix
dequantizeWeight(const QuantizedWeight &qw)
{
    FloatMatrix out(qw.values.rows(), qw.values.cols());
    for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = 0; c < out.cols(); ++c)
            out.at(r, c) = static_cast<float>(qw.values.at(r, c)) *
                           qw.params.scales[r];
    return out;
}

QuantizedActivation
quantizeActivation(const FloatMatrix &x)
{
    fatalIf(x.rows() == 0 || x.cols() == 0, "cannot quantize empty tensor");
    float mn = x.at(0, 0), mx = x.at(0, 0);
    x.forEach([&](std::size_t, std::size_t, float v) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
    });
    QuantizedActivation out;
    float range = mx - mn;
    out.params.scale = range > 0.0f ? range / 255.0f : 1.0f;
    out.params.zero =
        static_cast<std::int32_t>(roundHalfAway(-mn / out.params.scale)) -
        128;
    out.values = Int8Matrix(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
            long q = roundHalfAway(x.at(r, c) / out.params.scale) +
                     out.params.zero;
            q = std::clamp<long>(q, -128, 127);
            out.values.at(r, c) = static_cast<std::int8_t>(q);
        }
    }
    return out;
}

FloatMatrix
dequantizeActivation(const QuantizedActivation &qx)
{
    FloatMatrix out(qx.values.rows(), qx.values.cols());
    for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = 0; c < out.cols(); ++c)
            out.at(r, c) =
                (static_cast<float>(qx.values.at(r, c)) -
                 static_cast<float>(qx.params.zero)) *
                qx.params.scale;
    return out;
}

} // namespace mcbp::quant
