/** @file Unit tests for quant/quantizer and quant/calibration. */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/rounding.hpp"
#include "quant/calibration.hpp"
#include "quant/quantizer.hpp"

namespace mcbp::quant {
namespace {

FloatMatrix
randomMatrix(std::uint64_t seed, std::size_t r, std::size_t c,
             double sigma = 1.0)
{
    Rng rng(seed);
    FloatMatrix m(r, c);
    m.fill([&](std::size_t, std::size_t) {
        return static_cast<float>(rng.gaussian(0.0, sigma));
    });
    return m;
}

/** @p v, then each half-integer's nearest neighbours on both sides. */
template <typename T>
std::vector<T>
roundingCases(const std::vector<T> &halves)
{
    std::vector<T> out;
    for (const T h : halves) {
        out.push_back(h);
        out.push_back(std::nextafter(h, T(0)));
        out.push_back(std::nextafter(h, h < T(0) ? T(-1e30) : T(1e30)));
    }
    return out;
}

TEST(Rounding, MatchesLround)
{
    // Halves round away from zero, their neighbours toward the nearer
    // integer; 2^22 + 0.5 is a float half with a one-ulp fraction, and
    // the doubles next to 2^52 are the last ones with a fraction.
    std::vector<double> dh = {0.0, -0.0};
    for (const double h : {0.5, 1.5, 2.5, 126.5, 127.5, 0x1p52 - 0.5,
                           0x1p52 - 1.5, 0x1p52, 0x1p52 + 1.0, 0x1p53}) {
        dh.push_back(h);
        dh.push_back(-h);
    }
    for (const double x : roundingCases(dh))
        EXPECT_EQ(roundHalfAway(x), std::lround(x)) << x;

    std::vector<float> fh = {0.0f, -0.0f};
    for (const float h : {0.5f, 1.5f, 2.5f, 126.5f, 127.5f, 0x1p22f + 0.5f,
                          0x1p23f - 0.5f, 0x1p23f, 0x1p24f}) {
        fh.push_back(h);
        fh.push_back(-h);
    }
    for (const float x : roundingCases(fh))
        EXPECT_EQ(roundHalfAway(x), std::lround(x)) << x;

    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-300.0, 300.0);
        EXPECT_EQ(roundHalfAway(x), std::lround(x)) << x;
        const float f = static_cast<float>(x);
        EXPECT_EQ(roundHalfAway(f), std::lround(f)) << f;
    }
}

TEST(Quantizer, BitWidthHelpers)
{
    EXPECT_EQ(maxLevel(BitWidth::Int8), 127);
    EXPECT_EQ(maxLevel(BitWidth::Int4), 7);
    EXPECT_EQ(magnitudeBits(BitWidth::Int8), 7);
    EXPECT_EQ(magnitudeBits(BitWidth::Int4), 3);
}

TEST(Quantizer, ValuesWithinRange)
{
    FloatMatrix w = randomMatrix(1, 16, 64);
    for (BitWidth bw : {BitWidth::Int8, BitWidth::Int4}) {
        QuantizedWeight qw = quantizeWeight(w, bw);
        const int lim = maxLevel(bw);
        qw.values.forEach([&](std::size_t, std::size_t, std::int8_t v) {
            EXPECT_LE(v, lim);
            EXPECT_GE(v, -lim);
        });
    }
}

TEST(Quantizer, ChannelMaxHitsFullScale)
{
    // Each row's max-magnitude element must map to +-maxLevel.
    FloatMatrix w = randomMatrix(2, 8, 32);
    QuantizedWeight qw = quantizeWeight(w, BitWidth::Int8);
    for (std::size_t r = 0; r < w.rows(); ++r) {
        int mx = 0;
        for (std::size_t c = 0; c < w.cols(); ++c)
            mx = std::max<int>(mx, std::abs(qw.values.at(r, c)));
        EXPECT_EQ(mx, 127);
    }
}

TEST(Quantizer, ZeroRowGetsUnitScale)
{
    FloatMatrix w(2, 4);
    w.at(1, 2) = 1.0f; // row 0 stays all-zero
    QuantizedWeight qw = quantizeWeight(w, BitWidth::Int8);
    EXPECT_FLOAT_EQ(qw.params.scales[0], 1.0f);
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(qw.values.at(0, c), 0);
}

TEST(Quantizer, RoundTripErrorBounded)
{
    FloatMatrix w = randomMatrix(3, 16, 128);
    QuantizedWeight qw = quantizeWeight(w, BitWidth::Int8);
    FloatMatrix rec = dequantizeWeight(qw);
    for (std::size_t r = 0; r < w.rows(); ++r) {
        const float step = qw.params.scales[r];
        for (std::size_t c = 0; c < w.cols(); ++c)
            EXPECT_LE(std::abs(w.at(r, c) - rec.at(r, c)),
                      step * 0.5f + 1e-6f);
    }
}

TEST(Quantizer, Int8TighterThanInt4)
{
    FloatMatrix w = randomMatrix(4, 32, 256);
    ErrorStats e8 = weightQuantError(w, BitWidth::Int8);
    ErrorStats e4 = weightQuantError(w, BitWidth::Int4);
    EXPECT_LT(e8.mse, e4.mse);
    EXPECT_GT(e8.cosine, e4.cosine);
    EXPECT_GT(e8.cosine, 0.9999);
}

TEST(Quantizer, QatClipsOutliers)
{
    // A huge outlier wrecks plain PTQ scales; QAT clipping shields the
    // bulk distribution.
    Rng rng(5);
    FloatMatrix w(4, 512);
    w.fill([&](std::size_t, std::size_t) {
        return static_cast<float>(rng.gaussian(0.0, 0.02));
    });
    w.at(0, 0) = 50.0f;
    QuantizedWeight ptq = quantizeWeight(w, BitWidth::Int8);
    QuantizedWeight qat = quantizeWeightQat(w, BitWidth::Int8, 0.99);
    // QAT uses a much smaller scale for row 0 -> better bulk resolution.
    EXPECT_LT(qat.params.scales[0], ptq.params.scales[0] / 10.0f);
}

TEST(Quantizer, QatRejectsBadPercentile)
{
    FloatMatrix w(2, 4, 1.0f);
    EXPECT_THROW(quantizeWeightQat(w, BitWidth::Int8, 0.0),
                 std::runtime_error);
    EXPECT_THROW(quantizeWeightQat(w, BitWidth::Int8, 1.5),
                 std::runtime_error);
}

TEST(Quantizer, EmptyMatrixFatal)
{
    FloatMatrix empty;
    EXPECT_THROW(quantizeWeight(empty, BitWidth::Int8),
                 std::runtime_error);
    EXPECT_THROW(quantizeActivation(empty), std::runtime_error);
}

TEST(Activation, AsymmetricRoundTrip)
{
    Rng rng(6);
    FloatMatrix x(8, 64);
    x.fill([&](std::size_t, std::size_t) {
        return static_cast<float>(rng.gaussian(3.0, 1.0)); // shifted
    });
    QuantizedActivation qx = quantizeActivation(x);
    FloatMatrix rec = dequantizeActivation(qx);
    ErrorStats e = compareTensors(x, rec);
    EXPECT_LT(e.maxAbs, qx.params.scale * 0.51 + 1e-6);
    EXPECT_GT(e.cosine, 0.9999);
}

TEST(Activation, ConstantTensor)
{
    FloatMatrix x(2, 2, 5.0f);
    QuantizedActivation qx = quantizeActivation(x);
    FloatMatrix rec = dequantizeActivation(qx);
    EXPECT_NEAR(rec.at(0, 0), 5.0f, 1e-3f);
}

TEST(Activation, ValuesUseFullInt8Range)
{
    Rng rng(8);
    FloatMatrix x(16, 16);
    x.fill([&](std::size_t, std::size_t) {
        return static_cast<float>(rng.uniform(-1.0, 1.0));
    });
    QuantizedActivation qx = quantizeActivation(x);
    int mn = 127, mx = -128;
    qx.values.forEach([&](std::size_t, std::size_t, std::int8_t v) {
        mn = std::min<int>(mn, v);
        mx = std::max<int>(mx, v);
    });
    EXPECT_LE(mn, -120);
    EXPECT_GE(mx, 120);
}

TEST(Calibration, CompareTensorsIdentity)
{
    FloatMatrix a = randomMatrix(9, 8, 8);
    ErrorStats e = compareTensors(a, a);
    EXPECT_DOUBLE_EQ(e.mse, 0.0);
    EXPECT_DOUBLE_EQ(e.maxAbs, 0.0);
    EXPECT_NEAR(e.cosine, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(e.relFrobenius, 0.0);
}

TEST(Calibration, CompareTensorsOpposite)
{
    FloatMatrix a = randomMatrix(10, 4, 4);
    FloatMatrix b(4, 4);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            b.at(r, c) = -a.at(r, c);
    ErrorStats e = compareTensors(a, b);
    EXPECT_NEAR(e.cosine, -1.0, 1e-9);
}

} // namespace
} // namespace mcbp::quant
