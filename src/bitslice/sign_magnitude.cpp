#include "bitslice/sign_magnitude.hpp"

#include "common/logging.hpp"
#include "common/simd/simd.hpp"

namespace mcbp::bitslice {

SignMagnitude
decompose(const Int8Matrix &w, quant::BitWidth bw)
{
    const std::size_t planes =
        static_cast<std::size_t>(quant::magnitudeBits(bw));
    SignMagnitude sm;
    sm.rows = w.rows();
    sm.cols = w.cols();
    sm.sign = BitPlane(w.rows(), w.cols());
    sm.magnitude.assign(planes, BitPlane(w.rows(), w.cols()));
    std::uint64_t *mag[8] = {};
    for (std::size_t p = 0; p < planes; ++p)
        mag[p] = sm.magnitude[p].data();
    // One word-parallel pass over the matrix fills every plane. The
    // widths' levels are 2^planes - 1, so a magnitude is in range iff
    // it has no bit at or above `planes` (INT8 -128 has bit 7).
    const std::uint8_t absOr = simd::kernels().sliceSignMagnitude(
        w.rowPtr(0), w.rows(), w.cols(), planes, mag, sm.sign.data(),
        sm.sign.rowStride());
    fatalIf((absOr >> planes) != 0,
            "value out of range for the requested bit width");
    return sm;
}

Int8Matrix
reconstruct(const SignMagnitude &sm)
{
    Int8Matrix w(sm.rows, sm.cols);
    for (std::size_t r = 0; r < sm.rows; ++r) {
        for (std::size_t c = 0; c < sm.cols; ++c) {
            int mag = 0;
            for (std::size_t p = 0; p < sm.magnitude.size(); ++p) {
                if (sm.magnitude[p].get(r, c))
                    mag |= 1 << p;
            }
            w.at(r, c) = static_cast<std::int8_t>(
                sm.sign.get(r, c) ? -mag : mag);
        }
    }
    return w;
}

std::vector<std::int32_t>
bitSerialGemv(const SignMagnitude &sm, const std::vector<std::int8_t> &x)
{
    fatalIf(x.size() != sm.cols, "bitSerialGemv shape mismatch");
    std::vector<std::int32_t> y(sm.rows, 0);
    for (std::size_t p = 0; p < sm.magnitude.size(); ++p) {
        const BitPlane &plane = sm.magnitude[p];
        const std::int32_t weight = 1 << p;
        for (std::size_t r = 0; r < sm.rows; ++r) {
            std::int32_t acc = 0;
            for (std::size_t c = 0; c < sm.cols; ++c) {
                if (!plane.get(r, c))
                    continue;
                const std::int32_t xv = x[c];
                acc += sm.sign.get(r, c) ? -xv : xv;
            }
            y[r] += weight * acc;
        }
    }
    return y;
}

SignSplit
splitSigns(const SignMagnitude &sm)
{
    SignSplit out;
    for (SignMagnitude *half : {&out.positive, &out.negative}) {
        half->rows = sm.rows;
        half->cols = sm.cols;
        half->sign = BitPlane(sm.rows, sm.cols);
        half->magnitude.assign(sm.planeCount(), BitPlane(sm.rows, sm.cols));
    }
    // Padding words are zero in every input, so they stay zero here.
    const std::uint64_t *sign = sm.sign.data();
    const std::size_t n = sm.sign.totalWords();
    for (std::size_t p = 0; p < sm.planeCount(); ++p) {
        const std::uint64_t *mag = sm.magnitude[p].data();
        std::uint64_t *pos = out.positive.magnitude[p].data();
        std::uint64_t *neg = out.negative.magnitude[p].data();
        for (std::size_t i = 0; i < n; ++i) {
            pos[i] = mag[i] & ~sign[i];
            neg[i] = mag[i] & sign[i];
        }
    }
    return out;
}

SignSplit
decomposeSignSplit(const Int8Matrix &w, quant::BitWidth bw)
{
    return splitSigns(decompose(w, bw));
}

} // namespace mcbp::bitslice
