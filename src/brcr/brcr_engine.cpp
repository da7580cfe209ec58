#include "brcr/brcr_engine.hpp"

#include <algorithm>
#include <bit>

#include "common/bit_util.hpp"
#include "common/logging.hpp"

namespace mcbp::brcr {

namespace {

/** Transpose an Int8Matrix (used to make activation rows contiguous). */
Int8Matrix
transpose(const Int8Matrix &x)
{
    Int8Matrix t(x.cols(), x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t c = 0; c < x.cols(); ++c)
            t.at(c, r) = x.at(r, c);
    return t;
}

} // namespace

BrcrEngine::BrcrEngine(BrcrConfig cfg) : cfg_(cfg)
{
    fatalIf(cfg_.groupSize == 0 || cfg_.groupSize > 12,
            "BRCR group size must be in [1, 12]");
}

void
BrcrEngine::accumulateHalf(const bitslice::SignMagnitude &half, int sign,
                           const Int8Matrix &xt, Int32Matrix &y,
                           BrcrOpCounts &ops, GroupScratch &s) const
{
    const std::size_t m = cfg_.groupSize;
    const std::size_t pattern_space = pow2(static_cast<unsigned>(m));
    const std::size_t n_out = xt.rows();
    const std::size_t k_dim = xt.cols();

    s.count.assign(pattern_space, 0);
    s.offset.assign(pattern_space + 1, 0);
    s.cursor.assign(pattern_space, 0);
    s.order.assign(k_dim, 0);
    s.z.assign(pattern_space, 0);
    s.acc.assign(m, 0);
    const std::size_t mask_words = (k_dim + 63) / 64;
    s.nonzero.assign(mask_words, 0);

    for (std::size_t p = 0; p < half.magnitude.size(); ++p) {
        const bitslice::BitPlane &plane = half.magnitude[p];
        for (std::size_t row0 = 0; row0 < half.rows; row0 += m) {
            const std::size_t rows_here = std::min(m, half.rows - row0);
            plane.columnPatterns(row0, m, s.patterns);

            // Non-zero-column bitmap (dispatched SIMD kernel): the
            // counting sort and scatter below walk only its set bits,
            // so the all-zero columns that dominate sparse planes cost
            // a popcount instead of a table update each.
            nonzeroMask32Span(s.patterns.data(), k_dim,
                              s.nonzero.data());

            // Counting sort of columns by pattern (the CAM match step).
            std::fill(s.count.begin(), s.count.end(), 0);
            std::size_t nz_cols = 0;
            for (std::size_t wi = 0; wi < mask_words; ++wi) {
                std::uint64_t bits = s.nonzero[wi];
                nz_cols += static_cast<std::size_t>(popcount64(bits));
                while (bits != 0) {
                    const std::size_t c =
                        (wi << 6) + static_cast<std::size_t>(
                                        std::countr_zero(bits));
                    bits &= bits - 1;
                    ++s.count[s.patterns[c]];
                }
            }
            ops.zeroColumns += k_dim - nz_cols;
            s.present.clear();
            std::uint32_t pos = 0;
            for (std::size_t pat = 1; pat < pattern_space; ++pat) {
                s.offset[pat] = pos;
                pos += s.count[pat];
                if (s.count[pat] > 0)
                    s.present.push_back(static_cast<std::uint32_t>(pat));
            }
            std::copy(s.offset.begin(), s.offset.end() - 1,
                      s.cursor.begin());
            // Scatter in ascending column order via the same bitmap.
            for (std::size_t wi = 0; wi < mask_words; ++wi) {
                std::uint64_t bits = s.nonzero[wi];
                while (bits != 0) {
                    const std::size_t c =
                        (wi << 6) + static_cast<std::size_t>(
                                        std::countr_zero(bits));
                    bits &= bits - 1;
                    s.order[s.cursor[s.patterns[c]]++] =
                        static_cast<std::uint32_t>(c);
                }
            }
            ++ops.groupsProcessed;
            // The controller enumerates every search key except the
            // clock-gated all-zero key.
            ops.camSearches += pattern_space - 1;

            if (s.present.empty())
                continue;

            for (std::size_t n = 0; n < n_out; ++n) {
                const std::int8_t *xrow = xt.rowPtr(n);

                // Step 1: merge repetitive operations into the MAV.
                for (std::uint32_t pat : s.present) {
                    const std::uint32_t begin = s.offset[pat];
                    const std::uint32_t end = begin + s.count[pat];
                    std::int64_t acc = xrow[s.order[begin]];
                    for (std::uint32_t i = begin + 1; i < end; ++i)
                        acc += xrow[s.order[i]];
                    s.z[pat] = acc;
                    ops.mergeAdds += s.count[pat] - 1;
                }

                // Step 2: computation reconstruction (Y = E x Z).
                std::fill(s.acc.begin(), s.acc.begin() + rows_here, 0);
                std::uint32_t occupied = 0;
                for (std::uint32_t pat : s.present) {
                    std::uint32_t bits = pat;
                    while (bits) {
                        const unsigned i =
                            static_cast<unsigned>(std::countr_zero(bits));
                        bits &= bits - 1;
                        if (i >= rows_here)
                            continue;
                        if (occupied & (1u << i)) {
                            s.acc[i] += s.z[pat];
                            ++ops.reconAdds;
                        } else {
                            s.acc[i] = s.z[pat];
                            occupied |= 1u << i;
                        }
                    }
                }

                // Shift-accumulate the plane contribution.
                for (std::size_t i = 0; i < rows_here; ++i) {
                    if (!(occupied & (1u << i)))
                        continue;
                    const std::int64_t contrib = s.acc[i] << p;
                    y.at(row0 + i, n) += static_cast<std::int32_t>(
                        sign > 0 ? contrib : -contrib);
                    ++ops.shiftAccAdds;
                }
            }
        }
    }
}

BrcrGemmResult
BrcrEngine::gemm(const Int8Matrix &w, const Int8Matrix &x) const
{
    fatalIf(w.cols() != x.rows(), "BRCR gemm shape mismatch");
    bitslice::SignSplit split =
        bitslice::decomposeSignSplit(w, cfg_.bitWidth);
    Int8Matrix xt = transpose(x);
    BrcrGemmResult out;
    out.y = Int32Matrix(w.rows(), x.cols());
    GroupScratch scratch; // one allocation serves both halves.
    accumulateHalf(split.positive, +1, xt, out.y, out.ops, scratch);
    accumulateHalf(split.negative, -1, xt, out.y, out.ops, scratch);
    return out;
}

BrcrGemvResult
BrcrEngine::gemv(const Int8Matrix &w, const std::vector<std::int8_t> &x) const
{
    fatalIf(w.cols() != x.size(), "BRCR gemv shape mismatch");
    return gemv(bitslice::decomposeSignSplit(w, cfg_.bitWidth), x);
}

BrcrGemvResult
BrcrEngine::gemv(const bitslice::SignSplit &split,
                 const std::vector<std::int8_t> &x) const
{
    const std::size_t rows = split.positive.rows;
    fatalIf(split.positive.cols != x.size(), "BRCR gemv shape mismatch");
    Int8Matrix xt(1, x.size());
    std::copy(x.begin(), x.end(), xt.rowPtr(0));
    Int32Matrix y(rows, 1);
    BrcrGemvResult out;
    GroupScratch scratch; // one allocation serves both halves.
    accumulateHalf(split.positive, +1, xt, y, out.ops, scratch);
    accumulateHalf(split.negative, -1, xt, y, out.ops, scratch);
    out.y.resize(rows);
    for (std::size_t r = 0; r < rows; ++r)
        out.y[r] = y.at(r, 0);
    return out;
}

BrcrGemvResult
BrcrEngine::gemvTernary(const Int8Matrix &w,
                        const std::vector<std::int8_t> &x) const
{
    fatalIf(w.cols() != x.size(), "BRCR gemv shape mismatch");
    const std::size_t m = cfg_.groupSize;
    const std::size_t pattern_space = ipow(3, static_cast<unsigned>(m));
    bitslice::SignMagnitude sm =
        bitslice::decompose(w, cfg_.bitWidth);

    BrcrGemvResult out;
    out.y.assign(w.rows(), 0);

    std::vector<std::uint32_t> pattern(w.cols());
    std::vector<std::int64_t> z(pattern_space, 0);
    std::vector<std::uint8_t> occupied_z(pattern_space, 0);
    std::vector<std::uint32_t> present;
    std::vector<std::int64_t> acc(m, 0);

    // Precompute powers of three for pattern digit packing.
    std::vector<std::uint32_t> pow3(m + 1, 1);
    for (std::size_t i = 1; i <= m; ++i)
        pow3[i] = pow3[i - 1] * 3;

    for (std::size_t p = 0; p < sm.magnitude.size(); ++p) {
        const bitslice::BitPlane &plane = sm.magnitude[p];
        for (std::size_t row0 = 0; row0 < w.rows(); row0 += m) {
            const std::size_t rows_here = std::min(m, w.rows() - row0);
            // Build ternary column patterns: digit 0 = no bit, 1 = +bit,
            // 2 = -bit (sign folded into the pattern).
            for (std::size_t c = 0; c < w.cols(); ++c) {
                std::uint32_t pat = 0;
                for (std::size_t i = 0; i < rows_here; ++i) {
                    if (!plane.get(row0 + i, c))
                        continue;
                    const std::uint32_t digit =
                        sm.sign.get(row0 + i, c) ? 2 : 1;
                    pat += digit * pow3[i];
                }
                pattern[c] = pat;
            }
            ++out.ops.groupsProcessed;
            out.ops.camSearches += pattern_space - 1;

            present.clear();
            for (std::size_t c = 0; c < w.cols(); ++c) {
                const std::uint32_t pat = pattern[c];
                if (pat == 0) {
                    ++out.ops.zeroColumns;
                    continue;
                }
                if (occupied_z[pat]) {
                    z[pat] += x[c];
                    ++out.ops.mergeAdds;
                } else {
                    z[pat] = x[c];
                    occupied_z[pat] = 1;
                    present.push_back(pat);
                }
            }

            std::fill(acc.begin(), acc.begin() + rows_here, 0);
            std::uint32_t occupied = 0;
            for (std::uint32_t pat : present) {
                std::uint32_t rem = pat;
                for (std::size_t i = 0; i < rows_here && rem; ++i) {
                    const std::uint32_t digit = rem % 3;
                    rem /= 3;
                    if (digit == 0)
                        continue;
                    const std::int64_t v =
                        digit == 1 ? z[pat] : -z[pat];
                    if (occupied & (1u << i)) {
                        acc[i] += v;
                        ++out.ops.reconAdds;
                    } else {
                        acc[i] = v;
                        occupied |= 1u << i;
                    }
                }
            }
            for (std::size_t i = 0; i < rows_here; ++i) {
                if (!(occupied & (1u << i)))
                    continue;
                out.y[row0 + i] +=
                    static_cast<std::int32_t>(acc[i] << p);
                ++out.ops.shiftAccAdds;
            }
            // Reset only the touched MAV entries.
            for (std::uint32_t pat : present)
                occupied_z[pat] = 0;
        }
    }
    return out;
}

} // namespace mcbp::brcr
