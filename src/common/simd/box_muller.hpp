/**
 * @file
 * The Box-Muller routine behind Kernels::boxMuller, written once for
 * every tier. Each tier's translation unit instantiates
 * boxMullerLanes() with its own lane type: `double` for the scalar
 * tier, `__m256d` / `__m512d` for AVX2 / AVX-512, whose + - * / are
 * lane-wise IEEE operations (GCC and Clang vector semantics). A tier
 * supplies only the bit-level steps, with intrinsics. The kernel TUs
 * build with -ffp-contract=off, so every tier performs the same
 * correctly rounded operations in the same order: the same bits in
 * every lane, on every libm.
 *
 * log, sin and cos are fdlibm's (FreeBSD msun e_log.c, e_rem_pio2.c,
 * k_sin.c, k_cos.c) made branch-free; see boxMullerLanes().
 */
#pragma once

#include <cstdint>

namespace mcbp::simd::detail {

namespace bm {

inline constexpr double kTwoPi = 6.283185307179586;

/** log: ln 2 split so that k * kLn2Hi is exact; Lg1..Lg7 fit log on
 *  [sqrt(2)/2, sqrt(2)). */
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kLg1 = 0x1.5555555555593p-1;
inline constexpr double kLg2 = 0x1.999999997fa04p-2;
inline constexpr double kLg3 = 0x1.2492494229359p-2;
inline constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
inline constexpr double kLg5 = 0x1.7466496cb03dep-3;
inline constexpr double kLg6 = 0x1.39a09d078c69fp-3;
inline constexpr double kLg7 = 0x1.2f112df3e5244p-3;
/** Masked high words in [kLogHfsqLo, kLogHfsqHi] take fdlibm's hfsq
 *  form of the final sum. */
inline constexpr std::uint64_t kLogHfsqLo = 0x6147a;
inline constexpr std::uint64_t kLogHfsqHi = 0x6b851;

/** pi/2 reduction: 2/pi, and pi/2 as three 33-bit parts plus tails. */
inline constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
inline constexpr double kPio2_1 = 0x1.921fb544p+0;
inline constexpr double kPio2_2 = 0x1.0b4611a6p-34;
inline constexpr double kPio2_2t = 0x1.3198a2e037073p-69;
inline constexpr double kPio2_3 = 0x1.3198a2ep-69;
inline constexpr double kPio2_3t = 0x1.b839a252049c1p-104;
/** 1.5 * 2^52: adding it rounds to an integer, held in the low
 *  mantissa bits; subtracting it again gives that integer. */
inline constexpr double kRoundMagic = 0x1.8p52;

/** __kernel_sin / __kernel_cos minimax coefficients on [-pi/4, pi/4]. */
inline constexpr double kS1 = -0x1.5555555555549p-3;
inline constexpr double kS2 = 0x1.111111110f8a6p-7;
inline constexpr double kS3 = -0x1.a01a019c161d5p-13;
inline constexpr double kS4 = 0x1.71de357b1fe7dp-19;
inline constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
inline constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
inline constexpr double kC1 = 0x1.555555555554cp-5;
inline constexpr double kC2 = -0x1.6c16c16c15177p-10;
inline constexpr double kC3 = 0x1.a01a019cb159p-16;
inline constexpr double kC4 = -0x1.27e4f809c52adp-22;
inline constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
inline constexpr double kC6 = -0x1.8fae9be8838d4p-37;

} // namespace bm

// Internal linkage: every tier TU compiles its own copy at its own ISA,
// so the linker can never hand one tier another tier's code.
namespace {

/**
 * cosOut = sqrt(-2 log u1) cos(theta), sinOut = the same with sin, for
 * theta = kTwoPi * u2, lane by lane. Lanes supplies, for lane type V:
 *   - `splitLog(x, xn, dk)`: x = 2^dk * xn with xn in
 *     [sqrt(2)/2, sqrt(2)) (fdlibm's normalization of x or x/2), and a
 *     lane mask of whether the masked high word of xn lies in
 *     [kLogHfsqLo, kLogHfsqHi];
 *   - `select(mask, a, b)`: a where the mask is set, else b;
 *   - `sqrt(v)`: the correctly rounded square root;
 *   - `quadrant(rounded, ks, kc, sinR, cosR)`: with n the low bits of
 *     @p rounded, sin and cos of n pi/2 + y from ks = sin y and
 *     kc = cos y (odd n swaps them; bit 1 of n, of n + 1 for cos,
 *     flips the sign).
 */
template <class Lanes, class V>
inline void
boxMullerLanes(V u1, V u2, V &cosOut, V &sinOut)
{
    using namespace bm;
    // fdlibm __ieee754_log: the Lg1..Lg7 series in s = f / (2 + f) for
    // xn = 1 + f. Both final forms are computed and the high word picks
    // one. fdlibm's k == 0 shortcut is the same value as the general
    // form, and its tiny-f shortcut is within the same error, so
    // neither is kept.
    V xn, dk;
    const auto hfsqForm = Lanes::splitLog(u1, xn, dk);
    const V f = xn - 1.0;
    const V s = f / (2.0 + f);
    const V z = s * s;
    const V w = z * z;
    const V t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const V t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const V r = t2 + t1;
    const V hfsq = 0.5 * f * f;
    const V logU1 = Lanes::select(
        hfsqForm, dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f),
        dk * kLn2Hi - ((s * (f - r) - dk * kLn2Lo) - f));
    const V mag = Lanes::sqrt(-2.0 * logU1);

    // fdlibm __ieee754_rem_pio2, medium range, with all three
    // Cody-Waite rounds always taken: theta = n pi/2 + (y0 + y1).
    const V theta = kTwoPi * u2;
    const V rounded = theta * kInvPio2 + kRoundMagic;
    const V fn = rounded - kRoundMagic;
    V rem = theta - fn * kPio2_1;
    V t = rem;
    V tail = fn * kPio2_2;
    rem = t - tail;
    tail = fn * kPio2_2t - ((t - rem) - tail);
    t = rem;
    tail = fn * kPio2_3;
    rem = t - tail;
    tail = fn * kPio2_3t - ((t - rem) - tail);
    const V y0 = rem - tail;
    const V y1 = (rem - y0) - tail;

    // __kernel_sin (its tail form) and __kernel_cos on y0 + y1.
    const V zz = y0 * y0;
    const V z2 = zz * zz;
    const V rs = kS2 + zz * (kS3 + zz * kS4) + zz * z2 * (kS5 + zz * kS6);
    const V v = zz * y0;
    const V ks = y0 - ((zz * (0.5 * y1 - v * rs) - y1) - v * kS1);
    const V rc = zz * (kC1 + zz * (kC2 + zz * kC3)) +
                 z2 * z2 * (kC4 + zz * (kC5 + zz * kC6));
    const V hz = 0.5 * zz;
    const V oneHz = 1.0 - hz;
    const V kc = oneHz + (((1.0 - oneHz) - hz) + (zz * rc - y0 * y1));

    V sinR, cosR;
    Lanes::quadrant(rounded, ks, kc, sinR, cosR);
    cosOut = mag * cosR;
    sinOut = mag * sinR;
}

} // namespace

} // namespace mcbp::simd::detail
