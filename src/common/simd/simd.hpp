/**
 * @file
 * Runtime-dispatched SIMD plane-scan kernels (AVX2 / AVX-512, scalar
 * fallback).
 *
 * The bit-plane engines (bitslice/, brcr/, bstc/) reduce to a handful of
 * word-granular primitives — bulk popcount, OR/AND reductions, multi-word
 * compares, zero-scans over pattern arrays, and the INT8-to-bit-plane
 * slice that feeds them all. Each primitive has one
 * scalar reference implementation plus AVX2 and AVX-512 ports, collected
 * in per-tier `Kernels` tables. The active table is chosen once, at first
 * use, from CPUID (the intgemm SSE2→AVX512VNNI dispatch scheme), so every
 * call costs a single indirect jump and the engine layer never mentions a
 * vector type.
 *
 * Tier selection:
 *   - hardware: `detectCpuTier()` via __builtin_cpu_supports;
 *   - build:    the AVX2/AVX-512 translation units are always compiled
 *               but compile to stubs when the compiler lacks the ISA
 *               (`compiledAvx2()` / `compiledAvx512()`);
 *   - override: `MCBP_SIMD=scalar|avx2|avx512` clamps DOWN only — a
 *               request above what CPUID + the build support is clamped
 *               to the best available tier, never trusted.
 *
 * Input pointers do not need to be aligned (kernels use unaligned loads);
 * alignment via common/AlignedBuffer buys cache-line-clean rows and
 * zero-padded tails, not correctness.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace mcbp::simd {

/** Instruction-set tiers, ordered weakest to strongest. */
enum class Tier : int { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/** Lower-case tier name ("scalar", "avx2", "avx512"). */
const char *tierName(Tier t);

/**
 * One tier's kernel table. All kernels accept n == 0 (pointers may then
 * be null) and arbitrary alignment, and return bit-identical results
 * across tiers — the golden contract tests/test_simd.cpp enforces.
 */
struct Kernels
{
    Tier tier;

    /** Total set bits over @p n words. */
    std::uint64_t (*popcountWords)(const std::uint64_t *w, std::size_t n);

    /** OR-reduction over @p n words (density / any-set scans). */
    std::uint64_t (*orWords)(const std::uint64_t *w, std::size_t n);

    /**
     * dst[i] = a[i] & b[i] for i < n; returns the popcount of the
     * result (the CAM bank-intersection match count).
     */
    std::uint64_t (*andPopcountWords)(std::uint64_t *dst,
                                      const std::uint64_t *a,
                                      const std::uint64_t *b,
                                      std::size_t n);

    /** Exact equality of two @p n-word spans (column-key compares). */
    bool (*equalWords)(const std::uint64_t *a, const std::uint64_t *b,
                       std::size_t n);

    /** Number of zero entries among @p n 32-bit pattern slots. */
    std::size_t (*countZero32)(const std::uint32_t *v, std::size_t n);

    /**
     * Build a bitmask of the non-zero entries of @p v: bit (i & 63) of
     * mask[i >> 6] is set iff v[i] != 0. Writes ceil(n / 64) words;
     * bits at or beyond n are zero. The zero-skip walk under
     * factorizeGroup, the BRCR counting sort and the BSTC encoder.
     */
    void (*nonzeroMask32)(const std::uint32_t *v, std::size_t n,
                          std::uint64_t *mask);

    /**
     * Bit-slice a @p rows x @p cols row-major INT8 matrix (@p cols
     * bytes per row) into sign-magnitude planes: bit (c & 63) of word
     * (c >> 6) of row r of mag[p] is bit p of |v(r, c)| for p < @p
     * planes (<= 8), and the same bit of @p sign is v(r, c) < 0. Plane
     * row r starts @p stride words after row 0. Exactly ceil(cols / 64)
     * words per row are stored, with the bits at or beyond cols zero;
     * words past them (BitPlane stride padding) are never touched.
     * @return OR of |v| over all values as an 8-bit magnitude
     *         (|-128| = 128): the caller's range check.
     */
    std::uint8_t (*sliceSignMagnitude)(const std::int8_t *v,
                                       std::size_t rows, std::size_t cols,
                                       std::size_t planes,
                                       std::uint64_t *const *mag,
                                       std::uint64_t *sign,
                                       std::size_t stride);
};

/** Best tier the CPU reports, ignoring build support and overrides. */
Tier detectCpuTier();

/** Best tier both the CPU and this build support. */
Tier availableTier();

/**
 * Tier the dispatcher resolved: availableTier() clamped down by a valid
 * MCBP_SIMD override (read once, at first use).
 */
Tier activeTier();

/** Whether the AVX2 / AVX-512 translation units carry real code. */
bool compiledAvx2();
bool compiledAvx512();

/**
 * The dispatched kernel table (tier == activeTier() unless forceTier()
 * intervened). First call resolves CPUID + env; later calls are one
 * atomic load.
 */
const Kernels &kernels();

/**
 * Table for @p t clamped to availableTier() — request high, get the
 * best supported at-or-below tier. For benches and golden tests.
 */
const Kernels &kernelsFor(Tier t);

/**
 * Swap the dispatched table (clamped to availableTier()); returns the
 * tier actually installed. Benches and tests use this to time / verify
 * the full engine stack per tier; production code never calls it.
 */
Tier forceTier(Tier t);

/** Undo forceTier(): restore the CPUID + MCBP_SIMD resolution. */
void resetTier();

/**
 * Pure override-resolution rule (unit-testable): parse @p value
 * ("scalar" / "avx2" / "avx512"; anything else — including null — means
 * "no override") and clamp to @p available.
 */
Tier resolveTier(const char *value, Tier available);

} // namespace mcbp::simd
