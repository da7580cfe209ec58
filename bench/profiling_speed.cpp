/**
 * @file
 * Profiling fast-path benchmark: wall-clock of the expensive
 * measure-then-model loop that gates every figure, serving run and
 * cluster sweep.
 *
 * Three sections:
 *  1. Cold fleet warm-up — a registry fleet's full profile working set
 *     ((model, bw) weight keys + (model, ctx-bucket, alpha) attention
 *     keys), filled serially vs fanned out over the thread pool via
 *     Registry::warmFleet. On a 1-core host the two are equal by
 *     construction; on 4+ cores the fan-out targets >= 3x. Either way
 *     the resulting stats are verified bit-identical here.
 *  2. factorizeGroup — the original unordered_map pattern dedup
 *     (bench/reference_kernels.hpp) vs the direct-index GroupScratch
 *     fast path.
 *  3. compareMergeStrategies' full-column dedup — the original
 *     per-bit get() key build (reference_kernels.hpp) vs the
 *     word-parallel packed-word walk now in bitslice/sparsity.cpp.
 *  4. SIMD dispatch tiers — the scalar reference kernels vs the
 *     CPUID-dispatched tier (common/simd/) on the popcount-scan and
 *     non-zero-mask kernels. On an AVX2-or-better host the dispatched
 *     tier must win by >= 2x; on a scalar-only host the gate skips.
 *     Section 1 doubles as the end-to-end bit-identity check: the
 *     serial fleet warms under a forced-scalar dispatch table and must
 *     match the SIMD-dispatched parallel fleet stat-for-stat.
 *  5. decompose — the original per-element set() loop
 *     (reference_kernels.hpp) vs the dispatched word-parallel slice
 *     kernel on one Llama7B INT8 profile tile, then profileWeights end
 *     to end on that model. The planes must match bit for bit; the
 *     times are recorded, not gated.
 *
 * `--json <path>` archives the records (bench_util.hpp schema).
 */
#include <chrono>
#include <functional>
#include <iostream>

#include "bench_util.hpp"
#include "reference_kernels.hpp"
#include "bitslice/sign_magnitude.hpp"
#include "bitslice/sparsity.hpp"
#include "brcr/enumeration.hpp"
#include "common/aligned_buffer.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "accel/profiles.hpp"
#include "common/simd/simd.hpp"
#include "engine/adapters.hpp"
#include "engine/registry.hpp"
#include "model/synthetic.hpp"

using namespace mcbp;

namespace {

double
seconds(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best-of-@p reps wall time (reduces scheduler noise). */
double
bestOf(int reps, const std::function<void()> &fn)
{
    double best = seconds(fn);
    for (int i = 1; i < reps; ++i)
        best = std::min(best, seconds(fn));
    return best;
}

// ---- Section 1: cold fleet warm-up -----------------------------------------

const std::vector<std::string> kFleet = {"mcbp", "mcbp-aggressive",
                                         "spatten", "bitwave", "a100"};
const std::vector<std::string> kModels = {"OPT1B3", "Bloom1B7", "Llama7B"};
const std::vector<std::string> kTasks = {"Cola", "MMLU", "Dolly",
                                         "Wikitext2"};

/** Warm a fresh registry's fleet at the given thread cap. */
double
coldWarmSeconds(std::size_t threads, engine::Registry &registry,
                std::vector<std::unique_ptr<engine::Accelerator>> &fleet)
{
    fleet = registry.fleet(kFleet);
    return seconds(
        [&] { registry.warmFleet(fleet, kModels, kTasks, threads); });
}

/** Exact equality of every profiled stat two fleets would consume. */
bool
fleetsBitIdentical(
    const std::vector<std::unique_ptr<engine::Accelerator>> &a,
    const std::vector<std::unique_ptr<engine::Accelerator>> &b)
{
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto *ma = dynamic_cast<const engine::McbpAdapter *>(a[i].get());
        const auto *mb = dynamic_cast<const engine::McbpAdapter *>(b[i].get());
        if (ma == nullptr || mb == nullptr)
            continue; // baselines consume the same cached keys.
        for (const std::string &mn : kModels) {
            const model::LlmConfig &m = model::findModel(mn);
            const accel::WeightStats &wa =
                ma->underlying().weightStats(m);
            const accel::WeightStats &wb =
                mb->underlying().weightStats(m);
            if (wa.brcrAddsPerMac != wb.brcrAddsPerMac ||
                wa.bstcCompressionRatio != wb.bstcCompressionRatio ||
                wa.meanBitSparsity != wb.meanBitSparsity)
                return false;
            for (const std::string &tn : kTasks) {
                const model::Workload &t = model::findTask(tn);
                const accel::AttentionStats &aa =
                    ma->underlying().attentionStats(m, t);
                const accel::AttentionStats &ab =
                    mb->underlying().attentionStats(m, t);
                if (aa.bgppSelectedFraction != ab.bgppSelectedFraction ||
                    aa.bgppPredBitsPerElem != ab.bgppPredBitsPerElem ||
                    aa.bgppRecall != ab.bgppRecall)
                    return false;
            }
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::validatedJsonPathFromArgs(argc, argv);
    bench::JsonRecords json("profiling_speed");

    bench::banner("Cold fleet warm-up: serial vs thread-pool fan-out");
    std::cout << "fleet: " << kFleet.size() << " accelerators x "
              << kModels.size() << " models x " << kTasks.size()
              << " tasks; pool threads = " << parallel::hardwareThreads()
              << "\n";
    engine::Registry serial_registry, parallel_registry;
    std::vector<std::unique_ptr<engine::Accelerator>> serial_fleet,
        parallel_fleet;
    // Warm the serial fleet with the dispatch table pinned to the
    // scalar reference kernels, the parallel one with the CPUID tier:
    // the bit-identity check below then covers scalar-vs-SIMD as well
    // as serial-vs-parallel.
    simd::forceTier(simd::Tier::Scalar);
    const double serial_s = coldWarmSeconds(1, serial_registry,
                                            serial_fleet);
    simd::resetTier();
    const double parallel_s = coldWarmSeconds(0, parallel_registry,
                                              parallel_fleet);
    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 1.0;
    const bool identical =
        fleetsBitIdentical(serial_fleet, parallel_fleet);
    std::printf("  serial    %8.3f s  (%zu profiles)\n", serial_s,
                serial_registry.profileCache()->size());
    std::printf("  parallel  %8.3f s  (%zu profiles)\n", parallel_s,
                parallel_registry.profileCache()->size());
    std::printf("  speedup   %8.2fx   bit-identical: %s\n", speedup,
                identical ? "yes" : "NO (BUG)");
    json.begin()
        .field("section", "cold_fleet_warmup")
        .field("threads", parallel::hardwareThreads())
        .field("serial_s", serial_s)
        .field("parallel_s", parallel_s)
        .field("speedup", speedup)
        .field("profiles",
               parallel_registry.profileCache()->size())
        .field("bit_identical", identical ? 1 : 0);

    // ---- Kernel rewrites (single-thread wins) ---------------------------
    bench::banner("factorizeGroup: unordered_map vs direct-index scratch");
    Rng rng(1234);
    model::WeightProfile profile;
    quant::QuantizedWeight qw = model::synthesizeQuantizedWeight(
        rng, 64, 2048, quant::BitWidth::Int8, profile);
    bitslice::SignMagnitude sm =
        bitslice::decompose(qw.values, quant::BitWidth::Int8);
    const bitslice::BitPlane &plane = sm.magnitude[5];

    constexpr int kIters = 40;
    std::uint64_t distinct_ref = 0, distinct_fast = 0;
    const double hashed_s = bestOf(3, [&] {
        distinct_ref = 0;
        for (int it = 0; it < kIters; ++it)
            for (std::size_t row0 = 0; row0 < plane.rows(); row0 += 4)
                distinct_ref +=
                    bench::factorizeGroupHashed(plane, row0, 4)
                        .distinctCount();
    });
    const double direct_s = bestOf(3, [&] {
        distinct_fast = 0;
        brcr::GroupScratch scratch;
        brcr::GroupFactorization fact;
        for (int it = 0; it < kIters; ++it)
            for (std::size_t row0 = 0; row0 < plane.rows(); row0 += 4) {
                brcr::factorizeGroup(plane, row0, 4, scratch, fact);
                distinct_fast += fact.distinctCount();
            }
    });
    const double fact_speedup =
        direct_s > 0.0 ? hashed_s / direct_s : 1.0;
    std::printf("  unordered_map %8.1f us/plane\n",
                hashed_s / kIters * 1e6);
    std::printf("  direct-index  %8.1f us/plane   speedup %.2fx  "
                "(counts %s)\n",
                direct_s / kIters * 1e6, fact_speedup,
                distinct_ref == distinct_fast ? "match" : "MISMATCH");
    json.begin()
        .field("section", "factorize_group")
        .field("hashed_s", hashed_s / kIters)
        .field("direct_s", direct_s / kIters)
        .field("speedup", fact_speedup)
        .field("counts_match", distinct_ref == distinct_fast ? 1 : 0);

    bench::banner(
        "compareMergeStrategies dedup: per-bit get() vs word-parallel");
    std::uint64_t scalar_adds = 0, word_adds = 0;
    const double scalar_s = bestOf(3, [&] {
        scalar_adds = 0;
        for (int it = 0; it < kIters; ++it)
            scalar_adds += bench::fullMergeAddsScalar(plane);
    });
    const double word_s = bestOf(3, [&] {
        word_adds = 0;
        for (int it = 0; it < kIters; ++it)
            word_adds +=
                bitslice::compareMergeStrategies(plane, 4).fullMergeAdds;
    });
    // word_s also pays the naive/group sections; the comparison is
    // conservative for the rewrite.
    const double dedup_speedup = word_s > 0.0 ? scalar_s / word_s : 1.0;
    std::printf("  per-bit get()  %8.1f us/plane\n",
                scalar_s / kIters * 1e6);
    std::printf("  word-parallel  %8.1f us/plane   speedup %.2fx  "
                "(adds %s)\n",
                word_s / kIters * 1e6, dedup_speedup,
                scalar_adds == word_adds ? "match" : "MISMATCH");
    json.begin()
        .field("section", "full_column_dedup")
        .field("scalar_s", scalar_s / kIters)
        .field("word_s", word_s / kIters)
        .field("speedup", dedup_speedup)
        .field("counts_match", scalar_adds == word_adds ? 1 : 0);

    // ---- Section 4: SIMD dispatch tiers ---------------------------------
    const simd::Tier tier = simd::activeTier();
    bench::banner(std::string("SIMD kernels: scalar vs dispatched (") +
                  simd::tierName(tier) + ")");
    const simd::Kernels &scalar_k =
        simd::kernelsFor(simd::Tier::Scalar);
    const simd::Kernels &simd_k = simd::kernels();

    constexpr std::size_t kWords = std::size_t{1} << 18; // 2 MiB
    common::AlignedBuffer<std::uint64_t> words(kWords);
    Rng wrng(7);
    for (std::size_t i = 0; i < kWords; ++i)
        words[i] = wrng.next();
    constexpr int kKernelIters = 64;
    std::uint64_t pop_scalar = 0, pop_simd = 0;
    const double pop_scalar_s = bestOf(3, [&] {
        pop_scalar = 0;
        for (int i = 0; i < kKernelIters; ++i)
            pop_scalar += scalar_k.popcountWords(words.data(), kWords);
    });
    const double pop_simd_s = bestOf(3, [&] {
        pop_simd = 0;
        for (int i = 0; i < kKernelIters; ++i)
            pop_simd += simd_k.popcountWords(words.data(), kWords);
    });
    const double pop_speedup =
        pop_simd_s > 0.0 ? pop_scalar_s / pop_simd_s : 1.0;
    const bool pop_match = pop_scalar == pop_simd;

    constexpr std::size_t kSlots = std::size_t{1} << 20;
    std::vector<std::uint32_t> slots(kSlots);
    for (auto &s : slots) // sparse-plane-like: ~85% zero slots
        s = wrng.uniformInt(100) < 85
                ? 0u
                : static_cast<std::uint32_t>(1 + wrng.uniformInt(15));
    std::vector<std::uint64_t> mask_scalar(kSlots / 64),
        mask_simd(kSlots / 64);
    const double mask_scalar_s = bestOf(3, [&] {
        for (int i = 0; i < kKernelIters; ++i)
            scalar_k.nonzeroMask32(slots.data(), kSlots,
                                   mask_scalar.data());
    });
    const double mask_simd_s = bestOf(3, [&] {
        for (int i = 0; i < kKernelIters; ++i)
            simd_k.nonzeroMask32(slots.data(), kSlots,
                                 mask_simd.data());
    });
    const double mask_speedup =
        mask_simd_s > 0.0 ? mask_scalar_s / mask_simd_s : 1.0;
    const bool mask_match = mask_scalar == mask_simd;

    std::printf("  popcountWords   scalar %7.2f ms  %-7s %7.2f ms  "
                "speedup %5.2fx  (%s)\n",
                pop_scalar_s * 1e3, simd::tierName(tier),
                pop_simd_s * 1e3, pop_speedup,
                pop_match ? "counts match" : "COUNT MISMATCH");
    std::printf("  nonzeroMask32   scalar %7.2f ms  %-7s %7.2f ms  "
                "speedup %5.2fx  (%s)\n",
                mask_scalar_s * 1e3, simd::tierName(tier),
                mask_simd_s * 1e3, mask_speedup,
                mask_match ? "masks match" : "MASK MISMATCH");

    // >= 2x is required only when a vector tier actually dispatches;
    // a scalar-only host skips the speedup gate (identity still binds).
    const bool vector_tier = tier >= simd::Tier::Avx2;
    const bool simd_gate =
        pop_match && mask_match &&
        (!vector_tier || (pop_speedup >= 2.0 && mask_speedup >= 2.0));
    if (!vector_tier)
        std::printf("  speedup gate skipped (scalar-only dispatch)\n");
    else
        std::printf("  speedup gate (>= 2x): %s\n",
                    simd_gate ? "pass" : "FAIL");
    json.begin()
        .field("section", "simd_kernels")
        .field("simd_tier", simd::tierName(tier))
        .field("popcount_scalar_s", pop_scalar_s / kKernelIters)
        .field("popcount_simd_s", pop_simd_s / kKernelIters)
        .field("popcount_speedup", pop_speedup)
        .field("nonzero_mask_scalar_s", mask_scalar_s / kKernelIters)
        .field("nonzero_mask_simd_s", mask_simd_s / kKernelIters)
        .field("nonzero_mask_speedup", mask_speedup)
        .field("bit_identical", pop_match && mask_match ? 1 : 0)
        .field("gate_enforced", vector_tier ? 1 : 0);

    // ---- Section 5: decompose and the weight profile it feeds ---------
    bench::banner(std::string("decompose: per-element set() vs slice "
                              "kernel (") +
                  simd::tierName(tier) + ")");
    const model::LlmConfig &llama = model::findModel("Llama7B");
    Rng tile_rng(99);
    model::WeightProfile llama_profile;
    llama_profile.dynamicRange = llama.dynamicRange;
    const Int8Matrix tile =
        model::synthesizeQuantizedWeight(tile_rng, 128, llama.hidden,
                                         quant::BitWidth::Int8,
                                         llama_profile)
            .values;
    constexpr int kSliceIters = 5;
    bitslice::SignMagnitude sm_ref, sm_kernel;
    const double ref_s = bestOf(kSliceIters, [&] {
        sm_ref = bench::decomposePerElement(tile, quant::BitWidth::Int8);
    });
    const double kernel_s = bestOf(kSliceIters, [&] {
        sm_kernel = bitslice::decompose(tile, quant::BitWidth::Int8);
    });
    bool planes_match = sm_ref.sign == sm_kernel.sign &&
                        sm_ref.planeCount() == sm_kernel.planeCount();
    for (std::size_t p = 0; planes_match && p < sm_ref.planeCount(); ++p)
        planes_match = sm_ref.magnitude[p] == sm_kernel.magnitude[p];
    const double slice_speedup = kernel_s > 0.0 ? ref_s / kernel_s : 1.0;
    const double profile_s = bestOf(kSliceIters, [&] {
        (void)accel::profileWeights(llama, quant::BitWidth::Int8, 1);
    });
    std::printf("  per-element set()  %8.2f ms/tile (128 x %zu)\n",
                ref_s * 1e3, llama.hidden);
    std::printf("  slice kernel       %8.2f ms/tile   speedup %.2fx  "
                "(planes %s)\n",
                kernel_s * 1e3, slice_speedup,
                planes_match ? "match" : "MISMATCH");
    std::printf("  profileWeights     %8.2f ms (Llama7B INT8, end to "
                "end)\n",
                profile_s * 1e3);
    json.begin()
        .field("section", "decompose")
        .field("simd_tier", simd::tierName(tier))
        .field("per_element_s", ref_s)
        .field("kernel_s", kernel_s)
        .field("speedup", slice_speedup)
        .field("profile_weights_s", profile_s)
        .field("bit_identical", planes_match ? 1 : 0);

    json.writeIfRequested(argc, argv);
    return identical && distinct_ref == distinct_fast &&
                   scalar_adds == word_adds && simd_gate && planes_match
               ? 0
               : 1;
}
