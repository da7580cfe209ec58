/**
 * @file
 * Common result types for accelerator runs: cycles, energy, traffic and
 * derived throughput/efficiency metrics, shared by the MCBP model, the
 * GPU roofline and all SOTA baselines so the evaluation benches compare
 * like with like.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/energy_model.hpp"

namespace mcbp::accel {

/**
 * Compose a phase's linear segment from its two raw streams under the
 * model's composition rule (PhaseMetrics::memorySerialized). The one
 * definition shared by phase sharding (cluster), per-request costing
 * and batch re-composition (serving), which must never disagree.
 */
inline double
composedLinearCycles(double weightStreamCycles, double linearWorkCycles,
                     bool memorySerialized)
{
    return memorySerialized
               ? weightStreamCycles + linearWorkCycles
               : std::max(weightStreamCycles, linearWorkCycles);
}

/** Off-chip traffic in bytes. */
struct Traffic
{
    double weightBytes = 0.0;
    double kvBytes = 0.0;       ///< KV formal reads + writes.
    double predictionBytes = 0.0; ///< K bits fetched by sparsity prediction.
    double actBytes = 0.0;

    double
    total() const
    {
        return weightBytes + kvBytes + predictionBytes + actBytes;
    }

    void
    merge(const Traffic &o)
    {
        weightBytes += o.weightBytes;
        kvBytes += o.kvBytes;
        predictionBytes += o.predictionBytes;
        actBytes += o.actBytes;
    }
};

/** One inference phase (prefill or decode). */
struct PhaseMetrics
{
    double cycles = 0.0;
    sim::EnergyBreakdown energy;
    Traffic traffic;
    double denseMacs = 0.0;    ///< Logical dense work (for GOPS).
    double executedAdds = 0.0; ///< Effective datapath ops performed.
    /** Latency contributors (Fig 1a-style breakdown). */
    double gemmCycles = 0.0;
    double weightLoadCycles = 0.0;
    double kvLoadCycles = 0.0;
    double otherCycles = 0.0;
    /**
     * Raw cycles of the two linear-segment streams, for schedulers
     * that re-compose the phase at other batch sizes: the weight
     * stream (HBM load + decompression; shared by every request
     * decoding a step) and the per-request linear work (GEMM compute,
     * activation/KV traffic). `memorySerialized` names the composition
     * rule the model used, so a scheduler can invert it exactly:
     *   false (pipelined; MCBP, SOTA baselines):
     *       linear segment = max(weightStreamCycles, linearWorkCycles)
     *   true (serialized memory; the GPU roofline):
     *       linear segment = weightStreamCycles + linearWorkCycles
     */
    double weightStreamCycles = 0.0;
    double linearWorkCycles = 0.0;
    bool memorySerialized = false;
    /**
     * Phase TOTAL (summed over the phase's steps, like `cycles`) of
     * the fixed per-step latency floor that a batched step pays once
     * regardless of how many requests share it (e.g. a cluster's
     * all-reduce hop latency). Contained in `cycles`. Schedulers
     * divide by the phase's steps and charge the per-step share like
     * the weight stream — max across the batch, never summed.
     */
    double fixedStepCycles = 0.0;

    void merge(const PhaseMetrics &o);
};

/** A full run = prefill + decode. */
struct RunMetrics
{
    std::string accelerator;
    PhaseMetrics prefill;
    PhaseMetrics decode;
    double clockGhz = 1.0;
    /**
     * Chips ganged for the run (procs= gangs x tp= shards x pp=
     * stages). The pinned accounting semantics
     * (tests/test_pipeline.cpp::ProcessorsSemanticsArePinned):
     * per-phase `cycles` are the gang's CRITICAL PATH — seconds() is
     * deliberately processor-count-invariant — while per-phase energy
     * and traffic are PER-CHIP quantities, so joules() (and every
     * derived watt/efficiency figure, and the serving engine's
     * per-request energy attribution) multiplies by this count.
     * Logical work (denseMacs/executedAdds) stays the gang total, so
     * gops() needs no processor factor.
     */
    std::size_t processors = 1;

    double totalCycles() const { return prefill.cycles + decode.cycles; }

    /** Wall time in seconds (processor-count-invariant). */
    double seconds() const;

    /** Total energy in joules (per-chip energy x processors). */
    double joules() const;

    /** Average power in watts. */
    double watts() const;

    /** Effective throughput in GOPS (2 x dense MACs / time). */
    double gops() const;

    /** Energy efficiency in GOPS/W. */
    double gopsPerWatt() const;
};

/** speedup of @p test vs @p baseline (wall time ratio). */
double speedupVs(const RunMetrics &test, const RunMetrics &baseline);

/** energy saving factor of @p test vs @p baseline. */
double energySavingVs(const RunMetrics &test, const RunMetrics &baseline);

} // namespace mcbp::accel
