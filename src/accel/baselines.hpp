/**
 * @file
 * Analytic models of the SOTA accelerators MCBP is compared against
 * (Table 1, Figs 17/23/26): Sanger, Spatten, FACT, SOFA, Energon,
 * Bitwave, FuseKNA, Cambricon-C, plus a dense systolic-array reference.
 *
 * Each baseline is described by a trait set encoding the *published
 * mechanism* of that design — which redundancy it can exploit (value
 * top-k, head pruning, mixed precision, bit-serial sparsity, bit
 * repetition, LUT INT4), its prediction traffic, its compression format
 * and its bit-reorder overhead — evaluated on the same platform
 * constraints as MCBP (section 5.1: equal PE area, 1 GHz, 1248 kB SRAM,
 * 512-bit/cycle HBM). Factors that depend on the workload (bit sparsity,
 * repetition, attention selectivity) are taken from the same measured
 * profiles MCBP uses, so every design is graded on identical data.
 */
#pragma once

#include <string>
#include <vector>

#include "accel/phase_plan.hpp"
#include "accel/profiles.hpp"
#include "accel/report.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"
#include "sim/mcbp_config.hpp"

namespace mcbp::accel {

/** Mechanism traits of one baseline accelerator. */
struct BaselineTraits
{
    std::string name;

    // --- Compute path ---
    /** Datapath bit-adds per dense linear MAC (after the design's own
     *  optimizations); 8.0 = a dense INT8 MAC datapath of equal area. */
    double linearAddsPerMac = 8.0;
    /** Fraction of dense linear MACs the design executes. */
    double linearComputeFraction = 1.0;
    /** Fraction of dense attention MACs executed (token pruning). */
    double attnComputeFraction = 1.0;
    /** Datapath utilization (serial matching, load imbalance, ...). */
    double utilization = 0.85;

    // --- Memory path ---
    /** Weight-traffic compression ratio. */
    double weightCompression = 1.0;
    /** Prediction K-bits fetched per key element (0 = no prediction). */
    double predBitsPerElem = 0.0;
    /** Fraction of keys fetched for formal attention. */
    double kvSelectedFraction = 1.0;
    /** Whether the design's optimizations apply in the decode stage. */
    bool decodeOptimized = false;

    // --- Overheads ---
    /** Reorder bits per weight bit (value->bit-serial mismatch). */
    double bitReorderPerWeightBit = 0.0;
    /** Head-pruning style weight reduction (Spatten). */
    double weightPruneFraction = 1.0;
};

/** Workload-derived traits for the designs that exploit bit phenomena. */
BaselineTraits makeSystolic();
BaselineTraits makeSanger(const AttentionStats &as);
BaselineTraits makeSpatten(const AttentionStats &as);
BaselineTraits makeFact(const AttentionStats &as);
BaselineTraits makeSofa(const AttentionStats &as);
BaselineTraits makeEnergon(const AttentionStats &as);
BaselineTraits makeBitwave(const WeightStats &ws);
BaselineTraits makeFuseKna(const WeightStats &ws);
BaselineTraits makeCambriconC(const WeightStats &ws4);

/** Evaluate a baseline on one (model, task) pair. */
class BaselineAccelerator
{
  public:
    BaselineAccelerator(BaselineTraits traits,
                        sim::McbpConfig hw = sim::defaultConfig());

    const std::string &name() const { return traits_.name; }
    const BaselineTraits &traits() const { return traits_; }

    /** Phase totals + uniform stage cost (execution_plan.hpp). */
    ExecutionPlan plan(const model::LlmConfig &model,
                       const model::Workload &task) const;

    /** One (model, task) run (= plan().fold(name())). */
    RunMetrics run(const model::LlmConfig &model,
                   const model::Workload &task) const;

  private:
    PhaseMetrics simulatePhase(const PhasePlan &plan,
                               const model::LlmConfig &model) const;

    BaselineTraits traits_;
    sim::McbpConfig hw_;
};

} // namespace mcbp::accel
