/**
 * @file
 * Shared phase-composition plumbing for the accelerator models.
 *
 * Every analytic model (MCBP, the SOTA baselines, and any future design)
 * evaluates the same two-phase shape: a weight-resident, KV-tiled prefill
 * over all prompt tokens, then a weight-streaming decode loop with the
 * paper's average causal context (S/2 for prefill, S + D/2 for decode).
 * This header hoists that plumbing — previously duplicated between
 * McbpAccelerator and BaselineAccelerator — into one place, so a model
 * only supplies its per-phase cycle/energy function.
 */
#pragma once

#include "accel/execution_plan.hpp"
#include "accel/report.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"
#include "sim/mcbp_config.hpp"

namespace mcbp::accel {

/** Schedule of one inference phase (prefill or decode). */
struct PhasePlan
{
    double batch = 1.0;
    double queries = 0.0;   ///< Tokens producing queries this phase.
    double context = 0.0;   ///< Average attention context length.
    double steps = 1.0;     ///< Phase repetitions (decode tokens).
    bool weightResident = false; ///< Prefill reuses weights across tokens.
    bool kvOnChipTiling = false; ///< Prefill streams KV via SRAM tiles.
    bool decodePhase = false;    ///< Decode loses prefill-only tricks.
};

/** Prefill plan: all prompt tokens, resident weights, tiled KV. */
PhasePlan prefillPlan(const model::Workload &task);

/** Decode plan: one token per step, streamed weights and KV cache. */
PhasePlan decodePlan(const model::Workload &task);

/**
 * KV re-read sweeps caused by tiling the queries through the token SRAM
 * (1.0 when the phase streams the cache once per token instead).
 */
double kvSweeps(const sim::McbpConfig &hw, const PhasePlan &plan,
                double hidden);

/**
 * Compose a full execution plan: simulate prefill, then decode when
 * the task generates tokens, and publish the result as an unstaged
 * plan (every analytic model here prices one layer and multiplies, so
 * per-layer cost is uniform and the one stage is exactly decomposable
 * — see ExecutionPlan::slice). @p simulate maps a PhasePlan to
 * PhaseMetrics.
 */
template <typename SimulateFn>
ExecutionPlan
composePlan(const model::LlmConfig &model, const model::Workload &task,
            double clockGhz, std::size_t processors, SimulateFn &&simulate)
{
    const PhaseMetrics prefill = simulate(prefillPlan(task));
    const PhaseMetrics decode =
        task.decodeLen > 0 ? simulate(decodePlan(task)) : PhaseMetrics{};
    return unstagedPlan(clockGhz, processors, model.layers, prefill,
                        decode);
}


} // namespace mcbp::accel
