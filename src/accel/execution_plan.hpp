/**
 * @file
 * Stage-decomposable execution plans: the public costing contract of
 * every accelerator model.
 *
 * An ExecutionPlan is what `plan(model, task)` returns instead of an
 * opaque RunMetrics: the authoritative per-phase totals (exactly what
 * `run()` used to produce — `fold()` reconstitutes that RunMetrics
 * bit-for-bit) plus the cost of one pipeline stage's layers, per phase
 * (cycles, energy, traffic, and the weight-stream vs. compute split
 * the serving engine re-composes).
 *
 * The uniform-stage contract: the model's decoder stack splits into
 * `stages` equal contiguous layer ranges (stages divides modelLayers),
 * and every stage costs the same, uniformly per layer within it. That
 * is how every plan here is built: the decoder stack is homogeneous —
 * every analytic model prices one layer and multiplies — so an
 * accelerator's plan is one stage whose cost is its totals, a tp=
 * cluster shards both alike, and a pp= pipeline (which requires
 * pp | layers) splits the stack into pp equal stages. Storing the
 * plan that way makes it *decomposable* without a per-plan segment
 * list: `segments()` lists the stages and `slice()` prices any
 * contiguous layer range exactly, rescaling each overlapped stage
 * linearly, both on demand. A pipeline's totals carry the cross-stage
 * effects (fill/drain bubbles, inter-stage transfers) that no single
 * layer range owns.
 *
 * A plan carries no accelerator name: a composed name does not fit a
 * short string, and pricing a trace plans every shape, so `fold()`
 * takes the name from the accelerator that planned it.
 */
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "accel/report.hpp"

namespace mcbp::accel {

/**
 * Scale every additive field of a phase by @p fraction (cycles,
 * energy, traffic, raw streams, logical work). The composition rule
 * (memorySerialized) is preserved. fraction 1.0 is the bit-exact
 * identity; both composition rules commute with uniform scaling, so a
 * scaled phase re-composes consistently.
 */
PhaseMetrics scalePhase(const PhaseMetrics &phase, double fraction);

/** Cost of one contiguous layer range, per phase. */
struct PlanSegment
{
    std::size_t firstLayer = 0;
    std::size_t layerCount = 0;
    /** Pipeline stage that owns the range (unset outside a pipeline). */
    std::optional<std::size_t> stage;
    /** Whole-phase cost of this segment's layers (all steps). */
    PhaseMetrics prefill;
    PhaseMetrics decode;

    /** Display label, e.g. "layers[0,32)" or "stage2 layers[16,24)";
     *  built on demand, so pricing never formats it. */
    std::string label() const;
};

/**
 * The two-level costing contract: authoritative phase totals (what a
 * run costs end to end) plus the uniform per-stage cost.
 */
struct ExecutionPlan
{
    double clockGhz = 1.0;
    /** Chips ganged for the run (see RunMetrics::processors). */
    std::size_t processors = 1;
    /** Decoder layers of the planned model (the stages split this). */
    std::size_t modelLayers = 0;

    /**
     * Authoritative phase totals: `fold()` copies these verbatim, so a
     * plan-folding `run()` is bit-identical to composing the phases
     * directly. For a pipeline the totals include effects no stage
     * owns (bubbles, inter-stage transfers).
     */
    PhaseMetrics prefill;
    PhaseMetrics decode;

    /**
     * Equal layer ranges the stack splits into (must divide
     * modelLayers). 1 is an unstaged stack: its one range carries no
     * stage number, and its stage cost equals the totals.
     */
    std::size_t stages = 1;
    /** Whole-phase cost of one stage's layers (all steps). */
    PhaseMetrics stagePrefill;
    PhaseMetrics stageDecode;

    /** The stages as layer segments, in layer order (a partition of
     *  [0, modelLayers)), built on demand. */
    std::vector<PlanSegment> segments() const;

    /** Collapse the plan into the legacy RunMetrics of @p accelerator
     *  (exact copy of the totals — no arithmetic, hence
     *  bit-identical). */
    RunMetrics fold(std::string accelerator) const;

    /**
     * Price the contiguous layer range [firstLayer, firstLayer +
     * layerCount): each overlapped stage contributes its overlap
     * fraction (uniform per-layer cost within a stage). fatal() if
     * the range is empty or escapes [0, modelLayers).
     */
    PlanSegment slice(std::size_t firstLayer,
                      std::size_t layerCount) const;

    double totalCycles() const { return prefill.cycles + decode.cycles; }

  private:
    /** Layers per stage; fatal() unless stages divides modelLayers. */
    std::size_t stageLayers() const;
};

/**
 * An unstaged plan of @p modelLayers layers whose one stage costs the
 * totals @p prefill and @p decode. Used by every model that prices a
 * whole stack (composePlan, planFromRun).
 */
ExecutionPlan unstagedPlan(double clockGhz, std::size_t processors,
                           std::size_t modelLayers,
                           const PhaseMetrics &prefill,
                           const PhaseMetrics &decode);

/**
 * Wrap an already-composed RunMetrics as an unstaged plan. Used by
 * models that do not price layers individually (the GPU roofline
 * composes phase rooflines directly); `fold(rm.accelerator)` returns
 * @p rm bit-for-bit.
 */
ExecutionPlan planFromRun(const RunMetrics &rm, std::size_t modelLayers);

} // namespace mcbp::accel
