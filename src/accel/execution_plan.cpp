#include "accel/execution_plan.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace mcbp::accel {

PhaseMetrics
scalePhase(const PhaseMetrics &phase, double fraction)
{
    PhaseMetrics out = phase; // composition rule carried over.
    out.cycles = phase.cycles * fraction;
    out.denseMacs = phase.denseMacs * fraction;
    out.executedAdds = phase.executedAdds * fraction;
    out.gemmCycles = phase.gemmCycles * fraction;
    out.weightLoadCycles = phase.weightLoadCycles * fraction;
    out.kvLoadCycles = phase.kvLoadCycles * fraction;
    out.otherCycles = phase.otherCycles * fraction;
    out.weightStreamCycles = phase.weightStreamCycles * fraction;
    out.linearWorkCycles = phase.linearWorkCycles * fraction;
    out.fixedStepCycles = phase.fixedStepCycles * fraction;

    out.traffic.weightBytes = phase.traffic.weightBytes * fraction;
    out.traffic.kvBytes = phase.traffic.kvBytes * fraction;
    out.traffic.predictionBytes =
        phase.traffic.predictionBytes * fraction;
    out.traffic.actBytes = phase.traffic.actBytes * fraction;

    out.energy.computePj = phase.energy.computePj * fraction;
    out.energy.bitReorderPj = phase.energy.bitReorderPj * fraction;
    out.energy.camPj = phase.energy.camPj * fraction;
    out.energy.codecPj = phase.energy.codecPj * fraction;
    out.energy.bgppPj = phase.energy.bgppPj * fraction;
    out.energy.sramPj = phase.energy.sramPj * fraction;
    out.energy.dramPj = phase.energy.dramPj * fraction;
    out.energy.sfuPj = phase.energy.sfuPj * fraction;
    out.energy.interconnectPj =
        phase.energy.interconnectPj * fraction;
    return out;
}

std::string
PlanSegment::label() const
{
    std::string out = "layers[" + std::to_string(firstLayer) + "," +
                      std::to_string(firstLayer + layerCount) + ")";
    return stage ? "stage" + std::to_string(*stage) + " " + out : out;
}

std::size_t
ExecutionPlan::stageLayers() const
{
    fatalIf(stages == 0 || modelLayers % stages != 0,
            "plan stages must split the stack into equal layer ranges");
    return modelLayers / stages;
}

std::vector<PlanSegment>
ExecutionPlan::segments() const
{
    const std::size_t per_stage = stageLayers();
    std::vector<PlanSegment> out(stages);
    for (std::size_t s = 0; s < stages; ++s) {
        out[s].firstLayer = s * per_stage;
        out[s].layerCount = per_stage;
        if (stages > 1)
            out[s].stage = s;
        out[s].prefill = stagePrefill;
        out[s].decode = stageDecode;
    }
    return out;
}

RunMetrics
ExecutionPlan::fold(std::string accelerator) const
{
    RunMetrics rm;
    rm.accelerator = std::move(accelerator);
    rm.clockGhz = clockGhz;
    rm.processors = processors;
    rm.prefill = prefill; // verbatim copy: no arithmetic, so folding
    rm.decode = decode;   // a plan is bit-identical to the run.
    return rm;
}

PlanSegment
ExecutionPlan::slice(std::size_t firstLayer,
                     std::size_t layerCount) const
{
    fatalIf(layerCount == 0, "empty layer slice");
    if (firstLayer + layerCount > modelLayers)
        fatal("layer slice [" + std::to_string(firstLayer) + "," +
              std::to_string(firstLayer + layerCount) +
              ") escapes the planned stack of " +
              std::to_string(modelLayers) + " layers");
    const std::size_t lo = firstLayer;
    const std::size_t hi = firstLayer + layerCount;
    const std::size_t per_stage = stageLayers();

    PlanSegment out;
    out.firstLayer = lo;
    out.layerCount = layerCount;
    // Walk the overlapped stages in layer order; every stage costs the
    // same, so each contributes its overlap fraction of that cost.
    const std::size_t first_stage = lo / per_stage;
    for (std::size_t s = first_stage; s * per_stage < hi; ++s) {
        const std::size_t o_lo = std::max(lo, s * per_stage);
        const std::size_t o_hi = std::min(hi, (s + 1) * per_stage);
        const double frac = static_cast<double>(o_hi - o_lo) /
                            static_cast<double>(per_stage);
        PhaseMetrics pf = scalePhase(stagePrefill, frac);
        PhaseMetrics dc = scalePhase(stageDecode, frac);
        if (s == first_stage) {
            // Copy-then-merge keeps the non-additive fields (the
            // composition rule) that merge() does not transport.
            out.prefill = pf;
            out.decode = dc;
        } else {
            out.prefill.merge(pf);
            out.decode.merge(dc);
        }
    }
    return out;
}

ExecutionPlan
unstagedPlan(double clockGhz, std::size_t processors,
             std::size_t modelLayers, const PhaseMetrics &prefill,
             const PhaseMetrics &decode)
{
    fatalIf(modelLayers == 0, "a plan needs at least one layer");
    ExecutionPlan plan;
    plan.clockGhz = clockGhz;
    plan.processors = processors;
    plan.modelLayers = modelLayers;
    plan.prefill = prefill;
    plan.decode = decode;
    plan.stagePrefill = prefill;
    plan.stageDecode = decode;
    return plan;
}

ExecutionPlan
planFromRun(const RunMetrics &rm, std::size_t modelLayers)
{
    return unstagedPlan(rm.clockGhz, rm.processors, modelLayers,
                        rm.prefill, rm.decode);
}

} // namespace mcbp::accel
