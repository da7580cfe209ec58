#include "accel/execution_plan.hpp"

#include <algorithm>

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

RunMetrics
ExecutionPlan::fold() const
{
    RunMetrics rm;
    rm.accelerator = accelerator;
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

    PlanSegment out;
    out.firstLayer = lo;
    out.layerCount = layerCount;

    bool first = true;
    std::size_t covered = 0;
    for (const PlanSegment &seg : segments) {
        const std::size_t seg_lo = seg.firstLayer;
        const std::size_t seg_hi = seg.firstLayer + seg.layerCount;
        const std::size_t o_lo = std::max(lo, seg_lo);
        const std::size_t o_hi = std::min(hi, seg_hi);
        if (o_lo >= o_hi)
            continue;
        const double frac = static_cast<double>(o_hi - o_lo) /
                            static_cast<double>(seg.layerCount);
        PhaseMetrics pf = scalePhase(seg.prefill, frac);
        PhaseMetrics dc = scalePhase(seg.decode, frac);
        if (first) {
            // Copy-then-merge keeps the non-additive fields (the
            // composition rule) that merge() does not transport.
            out.prefill = pf;
            out.decode = dc;
            first = false;
        } else {
            out.prefill.merge(pf);
            out.decode.merge(dc);
        }
        covered += o_hi - o_lo;
    }
    fatalIf(covered != layerCount,
            "plan segments do not cover the requested layer slice "
            "(plan is not a partition of the stack)");
    return out;
}

ExecutionPlan
planFromRun(const RunMetrics &rm, std::size_t modelLayers)
{
    fatalIf(modelLayers == 0, "a plan needs at least one layer");
    ExecutionPlan plan;
    plan.accelerator = rm.accelerator;
    plan.clockGhz = rm.clockGhz;
    plan.processors = rm.processors;
    plan.modelLayers = modelLayers;
    plan.prefill = rm.prefill;
    plan.decode = rm.decode;
    PlanSegment seg;
    seg.firstLayer = 0;
    seg.layerCount = modelLayers;
    seg.prefill = rm.prefill;
    seg.decode = rm.decode;
    plan.segments.push_back(std::move(seg));
    return plan;
}

} // namespace mcbp::accel
