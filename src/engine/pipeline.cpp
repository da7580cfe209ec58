#include "engine/pipeline.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace mcbp::engine {

namespace {

/** The per-micro-batch stage times of a prefill composition. */
struct PrefillTimes
{
    double sumT = 0.0;  ///< Fill traversal (every stage once).
    double maxT = 0.0;  ///< Bottleneck stage (steady-state pace).
    double hopFill = 0.0; ///< (pp-1)-hop boundary fill latency.

    double total() const { return sumT + hopFill; }
};

/**
 * Per-micro-batch stage times: a stage's divisible work (compute +
 * its boundary send serialization) splits across the mb micro-batches,
 * but its fixed collective floor does not — mb smaller all-reduces
 * still pay mb hop floors. The phase wall clock is the fill traversal
 * plus (mb-1) repeats of the bottleneck.
 */
PrefillTimes
prefillStageTimes(const std::vector<accel::PlanSegment> &stages,
                  const sim::InterconnectCost &send, double microBatches)
{
    PrefillTimes out;
    for (std::size_t s = 0; s < stages.size(); ++s) {
        const accel::PhaseMetrics &p = stages[s].prefill;
        const double bw =
            (s + 1 < stages.size()) ? send.bandwidthCycles : 0.0;
        const double divisible =
            std::max(0.0, p.cycles - p.fixedStepCycles) + bw;
        const double t = divisible / microBatches + p.fixedStepCycles;
        out.sumT += t;
        out.maxT = std::max(out.maxT, t);
    }
    out.hopFill =
        (static_cast<double>(stages.size()) - 1.0) * send.latencyCycles;
    return out;
}

/**
 * Everything plan() and prefillTiming() share: the per-stage slices
 * of the wrapped plan, the whole-phase boundary send, the stage
 * times, and the prefill wall clock — one composition, so the
 * archived bubble fraction can never diverge from the cycles the
 * plan actually prices.
 */
struct PipelineComposition
{
    std::vector<accel::PlanSegment> stages;
    sim::InterconnectCost prefillSend; ///< Whole-phase boundary send.
    PrefillTimes times;
    double prefillCycles = 0.0; ///< The phase's wall clock.
};

PipelineComposition
composeStages(const accel::ExecutionPlan &inner,
              const model::LlmConfig &model, const model::Workload &task,
              const PipelineOptions &opts)
{
    const std::size_t pp = opts.pipelineParallel;
    if (model.layers % pp != 0)
        fatal("pipeline degree " + std::to_string(pp) + " must divide " +
              model.name + "'s " + std::to_string(model.layers) +
              " decoder layers (even stages keep the per-stage KV "
              "shards symmetric)");
    const std::size_t per_stage = model.layers / pp;
    const double mb = static_cast<double>(opts.microBatches);

    PipelineComposition out;
    // Stage s owns layers [s*L/pp, (s+1)*L/pp): price each range by
    // slicing the wrapped plan — dividing layer segments, not
    // rescaling a finished run.
    out.stages.reserve(pp);
    for (std::size_t s = 0; s < pp; ++s) {
        accel::PlanSegment &seg = out.stages.emplace_back(
            inner.slice(s * per_stage, per_stage));
        seg.stage = s;
    }

    // One boundary transfer carries the layer's activations for the
    // whole (prompt x batch) token set, split across the micro-batches
    // and across the gang's chips (each sends its own tokens' share).
    const sim::Interconnect fabric(opts.interconnect, inner.clockGhz);
    const double pf_bytes =
        static_cast<double>(task.promptLen) *
        static_cast<double>(task.batch) *
        static_cast<double>(model.hidden) *
        opts.interconnect.bytesPerActivation /
        static_cast<double>(inner.processors);
    out.prefillSend = fabric.send(pf_bytes);
    out.times = prefillStageTimes(out.stages, out.prefillSend, mb);
    out.prefillCycles = out.times.sumT + (mb - 1.0) * out.times.maxT +
                        out.times.hopFill;
    return out;
}

} // namespace

PipelineAccelerator::PipelineAccelerator(std::unique_ptr<Accelerator> stage,
                                         PipelineOptions opts)
    : stage_(std::move(stage)), opts_(opts)
{
    fatalIf(!stage_, "pipeline needs a stage accelerator");
    fatalIf(opts_.pipelineParallel == 0,
            "pipeline-parallel degree must be >= 1");
    fatalIf(opts_.microBatches == 0, "micro-batch count must be >= 1");
    // One pp= axis: a pipeline of pipelines adds nothing a single
    // degree cannot express, and the slice-of-a-slice bookkeeping
    // would double-charge the boundary transfers.
    fatalIf(dynamic_cast<const PipelineAccelerator *>(stage_.get()) !=
                nullptr,
            "nested pipeline composition is not modeled; use a single "
            "pp= degree");
    name_ = opts_.pipelineParallel == 1
                ? stage_->name()
                : stage_->name() + "[pp" +
                      std::to_string(opts_.pipelineParallel) + "]";
}

Capabilities
PipelineAccelerator::capabilities() const
{
    Capabilities c = stage_->capabilities();
    if (opts_.pipelineParallel == 1)
        return c;
    c.processors *= opts_.pipelineParallel;
    c.hbmCapacityBytes *= static_cast<double>(opts_.pipelineParallel);
    // Each stage stores only its own layers' KV (an even layer split:
    // plan() requires pp | layers), so the shard count — and with it
    // the per-stage KV pool the paged serving engine charges —
    // multiplies by the stage count.
    c.kvShards *= opts_.pipelineParallel;
    c.pipelineStages *= opts_.pipelineParallel;
    return c;
}

std::string
PipelineAccelerator::configSummary() const
{
    if (opts_.pipelineParallel == 1) // identity: no pipeline exists.
        return stage_->configSummary();
    std::ostringstream os;
    os << name() << ": " << opts_.pipelineParallel
       << "-stage layer pipeline (even layer split, prefill in "
       << opts_.microBatches
       << " micro-batches, decode token-serial with per-stage weight "
          "streams), boundary links @ "
       << opts_.interconnect.linkGBs << " GB/s, "
       << opts_.interconnect.pJPerBit << " pJ/bit, "
       << opts_.interconnect.hopCycles << "-cycle hops\n"
       << stage_->configSummary();
    return os.str();
}

accel::ExecutionPlan
PipelineAccelerator::plan(const model::LlmConfig &model,
                          const model::Workload &task) const
{
    const std::size_t pp = opts_.pipelineParallel;
    // The wrapped plan is re-composed in place: every phase below is
    // computed from its totals before they are overwritten at the end.
    accel::ExecutionPlan out = stage_->plan(model, task);
    if (pp == 1)
        return out; // identity: bit-for-bit the wrapped accelerator.

    const double n = static_cast<double>(pp);
    const double gang = static_cast<double>(out.processors);
    const double hidden = static_cast<double>(model.hidden);
    const sim::Interconnect fabric(opts_.interconnect, out.clockGhz);

    PipelineComposition comp = composeStages(out, model, task, opts_);
    const std::vector<accel::PlanSegment> &stages = comp.stages;
    const sim::InterconnectCost &pf_send = comp.prefillSend;
    const PrefillTimes &times = comp.times;
    const double total_pf = comp.prefillCycles;

    // ---- Prefill: micro-batched stage pipeline -------------------------
    const accel::PhaseMetrics &inp = out.prefill;
    accel::PhaseMetrics pf = accel::scalePhase(inp, 1.0 / n);
    pf.cycles = total_pf;
    // Per-stage weight residents load concurrently; the steady-state
    // stream/work view is the slowest stage's.
    double pf_ws = 0.0, pf_lw = 0.0;
    for (const accel::PlanSegment &s : stages) {
        pf_ws = std::max(pf_ws, s.prefill.weightStreamCycles);
        pf_lw = std::max(pf_lw, s.prefill.linearWorkCycles);
    }
    pf.weightStreamCycles = pf_ws;
    pf.linearWorkCycles = pf_lw;
    // Batch-invariant floor: the wrapped collectives' hop floors plus
    // the boundary fill hops; contained in cycles.
    pf.fixedStepCycles = inp.fixedStepCycles + times.hopFill;
    // Breakdown: the per-stage bottleneck share is in the scaled
    // contributors; everything the pipeline adds on top (bubbles,
    // boundary serialization) is exposed as other.
    pf.otherCycles = inp.otherCycles / n +
                     std::max(0.0, total_pf - inp.cycles / n);
    // Logical work is conserved by stage partitioning.
    pf.denseMacs = inp.denseMacs;
    pf.executedAdds = inp.executedAdds;
    // Per-chip link energy share of the (pp-1) boundary transfers.
    pf.energy.interconnectPj = inp.energy.interconnectPj / n +
                               (n - 1.0) * pf_send.energyPj / n;

    // ---- Decode: token-serial traversal, per-stage weight streams ------
    if (task.decodeLen > 0) {
        const double steps = static_cast<double>(task.decodeLen);
        const accel::PhaseMetrics &ind = out.decode;
        const double dc_bytes = static_cast<double>(task.batch) *
                                hidden *
                                opts_.interconnect.bytesPerActivation /
                                gang;
        const sim::InterconnectCost dc_send = fabric.send(dc_bytes);

        // Invert the wrapped model's own composition to find the
        // non-linear rest (attention/SFU), which traverses serially.
        const double linear_seg = accel::composedLinearCycles(
            ind.weightStreamCycles, ind.linearWorkCycles,
            ind.memorySerialized);
        const double rest = std::max(
            0.0, ind.cycles - linear_seg - ind.fixedStepCycles);

        double dc_ws = 0.0; // slowest stage's own-layer weight stream.
        for (const accel::PlanSegment &s : stages)
            dc_ws = std::max(dc_ws, s.decode.weightStreamCycles);
        const double send_bw =
            (n - 1.0) * dc_send.bandwidthCycles * steps;
        const double dc_lw = ind.linearWorkCycles + send_bw;
        const double dc_fixed = ind.fixedStepCycles +
                                (n - 1.0) * dc_send.latencyCycles *
                                    steps;

        accel::PhaseMetrics dc = accel::scalePhase(ind, 1.0 / n);
        dc.cycles = accel::composedLinearCycles(dc_ws, dc_lw,
                                                ind.memorySerialized) +
                    rest + dc_fixed;
        dc.weightStreamCycles = dc_ws;
        dc.linearWorkCycles = dc_lw;
        dc.fixedStepCycles = dc_fixed;
        // Breakdown: the weight path parallelizes across per-stage HBM
        // (already scaled 1/pp); the compute/KV path traverses
        // serially, and the boundary serialization is exposed.
        dc.gemmCycles = ind.gemmCycles;
        dc.kvLoadCycles = ind.kvLoadCycles;
        dc.otherCycles = ind.otherCycles + send_bw;
        dc.denseMacs = ind.denseMacs;
        dc.executedAdds = ind.executedAdds;
        dc.energy.interconnectPj =
            ind.energy.interconnectPj / n +
            (n - 1.0) * dc_send.energyPj * steps / n;
        out.decode = dc;
    }

    out.prefill = pf;
    out.accelerator = name_;
    out.processors *= pp;
    // Segments: the per-stage layer costs (pure slices). The pipeline
    // overheads — bubbles and boundary transfers — live in the totals
    // only; no single layer range owns them.
    out.segments = std::move(comp.stages);
    return out;
}

PipelineAccelerator::Timing
PipelineAccelerator::prefillTiming(const model::LlmConfig &model,
                                   const model::Workload &task) const
{
    const accel::ExecutionPlan inner = stage_->plan(model, task);
    Timing t;
    if (opts_.pipelineParallel == 1) {
        t.totalCycles = inner.prefill.cycles;
        t.bottleneckCycles = inner.prefill.cycles;
        return t;
    }
    // The one composition plan() prices from (composeStages), so the
    // reported bubble can never diverge from the plan's cycles.
    const PipelineComposition comp =
        composeStages(inner, model, task, opts_);
    t.totalCycles = comp.prefillCycles;
    t.bottleneckCycles = comp.times.maxT;
    t.bubbleFraction = t.totalCycles > 0.0
                           ? (comp.times.sumT - comp.times.maxT) /
                                 t.totalCycles
                           : 0.0;
    return t;
}

} // namespace mcbp::engine
