#include "accel/mcbp_accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "sim/hbm.hpp"
#include "sim/pe_cluster.hpp"
#include "sim/pipeline.hpp"

namespace mcbp::accel {

namespace {

/** Bit-serial adds per dense MAC for INT8 activations (attention formal
 *  compute on KV tensors, whose bit sparsity is milder than weights'). */
constexpr double kAttnAddsPerMac = 3.15; // 7 planes x (1 - 0.55).

} // namespace

McbpAccelerator::McbpAccelerator(sim::McbpConfig hw, McbpOptions opts,
                                 std::shared_ptr<ProfileCache> profiles)
    : hw_(hw), opts_(opts), profiles_(std::move(profiles))
{
    fatalIf(opts_.processors == 0, "processor count must be positive");
    if (!profiles_)
        profiles_ = makeProfileCache();
}

std::string
McbpAccelerator::name() const
{
    if (!opts_.enableBrcr && !opts_.enableBstc && !opts_.enableBgpp)
        return "Baseline";
    if (!opts_.enableBstc || !opts_.enableBgpp || !opts_.enableBrcr) {
        std::string n = "MCBP[";
        if (opts_.enableBrcr)
            n += "R";
        if (opts_.enableBstc)
            n += "C";
        if (opts_.enableBgpp)
            n += "P";
        return n + "]";
    }
    return opts_.alpha <= 0.55 ? "MCBP(A)" : "MCBP(S)";
}

const WeightStats &
McbpAccelerator::weightStats(const model::LlmConfig &model) const
{
    return profiles_->weights(model, opts_.bitWidth, opts_.seed);
}

const AttentionStats &
McbpAccelerator::attentionStats(const model::LlmConfig &model,
                                const model::Workload &task) const
{
    return profiles_->attention(model, task, opts_.alpha, opts_.seed);
}

PhaseStep
McbpAccelerator::phaseStep(const PhasePlan &plan, const model::LlmConfig &m,
                           const WeightStats &ws,
                           const AttentionStats &as) const
{
    const double procs = static_cast<double>(opts_.processors);
    const double hidden = static_cast<double>(m.hidden);

    sim::PeClusterModel fabric(hw_);
    sim::Hbm hbm(hw_);

    PhaseStep out;
    out.layers = static_cast<double>(m.layers);
    out.procs = procs;
    out.weightResident = plan.weightResident;

    // ---- Linear (QKV / O / FFN) portion, per layer per step -------------
    const double lin_macs = static_cast<double>(m.paramsPerLayer()) *
                            plan.queries * plan.batch / procs;
    // Without BRCR the fabric degrades to sparsity-aware bit-serial
    // computing (zero bits skipped, no cross-vector merging) — the
    // paper's ablation baseline.
    const double adds_per_mac =
        opts_.enableBrcr ? ws.brcrAddsPerMac : ws.bscAddsPerMac;
    const double lin_adds = lin_macs * adds_per_mac;
    out.linearAdds = lin_adds;

    sim::BrcrWork &lin_work = out.linearWork;
    if (opts_.enableBrcr) {
        lin_work.mergeAdds = lin_adds * (1.0 - ws.reconFraction);
        lin_work.reconAdds = lin_adds * ws.reconFraction;
        // CAM searches amortize over the activation tile columns.
        const double amortize = std::max(
            1.0, std::min(plan.queries * plan.batch,
                          static_cast<double>(hw_.tileN)));
        lin_work.camSearches = ws.camSearchesPerMac * lin_macs / amortize;
        lin_work.camLoads = lin_macs / amortize;
    } else {
        lin_work.mergeAdds = lin_adds;
    }
    const double lin_compute_cycles = fabric.brcrCycles(lin_work);

    // Weight traffic: once per layer if resident (prefill), every step
    // otherwise (decode).
    const double weight_cr =
        opts_.enableBstc ? ws.bstcCompressionRatio
                         : std::max(1.0, ws.valueCompressionRatio);
    out.weightBytesRaw = static_cast<double>(m.paramsPerLayer()) / procs;
    out.weightBytes = out.weightBytesRaw / weight_cr;
    const double weight_load_cycles =
        hbm.read(static_cast<std::uint64_t>(out.weightBytes), 0.95).cycles;

    // Decompression throughput: BSTC's two-state decoder retires one
    // symbol per lane-cycle (1-bit CMP + SIPO, Fig 15b). The value-level
    // Huffman baseline needs a tree-walk per variable-length symbol —
    // about half the symbol rate within the same decoder area — and one
    // symbol per weight value.
    double decode_cycles = 0.0;
    if (opts_.enableBstc) {
        decode_cycles = fabric.codecCycles(
            {ws.bstcSymbolsPerByte * out.weightBytesRaw});
    } else {
        decode_cycles = fabric.codecCycles({out.weightBytesRaw * 2.0});
    }
    out.decodeSymbols = opts_.enableBstc
                            ? ws.bstcSymbolsPerByte * out.weightBytesRaw
                            : out.weightBytesRaw;

    // Activation traffic per layer per step.
    out.actBytes = (2.0 * hidden + static_cast<double>(m.ffn)) *
                   plan.queries * plan.batch / procs;
    const double act_cycles =
        static_cast<double>(out.actBytes) / hbm.bytesPerCycle();

    // ---- Attention portion ----------------------------------------------
    // Prediction scans all (query, key) pairs at reduced precision.
    const double pair_elems =
        plan.queries * plan.context * hidden * plan.batch / procs;
    const double pred_bits_per_elem = opts_.enableBgpp
                                          ? as.bgppPredBitsPerElem
                                          : as.valuePredBitsPerElem;
    const double selected = opts_.enableBgpp ? as.bgppSelectedFraction
                                             : as.topkFraction;

    // KV residency: prefill tiles K/V through the token SRAM (re-reads
    // scale with query tiling); decode streams the cache per token.
    const double kv_sweeps = kvSweeps(hw_, plan, hidden);
    out.predictionBytes = plan.context * hidden *
                          (pred_bits_per_elem / 8.0) * kv_sweeps *
                          (plan.kvOnChipTiling ? 1.0 : plan.batch) / procs;
    out.predictionBitMacs =
        opts_.enableBgpp ? pair_elems * as.bgppBitMacsPerElem
                         : pair_elems; // 4-bit estimate ~ 1 op/elem.
    const double pred_compute_cycles =
        opts_.enableBgpp
            ? fabric.bgppCycles({out.predictionBitMacs,
                                 plan.queries * plan.batch * plan.context /
                                     procs})
            : fabric.denseMacCycles(pair_elems / 2.0);
    const double pred_load_cycles =
        static_cast<double>(out.predictionBytes) / hbm.bytesPerCycle();
    const double pred_cycles =
        std::max(pred_compute_cycles, pred_load_cycles);

    // Formal sparse attention over the selected keys.
    const double attn_macs =
        2.0 * plan.queries * plan.context * hidden * plan.batch * selected /
        procs;
    out.attentionAdds = attn_macs * kAttnAddsPerMac;
    const double attn_cycles =
        fabric.brcrCycles({out.attentionAdds, 0, 0, 0});
    out.kvBytes = 2.0 * plan.context * hidden * selected * kv_sweeps *
                      (plan.kvOnChipTiling ? 1.0 : plan.batch) / procs +
                  2.0 * hidden * plan.queries * plan.batch / procs;
    const double kv_cycles =
        hbm.read(static_cast<std::uint64_t>(out.kvBytes), 0.5).cycles;

    // SFU: softmax over selected scores + norms/activation functions.
    out.sfuOps = plan.queries * plan.context * selected * plan.batch *
                     2.0 / procs +
                 6.0 * plan.queries * plan.batch * hidden / procs;
    const double sfu_cycles = out.sfuOps / 64.0; // 64-lane FP16 SFU.

    // ---- Compose the layer ----------------------------------------------
    sim::StageCycles &stages = out.stages;
    stages.weightLoad = plan.weightResident
                            ? weight_load_cycles / std::max(1.0, plan.steps)
                            : weight_load_cycles;
    stages.weightDecode = plan.weightResident
                              ? decode_cycles / std::max(1.0, plan.steps)
                              : decode_cycles;
    stages.linearCompute = lin_compute_cycles;
    stages.prediction = pred_cycles;
    stages.kvLoad = kv_cycles;
    stages.attention = attn_cycles;
    stages.sfu = sfu_cycles;
    stages.actLoad = act_cycles;
    out.latency = sim::composeLayer(stages, hw_);

    out.denseMacs = lin_macs + 2.0 * plan.queries * plan.context * hidden *
                                   plan.batch / procs;
    out.executedAdds = lin_adds + out.attentionAdds + out.predictionBitMacs;
    return out;
}

PhaseMetrics
McbpAccelerator::finishPhase(const PhaseStep &step, double steps) const
{
    const double layers = step.layers;
    const sim::StageCycles &stages = step.stages;
    const sim::LayerLatency &lat = step.latency;
    sim::EnergyModel energy;

    PhaseMetrics out;
    out.cycles = lat.totalCycles * layers * steps;
    out.denseMacs = step.denseMacs * layers * steps * step.procs;
    out.executedAdds = step.executedAdds * layers * steps * step.procs;

    // Latency attribution (Fig 1a / Fig 19 style): the linear segment is
    // charged to whichever pipeline stage bounds it. HBM load and BSTC
    // decode are both weight-path stages (delivering weights to the
    // PEs); their cost is per weight stream, not per batched token —
    // the serving engine relies on this split to amortize them.
    const double weight_path =
        std::max(stages.weightLoad, stages.weightDecode);
    if (weight_path >= stages.linearCompute &&
        weight_path >= stages.actLoad) {
        out.weightLoadCycles = lat.linearPart * layers * steps;
        out.gemmCycles = 0.0;
    } else {
        out.gemmCycles = lat.linearPart * layers * steps;
        out.weightLoadCycles = 0.0;
    }
    out.kvLoadCycles = lat.attentionPart * layers * steps;
    out.otherCycles = lat.exposedSfu * layers * steps;
    out.weightStreamCycles =
        std::max(stages.weightLoad, stages.weightDecode) * layers * steps;
    out.linearWorkCycles =
        std::max(stages.linearCompute, stages.actLoad) * layers * steps;

    // Traffic (whole phase, per processor).
    const double weight_traffic =
        step.weightBytes * layers * (step.weightResident ? 1.0 : steps);
    out.traffic.weightBytes = weight_traffic;
    out.traffic.predictionBytes = step.predictionBytes * layers * steps;
    out.traffic.kvBytes = step.kvBytes * layers * steps;
    out.traffic.actBytes = step.actBytes * layers * steps;

    // Energy.
    const double steps_l = layers * steps;
    const double lin_adds = step.linearAdds;
    sim::EnergyBreakdown &e = out.energy;
    e.computePj = energy.addsEnergy(static_cast<std::uint64_t>(
                      (lin_adds + step.attentionAdds) * steps_l)) +
                  energy.shiftEnergy(static_cast<std::uint64_t>(
                      lin_adds * 0.15 * steps_l));
    e.camPj = energy.camEnergy(
        static_cast<std::uint64_t>(step.linearWork.camSearches * steps_l),
        static_cast<std::uint64_t>(step.linearWork.camLoads * steps_l));
    e.codecPj = energy.codecEnergy(static_cast<std::uint64_t>(
        step.decodeSymbols * steps_l *
        (step.weightResident ? 1.0 / steps : 1.0)));
    // BGPP spends 1-bit AND/adder-tree ops; the value-level baseline
    // spends a 4-bit x 8-bit MAC per key element.
    e.bgppPj = opts_.enableBgpp
                   ? energy.bgppEnergy(static_cast<std::uint64_t>(
                         step.predictionBitMacs * steps_l))
                   : energy.int4MacEnergy(static_cast<std::uint64_t>(
                         step.predictionBitMacs * steps_l));
    e.dramPj = energy.dramEnergy(static_cast<std::uint64_t>(
        weight_traffic + out.traffic.predictionBytes +
        out.traffic.kvBytes + out.traffic.actBytes));
    // SRAM traffic: decompressed weights and activation/KV staging in
    // the large arrays, plus the per-addition operand reads the AMUs
    // issue against the banked activation buffers.
    e.sramPj = energy.sramEnergy(
                   static_cast<std::uint64_t>(
                       (step.weightBytesRaw *
                            (step.weightResident ? 1.0 : steps) * layers +
                        2.0 * (out.traffic.actBytes +
                               out.traffic.kvBytes))),
                   true) +
               energy.operandEnergy(
                   static_cast<std::uint64_t>(lin_adds * steps_l));
    e.sfuPj = energy.sfuEnergy(
        static_cast<std::uint64_t>(step.sfuOps * steps_l));
    // Bit reordering only appears when the storage format is value-level
    // (BSTC off): every *decompressed* weight bit is staged through the
    // reorder buffer before it can feed the bit-serial PEs.
    if (!opts_.enableBstc) {
        const double raw_traffic =
            step.weightBytesRaw * layers *
            (step.weightResident ? 1.0 : steps);
        e.bitReorderPj = energy.bitReorderEnergy(
            static_cast<std::uint64_t>(raw_traffic * 8.0));
    }
    return out;
}

ExecutionPlan
McbpAccelerator::plan(const model::LlmConfig &model,
                      const model::Workload &task, PhaseMemo *memo) const
{
    // What either phase depends on besides its lengths (phase_memo.hpp).
    PhaseMemo::Key key{this, &model, task.attentionConcentration,
                       task.batch, contextBucket(task.promptLen), 0};
    const auto resolve = [&] {
        return PhaseMemo::Profiles{&weightStats(model),
                                   &attentionStats(model, task)};
    };
    const PhaseMemo::Profiles stats =
        memo != nullptr ? memo->profiles(key, resolve) : resolve();
    const auto step = [&](const PhasePlan &p) {
        return phaseStep(p, model, *stats.weights, *stats.attention);
    };
    return composePlan(
        model, task, hw_.clockGhz, opts_.processors,
        [&](const PhasePlan &p) -> PhaseMetrics {
            if (memo == nullptr)
                return finishPhase(step(p), p.steps);
            if (!p.decodePhase) {
                key.length = task.promptLen;
                return memo->prefill(
                    key, [&] { return finishPhase(step(p), p.steps); });
            }
            // A decode plan is streamed, never weight-resident, so its
            // step is the same for every shape of this context.
            key.length = 2 * task.promptLen + task.decodeLen;
            return finishPhase(
                memo->decodeStep(key, task.promptLen, [&] { return step(p); }),
                p.steps);
        });
}

RunMetrics
McbpAccelerator::run(const model::LlmConfig &model,
                     const model::Workload &task) const
{
    return plan(model, task).fold(name());
}

McbpAccelerator
makeMcbpStandard(std::size_t processors)
{
    McbpOptions o;
    o.alpha = 0.6;
    o.processors = processors;
    return McbpAccelerator(sim::defaultConfig(), o);
}

McbpAccelerator
makeMcbpAggressive(std::size_t processors)
{
    McbpOptions o;
    o.alpha = 0.5;
    o.processors = processors;
    return McbpAccelerator(sim::defaultConfig(), o);
}

McbpAccelerator
makeMcbpBaseline(std::size_t processors)
{
    McbpOptions o;
    o.enableBrcr = false;
    o.enableBstc = false;
    o.enableBgpp = false;
    o.processors = processors;
    return McbpAccelerator(sim::defaultConfig(), o);
}

} // namespace mcbp::accel
