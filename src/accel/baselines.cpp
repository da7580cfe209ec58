#include "accel/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "sim/hbm.hpp"
#include "sim/pe_cluster.hpp"
#include "sim/pipeline.hpp"

namespace mcbp::accel {

BaselineTraits
makeSystolic()
{
    BaselineTraits t;
    t.name = "Systolic";
    return t;
}

BaselineTraits
makeSanger(const AttentionStats &as)
{
    // Sanger (MICRO'21): reconfigurable sparse attention via value-level
    // top-k style score prediction; attention-only, prefill-only.
    BaselineTraits t;
    t.name = "Sanger";
    t.attnComputeFraction = as.topkFraction;
    t.predBitsPerElem = as.valuePredBitsPerElem;
    t.kvSelectedFraction = as.topkFraction;
    t.utilization = 0.75; // pack/split load imbalance.
    return t;
}

BaselineTraits
makeSpatten(const AttentionStats &as)
{
    // SpAtten (HPCA'21): cascade token + head pruning, value top-k
    // prediction with progressive 4-bit fetch; applies in P&D.
    BaselineTraits t;
    t.name = "Spatten";
    t.attnComputeFraction = as.topkFraction;
    t.predBitsPerElem = as.valuePredBitsPerElem;
    t.kvSelectedFraction = as.topkFraction;
    t.weightPruneFraction = 0.9; // cascade head pruning trims ~10%.
    t.decodeOptimized = true;
    return t;
}

BaselineTraits
makeFact(const AttentionStats &as)
{
    // FACT (ISCA'23): eager correlation prediction + mixed-precision
    // whole-model computation; prefill-oriented.
    BaselineTraits t;
    t.name = "FACT";
    t.linearComputeFraction = 0.55; // mixed INT4/INT8 computation.
    t.attnComputeFraction = as.topkFraction;
    t.predBitsPerElem = 2.5; // eager prediction piggybacks on QK gen.
    t.kvSelectedFraction = as.topkFraction;
    t.weightCompression = 1.25; // low-bit weight path.
    return t;
}

BaselineTraits
makeSofa(const AttentionStats &as)
{
    // SOFA (MICRO'24): compute-memory co-optimized *attention* via
    // cross-stage tiling; no weight-path optimization, prefill-only.
    BaselineTraits t;
    t.name = "SOFA";
    t.attnComputeFraction = as.topkFraction * 0.9;
    t.predBitsPerElem = 4.0; // log-domain low-bit speculation.
    t.kvSelectedFraction = as.topkFraction * 0.8; // cross-stage tiling.
    t.utilization = 0.9;
    return t;
}

BaselineTraits
makeEnergon(const AttentionStats &as)
{
    // Energon (TCAD'22): mix-precision multi-round top-k filtering; KV
    // traffic partially reduced ("Low" in Table 1).
    BaselineTraits t;
    t.name = "Energon";
    t.attnComputeFraction = as.topkFraction;
    t.predBitsPerElem = 3.0; // 2-bit first round + refinements.
    t.kvSelectedFraction = as.topkFraction;
    t.decodeOptimized = false;
    return t;
}

BaselineTraits
makeBitwave(const WeightStats &ws)
{
    // BitWave (HPCA'24): column-structured bit-level sparsity
    // (bit-flip + sign-magnitude), weight-side only.
    BaselineTraits t;
    t.name = "Bitwave";
    // Structured (column-wise) skipping captures a fraction of the raw
    // bit sparsity; published results center around ~40-60% of bits.
    const double structured = 0.75 * ws.meanBitSparsity;
    t.linearAddsPerMac = 7.0 * (1.0 - structured) * 2.0; // serial mul+acc.
    t.weightCompression = std::max(1.0, 8.0 / (8.0 * (1.0 - structured) +
                                               1.5)); // section metadata.
    t.decodeOptimized = true; // weight path works in decode too.
    t.bitReorderPerWeightBit = 0.45; // multi-bit packed format (Fig 23).
    return t;
}

BaselineTraits
makeFuseKna(const WeightStats &ws)
{
    // FuseKNA (HPCA'21): fused-kernel bit repetition for convolutions,
    // adapted to GEMV via im2col; value-level RLE compression; serial
    // repetition matching limits utilization.
    BaselineTraits t;
    t.name = "FuseKNA";
    const double merge_gain =
        std::min(0.55, 1.0 - ws.meanBitSparsity); // full-size merge only.
    t.linearAddsPerMac = 7.0 * (1.0 - ws.meanBitSparsity) * 2.0 *
                         (1.0 - merge_gain * 0.5);
    t.weightCompression = 1.15; // value-level run-length coding.
    t.utilization = 0.55;       // serial match pipeline stalls.
    t.bitReorderPerWeightBit = 0.8; // value format vs bit-serial PEs.
    t.decodeOptimized = true;
    return t;
}

BaselineTraits
makeCambriconC(const WeightStats &ws4)
{
    // Cambricon-C (MICRO'24): INT4 quarter-square-multiplication lookup;
    // extended to W4A8 as in section 6. Primitivization makes an INT4
    // MAC nearly as cheap as a bit-add lane in area, so its dense
    // throughput is high; it exploits no sparsity/KV redundancy, and the
    // W4A8 extension inflates the lookup tables (utilization hit).
    BaselineTraits t;
    t.name = "Cambricon-C";
    t.linearAddsPerMac = 1.2;   // table lookup + quarter-square adds.
    t.weightCompression = 2.0;  // INT4 weights halve traffic.
    t.utilization = 0.75;       // W4A8 lookup growth (section 6).
    t.decodeOptimized = true;
    (void)ws4;
    return t;
}

BaselineAccelerator::BaselineAccelerator(BaselineTraits traits,
                                         sim::McbpConfig hw)
    : traits_(std::move(traits)), hw_(hw)
{
}

PhaseMetrics
BaselineAccelerator::simulatePhase(const PhasePlan &plan,
                                   const model::LlmConfig &m) const
{
    const BaselineTraits &t = traits_;
    const double layers = static_cast<double>(m.layers);
    const double hidden = static_cast<double>(m.hidden);

    // Prefill-only designs lose their sparsity mechanisms in decode.
    const bool opts_on = !plan.decodePhase || t.decodeOptimized;
    const double lin_frac = opts_on ? t.linearComputeFraction : 1.0;
    const double attn_frac = opts_on ? t.attnComputeFraction : 1.0;
    const double kv_sel = opts_on ? t.kvSelectedFraction : 1.0;
    const double pred_bits = opts_on ? t.predBitsPerElem : 0.0;
    const double weight_cr = t.weightCompression; // format is static.

    sim::PeClusterModel fabric(hw_);
    sim::Hbm hbm(hw_);
    sim::EnergyModel energy;

    // Linear portion. Equal-area fabric: kBitAddsPerMacArea bit-add
    // lanes occupy the area of one dense INT8 MAC lane; everything is
    // expressed in MAC-lane cycles on that budget.
    constexpr double kBitAddsPerMacArea = 8.0;
    const double lin_macs = static_cast<double>(m.paramsPerLayer()) *
                            t.weightPruneFraction * plan.queries * plan.batch;
    const double lin_adds =
        lin_macs * lin_frac * t.linearAddsPerMac / kBitAddsPerMacArea;
    const double lane_macs_per_cycle =
        hw_.peakAddsPerCycle() / kBitAddsPerMacArea * t.utilization;
    const double lin_compute_cycles =
        lin_macs * lin_frac * (t.linearAddsPerMac / kBitAddsPerMacArea) /
        lane_macs_per_cycle;

    const double weight_bytes = static_cast<double>(m.paramsPerLayer()) *
                                t.weightPruneFraction / weight_cr;
    const double weight_load_cycles =
        hbm.read(static_cast<std::uint64_t>(weight_bytes), 0.9).cycles;

    const double act_bytes = (2.0 * hidden + static_cast<double>(m.ffn)) *
                             plan.queries * plan.batch;
    const double act_cycles = act_bytes / hbm.bytesPerCycle();

    // Attention portion.
    const double kv_sweeps = kvSweeps(hw_, plan, hidden);
    const double pair_elems = plan.queries * plan.context * hidden * plan.batch;
    const double pred_bytes =
        pred_bits > 0.0 ? plan.context * hidden * (pred_bits / 8.0) *
                              kv_sweeps *
                              (plan.kvOnChipTiling ? 1.0 : plan.batch)
                        : 0.0;
    const double pred_macs = pred_bits > 0.0 ? pair_elems / 2.0 : 0.0;
    const double pred_cycles = std::max(
        pred_macs / lane_macs_per_cycle,
        pred_bytes / hbm.bytesPerCycle());

    const double attn_macs =
        2.0 * plan.queries * plan.context * hidden * plan.batch * attn_frac;
    const double attn_cycles = attn_macs / lane_macs_per_cycle;
    const double kv_bytes = 2.0 * plan.context * hidden * kv_sel * kv_sweeps *
                                (plan.kvOnChipTiling ? 1.0 : plan.batch) +
                            2.0 * hidden * plan.queries * plan.batch;
    const double kv_cycles =
        hbm.read(static_cast<std::uint64_t>(kv_bytes), 0.5).cycles;

    const double sfu_ops =
        plan.queries * plan.context * attn_frac * plan.batch * 2.0 +
        6.0 * plan.queries * plan.batch * hidden;
    const double sfu_cycles = sfu_ops / 64.0;

    sim::StageCycles stages;
    stages.weightLoad = plan.weightResident
                            ? weight_load_cycles / std::max(1.0, plan.steps)
                            : weight_load_cycles;
    stages.linearCompute = lin_compute_cycles;
    stages.prediction = pred_cycles;
    stages.kvLoad = kv_cycles;
    stages.attention = attn_cycles;
    stages.sfu = sfu_cycles;
    stages.actLoad = act_cycles;
    const sim::LayerLatency lat = sim::composeLayer(stages, hw_);

    PhaseMetrics out;
    out.cycles = lat.totalCycles * layers * plan.steps;
    out.denseMacs =
        (static_cast<double>(m.paramsPerLayer()) * plan.queries * plan.batch +
         2.0 * plan.queries * plan.context * hidden * plan.batch) *
        layers * plan.steps;
    out.executedAdds =
        (lin_adds * kBitAddsPerMacArea + attn_macs * kBitAddsPerMacArea +
         pred_macs) * layers * plan.steps;

    out.gemmCycles = lin_compute_cycles * layers * plan.steps;
    out.weightLoadCycles =
        std::max(0.0, (lat.linearPart - lin_compute_cycles)) * layers *
        plan.steps;
    out.kvLoadCycles = lat.attentionPart * layers * plan.steps;
    out.otherCycles = lat.exposedSfu * layers * plan.steps;
    out.weightStreamCycles = stages.weightLoad * layers * plan.steps;
    out.linearWorkCycles =
        std::max(stages.linearCompute, stages.actLoad) * layers *
        plan.steps;

    out.traffic.weightBytes =
        weight_bytes * layers * (plan.weightResident ? 1.0 : plan.steps);
    out.traffic.predictionBytes = pred_bytes * layers * plan.steps;
    out.traffic.kvBytes = kv_bytes * layers * plan.steps;
    out.traffic.actBytes = act_bytes * layers * plan.steps;

    const double steps_l = layers * plan.steps;
    sim::EnergyBreakdown &e = out.energy;
    e.computePj =
        energy.macsEnergy(static_cast<std::uint64_t>(
            (lin_macs * lin_frac + attn_macs + pred_macs) * steps_l));
    e.dramPj = energy.dramEnergy(static_cast<std::uint64_t>(
        out.traffic.total()));
    e.sramPj = energy.sramEnergy(
        static_cast<std::uint64_t>(out.traffic.total() * 2.0), true);
    e.sfuPj = energy.sfuEnergy(
        static_cast<std::uint64_t>(sfu_ops * steps_l));
    if (t.bitReorderPerWeightBit > 0.0) {
        // Reordering happens on every operand bit streamed into the
        // bit-serial PEs, so it scales with compute volume.
        e.bitReorderPj = energy.bitReorderEnergy(
            static_cast<std::uint64_t>(lin_adds *
                                       t.bitReorderPerWeightBit *
                                       steps_l));
    }
    return out;
}

ExecutionPlan
BaselineAccelerator::plan(const model::LlmConfig &model,
                          const model::Workload &task) const
{
    return composePlan(model, task, hw_.clockGhz, 1,
                       [&](const PhasePlan &p) {
                           return simulatePhase(p, model);
                       });
}

RunMetrics
BaselineAccelerator::run(const model::LlmConfig &model,
                         const model::Workload &task) const
{
    return plan(model, task).fold(name());
}

} // namespace mcbp::accel
