#include "engine/cluster.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.hpp"
#include "engine/pipeline.hpp"

namespace mcbp::engine {

ClusterAccelerator::ClusterAccelerator(std::unique_ptr<Accelerator> chip,
                                       ClusterOptions opts)
    : chip_(std::move(chip)), opts_(opts)
{
    fatalIf(!chip_, "cluster needs a chip accelerator");
    fatalIf(opts_.tensorParallel == 0,
            "tensor-parallel degree must be >= 1");
    // Pipeline-over-cluster IS modeled — stage partitioning divides
    // layer segments, not finished runs — but only in that order:
    // build PipelineAccelerator(Cluster), never Cluster(Pipeline),
    // whose hop floors a 1/N rescale would corrupt.
    fatalIf(dynamic_cast<const PipelineAccelerator *>(chip_.get()) !=
                nullptr,
            "a cluster cannot shard a pipeline; compose the other way "
            "around (pp= stages of tp= clusters)");
    // Nested clusters flatten into one innermost-first tier stack so
    // plan() shards the BASE chip's plan once by the combined degree
    // and prices collectives hierarchically (sim/collective.hpp) —
    // never the inner cluster's already-sharded plan, which would
    // double-count the inner fabric.
    std::vector<sim::CollectiveTier> tiers;
    if (const auto *inner =
            dynamic_cast<const ClusterAccelerator *>(chip_.get())) {
        tiers = inner->tiers();
        base_ = inner->base_;
        totalDegree_ = inner->totalDegree_ * opts_.tensorParallel;
    } else {
        base_ = chip_.get();
        totalDegree_ = opts_.tensorParallel;
    }
    if (opts_.tensorParallel > 1)
        tiers.push_back({opts_.tensorParallel, opts_.interconnect});
    // The fabric counts cycles at the base chip's clock; plan() checks
    // that every plan it shards was priced at that clock.
    topology_ = sim::CollectiveTopology(std::move(tiers),
                                        base_->capabilities().clockGhz);
    name_ = opts_.tensorParallel == 1
                ? chip_->name()
                : chip_->name() + "[tp" +
                      std::to_string(opts_.tensorParallel) + "]";
}

Capabilities
ClusterAccelerator::capabilities() const
{
    Capabilities c = chip_->capabilities();
    c.processors *= opts_.tensorParallel;
    c.hbmCapacityBytes *= static_cast<double>(opts_.tensorParallel);
    // Every shard stores 1/N of each token's KV (the head split), so
    // per-shard KV capacity is 1/N of the fleet HBM advertised above;
    // serving's block ledger stays aggregate-exact by symmetry (see
    // kv_block_manager.hpp). Multiplicative so nested tiers compose.
    c.kvShards *= opts_.tensorParallel;
    return c;
}

std::string
ClusterAccelerator::configSummary() const
{
    if (opts_.tensorParallel == 1) // identity: no fabric exists.
        return chip_->configSummary();
    std::ostringstream os;
    os << name() << ": " << opts_.tensorParallel
       << "-way tensor parallel (weights/GEMM split 1/N, attention by "
          "heads), ring all-reduce fabric @ "
       << opts_.interconnect.linkGBs << " GB/s, "
       << opts_.interconnect.pJPerBit << " pJ/bit, "
       << opts_.interconnect.hopCycles << "-cycle hops\n"
       << chip_->configSummary();
    return os.str();
}

/**
 * Rescale one phase to the per-chip shard: weight stream and linear
 * work 1/N (the composed linear segment scales with them), attention
 * and SFU 1/N (partitioned by heads), then charge 2 activation
 * all-reduces per layer per step on the critical path and per chip in
 * energy.
 *
 * @param layerSpan decoder layers the sharded span covers (the whole
 *        stack for phase totals, a segment's count for plan segments)
 *        — each layer pays its own two all-reduces.
 * @param phaseTokens tokens whose activations one all-reduce carries
 *        (prompt x batch for prefill, batch for one decode step),
 *        already divided by the wrapped gang's data-parallel share.
 */
accel::PhaseMetrics
ClusterAccelerator::shardPhase(const accel::PhaseMetrics &phase,
                               double hidden, double layerSpan,
                               double phaseTokens, double steps,
                               double gangProcessors) const
{
    const double n = static_cast<double>(totalDegree_);

    // Invert the model's own composition to find the non-linear rest.
    // A wrapped model's own fixed per-step floor is excluded: latency
    // does not shrink with more chips.
    const double linear_segment = accel::composedLinearCycles(
        phase.weightStreamCycles, phase.linearWorkCycles,
        phase.memorySerialized);
    const double rest = std::max(
        0.0, phase.cycles - linear_segment - phase.fixedStepCycles);

    // One all-reduce carries the layer's activation vector for the
    // tokens this gang member processes in one step. Activation width
    // is a property of the innermost (intra-group) fabric.
    const double bytes_per_collective =
        phaseTokens * hidden *
        topology_.tiers().front().link.bytesPerActivation /
        gangProcessors;
    const double collectives = 2.0 * layerSpan * steps;
    const sim::InterconnectCost per_collective =
        topology_.allReduce(bytes_per_collective);
    const double ic_cycles = per_collective.cycles() * collectives;
    const double ic_pj = per_collective.energyPj * collectives;

    accel::PhaseMetrics out = phase;
    out.cycles = linear_segment / n + rest / n +
                 phase.fixedStepCycles + ic_cycles;
    out.weightStreamCycles = phase.weightStreamCycles / n;
    out.linearWorkCycles = phase.linearWorkCycles / n;
    out.gemmCycles = phase.gemmCycles / n;
    out.weightLoadCycles = phase.weightLoadCycles / n;
    out.kvLoadCycles = phase.kvLoadCycles / n;
    // Breakdown: only the bandwidth share joins otherCycles; the hop
    // latency lives in fixedStepCycles so contributors are not
    // double-counted.
    out.otherCycles = phase.otherCycles / n +
                      per_collective.bandwidthCycles * collectives;
    // The hop-latency share of the collectives is a fixed per-step
    // floor: a serving batch shares each collective, so it must not
    // be multiplied by the batch size when the phase is re-composed.
    out.fixedStepCycles =
        phase.fixedStepCycles + per_collective.latencyCycles * collectives;

    // Traffic and energy are per-chip quantities (RunMetrics::joules
    // multiplies by processors); logical work (denseMacs/executedAdds)
    // stays the cluster total, like the wrapped gang reports it.
    out.traffic.weightBytes = phase.traffic.weightBytes / n;
    out.traffic.kvBytes = phase.traffic.kvBytes / n;
    out.traffic.predictionBytes = phase.traffic.predictionBytes / n;
    out.traffic.actBytes = phase.traffic.actBytes / n;

    out.energy.computePj = phase.energy.computePj / n;
    out.energy.bitReorderPj = phase.energy.bitReorderPj / n;
    out.energy.camPj = phase.energy.camPj / n;
    out.energy.codecPj = phase.energy.codecPj / n;
    out.energy.bgppPj = phase.energy.bgppPj / n;
    out.energy.sramPj = phase.energy.sramPj / n;
    out.energy.dramPj = phase.energy.dramPj / n;
    out.energy.sfuPj = phase.energy.sfuPj / n;
    out.energy.interconnectPj = phase.energy.interconnectPj / n + ic_pj;
    return out;
}

accel::ExecutionPlan
ClusterAccelerator::plan(const model::LlmConfig &model,
                         const model::Workload &task) const
{
    if (model.heads % totalDegree_ != 0)
        fatal("tensor-parallel degree " + std::to_string(totalDegree_) +
              " must divide " + model.name + "'s " +
              std::to_string(model.heads) + " attention heads");
    if (opts_.tensorParallel == 1)
        return chip_->plan(model, task); // identity: bit-for-bit.

    // Shard the BASE chip's plan, in place, by the combined degree of
    // the flattened tier stack — for an unnested cluster base_ is the
    // wrapped chip and this is the single-tier path, bit-identical to
    // the flat ring (CollectiveTopology delegates).
    accel::ExecutionPlan out = base_->plan(model, task);
    fatalIf(out.clockGhz != topology_.clockGhz(),
            "cluster chip planned at a clock other than the one its "
            "capabilities advertise");

    const double gang = static_cast<double>(out.processors);
    const double hidden = static_cast<double>(model.hidden);
    const double prefill_tokens =
        static_cast<double>(task.promptLen * task.batch);
    const double decode_tokens = static_cast<double>(task.batch);
    const double steps = static_cast<double>(task.decodeLen);

    out.accelerator = name_;
    out.processors *= totalDegree_;
    out.prefill = shardPhase(out.prefill, hidden,
                             static_cast<double>(model.layers),
                             prefill_tokens, 1.0, gang);
    if (task.decodeLen > 0)
        out.decode = shardPhase(out.decode, hidden,
                                static_cast<double>(model.layers),
                                decode_tokens, steps, gang);
    // Shard each layer segment the same way, each span paying the
    // collectives of its own layers; a single full-stack segment
    // shards to exactly the totals above.
    for (accel::PlanSegment &seg : out.segments) {
        const double span = static_cast<double>(seg.layerCount);
        seg.prefill = shardPhase(seg.prefill, hidden, span,
                                 prefill_tokens, 1.0, gang);
        if (task.decodeLen > 0)
            seg.decode = shardPhase(seg.decode, hidden, span,
                                    decode_tokens, steps, gang);
    }
    return out;
}

} // namespace mcbp::engine
