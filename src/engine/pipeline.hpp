/**
 * @file
 * Pipeline-parallel accelerator: partitions a model's decoder layers
 * across pp= stages behind the same engine::Accelerator interface.
 *
 * A PipelineAccelerator wraps any Accelerator — a bare adapter or a
 * tensor-parallel ClusterAccelerator, which is how `pp=` composes
 * with `tp=` in one spec — and treats the wrapped hardware as ONE
 * stage's worth of chips, replicated pp times. Unlike the cluster's
 * 1/N rescale of a finished phase, the pipeline divides the *plan*:
 * stage s owns a contiguous layer range priced exactly by
 * ExecutionPlan::slice() (pp must divide the layer count, which also
 * keeps the per-stage KV shards symmetric).
 *
 * Timing model:
 *  - Prefill is micro-batched (`mb=` knob): the batch flows through
 *    the stages in mb equal micro-batches, so the phase costs the
 *    fill traversal (every stage once) plus (mb-1) repeats of the
 *    bottleneck stage — T = sum_s t_s + (mb-1) max_s t_s — plus the
 *    (pp-1)-hop fill latency. Per-micro-batch stage time divides the
 *    stage's divisible work by mb but NOT its fixed collective floor
 *    (smaller all-reduces do not shrink hop latency), so micro-
 *    batching has honestly diminishing returns; the fill/drain bubble
 *    fraction (prefillTiming) shrinks monotonically in mb.
 *  - Decode is token-serial for one request (token t+1 needs t), so
 *    a decode step traverses all stages: the per-request linear work
 *    does not shrink. What the pipeline DOES buy decode is the weight
 *    stream — each stage streams only its own layers' weights from
 *    its own HBM, concurrently, so the shared stream term divides by
 *    pp. Inter-stage boundary activations add (pp-1) sends per step:
 *    serialization joins the per-request linear work, hop latency
 *    joins the batch-invariant fixedStepCycles floor. (With several
 *    requests in flight the serving engine additionally overlaps
 *    distinct requests' traversals across stages — see
 *    Capabilities::pipelineStages and event_core.)
 *
 * pp=1 is the identity: plan()/run(), name, capabilities and
 * configSummary are the wrapped accelerator's, bit-for-bit
 * (tests/test_pipeline.cpp asserts this down to the serving report).
 *
 * Capabilities: processors and HBM scale by pp, and kvShards picks up
 * a factor pp — each stage stores only its own layers' KV, an even
 * layer split, so the serving engine's aggregate block ledger remains
 * exact per-stage accounting by symmetry.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "engine/accelerator.hpp"
#include "sim/interconnect.hpp"

namespace mcbp::engine {

/** Pipeline shape and fabric parameters. */
struct PipelineOptions
{
    /** Stages the layer stack splits across (must divide layers). */
    std::size_t pipelineParallel = 1;
    /** Prefill micro-batches per request batch (>= 1). */
    std::size_t microBatches = 1;
    /** Inter-stage link (same knobs as the cluster fabric). */
    sim::InterconnectConfig interconnect;
};

/** pp pipeline stages presented as one Accelerator. */
class PipelineAccelerator : public Accelerator
{
  public:
    PipelineAccelerator(std::unique_ptr<Accelerator> stage,
                        PipelineOptions opts);

    std::string name() const override { return name_; }
    Capabilities capabilities() const override;
    std::string configSummary() const override;
    accel::ExecutionPlan plan(const model::LlmConfig &model,
                              const model::Workload &task) const override;
    /** Stage partitioning changes no profile keys: forward. */
    void
    profileRequests(const model::LlmConfig &model,
                    const model::Workload &task,
                    std::vector<accel::ProfileRequest> &out) const override
    {
        stage_->profileRequests(model, task, out);
    }
    std::shared_ptr<accel::ProfileCache> profileCache() const override
    {
        return stage_->profileCache();
    }

    const Accelerator &underlying() const { return *stage_; }
    const PipelineOptions &options() const { return opts_; }

    /** Prefill pipeline timing decomposition (for benches/tests). */
    struct Timing
    {
        double totalCycles = 0.0;      ///< The phase's wall clock.
        double bottleneckCycles = 0.0; ///< Slowest per-micro-batch stage.
        /** Fill/drain share of the phase: (sum_s t_s - max_s t_s) / T.
         *  0 at pp=1; monotonically non-increasing in mb. */
        double bubbleFraction = 0.0;
    };

    /** The prefill timing the plan() composition used. */
    Timing prefillTiming(const model::LlmConfig &model,
                         const model::Workload &task) const;

  private:
    std::unique_ptr<Accelerator> stage_;
    PipelineOptions opts_;
    /** Display name, composed once at construction. */
    std::string name_;
};

} // namespace mcbp::engine
