/**
 * @file
 * The unified accelerator abstraction of the serving engine.
 *
 * Every hardware model the evaluation compares — MCBP in its
 * standard/aggressive/ablation configurations, the nine SOTA baselines
 * and the A100 roofline — implements this one interface, so benches,
 * the serving simulator and future schedulers can treat a heterogeneous
 * fleet uniformly. Adapters (see adapters.hpp) bridge the concrete
 * classes in src/accel/ onto it without changing their numbers: an
 * adapter's run() is bit-identical to a direct call on the wrapped
 * class (tests/test_engine.cpp asserts this).
 *
 * The costing contract is two-level (execution_plan.hpp): plan() is
 * the single virtual costing source, returning the phase totals plus
 * the uniform per-stage cost; run() is a non-virtual compatibility
 * shim that folds the plan under runName() (a verbatim copy of the
 * totals, hence bit-identical to the pre-plan API). Composed
 * topologies build on the decomposition: ClusterAccelerator rescales
 * the plan's phases to tensor-parallel shards, PipelineAccelerator
 * splits the stack into pp= equal stages.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "accel/execution_plan.hpp"
#include "accel/profile_cache.hpp"
#include "accel/report.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"

namespace mcbp::accel {
class PhaseMemo;
} // namespace mcbp::accel

namespace mcbp::engine {

/**
 * What a design can exploit (paper Table 1's capability columns) plus
 * the operating point, for introspection by schedulers and benches.
 */
struct Capabilities
{
    bool gemmOptimized = false;      ///< Linear-path redundancy.
    bool attentionOptimized = false; ///< Attention-path redundancy.
    bool weightTrafficOptimized = false; ///< Weight compression/pruning.
    bool kvTrafficOptimized = false; ///< KV-cache traffic reduction.
    bool decodeOptimized = false;    ///< Mechanisms survive decoding.
    bool bitLevel = false;           ///< Bit-level (vs value-level).
    std::size_t processors = 1;      ///< Chips ganged per run.
    double clockGhz = 1.0;
    /** Aggregate HBM capacity in bytes across all chips (0 = unknown).
     *  Serving admission derives its KV budget from this. */
    double hbmCapacityBytes = 0.0;
    /**
     * Shards the KV cache splits across: the tensor-parallel head
     * split (ClusterAccelerator, 1/tp of every token's KV per shard)
     * times the pipeline layer split (PipelineAccelerator, each stage
     * stores only its own layers' KV — 1/pp per stage when pp divides
     * the layer count, which the pipeline requires). Per-shard KV
     * capacity is hbmCapacityBytes/kvShards, and both splits keep the
     * shards symmetric, so the aggregate block ledger the serving
     * engine keeps is exactly kvShards symmetric per-shard copies and
     * paged serving charges the right per-stage pool.
     */
    std::size_t kvShards = 1;
    /**
     * Pipeline stages the layer stack is partitioned across
     * (PipelineAccelerator sets its pp degree; 1 for an unpipelined
     * design). The serving engine's decode costing overlaps distinct
     * requests' traversals across this many stages.
     */
    std::size_t pipelineStages = 1;
    /**
     * Data-parallel replicas behind this accelerator (FleetAccelerator
     * sets its dp degree; 1 for a single serving group). Each replica
     * is a full pp= x tp= group; requests are routed to exactly one, so
     * a replica's plan() numbers are unchanged by the fleet — only the
     * aggregate capacity fields above multiply.
     */
    std::size_t replicas = 1;
};

/** Abstract accelerator: one (model, task) inference run at a time. */
class Accelerator
{
  public:
    virtual ~Accelerator() = default;

    /** Display name, e.g. "MCBP(S)", "Spatten", "A100". */
    virtual std::string name() const = 0;

    /** Capability/operating-point introspection. */
    virtual Capabilities capabilities() const = 0;

    /** Human-readable configuration summary (one or more lines). */
    virtual std::string configSummary() const = 0;

    /**
     * Plan one (model, task) inference: the single costing source.
     * Returns the phase totals plus the per-stage cost (cycles,
     * energy, traffic, weight-stream vs. compute split) that composed
     * topologies partition.
     *
     * @p memo is a trace costing's phase memo (accel/phase_memo.hpp):
     * wrappers pass it to the chip they plan on, the MCBP chip prices
     * its phases through it, and designs with no phase split ignore
     * it. The plan is bit-identical with or without it.
     */
    virtual accel::ExecutionPlan
    plan(const model::LlmConfig &model, const model::Workload &task,
         accel::PhaseMemo *memo = nullptr) const = 0;

    /**
     * Simulate one (model, task) inference run. Compatibility shim:
     * folds plan() under runName() (a verbatim copy of its phase
     * totals), so run() is bit-identical to the pre-plan API by
     * construction — external callers migrating to plan() lose
     * nothing.
     */
    accel::RunMetrics
    run(const model::LlmConfig &model, const model::Workload &task) const
    {
        return plan(model, task).fold(runName());
    }

    /**
     * The name run() reports: that of the accelerator whose plan it
     * folds. name() by default; a wrapper that hands out another
     * accelerator's plan verbatim (a fleet's replica) reports that
     * one's, and a forwarding decorator forwards it.
     */
    virtual std::string runName() const { return name(); }

    /**
     * Append the measured profiles a run(model, task) would demand to
     * @p out, so callers (Registry::warmFleet, ServingSimulator) can
     * precompute them in parallel via ProfileCache::warm() before the
     * serial simulation path needs them. Implementations append
     * through accel::announce(), which skips a need @p out already
     * holds: calling this once per trace shape leaves one request per
     * profile key, at the cost of one comparison per call. Designs
     * that profile nothing (the dense systolic reference) append
     * nothing.
     */
    virtual void
    profileRequests(const model::LlmConfig &model,
                    const model::Workload &task,
                    std::vector<accel::ProfileRequest> &out) const
    {
        (void)model;
        (void)task;
        (void)out;
    }

    /**
     * The profile cache run() draws from, or nullptr for designs that
     * do not profile. Every accelerator built by one Registry returns
     * the same cache.
     */
    virtual std::shared_ptr<accel::ProfileCache> profileCache() const
    {
        return nullptr;
    }
};

} // namespace mcbp::engine
