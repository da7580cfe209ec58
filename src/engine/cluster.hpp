/**
 * @file
 * Multi-chip cluster accelerator: shards one model across N chips via
 * tensor parallelism behind the same engine::Accelerator interface.
 *
 * A ClusterAccelerator wraps any single-chip Accelerator and rescales
 * its per-phase PhaseMetrics to the Megatron-style TP decomposition:
 * the weight stream and the linear (GEMM) work split 1/N — each chip
 * stores and streams 1/N of every weight matrix — and the attention /
 * SFU work partitions by heads (N must divide the model's head count).
 * What parallelism does not remove, it adds: two activation
 * all-reduces per decoder layer (after the attention output projection
 * and after the FFN down projection), priced per collective by
 * sim::Interconnect and charged on the critical path in cycles and per
 * chip in energy (EnergyBreakdown::interconnectPj) — so a tp=N run is
 * faster than one chip but never cheaper than the interconnect floor.
 *
 * tp=1 is the identity: plan() returns the wrapped chip's plan
 * verbatim (and run() its fold), so a tp=1 cluster is bit-identical
 * to the bare adapter (tests/test_cluster.cpp asserts this down to
 * the serving report). Sharding rescales the plan's phase totals AND
 * each layer segment, so a sharded plan still slices exactly — which
 * is how a PipelineAccelerator wraps a cluster (pp= over tp=); the
 * reverse nesting is rejected in the constructor.
 *
 * Clusters NEST: wrapping a cluster in a cluster builds a hierarchical
 * tensor group (registry: tp= inner tier, tp2= outer tier), priced by
 * sim::CollectiveTopology — the constructor flattens the chain into
 * one innermost-first tier stack and plan() shards the BASE chip's
 * plan by the combined degree, so the inner fast fabric carries the
 * full activation vector and the outer boundary fabric only the
 * 1/degree shard its reduce-scatter leaves behind. A single tier
 * prices through the same topology, which delegates verbatim to the
 * flat ring — so existing tp= specs are bit-identical.
 *
 * KV capacity scales with the fleet: capabilities() advertises N x
 * the chip's HBM and multiplies Capabilities::kvShards by N — each shard
 * stores 1/N of every token's KV (the head split), so per-shard KV
 * capacity is 1/N of the fleet HBM and the serving engine's aggregate
 * block accounting is exact by shard symmetry (kv_block_manager.hpp).
 */
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "engine/accelerator.hpp"
#include "sim/collective.hpp"
#include "sim/interconnect.hpp"

namespace mcbp::engine {

/** Cluster shape and fabric parameters. */
struct ClusterOptions
{
    /** Chips the model is sharded across (must divide head count). */
    std::size_t tensorParallel = 1;
    sim::InterconnectConfig interconnect;
};

/** N tensor-parallel chips presented as one Accelerator. */
class ClusterAccelerator : public Accelerator
{
  public:
    ClusterAccelerator(std::unique_ptr<Accelerator> chip,
                       ClusterOptions opts);

    std::string name() const override { return name_; }
    Capabilities capabilities() const override;
    std::string configSummary() const override;
    /**
     * Shard the chip's plan: phase totals and every layer segment are
     * rescaled to the per-chip tensor-parallel share, each span
     * charged the all-reduces of its own layers. tp=1 returns the
     * chip's plan verbatim (bit-identical).
     */
    accel::ExecutionPlan plan(const model::LlmConfig &model,
                              const model::Workload &task) const override;
    /** Sharding changes no profile keys: forward the chip's needs. */
    void
    profileRequests(const model::LlmConfig &model,
                    const model::Workload &task,
                    std::vector<accel::ProfileRequest> &out) const override
    {
        chip_->profileRequests(model, task, out);
    }
    std::shared_ptr<accel::ProfileCache> profileCache() const override
    {
        return chip_->profileCache();
    }

    const Accelerator &underlying() const { return *chip_; }
    const ClusterOptions &options() const { return opts_; }
    /** Flattened fabric hierarchy, innermost tier first. */
    const std::vector<sim::CollectiveTier> &tiers() const
    {
        return topology_.tiers();
    }
    /** Combined tensor degree across all nested tiers. */
    std::size_t totalDegree() const { return totalDegree_; }

  private:
    accel::PhaseMetrics shardPhase(const accel::PhaseMetrics &phase,
                                   double hidden, double layerSpan,
                                   double phaseTokens, double steps,
                                   double gangProcessors) const;

    std::unique_ptr<Accelerator> chip_;
    ClusterOptions opts_;
    /** Display name, composed once at construction. */
    std::string name_;
    /** Fabric tiers of the flattened cluster chain, innermost first,
     *  priced at the base chip's clock. */
    sim::CollectiveTopology topology_{{}, 1.0};
    /** The innermost non-cluster accelerator (not owned; owned by the
     *  chip_ chain). Its plan is the sharding base for the whole
     *  hierarchy, so nested tiers never rescale an already-sharded
     *  plan. */
    const Accelerator *base_ = nullptr;
    /** Product of all tier degrees. */
    std::size_t totalDegree_ = 1;
};

} // namespace mcbp::engine
