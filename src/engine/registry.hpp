/**
 * @file
 * Factory for the evaluation fleet: builds engine::Accelerator instances
 * from string specs, replacing the hand-rolled per-bench fleets.
 *
 * Spec grammar: `name[:key=value[,key=value...]]`, case-insensitive.
 * A key may appear once (`tp=4,TP=2` is an error). N and M are counts:
 * any whole number, so `4`, `4.0` and `4e0` read the same.
 *
 * Names:
 *   mcbp | mcbp-standard     paper standard point (alpha 0.6, all on)
 *   mcbp-aggressive          alpha 0.5 (1% accuracy loss point)
 *   mcbp-baseline            ablation baseline (all techniques off)
 *   systolic | sanger | spatten | fact | sofa | energon |
 *   bitwave | fusekna | cambricon-c         the SOTA baselines
 *   a100                     GPU roofline; a100-sw = all algorithms on
 *
 * Options (silently ignored keys are an error; every unknown key of a
 * spec is collected into ONE message alongside the design's accepted
 * keys). The topology knobs (tp= onwards) are one declared table in
 * registry.cpp that degradedSpec() (health.hpp) reads too; a knob
 * whose "requires" condition fails is rejected as
 * "option 'mb' requires pp>=2 in spec '...'":
 *   procs=N                  ganged processors (MCBP only)
 *   alpha=X                  BGPP alpha_r / profiling alpha
 *   seed=N                   profiling seed
 *   brcr|bstc|bgpp=0|1       technique toggles (MCBP and A100)
 *   tp=N                     shard across N tensor-parallel chips
 *                            (any design; builds a ClusterAccelerator)
 *   pp=N                     split the decoder layers across N
 *                            pipeline stages (any design; builds a
 *                            PipelineAccelerator over the tp= cluster
 *                            when both are given; N must divide the
 *                            model's layer count)
 *   mb=N                     prefill micro-batches per batch
 *                            (requires pp>=2)
 *   tp2=M                    tier M tp= groups over the boundary
 *                            fabric (hierarchical all-reduce; nested
 *                            ClusterAccelerator; requires tp>=2)
 *   dp=N                     replicate the whole pp= x tp= group N
 *                            ways behind a FleetAccelerator (each
 *                            request served by one replica; dp=1 is
 *                            bit-identical to no dp= at serving time)
 *   route=least|rr           fleet replica-selection policy:
 *                            least-loaded by outstanding KV bytes
 *                            (default) or round-robin (requires
 *                            dp>=2)
 *   linkgbs|linkpj|hops=X    tier-1 fabric knobs: link GB/s, pJ/bit,
 *                            per-hop cycles of the intra-group
 *                            all-reduce ring (requires tp>=2 or
 *                            pp>=2)
 *   linkgbs2|linkpj2|hops2=X tier-2 (boundary) fabric knobs, shared
 *                            by the tp2= outer ring and the pp= stage
 *                            handoffs; default to the tier-1 values
 *                            (requires tp2>=2 or pp>=2)
 *
 * Examples: "mcbp:procs=148", "mcbp:bgpp=0", "a100:bstc=1,bgpp=1",
 *           "mcbp:procs=148,tp=4", "a100:tp=8,linkgbs=600",
 *           "mcbp-s:pp=4,tp=2,mb=8,linkgbs=600",
 *           "mcbp-s:tp=4,tp2=2,linkgbs2=100,hops2=400",
 *           "mcbp-s:dp=4,pp=4,tp=8,route=least".
 *
 * All accelerators built by one Registry share one thread-safe
 * accel::ProfileCache, so a fleet profiles each workload exactly once.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "accel/profile_cache.hpp"
#include "engine/accelerator.hpp"
#include "sim/mcbp_config.hpp"

namespace mcbp::engine {

/** Builds accelerators from string specs over a shared profile cache. */
class Registry
{
  public:
    explicit Registry(sim::McbpConfig hw = sim::defaultConfig());

    /** Build one accelerator; fatal() on unknown names/keys. */
    std::unique_ptr<Accelerator> make(const std::string &spec) const;

    /** Build several accelerators (one fleet, shared profiles). */
    std::vector<std::unique_ptr<Accelerator>>
    fleet(const std::vector<std::string> &specs) const;

    /**
     * Precompute every profile the fleet would demand for the given
     * (model, task) cross product, fanning the distinct cache keys out
     * over the thread pool (@p threads as in parallel::parallelFor:
     * 0 = full pool, 1 = serial). Cold-start construction then
     * profiles on all cores, and the stats are bit-identical to
     * demand-filling serially (see ProfileCache::warm).
     */
    void warmFleet(const std::vector<std::unique_ptr<Accelerator>> &fleet,
                   const std::vector<model::LlmConfig> &models,
                   const std::vector<model::Workload> &tasks,
                   std::size_t threads = 0) const;

    /** Name-based convenience overload (zoo model/task names). */
    void warmFleet(const std::vector<std::unique_ptr<Accelerator>> &fleet,
                   const std::vector<std::string> &models,
                   const std::vector<std::string> &tasks,
                   std::size_t threads = 0) const;

    /** Canonical spec names this registry understands. */
    static std::vector<std::string> knownSpecs();

    /** The profile cache shared by everything this registry builds. */
    const std::shared_ptr<accel::ProfileCache> &profileCache() const
    {
        return profiles_;
    }

  private:
    sim::McbpConfig hw_;
    std::shared_ptr<accel::ProfileCache> profiles_;
};

} // namespace mcbp::engine
