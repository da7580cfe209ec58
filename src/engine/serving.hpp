/**
 * @file
 * Multi-request serving simulator with continuous batching.
 *
 * Takes a request trace (model::Request: arrival time + per-request
 * prompt/decode lengths) and an engine::Accelerator, and schedules the
 * requests the way an LLM serving engine does: requests join the batch
 * as they arrive (up to maxBatch), prefill runs when a request is
 * admitted, and every scheduler iteration advances all in-flight
 * requests by one decode token, retiring finished ones immediately
 * (continuous batching, as in Orca/vLLM).
 *
 * simulate() is two public stages, and every serving path runs both:
 *  - costTrace() prices each distinct request shape from a batch-1 run
 *    of the wrapped Accelerator (a ShapeTable) and costs every request
 *    against it;
 *  - serve() plays a costed trace and its fault timeline through the
 *    discrete-event loop of event_core.hpp, which delegates admission
 *    order to a pluggable Scheduler (scheduler.hpp) and KV accounting
 *    to the selected KvPolicy (kv_block_manager.hpp), and aggregates
 *    the report.
 * A dp= fleet (fleet.hpp) costs its trace once and calls serve() per
 * replica on a slice of that costed trace and of its fault timeline.
 *
 * The cost model is built from the per-phase PhaseMetrics the unified
 * run() interface already produces for a batch-1 run of each request:
 *   - prefill costs the request's own prefill cycles;
 *   - a decode iteration re-composes the linear segment's overlap at
 *     the batch's size: max(shared weight stream, summed per-request
 *     linear work) — the weight fetch/decode is shared by everyone
 *     decoding that step (the amortization Fig 20's B=128 GPU point
 *     exploits), while GEMM compute scales with the batch — plus the
 *     summed per-token attention/SFU cycles. Energy is split the same
 *     way, so batching lowers J/token as it lowers cycles.
 * This makes batched total busy time provably <= the serial sum of the
 * individual runs, with equality at maxBatch=1.
 *
 * Serving is memory-bounded when a KV capacity is configured
 * (kvCapacityBytes > 0; any value <= 0 means unbounded — the unified
 * sentinel). Under the default `reserve` policy each request reserves
 * kvBytesPerToken x (prompt + decode) bytes at admission and holds
 * them until completion. Under `paged`, KV is allocated in blocks of
 * kvBlockTokens tokens as requests actually grow, admission charges
 * only current occupancy, and KV-pressure preempts the youngest
 * running request for recompute — its restart prefill (prompt +
 * generated tokens) is re-priced through the accelerator's prefill
 * path. Either way peak residency (kvPeakBytes) never exceeds the
 * budget; the report's preemption/recompute counters and queue-time
 * percentiles expose what the bound costs. Requests that generate no
 * tokens (decodeLen == 0) retain no KV and are never charged for any.
 *
 * Requests for different models never share a batch. Under the default
 * strict-FIFO policy a different-model request at the queue head pauses
 * admission until the current batch drains (bounded wait — skipping it
 * would starve that model under continuous same-model arrivals); the
 * skip-ahead policy makes the opposite trade.
 */
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "accel/plan_cache.hpp"
#include "engine/accelerator.hpp"
#include "engine/event_core.hpp"
#include "engine/kv_block_manager.hpp"
#include "engine/scheduler.hpp"
#include "model/request.hpp"
#include "sim/fault_model.hpp"

namespace mcbp::engine {

/** Retry/SLO knobs of fault-tolerant serving (only consulted when
 *  ServingOptions::faults is enabled). The ServingSimulator
 *  constructor fatal()s on a negative or non-finite backoff or
 *  deadline. */
struct RetryOptions
{
    /** Fault-kill restarts before a request is dropped. */
    std::size_t maxRetries = 3;
    /** Capped exponential backoff: retry n waits
     *  min(cap, base * 2^(n-1)) simulated seconds after the kill. */
    double backoffBaseSeconds = 0.05;
    double backoffCapSeconds = 1.0;
    /** Per-request completion deadline from arrival (0 = none).
     *  Queued or retrying work past it is dropped; an actively
     *  decoding request runs to completion and merely misses the SLO
     *  (counted against sloAttainment/goodput, not dropped). */
    double deadlineSeconds = 0.0;
};

/** Scheduler knobs. */
struct ServingOptions
{
    /** Maximum requests decoding together (continuous batch size). */
    std::size_t maxBatch = 32;
    /** Admission-order policy (see scheduler.hpp). */
    SchedulerPolicy policy = SchedulerPolicy::Fifo;
    /**
     * KV-cache capacity in bytes the in-flight requests may hold
     * (<= 0 = unbounded; the one sentinel shared with the cluster
     * path's Capabilities::hbmCapacityBytes, whose 0 means unknown).
     * A deployment derives it from the accelerator's
     * Capabilities::hbmCapacityBytes minus the resident weights. On a
     * dp= fleet it is the fleet budget, split evenly across replicas.
     */
    double kvCapacityBytes = 0.0;
    /** KV admission policy (kv_block_manager.hpp). `reserve` is the
     *  conservative pre-paging rule and the default; `paged` admits
     *  against current occupancy with preempt-and-recompute. */
    KvPolicy kvPolicy = KvPolicy::Reserve;
    /** Tokens per KV block under the paged policy. */
    std::size_t kvBlockTokens = 16;
    /** Paged admission's free-space watermark (see KvOptions). */
    double kvLowWatermark = 0.05;
    /**
     * Aging weight of the shortest-prompt scheduler (see
     * makeScheduler): key cycles credited per cycle waited, bounding
     * long-prompt starvation. 0 restores pure SJF.
     */
    double sjfAgingWeight = 1.0;
    /**
     * Thread cap for the profile-cache warm-up that precedes request
     * costing (parallel::parallelFor semantics: 0 = full global pool,
     * 1 = serial). Either way the profiled stats — and therefore the
     * whole report — are bit-identical; this only changes wall-clock.
     */
    std::size_t profileThreads = 0;
    /**
     * Thread cap for the per-shape pricing fan-out itself (same
     * semantics). Each distinct shape is priced by its own task with
     * no shared lock, and the results land in shape order, so the
     * costed trace — and the whole report — is bit-identical at every
     * thread count.
     */
    std::size_t costingThreads = 0;
    /**
     * Decode-iteration stepping of the event core: Auto resolves the
     * MCBP_SERVING_STEP environment variable (default: coalesced).
     * See event_core.hpp for the equivalence contract.
     */
    StepMode stepMode = StepMode::Auto;
    /**
     * Fault injection (sim/fault_model.hpp). Defaults off; a disabled
     * spec skips every fault branch and the report is bit-identical
     * to a build without the fault layer. The timeline is built over
     * the accelerator's kvShards fault domains and stream-separated
     * from trace synthesis (kFaultStream), so enabling faults never
     * perturbs the costed trace.
     */
    sim::FaultSpec faults{};
    /** Retry/backoff/deadline knobs of the fault layer. */
    RetryOptions retry{};
    /**
     * Degraded-topology accelerator (the surviving fleet after one
     * chip failure; see health.hpp's degradedSpec to derive its spec
     * string). When set, chip failures put serving in degraded mode
     * at this accelerator's prices instead of a full outage, and one
     * permanent failure is survivable. Not owned; must outlive the
     * simulator. Must run at the same clock as the primary.
     */
    const Accelerator *degradedAccel = nullptr;
};

/** Per-request outcome. */
struct RequestMetrics
{
    std::size_t id = 0;
    double arrivalSeconds = 0.0;
    /** Admission = start of this request's first prefill (queue wait
     *  ends; a preempted request keeps its first admission time). */
    double admissionSeconds = 0.0;
    double firstTokenSeconds = 0.0; ///< End of the first decode step.
    double completionSeconds = 0.0;
    std::size_t decodeTokens = 0;
    /** KV bytes of the request's largest residency while in flight
     *  (block-rounded under the paged policy; 0 when decodeTokens
     *  is 0 — prefill-only requests retain no KV). */
    double kvBytes = 0.0;
    /** Times this request was preempted for recompute (paged). */
    std::size_t preemptions = 0;
    /** Decode tokens this request re-generated after preemptions. */
    std::size_t recomputedTokens = 0;
    /** Fault-kill restarts this request survived before completing. */
    std::size_t retries = 0;
    /** Completed past its configured deadline (SLO miss; the request
     *  still ran to completion — only queued work is dropped). */
    bool sloMiss = false;
    /** Energy attributed to this request, with the shared decode
     *  weight stream amortized across its batch mates (recompute
     *  prefills included). */
    double joules = 0.0;

    double latencySeconds() const
    {
        return completionSeconds - arrivalSeconds;
    }

    /** Time spent queued before the engine started the prefill. */
    double queueSeconds() const
    {
        return admissionSeconds - arrivalSeconds;
    }
};

/** Aggregate serving outcome. */
struct ServingReport
{
    std::string accelerator;
    std::string scheduler; ///< Admission policy name.
    std::string kvPolicy;  ///< KV admission policy name.
    /** Per-request metrics, in completion order. */
    std::vector<RequestMetrics> requests;

    /**
     * The run counters (MCBP_SERVING_COUNTERS, event_core.hpp), cycle
     * counts converted to seconds. On a dp= fleet each counter folds
     * its replicas by the list's rule: degradedSeconds and
     * outageSeconds, like every summed time, add up over replicas, so
     * they can exceed the fleet's makespan.
     */
#define MCBP_REPORT_FIELD(type, stat, member, key, rule, unit) type member{};
    MCBP_SERVING_COUNTERS(MCBP_REPORT_FIELD)
#undef MCBP_REPORT_FIELD

    /** Sum of the isolated single-request run times (no batching). */
    double serialSeconds = 0.0;
    /** Sum of the isolated single-request run energies (no batching). */
    double serialJoules = 0.0;

    double meanLatencySeconds = 0.0;
    double p50LatencySeconds = 0.0;
    double p90LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;

    /** Queue-time (arrival -> admission) percentiles. */
    double p50QueueSeconds = 0.0;
    double p90QueueSeconds = 0.0;
    double p99QueueSeconds = 0.0;

    /** Time-to-first-token (arrival -> end of the first decode step;
     *  completion for prefill-only requests) percentiles. */
    double p50FirstTokenSeconds = 0.0;
    double p90FirstTokenSeconds = 0.0;
    double p99FirstTokenSeconds = 0.0;
    /** Mean time per output token after the first (over requests with
     *  >= 2 decode tokens; 0 when none qualify). */
    double meanTpotSeconds = 0.0;

    double tokensPerSecond = 0.0; ///< Generated tokens / makespan.
    double joulesPerToken = 0.0;
    double meanBatchOccupancy = 0.0; ///< Mean in-flight per iteration.

    /** kvPeakBytes / configured capacity (0 when unbounded). */
    double kvUtilization = 0.0;

    /** Paged policy: mean block fill (needed/allocated bytes) over
     *  decode iterations — 1 - internal fragmentation. 0 for reserve
     *  (no blocks exist). */
    double kvBlockUtilization = 0.0;
    /** Scheduling decisions in decision order (request ids): what the
     *  coalescing equivalence contract compares verbatim against the
     *  per-token reference (see EventStats). */
    std::vector<std::size_t> admissionOrder;
    std::vector<std::size_t> preemptionOrder;

    // ---- Availability (fault injection; zero on zero-fault runs) ----
    /** Set when the trace was non-empty but no request completed
     *  (everything rejected or dropped): the latency/TTFT/TPOT
     *  percentiles are zeroed rather than computed over an empty
     *  sample vector. */
    bool noCompletions = false;
    /** Share of the run served on the degraded topology:
     *  degradedSeconds / (replicas x makespan), so at most 1 on a
     *  fleet too (0 when the makespan is 0). */
    double degradedFraction = 0.0;
    /** SLO-compliant generated tokens / makespan. With no deadline
     *  configured every completed token is compliant, so this equals
     *  tokensPerSecond on zero-fault runs. */
    double goodputTokensPerSecond = 0.0;
    /** Fraction of the trace completed within its deadline (1 when no
     *  deadline is configured and nothing was dropped). */
    double sloAttainment = 0.0;
    /** Retry schedulings and drops in decision order (request ids) —
     *  part of the coalescing equivalence contract. */
    std::vector<std::size_t> retryOrder;
    std::vector<std::size_t> dropOrder;
    /** Per-fault-event blast radius, in timeline order. */
    struct FaultImpact
    {
        std::size_t eventId = 0;
        double seconds = 0.0; ///< Scheduled instant.
        sim::FaultKind kind = sim::FaultKind::ChipFail;
        std::size_t chip = 0;
        bool permanent = false;
        std::size_t killed = 0;
        std::size_t dropped = 0;
    };
    std::vector<FaultImpact> faultLog;

    /** Throughput gain of batching vs serving the trace serially. */
    double batchingSpeedup() const
    {
        return busySeconds > 0.0 ? serialSeconds / busySeconds : 1.0;
    }
};

/**
 * Recompute every sample-derived aggregate of @p report from its
 * requests vector (latency/queue/TTFT percentiles, mean TPOT,
 * tokens-per-second, goodput, SLO attainment, joules-per-token) —
 * makespanSeconds must already be set. Sets noCompletions and leaves
 * the fields zeroed when requests is empty. Shared by serve()'s
 * aggregation and the fleet report merge (engine/fleet.hpp), so a
 * merged fleet report's percentiles follow exactly the single-engine
 * definition.
 */
void finalizeServingAggregates(ServingReport &report,
                               std::size_t traceSize);

/**
 * The immutable prices of a trace's distinct request shapes, sorted on
 * (promptLen, decodeLen, model, task): the prepare-once half of trace
 * costing. Each entry is priced once per topology, and every costed
 * request of that shape points at it. A fleet prices its full trace
 * once; every replica run and failover re-run serves copies of those
 * costed requests, so they point into the same table.
 */
struct ShapeTable
{
    std::vector<PricedShape> shapes;
};

/** Continuous-batching serving simulator over one accelerator. */
class ServingSimulator
{
  public:
    explicit ServingSimulator(const Accelerator &accel,
                              ServingOptions opts = {});

    /**
     * Simulate @p trace to completion: on a fleet accelerator through
     * the FleetRouter, otherwise exactly serve(costTrace(trace), the
     * timeline of ServingOptions::faults over the accelerator's
     * kvShards fault domains). An empty trace yields a well-defined
     * zeroed report (names set, every metric 0) rather than an error —
     * callers filtering traces need no special case.
     */
    ServingReport simulate(const std::vector<model::Request> &trace) const;

    /** The costing stage's output: every request priced from a batch-1
     *  run, plus the serial-baseline totals. */
    struct CostedTrace
    {
        /** Trace order from costTrace(); serve() plays them in any
         *  order its caller built. */
        std::vector<CostedRequest> costs;
        double clockGhz = 0.0;
        /** Sum of the isolated single-request run times/energies. */
        double serialSeconds = 0.0;
        double serialJoules = 0.0;
        /** The shape table every CostedRequest::shape points into. */
        std::shared_ptr<const ShapeTable> table;

        /** Distinct shapes in the table (0 for an empty trace). */
        std::size_t shapeCount() const
        {
            return table ? table->shapes.size() : 0;
        }
    };

    /**
     * The costing stage: sort @p trace once into its distinct shapes,
     * warm the profile cache once per distinct (model, task,
     * promptLen), then price each shape once per topology with
     * Accelerator::run() on up to ServingOptions::costingThreads
     * threads — no plan cache, no lock. The serial sums accumulate in
     * trace order, so the result is bit-identical at every thread
     * count. The costed requests point into @p trace, which must
     * outlive them.
     */
    CostedTrace costTrace(const std::vector<model::Request> &trace) const;

    /**
     * The serving stage: play @p costed through the event loop and
     * aggregate the report. @p timeline is the run's fault events in
     * seconds, sorted and id-stamped (sim::buildFaultTimeline); the
     * fault layer is on exactly when ServingOptions::faults is
     * enabled, so retry and deadline knobs bind even when the timeline
     * is empty. fatal() on a non-empty timeline with faults disabled.
     * An empty costed trace yields the zeroed report.
     */
    ServingReport serve(CostedTrace costed,
                        std::vector<sim::FaultEvent> timeline) const;

    /**
     * The folded-cost cache of the paged recompute re-pricer (trace
     * costing goes through the shape table and never touches it).
     * Owned per simulator (keyed by accelerator identity, so sharing
     * wider would also be sound); a fleet's parallel replica runs all
     * serve() on one simulator and share it through its thread-safe
     * singleflight. Exposed for tests and cache-effectiveness
     * reporting.
     */
    std::shared_ptr<accel::PlanCache> planCache() const
    {
        return planCache_;
    }

  private:
    KvOptions kvOptions() const;
    /** pricedTopologies() of this simulator's faults and degraded
     *  accelerator. */
    std::size_t topologies() const;
    /** Recompute prefill re-pricer on topology @p t. */
    PrefillPricer repricer(std::size_t t) const;
    /** Price the distinct shapes of @p trace into a fresh table, and
     *  set @p shapeOf[i] to the index of trace[i]'s entry. */
    std::shared_ptr<const ShapeTable>
    priceShapes(const std::vector<model::Request> &trace,
                std::vector<std::size_t> &shapeOf) const;

    /** The accelerator of each topology (degraded: null when none). */
    std::array<const Accelerator *, kTopologies> accels_;
    ServingOptions opts_;
    /** name + configSummary of each topology's accelerator: every knob
     *  that changes pricing, the re-pricer's plan-cache key prefix.
     *  Both topologies share planCache_ under distinct prefixes. */
    std::array<std::string, kTopologies> identities_;
    std::shared_ptr<accel::PlanCache> planCache_;
};

} // namespace mcbp::engine
