/**
 * @file
 * Discrete-event core of the serving engine.
 *
 * ServingSimulator costs every request from a batch-1 run of the
 * underlying Accelerator (a CostedRequest); this core then plays the
 * trace forward in cycle time: it pulls arrivals into the waiting
 * queue (indexed; waiting_queue.hpp), asks the pluggable Scheduler
 * which waiting request to admit (charging its prefill and its
 * KV-cache allocation), and advances
 * the active batch one decode token per iteration, re-composing the
 * shared weight stream against the batch's summed linear work exactly
 * the way the wrapped model composed it at batch 1.
 *
 * Memory-boundedness lives here, under one of two KV policies
 * (kv_block_manager.hpp) that share one KvBlockManager ledger:
 *
 *  - Reserve: every request holds the KV bytes of its full
 *    (prompt + decode) residency from admission to completion, as
 *    both its allocated and its needed bytes, so an admitted request
 *    can always run to completion, no preemption is ever needed (the
 *    conservative rule) and reserve fragmentation is exactly 0.
 *
 *  - Paged: KV is allocated in blocks as a request actually grows.
 *    Admission charges only the current residency, each decode
 *    iteration appends one token per active request (allocating a
 *    block when the last one fills), and when the pool cannot hold
 *    the batch's growth the youngest running request is preempted:
 *    its blocks are freed, its recompute prefill (prompt + generated
 *    tokens) is re-priced through the caller-supplied PrefillPricer
 *    (NextPrefill::Recompute), and it rejoins the head of the waiting
 *    queue.
 *
 * Either way, in-flight KV never exceeds the configured capacity
 * (<= 0 = unbounded, the unified sentinel), the peak and
 * fragmentation statistics come from the one pool, and requests whose
 * decodeLen is 0 hold no KV at all.
 *
 * Stepping: between discrete events — the next arrival, the soonest
 * completion in the batch (min remainingTokens), a paged preemption, a
 * scheduler deferral — the active set and the per-iteration cost are
 * constant, so the core advances k identical iterations in closed form
 * (StepMode::Coalesced, the default) instead of looping per token.
 * Paged block fills inside a window are charged from the batch
 * bucketed by fill iteration, so a window costs O(batch + blockTokens
 * + fills), not O(batch) per fill. Scheduling decisions (admissions,
 * preemption order, completion order) are exactly those of the
 * per-token reference; aggregate cycle/energy totals agree to ~1e-9
 * relative (the closed forms re-associate floating-point sums).
 * MCBP_SERVING_STEP=per-token selects the reference path at runtime.
 *
 * Fault tolerance (FaultInputs; sim/fault_model.hpp): fault events
 * are first-class window boundaries — a coalesced window never
 * crosses the next fault instant, a pending retry's backoff expiry,
 * or a waiting request's deadline, so the per-token and coalesced
 * paths make identical kill/retry/drop decisions. A chip failure
 * kills every in-flight request (KV freed, decode progress lost, its
 * next prefill a full-prompt Restart) and schedules a
 * retry with capped exponential backoff in simulated time; past the
 * retry budget or the per-request deadline the request drops. A
 * failed chip puts the fleet in degraded mode (requests prefill and
 * decode at their degraded-topology rates, priced per shape the first
 * time a run reads them) when the caller supplied a degraded
 * topology, in outage (no decode, no admission until repair) otherwise;
 * a second permanent failure is fatal to the fleet and drops all remaining
 * work. Deadlines apply to queued work only: an actively decoding
 * request runs to completion and merely misses the SLO. A fault-free
 * run is the same loop with nothing in it: an empty timeline, an empty
 * retry backlog and no deadline, so every fault step runs, finds
 * nothing to do, and the run is bit-identical to the pre-fault engine.
 */
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "engine/kv_block_manager.hpp"
#include "engine/scheduler.hpp"
#include "model/llm_config.hpp"
#include "model/request.hpp"
#include "sim/fault_model.hpp"

namespace mcbp::engine {

/** Decode-iteration stepping strategy of the event core. */
enum class StepMode
{
    Auto,      ///< Resolve from MCBP_SERVING_STEP (default: coalesced).
    Coalesced, ///< Closed-form multi-iteration advance between events.
    PerToken,  ///< One loop pass per decode token (reference path).
};

/** Canonical name, e.g. "coalesced", "per-token" ("auto" for Auto). */
std::string toString(StepMode mode);

/**
 * StepMode selected by the MCBP_SERVING_STEP environment variable:
 * "per-token" or "coalesced"; unset or empty means Coalesced.
 * fatal() on any other value.
 */
StepMode stepModeFromEnv();

/**
 * Topology modes a request is priced on, indexing the per-topology
 * arrays of CostedRequest: the healthy fleet, and the surviving fleet
 * after a chip failure (health.hpp), whose prices the event core
 * switches to while the fleet runs degraded (FaultInputs::degraded).
 */
inline constexpr std::size_t kHealthy = 0;
inline constexpr std::size_t kDegraded = 1;
inline constexpr std::size_t kTopologies = 2;

/** Batch-1 prices of one request on one topology. */
struct Rates
{
    /** Full-prompt prefill: a first admission and a post-kill restart
     *  pay it (a paged recompute re-prices prompt + progress). */
    double prefillCycles = 0.0;
    double prefillJoules = 0.0;
    /** Per-token weight-stream cycles (shared across a decode batch). */
    double weightCyclesPerToken = 0.0;
    /** Per-token linear work (GEMM + activations; per-request, but it
     *  overlaps the shared weight stream). */
    double linearCyclesPerToken = 0.0;
    /** Per-token attention/SFU cycles (per-request, not overlapped). */
    double otherCyclesPerToken = 0.0;
    /** Fixed per-iteration latency floor (cluster all-reduce hops),
     *  shared by the batch like the weight stream (max, not sum). */
    double fixedCyclesPerToken = 0.0;
    /** Energy split mirroring the cycle split, so the scheduler can
     *  amortize the shared weight stream in joules too. */
    double weightJoulesPerToken = 0.0;
    double otherJoulesPerToken = 0.0;
    /** Composition rule of the wrapped model's linear segment
     *  (see PhaseMetrics::memorySerialized). */
    bool memorySerialized = false;
    /**
     * Pipeline stages of the serving accelerator
     * (Capabilities::pipelineStages; 1 = unpipelined). Distinct
     * requests' decode traversals overlap across stages, so a batch's
     * summed linear/attention work drains at the bottleneck stage —
     * sum/stages — but never faster than one full traversal (the max
     * over the batch). stages=1 reduces to the plain sum.
     */
    std::size_t stages = 1;

    bool operator==(const Rates &) const = default;
};

/**
 * Batch-1 prices of one distinct request shape — (promptLen,
 * decodeLen, model, task), every input Accelerator::run() depends on —
 * on the healthy topology. The serving layer's shape table holds one
 * immutable entry per distinct shape, in the shape order; every
 * request of that shape points at it (CostedRequest::shape), and the
 * request itself carries the lengths. The model and task are handles
 * into the static zoos (model::findModel, model::findTask), so an
 * entry holds no string. Degraded-topology prices live in the shape
 * table's LazyRates, priced only for the shapes a run reads.
 */
struct PricedShape
{
    /** The resolved model, and the zoo task a paged recompute
     *  re-prices at the request's own prompt length. */
    const model::LlmConfig *config = nullptr;
    const model::Workload *task = nullptr;
    /** Prices on the healthy topology. */
    Rates rates{};
    /** The healthy batch-1 run: time, energy and clock, which the
     *  serial baseline sums per request. */
    double seconds = 0.0;
    double joules = 0.0;
    double clockGhz = 0.0;
};

/**
 * The prefill a request's next admission pays, priced only by the
 * event core, on the topology the admission runs in. Kills and
 * preemptions hit only admitted requests, and an admission resets the
 * state to Prompt, so Restart and Recompute never coexist.
 */
enum class NextPrefill : std::uint8_t
{
    Prompt,    ///< The shape's full prompt (a request as costed).
    Restart,   ///< The full prompt again after a fault kill; counts
               ///< as fault-attributable recompute.
    Recompute, ///< Prompt + decode progress after a paged preemption,
               ///< priced into recomputeCycles; its energy was charged
               ///< when the preemption fired.
};

/** Precomputed cost model of one request (from a batch-1 run). */
struct CostedRequest
{
    const model::Request *req = nullptr;
    /** The request's model, resolved once at costing so the paged
     *  re-pricer never re-scans the model zoo per preemption. */
    const model::LlmConfig *model = nullptr;
    /**
     * The request's workload with decodeLen forced to 0: the recompute
     * prefill shape, precomputed at costing so a preemption re-prices
     * only the prefill it will actually replay (never the decode phase
     * it throws away) and pays no findTask/withLengths rebuild.
     */
    model::Workload recomputeShape;
    double arrivalCycles = 0.0;
    /** The request's shape entry: its healthy prices. Owned by the
     *  shape table the costed trace holds, never by the request. */
    const PricedShape *shape = nullptr;
    /** The last paged preemption's recompute prefill cycles, per
     *  priced topology; read only while next == Recompute. */
    std::array<double, kTopologies> recomputeCycles{};
    double joules = 0.0; ///< Accumulated as the request is served.
    /** KV-cache bytes of this request's full footprint (its largest
     *  residency; policy-quantized — see kvFootprintBytes). Reserve
     *  admission charges exactly this; paged admission grows to at
     *  most this. 0 for decodeLen == 0 requests. */
    double kvBytes = 0.0;
    /** Per-token KV bytes of the request's model. */
    double kvBytesPerToken = 0.0;
    std::size_t remainingTokens = 0;
    double firstTokenCycles = 0.0;
    /** Written by the event core as the request is served. */
    double admissionCycles = 0.0; ///< First admission (queue wait ends).
    double completionCycles = 0.0;
    /** KV the request holds in the pool right now: block-rounded and
     *  exact bytes (both the full footprint under Reserve). */
    double kvAllocatedBytes = 0.0;
    double kvNeededBytes = 0.0;
    std::size_t preemptions = 0;
    std::size_t recomputedTokens = 0;

    // ---- Fault-tolerant serving state ----
    std::size_t retries = 0;    ///< Fault-kill restarts so far.
    double retryAtCycles = 0.0; ///< Backoff expiry (earliest retry).
    /** Drop-dead clock (0 = none), stamped once by costing: arrival +
     *  RetryOptions::deadlineSeconds when faults are on and the
     *  deadline is positive. A fleet failover copy keeps the deadline
     *  of its original arrival, because it copies this request. */
    double deadlineCycles = 0.0;

    // ---- Flags, packed together ----
    bool firstTokenSeen = false;
    bool admitted = false;
    bool dropped = false;
    NextPrefill next = NextPrefill::Prompt;
};

/**
 * One topology's prices of a shape table, each computed the first time
 * a run reads it: the degraded topology, which most shapes never run
 * on. A slot is priced at most once, under a lock, and published
 * through an atomic pointer, so the replica runs of a fleet that read
 * one table concurrently share every price, race-free, and get the
 * same bits at any thread count.
 */
class LazyRates
{
  public:
    /** Prices the shape of @p request. */
    using Pricer = std::function<Rates(const CostedRequest &request)>;

    /** One empty slot per entry of @p shapes, which must outlive this
     *  and keep its size. */
    LazyRates(const std::vector<PricedShape> &shapes, Pricer pricer);

    /** The rates of @p request's shape, an entry of the shapes this was
     *  built over; priced on the first call for that shape. */
    const Rates &of(const CostedRequest &request) const;

    /** Shapes priced so far. */
    std::size_t priced() const;

  private:
    const PricedShape *shapes_;
    std::size_t size_;
    Pricer pricer_;
    /** Each shape's rates once priced, else null. */
    std::unique_ptr<std::atomic<const Rates *>[]> slots_;
    mutable Mutex fill_;
    /** The priced rates, in pricing order; a deque keeps addresses. */
    mutable std::deque<Rates> filled_ MCBP_GUARDED_BY(fill_);
};

/**
 * Fault-injection inputs of one run, pre-converted to CYCLES (the
 * serving layer rescales the seconds timeline once the accelerator's
 * clock is known). Default-constructed inputs are inert by their
 * values: no event, no degraded topology, and the retry knobs bind
 * only on a kill. Per-request deadlines are not here; costing stamps
 * them (CostedRequest::deadlineCycles).
 */
struct FaultInputs
{
    /** Discrete fault events, sorted ascending by `at` (cycles). */
    std::vector<sim::FaultEvent> timeline;
    /** Fault-kill retries before a request is dropped. */
    std::size_t maxRetries = 3;
    /** Capped exponential backoff: retry n waits
     *  min(cap, base * 2^(n-1)) simulated cycles after the kill. */
    double backoffBaseCycles = 0.0;
    double backoffCapCycles = 0.0;
    /** The degraded-topology prices of the requests' shape table, or
     *  null when there is no degraded topology. When set, chip
     *  failures degrade the fleet instead of taking it down, and a
     *  degraded price is computed the first time the run reads it. Not
     *  owned; must outlive the run. */
    const LazyRates *degraded = nullptr;
};

/**
 * Fleet merge rules and units of the run counters
 * (MCBP_SERVING_COUNTERS). A rule folds one replica's report value
 * into the fleet's; a unit turns an EventStats value into its
 * ServingReport value.
 */
namespace counter {
/** Fleet merge: the replicas' values add up. */
struct Sum
{
    template <typename T>
    static void merge(T &fleet, T replica) { fleet += replica; }
};
/** Fleet merge: the largest replica value. */
struct Max
{
    template <typename T>
    static void merge(T &fleet, T replica)
    {
        fleet = std::max(fleet, replica);
    }
};
/** Unit: simulated cycles, which the report converts to seconds. */
struct Cycles
{
    static double toReport(double cycles, double toSeconds)
    {
        return cycles * toSeconds;
    }
};
/** Unit: a count or byte value, which the report copies. */
struct Value
{
    template <typename T>
    static T toReport(T value, double) { return value; }
};
} // namespace counter

/**
 * The run counters, declared once. Each entry is
 * X(type, EventStats name, ServingReport name, JSON key, fleet merge
 * rule, unit): the event core produces the EventStats field, the
 * report holds it converted by the unit (cycles become seconds), a
 * fleet folds its replicas' report values by the rule, and
 * bench::appendServingFields writes it under the key. EventStats,
 * ServingReport, ServingSimulator::serve(), the fleet merge and
 * the JSON schema all expand this list, so a new counter is one line
 * here plus the code that produces it. Three fleet values override
 * the rule (engine/fleet.cpp): droppedRequests, retriesScheduled and
 * faultEvents.
 */
#define MCBP_SERVING_COUNTERS(X)                                            \
    /* Final clock: the makespan, i.e. the last completion. */              \
    X(double, clockCycles, makespanSeconds, "makespan_s", Max, Cycles)     \
    /* Engine-occupied time under continuous batching. */                  \
    X(double, busyCycles, busySeconds, "busy_s", Sum, Cycles)              \
    /* Decode iterations simulated. */                                     \
    X(std::size_t, iterations, decodeIterations, "decode_iterations", Sum, \
      Value)                                                               \
    /* Decode loop passes actually executed: equals iterations under       \
       per-token stepping, and the (much smaller) number of coalesced      \
       windows otherwise; the coalescing speedup is their ratio. */        \
    X(std::size_t, decodeWindows, decodeWindows, "decode_windows", Sum,    \
      Value)                                                               \
    /* KV-fit checks the admission step made: the waiting entries the      \
       policies' walks visited, plus one footprint check per blocked       \
       model group. Host-independent, so CI gates on its growth. */        \
    X(std::size_t, admissionProbes, admissionProbes, "admission_probes",   \
      Sum, Value)                                                          \
    /* Per-request KV ledger updates paged window growth made: one per     \
       request charged at a block fill, plus one per request whose held    \
       bytes a window writes back. Host-independent, so CI gates on it. */ \
    X(std::size_t, kvLedgerUpdates, kvLedgerUpdates, "kv_ledger_updates",  \
      Sum, Value)                                                          \
    /* Largest batch decoding together. */                                 \
    X(std::size_t, peakBatch, peakBatch, "peak_batch", Max, Value)         \
    /* Peak in-flight KV residency (block-rounded when paged). */          \
    X(double, kvPeakBytes, kvPeakBytes, "kv_peak_bytes", Max, Value)       \
    /* Paged policy: preempt-and-recompute totals over the run. */         \
    X(std::size_t, preemptions, preemptions, "preemptions", Sum, Value)    \
    X(std::size_t, recomputedTokens, recomputedTokens,                     \
      "recomputed_tokens", Sum, Value)                                     \
    /* Peak internal fragmentation (allocated - needed bytes); 0 under     \
       reserve. */                                                         \
    X(double, kvFragmentationPeakBytes, kvFragmentationPeakBytes,          \
      "kv_fragmentation_peak_bytes", Max, Value)                           \
    /* Availability (fault injection; all zero on zero-fault runs).        \
       Fault-timeline events processed. */                                 \
    X(std::size_t, faultEvents, faultEvents, "fault_events", Sum, Value)   \
    /* In-flight kills by chip faults. */                                  \
    X(std::size_t, killedInFlight, killedInFlight, "killed_in_flight",     \
      Sum, Value)                                                          \
    /* Fault-kill retries scheduled. */                                    \
    X(std::size_t, retriesScheduled, retriesScheduled,                     \
      "retries_scheduled", Sum, Value)                                     \
    /* Budget, deadline and dead-fleet drops. */                           \
    X(std::size_t, droppedRequests, droppedRequests, "dropped_requests",   \
      Sum, Value)                                                          \
    /* Decode progress lost to kills. */                                   \
    X(std::size_t, faultLostTokens, faultLostTokens, "fault_lost_tokens",  \
      Sum, Value)                                                          \
    /* Restart prefills replayed after fault kills. */                     \
    X(double, faultRecomputeCycles, faultRecomputeSeconds,                 \
      "fault_recompute_s", Sum, Cycles)                                    \
    /* Time the fleet served on the degraded topology / was fully down. */ \
    X(double, degradedCycles, degradedSeconds, "degraded_s", Sum, Cycles)  \
    X(double, outageCycles, outageSeconds, "outage_s", Sum, Cycles)

/** One fault event's blast radius. */
struct FaultImpact
{
    std::size_t eventId = 0;
    /** Scheduled instant: cycles in EventStats, seconds in a
     *  ServingReport. */
    double at = 0.0;
    sim::FaultKind kind = sim::FaultKind::ChipFail;
    std::size_t chip = 0;
    bool permanent = false;
    std::size_t killed = 0;  ///< In-flight requests killed.
    std::size_t dropped = 0; ///< Requests dropped outright.
};

/** Aggregate outcome of one event-loop run, in cycles. */
struct EventStats
{
#define MCBP_STATS_FIELD(type, stat, member, key, rule, unit) type stat{};
    MCBP_SERVING_COUNTERS(MCBP_STATS_FIELD)
#undef MCBP_STATS_FIELD
    double occupancySum = 0.0;  ///< Sum of batch sizes over iterations.
    /** Paged policy: sum over decode iterations of needed/allocated
     *  bytes (block fill), and the iterations counted. */
    double kvBlockUtilizationSum = 0.0;
    std::size_t kvBlockUtilizationIters = 0;
    /**
     * Every scheduling decision, as request ids in decision order:
     * admissions (including re-admissions after preemption) and
     * preemption victims. Coalescing contracts to reproduce these
     * sequences exactly, so equivalence tests and the serving-speed
     * gate compare them verbatim against the per-token reference.
     */
    std::vector<std::size_t> admissionOrder;
    std::vector<std::size_t> preemptionOrder;
    /** Requests in completion order (admission/completion cycles set). */
    std::vector<CostedRequest *> completed;

    // ---- Availability (fault injection; all empty on zero-fault runs) --
    /** Retry schedulings as request ids, and drops as requests, in
     *  decision order (part of the coalescing equivalence contract,
     *  like admissionOrder/preemptionOrder). */
    std::vector<std::size_t> retryOrder;
    std::vector<CostedRequest *> dropped;
    /** Per-fault-event blast radius, in timeline order. */
    std::vector<FaultImpact> faultLog;
};

/** Recompute price of one (re)prefill over @p residentTokens tokens. */
struct PrefillPrice
{
    double cycles = 0.0;
    double joules = 0.0;
};

/**
 * Prices a prefill of @p residentTokens tokens (prompt + recomputed
 * decode progress) for @p request through the accelerator's prefill
 * path. Required by the paged policy; never called under Reserve.
 */
using PrefillPricer =
    std::function<PrefillPrice(const CostedRequest &request,
                               std::size_t residentTokens)>;

/** The event loop: one engine, one scheduler, one KV pool. */
class EventCore
{
  public:
    /**
     * @p step Auto resolves MCBP_SERVING_STEP at construction.
     * @p faults default-constructed injects no fault.
     * @p degradedRepricer prices a recompute prefill on the degraded
     * topology (required when faults.degraded is set and the KV policy
     * is paged, so a preemption keeps both prefill prices fresh).
     */
    EventCore(const Scheduler &scheduler, std::size_t maxBatch,
              KvOptions kv, PrefillPricer repricer = nullptr,
              StepMode step = StepMode::Auto, FaultInputs faults = {},
              PrefillPricer degradedRepricer = nullptr);

    /** Play @p requests to completion (or to their drop). */
    EventStats run(std::vector<CostedRequest> &requests) const;

  private:
    const Scheduler *scheduler_;
    std::size_t maxBatch_;
    KvOptions kv_;
    StepMode step_;
    FaultInputs faults_;
    /** Recompute re-pricers, indexed by topology mode. */
    std::array<PrefillPricer, kTopologies> repricers_;
};

} // namespace mcbp::engine
