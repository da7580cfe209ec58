/**
 * @file
 * Pluggable admission schedulers for the serving engine.
 *
 * The discrete-event core (event_core.hpp) owns the mechanics — the
 * clock, arrivals, KV accounting, decode iterations — and delegates
 * exactly one decision to a Scheduler: which waiting request is
 * admitted next? A request is admissible when the batch has a free
 * slot (the core asks only then), its model is the running batch's
 * (any model while the batch is empty), and its KV allocation fits.
 *
 * The core keeps the waiting queue indexed (waiting_queue.hpp): per
 * model, in arrival order, in each topology's prefill order, and by
 * KV footprint. A policy walks its own order over that index, and
 * the core runs the exact KV-fit check only on the entries the walk
 * visits (AdmissionPass), not on every waiting request. Three
 * policies ship:
 *  - strict FIFO: admit the queue head or nobody. A different-model or
 *    KV-blocked head stalls admission (head-of-line blocking), which
 *    bounds every request's wait — the PR-1 behaviour, and the default.
 *    It visits only the head (plus one footprint check to tell a
 *    deferral from a blocked queue).
 *  - skip-ahead: admit the oldest admissible request, skipping a
 *    blocked head so same-model traffic keeps batching through a model
 *    switch or a KV-capacity stall. It walks arrival order to the
 *    first entry that fits.
 *  - shortest-prompt-first: admit the admissible request with the
 *    cheapest *aged* prefill — SJF on the prefill cost with an aging
 *    credit (agingWeight x the request's queue wait, in cycles)
 *    subtracted from its key, so a long prompt cannot be starved by a
 *    sustained flood of short ones: once it has waited its own extra
 *    prefill cost, it outranks any fresh short arrival. agingWeight 0
 *    restores the pure (starvation-prone) SJF. The aged key
 *    prefill - w x (clock - arrival) is prefill + w x arrival minus
 *    a w x clock term common to every request, so the two rank
 *    requests alike (only floating-point rounding at a near-tie
 *    could tell them apart). The queue keys each request once, by
 *    (prefill + w x arrival, queue position), and the policy walks
 *    that order to the first entry that fits. Ties on the key go to
 *    queue position.
 *
 * A scheduler may admit nobody yet. Strict FIFO does so behind a
 * blocked head, and with an admissible request further back that is
 * a deferral (see the coalescing contract below); the other built-in
 * policies admit whenever something is admissible. KV headroom is the
 * event core's business: it folds the paged low-watermark into the
 * fit check itself.
 *
 * Coalescing contract: a Scheduler must be stateless (pick() decides
 * from the queue and the pass alone — the class contract below). The
 * event core's coalesced stepping relies on this to skip pick() calls
 * whose queue provably cannot have gained an admissible entry since
 * the last decision (no arrival, completion, preemption or paged
 * block allocation in between); a deferral (nobody admitted while a
 * request is admissible) is a live decision, so the core re-asks on
 * the per-token cadence in that case. A scheduler whose answer
 * changed with nothing but the clock would need
 * MCBP_SERVING_STEP=per-token; the built-in ones never do, because
 * no key in the index depends on the clock.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mcbp::engine {

/** Selectable admission policies (ServingOptions::policy). */
enum class SchedulerPolicy
{
    Fifo,
    SkipAhead,
    ShortestPromptFirst,
};

/** Canonical name, e.g. "fifo", "skip-ahead", "shortest-prompt". */
std::string toString(SchedulerPolicy policy);

/** Parse a policy name; fatal() on unknown names. */
SchedulerPolicy schedulerPolicyFromString(const std::string &name);

/** All selectable policies (for sweeps and validation messages). */
const std::vector<SchedulerPolicy> &allSchedulerPolicies();

/** Orders of the waiting queue an admission walk can follow. */
enum class WaitOrder
{
    Arrival, ///< Queue position.
    Prefill, ///< Aged prefill key, then queue position.
};

class AdmissionPass;
class WaitingQueue;
struct WaitingEntry;

/** A policy's decision for one admission pass. */
struct AdmissionPick
{
    /** The waiting request to admit; null admits nobody now. */
    const WaitingEntry *entry = nullptr;
    /** Nobody is admitted although a request is admissible. */
    bool deferred = false;
};

/** Admission-order policy. Stateless; the event core owns all state. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual std::string name() const = 0;

    /**
     * Aging weight w of the prefill order this policy walks (keyed
     * prefillCycles + w x arrivalCycles), or nullopt when it walks
     * arrival order only; the queue then keeps no prefill order.
     */
    virtual std::optional<double> prefillAging() const
    {
        return std::nullopt;
    }

    /**
     * The request to admit next from the non-empty @p queue, checking
     * fits through @p pass. The entry must be admissible. Deferral
     * requires someone else to make progress: admitting nobody with
     * an idle engine and no future arrival left to wake it is a
     * contract violation the event core panics on (admission
     * livelock).
     */
    virtual AdmissionPick pick(const WaitingQueue &queue,
                               const AdmissionPass &pass) const = 0;
};

/**
 * Build the scheduler implementing @p policy. @p sjfAgingWeight is the
 * shortest-prompt policy's starvation bound: the aging credit per
 * waited cycle subtracted from a request's prefill-cycle key (1.0 =
 * cycle-for-cycle, the default; 0 = pure SJF). It must be finite and
 * non-negative (fatal() otherwise). Other policies ignore it.
 */
std::unique_ptr<Scheduler> makeScheduler(SchedulerPolicy policy,
                                         double sjfAgingWeight = 1.0);

} // namespace mcbp::engine
