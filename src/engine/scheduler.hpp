/**
 * @file
 * Pluggable admission schedulers for the serving engine.
 *
 * The discrete-event core (event_core.hpp) owns the mechanics — the
 * clock, arrivals, KV accounting, decode iterations — and delegates
 * exactly one decision to a Scheduler: given the waiting queue (in
 * arrival order) and which entries are currently admissible (free
 * batch slot, same model as the running batch, KV allocation fits),
 * which request is admitted next?
 *
 * Three policies ship:
 *  - strict FIFO: admit the queue head or nobody. A different-model or
 *    KV-blocked head stalls admission (head-of-line blocking), which
 *    bounds every request's wait — the PR-1 behaviour, and the default.
 *  - skip-ahead: admit the oldest admissible request, skipping a
 *    blocked head so same-model traffic keeps batching through a model
 *    switch or a KV-capacity stall.
 *  - shortest-prompt-first: admit the admissible request with the
 *    cheapest *aged* prefill — SJF on the prefill cost with an aging
 *    credit (agingWeight x the candidate's queue wait, in cycles)
 *    subtracted from its key, so a long prompt cannot be starved by a
 *    sustained flood of short ones: once it has waited its own extra
 *    prefill cost, it outranks any fresh short arrival. agingWeight 0
 *    restores the pure (starvation-prone) SJF.
 *
 * A scheduler may return npos to admit nobody yet. Strict FIFO does
 * so behind a blocked head, and with an admissible request further
 * back that npos is a deferral (see the coalescing contract below);
 * the other built-in policies admit whenever something is admissible.
 * KV headroom is the event core's business: it folds the paged
 * low-watermark into the admissible flag itself.
 *
 * Coalescing contract: a Scheduler must be stateless (pick() decides
 * from its arguments alone — the class contract below). The event
 * core's coalesced stepping relies on this to skip pick() calls whose
 * candidate sets provably cannot have gained an admissible entry
 * since the last decision (no arrival, completion, preemption or
 * paged block allocation in between); a deferral (npos while a
 * candidate is admissible) is a live decision, so the core re-asks on
 * the per-token cadence in that case. A stateful scheduler that
 * changes its answer with nothing but waitCycles aging would need
 * MCBP_SERVING_STEP=per-token.
 */
#pragma once

#include <cstddef>
#include <memory>
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

/** One waiting request, as the scheduler sees it. */
struct AdmissionCandidate
{
    /** Cycles this candidate has waited since its arrival. */
    double waitCycles = 0.0;
    /**
     * Prefill cycles admitting it would pay right now (for a
     * preempted request this is the re-priced recompute prefill over
     * its prompt + generated tokens).
     */
    double prefillCycles = 0.0;
    /** Free slot + model compatible + KV allocation fits, right now. */
    bool admissible = false;
};

/** Admission-order policy. Stateless; the event core owns all state. */
class Scheduler
{
  public:
    /** Returned by pick() when nothing should be admitted yet. */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    virtual ~Scheduler() = default;

    virtual std::string name() const = 0;

    /**
     * Index into @p waiting (arrival order) of the request to admit
     * next, or npos to wait. Must return an admissible index. Deferral requires someone
     * else to make progress: npos with an idle engine and no future
     * arrival left to wake it is a contract violation the event core
     * panics on (admission livelock).
     */
    virtual std::size_t
    pick(const std::vector<AdmissionCandidate> &waiting) const = 0;
};

/**
 * Build the scheduler implementing @p policy. @p sjfAgingWeight is the
 * shortest-prompt policy's starvation bound: the aging credit per
 * waited cycle subtracted from a candidate's prefill-cycle key (1.0 =
 * cycle-for-cycle, the default; 0 = pure SJF). Other policies ignore
 * it.
 */
std::unique_ptr<Scheduler> makeScheduler(SchedulerPolicy policy,
                                         double sjfAgingWeight = 1.0);

} // namespace mcbp::engine
