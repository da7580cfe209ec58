#include "engine/event_core.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>

#include "accel/report.hpp"
#include "common/env.hpp"
#include "common/logging.hpp"
#include "engine/waiting_queue.hpp"

namespace mcbp::engine {

namespace {

// Tokens of c's KV resident after a (re)prefill: the prompt plus
// whatever decode progress a recompute restores. Prefill-only requests
// retain nothing.
std::size_t
residentTokens(const CostedRequest &c)
{
    if (c.req->decodeLen == 0)
        return 0;
    return c.req->promptLen + (c.req->decodeLen - c.remainingTokens);
}

/**
 * The running batch bucketed by the decode iteration on which each
 * request next allocates a KV block. A request with r resident tokens
 * allocates on the iteration that serves token r + 1 exactly when r is
 * a multiple of the block size B. So in a window entered at residency
 * r it fills on in-window iterations t = d, d + B, d + 2B, ... (t
 * counted from 0), where d = (B - r mod B) mod B; bucket 0 fills on
 * the window's first iteration. Bucket d lists the batch positions
 * with that d in batch order (a stable counting sort): one flat index
 * array and one offset per bucket, sized once per run. Only buckets
 * below the run's longest decode length exist: a window never outlasts
 * a request's remaining tokens, so a later fill never lands in one.
 * The buckets also keep the running sum of per-token bytes in batch
 * order.
 */
class FillBuckets
{
  public:
    /** A @p batchCapacity of 0 allocates nothing (a run that never
     *  buckets). */
    FillBuckets(std::size_t blockTokens, std::size_t longestDecode,
                std::size_t batchCapacity)
        : blockTokens_(blockTokens),
          buckets_(batchCapacity > 0 ? std::min(blockTokens, longestDecode)
                                     : 0),
          key_(batchCapacity), index_(batchCapacity),
          tokenBytes_(batchCapacity), offset_(buckets_ > 0 ? buckets_ + 1 : 0)
    {
        due_.reserve(std::min(batchCapacity, buckets_));
    }

    /** Re-bucket @p batch (non-empty, at most batchCapacity requests). */
    void build(const std::vector<CostedRequest *> &batch)
    {
        const std::size_t b = blockTokens_;
        std::fill(offset_.begin(), offset_.end(), std::size_t{0});
        double bytes = 0.0;
        for (std::size_t j = 0; j < batch.size(); ++j) {
            key_[j] = (b - residentTokens(*batch[j]) % b) % b;
            if (key_[j] < buckets_)
                ++offset_[key_[j] + 1];
            bytes += batch[j]->kvBytesPerToken;
            tokenBytes_[j] = bytes;
        }
        batchTokenBytes_ = bytes;
        // offset_[d + 1] turns from bucket d's count into its start,
        // then, as its members are placed, into its end (= the start
        // of bucket d + 1).
        due_.clear();
        std::size_t start = 0;
        for (std::size_t d = 0; d < buckets_; ++d) {
            const std::size_t count = offset_[d + 1];
            if (count > 0)
                due_.push_back(d);
            offset_[d + 1] = start;
            start += count;
        }
        for (std::size_t j = 0; j < batch.size(); ++j)
            if (key_[j] < buckets_)
                index_[offset_[key_[j] + 1]++] = j;
    }

    /** Batch positions that fill on in-window iterations d (mod B);
     *  d below the bucket count (bucket 0 always exists once built). */
    std::span<const std::size_t> bucket(std::size_t d) const
    {
        return {index_.data() + offset_[d], index_.data() + offset_[d + 1]};
    }

    /** The non-empty buckets, ascending. */
    const std::vector<std::size_t> &due() const { return due_; }

    /** Per-token KV bytes of batch positions 0..j. */
    double tokenBytesThrough(std::size_t j) const { return tokenBytes_[j]; }

    /** Per-token KV bytes of the whole batch: one iteration's growth
     *  of the needed-bytes ledger. */
    double batchTokenBytes() const { return batchTokenBytes_; }

  private:
    std::size_t blockTokens_;
    std::size_t buckets_;
    std::vector<std::size_t> key_;
    std::vector<std::size_t> index_;
    std::vector<double> tokenBytes_;
    std::vector<std::size_t> offset_;
    std::vector<std::size_t> due_;
    double batchTokenBytes_ = 0.0;
};

} // namespace

std::string
toString(StepMode mode)
{
    switch (mode) {
    case StepMode::Auto:
        return "auto";
    case StepMode::Coalesced:
        return "coalesced";
    case StepMode::PerToken:
        return "per-token";
    }
    return "unknown";
}

StepMode
stepModeFromEnv()
{
    const char *env = env::get("MCBP_SERVING_STEP");
    if (env == nullptr || *env == '\0')
        return StepMode::Coalesced;
    const std::string value(env);
    if (value == "coalesced")
        return StepMode::Coalesced;
    if (value == "per-token")
        return StepMode::PerToken;
    fatal("MCBP_SERVING_STEP must be 'coalesced' or 'per-token', got '" +
          value + "'");
}

LazyRates::LazyRates(const std::vector<PricedShape> &shapes, Pricer pricer)
    : shapes_(shapes.data()), size_(shapes.size()),
      pricer_(std::move(pricer)),
      slots_(std::make_unique<std::atomic<const Rates *>[]>(size_))
{
}

const Rates &
LazyRates::of(const CostedRequest &request) const
{
    const std::size_t s = static_cast<std::size_t>(request.shape - shapes_);
    panicIf(s >= size_, "lazy rates read for a shape of another table");
    std::atomic<const Rates *> &slot = slots_[s];
    if (const Rates *rates = slot.load(std::memory_order_acquire))
        return *rates;
    const MutexLock lock(fill_);
    if (const Rates *rates = slot.load(std::memory_order_relaxed))
        return *rates; // Another run priced it while this one waited.
    const Rates &rates = filled_.emplace_back(pricer_(request));
    slot.store(&rates, std::memory_order_release);
    return rates;
}

std::size_t
LazyRates::priced() const
{
    const MutexLock lock(fill_);
    return filled_.size();
}

EventCore::EventCore(const Scheduler &scheduler, std::size_t maxBatch,
                     KvOptions kv, PrefillPricer repricer, StepMode step,
                     FaultInputs faults, PrefillPricer degradedRepricer)
    : scheduler_(&scheduler), maxBatch_(maxBatch), kv_(kv),
      step_(step == StepMode::Auto ? stepModeFromEnv() : step),
      faults_(std::move(faults)),
      repricers_{std::move(repricer), std::move(degradedRepricer)}
{
    fatalIf(maxBatch_ == 0, "maxBatch must be positive");
    // A preemption re-prices the recompute on every topology the
    // re-admission could land in, so each needs its own re-pricer.
    const std::size_t priced = faults_.degraded != nullptr ? kTopologies : 1;
    for (std::size_t t = 0; t < priced; ++t)
        fatalIf(kv_.policy == KvPolicy::Paged && !repricers_[t],
                "paged KV needs a prefill re-pricer for recompute on "
                "every topology it serves");
    for (std::size_t i = 1; i < faults_.timeline.size(); ++i)
        fatalIf(faults_.timeline[i - 1].at > faults_.timeline[i].at,
                "fault timeline must be sorted by time");
}

EventStats
EventCore::run(std::vector<CostedRequest> &requests) const
{
    EventStats stats;
    stats.completed.reserve(requests.size());

    const bool coalesce = step_ == StepMode::Coalesced;
    const bool paged = kv_.policy == KvPolicy::Paged;
    KvBlockManager pool(kv_);

    // A request larger than the whole budget would wait forever (even
    // paged: its final residency can never be held). Name the first
    // offender and the smallest budget that admits the whole trace.
    if (!pool.unbounded()) {
        double largest = 0.0;
        for (const CostedRequest &c : requests)
            largest = std::max(largest, c.kvBytes);
        for (const CostedRequest &c : requests) {
            if (c.kvBytes <= kv_.capacityBytes)
                continue;
            std::ostringstream msg;
            msg << std::fixed << std::setprecision(0) << "request "
                << c.req->id << " needs a KV footprint of " << c.kvBytes
                << " B, above the configured capacity of "
                << kv_.capacityBytes
                << " B, so it can never be admitted; raise "
                   "kvCapacityBytes to at least "
                << largest << " B (the largest request footprint)";
            fatal(msg.str());
        }
    }

    // Process arrivals in order regardless of the trace's sort.
    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return requests[a].arrivalCycles <
                                requests[b].arrivalCycles;
                     });

    // ---- Fault state (empty on a fault-free run) -----------------------
    const LazyRates *degraded = faults_.degraded;
    const std::size_t priced = degraded != nullptr ? kTopologies : 1;
    const std::vector<sim::FaultEvent> &timeline = faults_.timeline;
    std::size_t next_fault = 0;
    bool dead = false;           // Fleet lost beyond any replan.
    bool permanent_down = false; // A permanent chip failure happened.
    std::size_t chips_down = 0;  // Transient failures under repair.
    std::size_t mode = kHealthy; // Topology whose rates apply now.
    double outage_until = 0.0;   // No replan available: down to repair.
    std::vector<double> link_factors;  // Active bandwidth multipliers.
    std::vector<double> stall_factors; // Active straggler slowdowns.
    double link_scale = 1.0;  // Product of 1/factor (>= 1 slowdown).
    double stall_scale = 1.0; // Product of slowdowns (>= 1).
    std::vector<CostedRequest *> retrying; // Backoff queue.

    double clock = 0.0;
    std::size_t next_arrival = 0;
    WaitingQueue waiting(scheduler_->prefillAging(), priced);
    const bool prefill_order = scheduler_->prefillAging().has_value();
    std::vector<CostedRequest *> active; // Admission order.

    // The rates of c's shape on topology t. A degraded price is
    // computed the first time any run on the table reads it.
    auto rates = [&](const CostedRequest &c,
                     std::size_t t) -> const Rates & {
        return t == kHealthy ? c.shape->rates : degraded->of(c);
    };

    // Cycles of c's next prefill on topology t: a recompute's re-price,
    // else the full prompt at the shape's rates on t.
    auto prefill_cycles = [&](const CostedRequest &c, std::size_t t) {
        return c.next == NextPrefill::Recompute ? c.recomputeCycles[t]
                                                : rates(c, t).prefillCycles;
    };

    // Clock advancement attributing degraded time. The arithmetic is
    // the zero-fault engine's plain `clock += delta` / `clock = to`,
    // so a run that never degrades changes no bit of the result.
    auto advance = [&](double delta) {
        clock += delta;
        if (mode == kDegraded)
            stats.degradedCycles += delta;
    };
    auto jump_to = [&](double to) {
        if (to <= clock)
            return;
        if (mode == kDegraded)
            stats.degradedCycles += to - clock;
        clock = to;
    };

    // The one KV ledger, under either policy: c now holds @p alloc
    // block-rounded bytes covering @p need exact bytes (the pool is
    // charged the growth over what c held), or releases all it holds.
    auto hold = [&](CostedRequest &c, double alloc, double need) {
        pool.add(alloc - c.kvAllocatedBytes, need - c.kvNeededBytes);
        c.kvAllocatedBytes = alloc;
        c.kvNeededBytes = need;
    };
    auto release = [&](CostedRequest &c) {
        pool.remove(c.kvAllocatedBytes, c.kvNeededBytes);
        c.kvAllocatedBytes = 0.0;
        c.kvNeededBytes = 0.0;
    };

    // Block-rounded bytes an admission of c holds: the current
    // residency under Paged, the full footprint under Reserve.
    auto admit_bytes = [&](const CostedRequest &c) {
        return paged ? pool.allocatedBytes(c.kvBytesPerToken,
                                           residentTokens(c))
                     : c.kvBytes;
    };

    auto finish = [&](CostedRequest &c) {
        c.completionCycles = clock;
        release(c);
        stats.completed.push_back(&c);
    };

    // Queue c at the tail (an arrival or a retry) or at the head (a
    // preemption), keyed on its next prefill on every priced topology
    // when the scheduler keeps a prefill order.
    auto enqueue = [&](CostedRequest &c, bool atHead) {
        std::array<double, kTopologies> prefill{};
        if (prefill_order)
            for (std::size_t t = 0; t < priced; ++t)
                prefill[t] = prefill_cycles(c, t);
        if (atHead)
            waiting.pushFront(c, admit_bytes(c), prefill);
        else
            waiting.pushBack(c, admit_bytes(c), prefill);
    };

    // Preempt the youngest running request (vLLM's recompute rule):
    // free its blocks, re-price its recompute prefill — the prompt
    // plus every token it has generated, replayed through the
    // accelerator's prefill path — and re-queue it at the head.
    auto preempt_youngest = [&] {
        panicIf(active.empty(), "preemption with an empty batch");
        CostedRequest *c = active.back();
        active.pop_back();
        release(*c);
        const std::size_t progress =
            c->req->decodeLen - c->remainingTokens;
        c->recomputedTokens += progress;
        stats.recomputedTokens += progress;
        ++c->preemptions;
        ++stats.preemptions;
        stats.preemptionOrder.push_back(c->req->id);
        // Price the recompute on every topology, whatever mode the
        // re-admission lands in. The recompute's energy is genuinely
        // spent on top of whatever the request already burned; charge
        // it now, in the current mode (the re-admission always happens
        // — the loop runs the trace to completion).
        for (std::size_t t = 0; t < priced; ++t) {
            const PrefillPrice price =
                repricers_[t](*c, c->req->promptLen + progress);
            c->recomputeCycles[t] = price.cycles;
            if (t == mode)
                c->joules += price.joules;
        }
        c->next = NextPrefill::Recompute;
        enqueue(*c, /*atHead=*/true);
    };

    // Pull every request that has arrived by the current clock into
    // the waiting queue (arrival order).
    auto pull_arrivals = [&] {
        while (next_arrival < order.size() &&
               requests[order[next_arrival]].arrivalCycles <= clock) {
            enqueue(requests[order[next_arrival++]], /*atHead=*/false);
        }
    };

    auto drop_request = [&](CostedRequest *c,
                            FaultImpact *impact) {
        panicIf(c->dropped, "request dropped twice");
        c->dropped = true;
        ++stats.droppedRequests;
        stats.dropped.push_back(c);
        if (impact != nullptr)
            ++impact->dropped;
    };

    // Kill every in-flight request: free its KV, void its decode
    // progress, make its next prefill a full-prompt restart, and either
    // schedule a backoff retry or drop it (retry budget exhausted,
    // deadline passed, or the fleet is dead). Active order is
    // admission order, so the retry queue and the decision logs are
    // deterministic and step-mode independent.
    auto kill_active = [&](FaultImpact &impact) {
        for (CostedRequest *c : active) {
            release(*c);
            const std::size_t progress =
                c->req->decodeLen - c->remainingTokens;
            stats.faultLostTokens += progress;
            c->remainingTokens = c->req->decodeLen;
            c->firstTokenSeen = false;
            c->next = NextPrefill::Restart;
            ++stats.killedInFlight;
            ++impact.killed;
            ++c->retries;
            if (dead || c->retries > faults_.maxRetries ||
                (c->deadlineCycles > 0.0 &&
                 clock >= c->deadlineCycles)) {
                drop_request(c, &impact);
            } else {
                const double backoff = std::min(
                    faults_.backoffCapCycles,
                    faults_.backoffBaseCycles *
                        std::pow(2.0,
                                 static_cast<double>(c->retries - 1)));
                c->retryAtCycles = clock + backoff;
                retrying.push_back(c);
                ++stats.retriesScheduled;
                stats.retryOrder.push_back(c->req->id);
            }
        }
        active.clear();
    };

    // A dead fleet serves nothing more: drop the queue, the retry
    // backlog, and every not-yet-arrived request.
    auto drop_all_pending = [&](FaultImpact &impact) {
        for (CostedRequest *c : waiting.takeAll())
            drop_request(c, &impact);
        for (CostedRequest *c : retrying)
            drop_request(c, &impact);
        retrying.clear();
        while (next_arrival < order.size())
            drop_request(&requests[order[next_arrival++]], &impact);
    };

    // Scale products are recomputed from scratch at every window edge
    // so the no-window state is exactly 1.0 (not a rounded quotient).
    auto recompute_scales = [&] {
        link_scale = 1.0;
        for (double f : link_factors)
            link_scale *= 1.0 / f;
        stall_scale = 1.0;
        for (double f : stall_factors)
            stall_scale *= f;
    };
    auto erase_factor = [](std::vector<double> &factors, double f) {
        const auto it = std::find(factors.begin(), factors.end(), f);
        if (it != factors.end())
            factors.erase(it);
    };

    // The fleet runs degraded while a chip is down and the degraded
    // plan survives.
    auto update_mode = [&] {
        mode = degraded != nullptr && !dead &&
                       (permanent_down || chips_down > 0)
                   ? kDegraded
                   : kHealthy;
    };

    // Process every fault event due by the current clock, in timeline
    // order. Coalesced windows never cross the next event (bounded in
    // the window selection below), so both step modes observe each
    // event at the same clock with the same engine state.
    auto process_faults = [&] {
        while (next_fault < timeline.size() &&
               timeline[next_fault].at <= clock) {
            const sim::FaultEvent &e = timeline[next_fault++];
            ++stats.faultEvents;
            FaultImpact impact;
            impact.eventId = e.id;
            impact.at = e.at;
            impact.kind = e.kind;
            impact.chip = e.chip;
            impact.permanent = e.permanent;
            switch (e.kind) {
            case sim::FaultKind::ChipFail:
                if (e.permanent) {
                    // The degraded replan absorbs one permanent loss;
                    // a second one (or any loss on a fleet without a
                    // degraded plan) is fatal.
                    if (degraded == nullptr || permanent_down)
                        dead = true;
                    permanent_down = true;
                } else {
                    ++chips_down;
                    // Nothing to replan onto: the fleet is an outage
                    // until this chip's repair lands.
                    if (degraded == nullptr || permanent_down)
                        outage_until =
                            std::max(outage_until, e.repairAt);
                }
                update_mode();
                kill_active(impact);
                if (dead)
                    drop_all_pending(impact);
                break;
            case sim::FaultKind::ChipRepair:
                if (chips_down > 0)
                    --chips_down;
                update_mode();
                break;
            case sim::FaultKind::LinkDegrade:
                link_factors.push_back(e.factor);
                recompute_scales();
                break;
            case sim::FaultKind::LinkRestore:
                erase_factor(link_factors, e.factor);
                recompute_scales();
                break;
            case sim::FaultKind::StragglerStart:
                stall_factors.push_back(e.factor);
                recompute_scales();
                break;
            case sim::FaultKind::StragglerEnd:
                erase_factor(stall_factors, e.factor);
                recompute_scales();
                break;
            }
            stats.faultLog.push_back(impact);
        }
    };

    // Move every retry whose backoff expired into the waiting queue
    // (at the tail, behind already-queued arrivals), earliest expiry
    // first; a retry already past its deadline drops instead.
    auto pull_retries = [&] {
        if (retrying.empty())
            return;
        std::stable_sort(retrying.begin(), retrying.end(),
                         [](const CostedRequest *a,
                            const CostedRequest *b) {
                             return a->retryAtCycles < b->retryAtCycles;
                         });
        while (!retrying.empty() &&
               retrying.front()->retryAtCycles <= clock) {
            CostedRequest *c = retrying.front();
            retrying.erase(retrying.begin());
            if (c->deadlineCycles > 0.0 && clock >= c->deadlineCycles)
                drop_request(c, nullptr);
            else
                enqueue(*c, /*atHead=*/false);
        }
    };

    // Drop queued requests past their deadline, in queue order. Active
    // requests are exempt: a decoding request runs to completion and
    // merely misses its SLO.
    auto drop_expired_waiting = [&] {
        for (CostedRequest *c : waiting.takeExpired(clock))
            drop_request(c, nullptr);
    };

    // The next instant the engine must wake at, whatever it is doing:
    // the next arrival, retry expiry, fault event or queued-request
    // deadline. Infinity when none is left.
    auto next_wake = [&] {
        double wake = std::numeric_limits<double>::infinity();
        if (next_arrival < order.size())
            wake = requests[order[next_arrival]].arrivalCycles;
        for (const CostedRequest *c : retrying)
            wake = std::min(wake, c->retryAtCycles);
        if (next_fault < timeline.size())
            wake = std::min(wake, timeline[next_fault].at);
        return std::min(wake, waiting.earliestDeadline());
    };

    // Paged growth of a coalesced k-iteration window, in O(batch +
    // fills) over the batch's fill buckets (built at window entry):
    //
    //  - Strictly between block fills no request allocates, so no
    //    preemption can trigger and only the needed-bytes ledger and
    //    the utilization statistic advance. The per-token loop would
    //    sample needed/used after each iteration with used constant
    //    and needed growing by the batch's summed per-token bytes — an
    //    arithmetic series, folded here in closed form, and one add()
    //    charges the segment.
    //
    //  - A fill iteration charges the filling bucket's blocks plus one
    //    token per request, then takes the per-iteration utilization
    //    sample. If the bucket's blocks no longer fit (a preemption is
    //    due), the window is truncated just before that iteration and
    //    the next outer pass routes it through the reference path, so
    //    eviction victims and their order match the per-token loop
    //    exactly.
    //
    // The per-token loop charges an iteration request by request, in
    // batch order, and the pool records allocated - needed after each
    // charge, so the fragmentation peak can land partway through the
    // batch: at a filling request (a request that does not fill only
    // lowers it). A fill charges the iteration in two add()s split at
    // the filling request that attains that maximum. Every ledger value
    // is an integer multiple of a whole number of bytes per token, far
    // below 2^53, so these sums are exact in any order, and the
    // ledger, its peaks and the utilization samples keep every bit.
    // Each request's held bytes are written once, at window end.
    //
    // Pool occupancy only grows within the window and the batch/model
    // are constant, so no admission can become possible mid-window
    // and skipping the per-iteration admission retries stays
    // behaviour-preserving.
    //
    // Returns the iterations actually grown (= the window's final k):
    // a fill due on the first iteration has had its preemptions
    // resolved by the caller before entry, so at least one iteration
    // always survives.
    const std::size_t block_tokens = kv_.blockTokens;
    std::size_t longest_decode = 0;
    if (paged)
        for (const CostedRequest &c : requests)
            longest_decode = std::max(longest_decode, c.req->decodeLen);
    FillBuckets fills(block_tokens, longest_decode,
                      paged ? std::min(maxBatch_, requests.size()) : 0);
    auto block_bytes = [&](std::size_t position) {
        return static_cast<double>(block_tokens) *
               active[position]->kvBytesPerToken;
    };
    // Block bytes bucket d allocates at one of its fills.
    auto bucket_bytes = [&](std::size_t d) {
        double bytes = 0.0;
        for (const std::size_t j : fills.bucket(d))
            bytes += block_bytes(j);
        return bytes;
    };
    auto grow_free = [&](std::size_t seg) {
        if (seg == 0)
            return;
        const double sd = static_cast<double>(seg);
        const double needed_start = pool.neededBytes();
        pool.add(0.0, fills.batchTokenBytes() * sd);
        if (pool.usedBytes() > 0.0) {
            stats.kvBlockUtilizationSum +=
                (sd * needed_start +
                 fills.batchTokenBytes() * sd * (sd + 1.0) / 2.0) /
                pool.usedBytes();
            stats.kvBlockUtilizationIters += seg;
        }
    };
    // One iteration on which bucket d fills; false (nothing charged)
    // when its blocks do not fit and a preemption is due instead.
    auto grow_fill = [&](std::size_t d) {
        const double extra = bucket_bytes(d);
        if (!pool.fits(extra, /*admission=*/false) && active.size() > 1)
            return false;
        const double used = pool.usedBytes();
        const double needed = pool.neededBytes();
        double filled = 0.0;
        double peak = -std::numeric_limits<double>::infinity();
        double peak_filled = 0.0;
        double peak_tokens = 0.0;
        for (const std::size_t j : fills.bucket(d)) {
            filled += block_bytes(j);
            const double tokens = fills.tokenBytesThrough(j);
            const double frag = (used + filled) - (needed + tokens);
            if (frag > peak) {
                peak = frag;
                peak_filled = filled;
                peak_tokens = tokens;
            }
        }
        stats.kvLedgerUpdates += fills.bucket(d).size();
        pool.add(peak_filled, peak_tokens);
        pool.add(extra - peak_filled,
                 fills.batchTokenBytes() - peak_tokens);
        if (pool.usedBytes() > 0.0) {
            stats.kvBlockUtilizationSum +=
                pool.neededBytes() / pool.usedBytes();
            ++stats.kvBlockUtilizationIters;
        }
        return true;
    };
    auto grow_batch_coalesced = [&](std::size_t k) -> std::size_t {
        std::size_t t = 0;
        bool truncated = false;
        const std::vector<std::size_t> &due = fills.due();
        for (std::size_t cycle = 0; !truncated && !due.empty() && cycle < k;
             cycle += block_tokens) {
            for (const std::size_t d : due) {
                if (cycle + d >= k)
                    break;
                grow_free(cycle + d - t);
                t = cycle + d;
                if (!grow_fill(d)) {
                    panicIf(t == 0, "unresolved preemption at window start");
                    truncated = true;
                    break;
                }
                t += 1;
            }
        }
        if (!truncated) {
            grow_free(k - t);
            t = k;
        }
        for (CostedRequest *c : active) {
            const std::size_t tokens = residentTokens(*c) + t;
            c->kvAllocatedBytes =
                pool.allocatedBytes(c->kvBytesPerToken, tokens);
            c->kvNeededBytes =
                c->kvBytesPerToken * static_cast<double>(tokens);
        }
        stats.kvLedgerUpdates += active.size();
        return t;
    };

    // Cost of one decode iteration over the current batch: the weight
    // stream is fetched once for the whole batch (max, in cycles and
    // in joules) and overlaps the batch's summed linear work;
    // attention/SFU is per-request work on top.
    struct IterCost
    {
        double cycles = 0.0;       ///< One decode iteration.
        double weightJoules = 0.0; ///< Shared weight stream, per iter.
    };
    auto iter_cost = [&]() -> IterCost {
        double weight_cycles = 0.0;
        double linear_cycles = 0.0;
        double other_cycles = 0.0;
        double fixed_cycles = 0.0;
        double weight_joules = 0.0;
        double linear_max = 0.0;
        double other_max = 0.0;
        for (const CostedRequest *c : active) {
            const Rates &r = rates(*c, mode);
            weight_cycles = std::max(weight_cycles, r.weightCyclesPerToken);
            weight_joules = std::max(weight_joules, r.weightJoulesPerToken);
            linear_cycles += r.linearCyclesPerToken;
            other_cycles += r.otherCyclesPerToken;
            linear_max = std::max(linear_max, r.linearCyclesPerToken);
            other_max = std::max(other_max, r.otherCyclesPerToken);
            // Hop-latency floor: every request's collective is the
            // same collective, so the batch pays it once.
            fixed_cycles = std::max(fixed_cycles, r.fixedCyclesPerToken);
        }
        // Everyone in the batch runs on the same accelerator, so the
        // stage count and composition rule are uniform across it.
        const Rates &front = rates(*active.front(), mode);
        // Stage-aware costing: on a pipeline, distinct requests'
        // traversals overlap across the stages, so the batch's summed
        // work drains at the bottleneck stage (sum/stages) — but a
        // single request can never finish faster than its own full
        // traversal (the max). stages=1 reduces to the plain sum
        // bit-for-bit (sum/1 == sum, and sum >= each element).
        const double stages = static_cast<double>(
            std::max<std::size_t>(1, front.stages));
        const double linear_batch =
            std::max(linear_cycles / stages, linear_max);
        const double other_batch =
            std::max(other_cycles / stages, other_max);
        const double linear_segment = accel::composedLinearCycles(
            weight_cycles, linear_batch, front.memorySerialized);
        IterCost out;
        // A degraded link stretches the collective floor; a straggler
        // stretches the whole iteration. Both scale products are
        // exactly 1.0 with no active fault window, and x * 1.0 == x in
        // IEEE arithmetic, so zero-fault iterations are bit-identical.
        out.cycles =
            (linear_segment + fixed_cycles * link_scale + other_batch) *
            stall_scale;
        out.weightJoules = weight_joules;
        return out;
    };

    const std::size_t total = requests.size();
    while (stats.completed.size() + stats.droppedRequests < total) {
        // An idle engine holds no KV. Assert that (a drift beyond any
        // FP residue means a reservation leaked), then clear the
        // residue so exact-capacity admission can never stall on one.
        if (active.empty())
            pool.clearIdleResidual();

        process_faults();
        // Outage (a transient failure with nothing to replan onto): no
        // decode and no admission until the repair, or until the next
        // fault event — processed at its own instant so overlapping
        // events stack correctly.
        if (!dead && clock < outage_until) {
            double wake = outage_until;
            if (next_fault < timeline.size())
                wake = std::min(wake, timeline[next_fault].at);
            stats.outageCycles += wake - clock;
            clock = wake; // Outage time is not degraded time.
            continue;
        }

        pull_arrivals();
        pull_retries();
        drop_expired_waiting();
        if (stats.completed.size() + stats.droppedRequests == total)
            break;

        // Idle engine: jump to the next wake-up.
        if (active.empty() && waiting.empty()) {
            const double wake = next_wake();
            panicIf(!std::isfinite(wake),
                    "serving scheduler stalled with requests pending");
            jump_to(wake);
            continue;
        }

        // Admission: the scheduler picks among the admissible waiting
        // requests — a free batch slot, the running batch's model (the
        // engine serves one model at a time; an empty batch anchors on
        // whatever is admitted first), and a KV allocation that fits:
        // the full footprint under Reserve, the current residency
        // (plus the low-watermark growth headroom while others run)
        // under Paged. The policy walks its own order over the indexed
        // queue, and the pass runs the fit check only on the entries
        // it visits. Each admission pays its prefill before joining
        // the batch.
        bool admitted_any = false;
        bool deferred = false;
        while (!waiting.empty() && active.size() < maxBatch_) {
            // Refresh arrivals first: a prefill just paid advanced the
            // clock, and anything that arrived meanwhile must be
            // visible to order-sensitive policies (SJF, skip-ahead).
            // FIFO is unaffected — late arrivals only join the tail.
            pull_arrivals();
            pull_retries();
            drop_expired_waiting();
            if (waiting.empty())
                break;
            const bool watermark = paged && !active.empty();
            const AdmissionPass pass(
                pool, watermark,
                active.empty() ? nullptr : &active.front()->req->model,
                mode, stats.admissionProbes);
            const AdmissionPick pick = scheduler_->pick(waiting, pass);
            if (pick.entry == nullptr) {
                // A deferral (nobody admitted while someone is
                // admissible) is a live decision the per-token loop
                // would revisit after exactly one iteration: it pins
                // the coalescing window to k = 1 so the scheduler is
                // consulted on the same cadence.
                deferred = pick.deferred;
                break;
            }
            panicIf(!pass.accepts(pick.entry->request->req->model) ||
                        !pool.fits(pick.entry->admitBytes, watermark),
                    "scheduler picked an inadmissible request");
            CostedRequest *c = &waiting.erase(*pick.entry);
            if (!c->admitted) {
                c->admitted = true;
                c->admissionCycles = clock; // First admission only:
            }                               // queue wait ends here.
            stats.admissionOrder.push_back(c->req->id);
            hold(*c, admit_bytes(*c),
                 paged ? c->kvBytesPerToken *
                             static_cast<double>(residentTokens(*c))
                       : c->kvBytes);
            // The prefill runs now, in the current mode: charge its
            // energy (nothing for a recompute, whose preemption charged
            // it) and count a restart as fault recompute.
            const double prefill = prefill_cycles(*c, mode);
            advance(prefill);
            stats.busyCycles += prefill;
            if (c->next != NextPrefill::Recompute)
                c->joules += rates(*c, mode).prefillJoules;
            if (c->next == NextPrefill::Restart)
                stats.faultRecomputeCycles += prefill;
            c->next = NextPrefill::Prompt;
            admitted_any = true;
            if (c->remainingTokens == 0)
                finish(*c);
            else
                active.push_back(c);
        }

        if (active.empty()) {
            if (admitted_any)
                continue; // everything admitted had zero decode tokens.
            // Nothing active, nothing admissible: an idle engine holds
            // no KV, so only the next wake-up can unblock (or, under
            // faults, drop) a blocked head — unless the scheduler
            // violated its contract.
            panicIf(waiting.empty() || pool.usedBytes() > 0.0,
                    "admission stalled with an idle engine");
            const double wake = next_wake();
            panicIf(!std::isfinite(wake),
                    "admission livelock: waiting requests can never "
                    "be admitted");
            jump_to(wake);
            continue;
        }

        // ---- Select the iteration window --------------------------
        // Between discrete events the active set and the iteration
        // cost are constant, so k identical iterations advance in one
        // closed-form step. Window bounds, each matching an event the
        // per-token reference reacts to:
        //  - the soonest completion (min remainingTokens) changes the
        //    batch;
        //  - a scheduler deferral is a live decision revisited every
        //    iteration (k = 1, above);
        //  - the next wake-up (an arrival, a fault event, a retry
        //    expiry or a queued deadline) changes the
        //    waiting queue or the fleet (bounded below, once the
        //    iteration cost is known);
        //  - a paged preemption changes the batch (grow_batch_
        //    coalesced truncates the window just before one and the
        //    next pass replays that iteration at per-token fidelity;
        //    fills that fit are absorbed into the window, keeping the
        //    window boundaries policy-independent whenever no
        //    preemption triggers).
        // Mid-window no admission can become possible: slots and the
        // batch model are constant, and pool occupancy only grows
        // (fills), so the admissible set can only shrink and skipping
        // the per-iteration admission retries is behaviour-preserving.
        // Paged: the batch is bucketed by fill iteration once per
        // window (O(batch + blockTokens)), and bucket 0 fills on the
        // window's very first iteration, which may preempt. Resolve
        // that before costing — the per-token ordering (growth
        // precedes the iteration's cost) — and pin the window to one
        // iteration when a preemption fired, so the victim's
        // re-admission is considered on the per-token cadence. Fills
        // that fit never bound the window: grow_batch_coalesced
        // absorbs them from the buckets, keeping the window chunking
        // independent of the KV policy whenever no preemption
        // triggers.
        bool preempted_now = false;
        if (paged) {
            fills.build(active);
            // A lone survivor always fits: the footprint precheck
            // bounds its largest residency by the capacity. Each
            // preemption re-buckets the smaller batch.
            if (!fills.bucket(0).empty()) {
                while (!pool.fits(bucket_bytes(0), /*admission=*/false) &&
                       active.size() > 1) {
                    preempt_youngest();
                    preempted_now = true;
                    fills.build(active);
                }
            }
        }

        std::size_t k = active.front()->remainingTokens;
        for (const CostedRequest *c : active)
            k = std::min(k, c->remainingTokens);
        if (!coalesce || deferred || preempted_now)
            k = 1;

        IterCost cost = iter_cost();
        if (k > 1 && cost.cycles > 0.0) {
            // Stop at the first iteration whose end reaches the next
            // wake-up: the per-token loop observes it before the
            // following iteration. The admission loop can leave an
            // arrival already due (a prefill advanced the clock past
            // it without a final pull); that pins the window to the
            // per-token cadence of one iteration. x -> ceil((x -
            // clock) / cost) is monotone in IEEE arithmetic, so
            // bounding at the earliest instant equals the tightest
            // bound over every instant.
            const double until = next_wake() - clock;
            if (until <= 0.0) {
                k = 1;
            } else {
                const double ka = std::ceil(until / cost.cycles);
                if (ka < static_cast<double>(k))
                    k = std::max<std::size_t>(
                        1, static_cast<std::size_t>(ka));
            }
        }
        if (paged)
            k = grow_batch_coalesced(k);

        // ---- Advance k identical iterations in closed form --------
        // k == 1 reduces bit-exactly to the per-token reference
        // (1.0 * x == x in IEEE arithmetic), so the per-token escape
        // hatch and the boundary/deferral windows share this path
        // unchanged.
        const double kd = static_cast<double>(k);
        const double window_start = clock;
        advance(kd * cost.cycles);
        stats.busyCycles += kd * cost.cycles;
        stats.occupancySum += kd * static_cast<double>(active.size());
        stats.peakBatch = std::max(stats.peakBatch, active.size());
        stats.iterations += k;
        ++stats.decodeWindows;

        const double weight_joules_share =
            cost.weightJoules / static_cast<double>(active.size());
        for (auto it = active.begin(); it != active.end();) {
            CostedRequest *c = *it;
            c->joules +=
                kd * (rates(*c, mode).otherJoulesPerToken +
                      weight_joules_share);
            if (!c->firstTokenSeen) {
                c->firstTokenSeen = true;
                // End of the window's first iteration — exact for any
                // k, since a request enters a window at most once
                // without its first token.
                c->firstTokenCycles = window_start + cost.cycles;
            }
            c->remainingTokens -= k;
            if (c->remainingTokens == 0) {
                finish(*c);
                it = active.erase(it);
            } else {
                ++it;
            }
        }
    }

    stats.clockCycles = clock;
    stats.kvPeakBytes = pool.peakUsedBytes();
    stats.kvFragmentationPeakBytes = pool.peakFragmentationBytes();
    return stats;
}

} // namespace mcbp::engine
