#include "engine/event_core.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "accel/report.hpp"
#include "common/env.hpp"
#include "common/logging.hpp"
#include "engine/waiting_queue.hpp"

namespace mcbp::engine {

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
    for (std::size_t t = 0;
         t < pricedTopologies(faults_.enabled, faults_.hasDegraded); ++t)
        fatalIf(kv_.policy == KvPolicy::Paged && !repricers_[t],
                "paged KV needs a prefill re-pricer for recompute on "
                "every topology it serves");
    if (faults_.enabled)
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

    // ---- Fault state (inert when faults are off) -----------------------
    const bool faulty = faults_.enabled;
    const std::size_t priced =
        pricedTopologies(faults_.enabled, faults_.hasDegraded);
    const bool deadlines = faulty && faults_.deadlineCycles > 0.0;
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

    if (deadlines) // A fleet failover copy arrives with its own.
        for (CostedRequest &c : requests)
            if (c.deadlineCycles == 0.0)
                c.deadlineCycles = c.arrivalCycles + faults_.deadlineCycles;

    double clock = 0.0;
    std::size_t next_arrival = 0;
    WaitingQueue waiting(scheduler_->prefillAging(), priced, deadlines);
    std::vector<CostedRequest *> active; // Admission order.

    // Clock advancement attributing degraded time. The arithmetic is
    // the zero-fault engine's plain `clock += delta` / `clock = to`,
    // so disabled faults change no bit of the result.
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

    // Tokens of c's KV resident after a (re)prefill: the prompt plus
    // whatever decode progress a recompute restores. Prefill-only
    // requests retain nothing.
    auto resident_tokens = [](const CostedRequest &c) -> std::size_t {
        if (c.req->decodeLen == 0)
            return 0;
        return c.promptTokens + (c.req->decodeLen - c.remainingTokens);
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
                                           resident_tokens(c))
                     : c.kvBytes;
    };

    auto finish = [&](CostedRequest &c) {
        c.completionCycles = clock;
        release(c);
        stats.completed.push_back(&c);
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
        // Keep every topology's prefill price fresh, whatever mode the
        // re-admission lands in. The recompute's energy is genuinely
        // spent on top of whatever the request already burned; charge
        // it now, in the current mode (the re-admission always happens
        // — the loop runs the trace to completion).
        for (std::size_t t = 0; t < priced; ++t) {
            const PrefillPrice price =
                repricers_[t](*c, c->promptTokens + progress);
            c->prefillCycles[t] = price.cycles;
            if (t == mode)
                c->joules += price.joules;
        }
        waiting.pushFront(*c, admit_bytes(*c));
    };

    // Pull every request that has arrived by the current clock into
    // the waiting queue (arrival order).
    auto pull_arrivals = [&] {
        while (next_arrival < order.size() &&
               requests[order[next_arrival]].arrivalCycles <= clock) {
            CostedRequest &c = requests[order[next_arrival++]];
            waiting.pushBack(c, admit_bytes(c));
        }
    };

    auto drop_request = [&](CostedRequest *c,
                            EventStats::FaultImpact *impact) {
        panicIf(c->dropped, "request dropped twice");
        c->dropped = true;
        ++stats.droppedRequests;
        stats.dropOrder.push_back(c->req->id);
        if (impact != nullptr)
            ++impact->dropped;
    };

    // Kill every in-flight request: free its KV, void its decode
    // progress, re-arm the full-prompt restart prefill, and either
    // schedule a backoff retry or drop it (retry budget exhausted,
    // deadline passed, or the fleet is dead). Active order is
    // admission order, so the retry queue and the decision logs are
    // deterministic and step-mode independent.
    auto kill_active = [&](EventStats::FaultImpact &impact) {
        for (CostedRequest *c : active) {
            release(*c);
            const std::size_t progress =
                c->req->decodeLen - c->remainingTokens;
            stats.faultLostTokens += progress;
            c->remainingTokens = c->req->decodeLen;
            c->firstTokenSeen = false;
            for (std::size_t t = 0; t < kTopologies; ++t) {
                const Rates &r = c->shape->rates[t];
                c->prefillCycles[t] = r.prefillCycles;
                c->pendingPrefillJoules[t] = r.prefillJoules;
            }
            c->restartPending = true;
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
    auto drop_all_pending = [&](EventStats::FaultImpact &impact) {
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
        const bool degraded = faults_.hasDegraded && !dead &&
                              (permanent_down || chips_down > 0);
        mode = degraded ? kDegraded : kHealthy;
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
            EventStats::FaultImpact impact;
            impact.eventId = e.id;
            impact.atCycles = e.at;
            impact.kind = e.kind;
            impact.chip = e.chip;
            impact.permanent = e.permanent;
            switch (e.kind) {
            case sim::FaultKind::ChipFail:
                if (e.permanent) {
                    // The degraded replan absorbs one permanent loss;
                    // a second one (or any loss on a fleet without a
                    // degraded plan) is fatal.
                    if (!faults_.hasDegraded || permanent_down)
                        dead = true;
                    permanent_down = true;
                } else {
                    ++chips_down;
                    // Nothing to replan onto: the fleet is an outage
                    // until this chip's repair lands.
                    if (!faults_.hasDegraded || permanent_down)
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
                waiting.pushBack(*c, admit_bytes(*c));
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
    // the next arrival and, under faults, the earliest retry expiry,
    // fault event or queued-request deadline. Infinity when none is
    // left.
    auto next_wake = [&] {
        double wake = std::numeric_limits<double>::infinity();
        if (next_arrival < order.size())
            wake = requests[order[next_arrival]].arrivalCycles;
        if (faulty) {
            for (const CostedRequest *c : retrying)
                wake = std::min(wake, c->retryAtCycles);
            if (next_fault < timeline.size())
                wake = std::min(wake, timeline[next_fault].at);
            wake = std::min(wake, waiting.earliestDeadline());
        }
        return wake;
    };

    // Growth-extra bytes of the next decode iteration with every
    // residency advanced by @p ahead in-window iterations: zero away
    // from block boundaries, whole blocks at a fill.
    auto growth_extra = [&](std::size_t ahead) -> double {
        double extra = 0.0;
        for (const CostedRequest *c : active)
            extra += pool.allocatedBytes(c->kvBytesPerToken,
                                         resident_tokens(*c) + ahead +
                                             1) -
                     c->kvAllocatedBytes;
        return extra;
    };

    // Iterations until the first active request fills a block and
    // allocates, with every residency advanced by @p ahead in-window
    // iterations: growth serves token resident+1, so a residency
    // sitting exactly on a block boundary allocates on the very next
    // token.
    auto next_fill_in = [&](std::size_t ahead) -> std::size_t {
        std::size_t fill_in = std::numeric_limits<std::size_t>::max();
        for (const CostedRequest *c : active) {
            const std::size_t rem =
                (resident_tokens(*c) + ahead) % kv_.blockTokens;
            fill_in =
                std::min(fill_in, rem == 0 ? std::size_t{1}
                                           : kv_.blockTokens - rem + 1);
        }
        return fill_in;
    };

    // Paged growth of a coalesced k-iteration window, walked in
    // fill-to-fill segments so the window itself stays bounded only by
    // the policy-independent events (completion, arrival, deferral):
    //
    //  - Strictly between block fills no request allocates (every
    //    allocation delta is exactly zero), so no preemption can
    //    trigger and only the needed-bytes ledger and the utilization
    //    statistic advance. The per-token loop would sample
    //    needed/used after each iteration with used constant and
    //    needed growing by the batch's summed per-token bytes — an
    //    arithmetic series, folded here in closed form.
    //
    //  - A fill iteration replays the reference growth verbatim: the
    //    allocating adds and the per-iteration utilization sample. If
    //    the batch's growth no longer fits (a preemption is due), the
    //    window is truncated just before that iteration and the next
    //    outer pass routes it through the reference path, so eviction
    //    victims and their order match the per-token loop exactly.
    //
    // Pool occupancy only grows within the window and the batch/model
    // are constant, so no admission can become possible mid-window
    // and skipping the per-iteration admission retries stays
    // behaviour-preserving. Peak fragmentation needs no extra
    // samples: allocated - needed only shrinks between fills, and
    // every allocating add() records its own peak.
    //
    // Returns the iterations actually grown (= the window's final k):
    // a fill due on the first iteration has had its preemptions
    // resolved by the caller before entry, so at least one iteration
    // always survives.
    auto grow_batch_coalesced = [&](std::size_t k) -> std::size_t {
        std::size_t t = 0;
        while (t < k) {
            const std::size_t fill_in = next_fill_in(t);
            const std::size_t seg = std::min(k - t, fill_in - 1);
            if (seg > 0) {
                // Fill-free segment: zero-delta allocations, closed-
                // form utilization over seg iterations.
                const double needed_start = pool.neededBytes();
                double batch_bytes = 0.0;
                for (CostedRequest *c : active) {
                    const std::size_t tokens =
                        resident_tokens(*c) + t + seg;
                    hold(*c,
                         pool.allocatedBytes(c->kvBytesPerToken, tokens),
                         c->kvBytesPerToken * static_cast<double>(tokens));
                    batch_bytes += c->kvBytesPerToken;
                }
                if (pool.usedBytes() > 0.0) {
                    const double sd = static_cast<double>(seg);
                    stats.kvBlockUtilizationSum +=
                        (sd * needed_start +
                         batch_bytes * sd * (sd + 1.0) / 2.0) /
                        pool.usedBytes();
                    stats.kvBlockUtilizationIters += seg;
                }
                t += seg;
                continue;
            }
            // Fill at iteration t+1: the reference growth, except a
            // due preemption truncates the window instead (the next
            // outer pass resolves it at full per-token fidelity).
            if (!pool.fits(growth_extra(t), /*admission=*/false) &&
                active.size() > 1) {
                panicIf(t == 0, "unresolved preemption at window start");
                break;
            }
            for (CostedRequest *c : active) {
                const std::size_t tokens = resident_tokens(*c) + t + 1;
                hold(*c, pool.allocatedBytes(c->kvBytesPerToken, tokens),
                     c->kvBytesPerToken * static_cast<double>(tokens));
            }
            if (pool.usedBytes() > 0.0) {
                stats.kvBlockUtilizationSum +=
                    pool.neededBytes() / pool.usedBytes();
                ++stats.kvBlockUtilizationIters;
            }
            t += 1;
        }
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
            const Rates &r = c->shape->rates[mode];
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
        const Rates &front = active.front()->shape->rates[mode];
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

        if (faulty) {
            process_faults();
            // Outage (a transient failure with nothing to replan
            // onto): no decode and no admission until the repair, or
            // until the next fault event — processed at its own
            // instant so overlapping events stack correctly.
            if (!dead && clock < outage_until) {
                double wake = outage_until;
                if (next_fault < timeline.size())
                    wake = std::min(wake, timeline[next_fault].at);
                stats.outageCycles += wake - clock;
                clock = wake; // Outage time is not degraded time.
                continue;
            }
        }

        pull_arrivals();
        if (faulty) {
            pull_retries();
            drop_expired_waiting();
            if (stats.completed.size() + stats.droppedRequests == total)
                break;
        }

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
            if (faulty) {
                pull_retries();
                drop_expired_waiting();
                if (waiting.empty())
                    break;
            }
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
                             static_cast<double>(resident_tokens(*c))
                       : c->kvBytes);
            // The prefill runs now, in the current mode: charge its
            // energy (nothing after a paged preemption, which charged
            // the recompute when it fired).
            const double prefill = c->prefillCycles[mode];
            advance(prefill);
            stats.busyCycles += prefill;
            c->joules += c->pendingPrefillJoules[mode];
            c->pendingPrefillJoules = {};
            if (c->restartPending) {
                stats.faultRecomputeCycles += prefill;
                c->restartPending = false;
            }
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
        //  - the next wake-up (an arrival; under faults a fault
        //    event, retry expiry or queued deadline) changes the
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
        // Paged: a block fill due on the window's very first iteration
        // may preempt. Resolve that before costing — the per-token
        // ordering (growth precedes the iteration's cost) — and pin
        // the window to one iteration when a preemption fired, so the
        // victim's re-admission is considered on the per-token
        // cadence. Fills that fit never bound the window: they are
        // absorbed below, keeping the window chunking independent of
        // the KV policy whenever no preemption triggers.
        bool preempted_now = false;
        if (paged && next_fill_in(0) == 1) {
            // A lone survivor always fits: the footprint precheck
            // bounds its largest residency by the capacity (the
            // fits() miss can only be the pool's FP residue).
            while (!pool.fits(growth_extra(0), /*admission=*/false) &&
                   active.size() > 1) {
                preempt_youngest();
                preempted_now = true;
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
            c->joules += kd * (c->shape->rates[mode].otherJoulesPerToken +
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
