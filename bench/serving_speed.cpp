/**
 * @file
 * Serving fast-path benchmark: wall-clock of the two layers a
 * million-request trace spends its time in, each gated on the
 * equivalence contract that makes the fast path safe to ship.
 *
 * Sections:
 *  1. Trace costing — the per-shape pricing loop, serial
 *     (costingThreads = 1) vs the parallel fan-out over shapes
 *     (costingThreads = 0), on a 100k-request jittered Dolly trace:
 *     the task, jitter and size of perfbench's `steady`, so each
 *     prompt length repeats about 12 times while nine shapes in ten
 *     are distinct, the reuse the phase memo is built for.
 *     Host-independent gates, always enforced:
 *     the costed traces are bit-identical, the shape table holds
 *     exactly the trace's distinct shapes, costing leaves the plan
 *     cache untouched (0 computes), and the serial costing's phase
 *     memo evaluates at least one and at most the trace's distinct
 *     prompts plus its distinct (bucket, 2*promptLen + decodeLen)
 *     decode contexts (phase_evaluations), where pricing every shape
 *     from scratch evaluates two phases per shape. The >= 4x speedup gate binds only
 *     when the host grants >= 8 hardware threads (the fan-out cannot
 *     win on a 1-2 core runner). A faulted tp=2 trace with a degraded
 *     twin then gates lazy degraded pricing on a 4,000-request trace,
 *     host-independently: costing runs the twin 0 times, and a run
 *     with one transient chip failure prices each shape it reads
 *     once, fewer than the table holds (degraded_shapes_priced).
 *  2. Decode-iteration coalescing — the same long-decode trace played
 *     through the event core per-token vs coalesced, under reserve
 *     and under a preempting paged pool. Scheduling decisions
 *     (admission order, preemption victims, completion order) must
 *     match verbatim, aggregates to 1e-9 relative, and the coalesced
 *     run must win >= 10x in decode loop passes (the algorithmic
 *     gate, host-independent) — wall-clock is reported alongside.
 *  3. Admission scaling — a t = 0 shortest-prompt burst under a
 *     KV-tight paged pool, at n and 4n requests, where every
 *     admission pass faces the whole waiting queue. Host-independent
 *     gates: the KV-fit checks admission makes (admission_probes)
 *     grow at most 5x for 4x the requests (a per-pass scan of the
 *     queue grows them ~16x), and per-token and coalesced stepping
 *     make identical decisions at both sizes. The coalesced runs also
 *     gate the paged window grower on a host-independent count: its
 *     per-request KV ledger updates (kv_ledger_updates) stay within
 *     3 x maxBatch per decode window plus one per block fill
 *     (occupancy / blockTokens), where a walk of the whole batch per
 *     fill-to-fill segment made about the batch size per segment.
 *     Wall time is recorded, not gated.
 *  4. Fleet stages — a fault-free `mcbp:dp=4,pp=2,tp=2` Dolly trace
 *     played stage by stage: costTrace(), FleetRouter::route(),
 *     serveReplicas(), failover() and merge(), each stage's wall time
 *     recorded, not gated. One host-independent gate: the staged run
 *     reproduces FleetRouter::simulate()'s merged report bit for bit.
 *
 * Exit code 0 iff every enforced gate passes. `--json <path>`
 * archives the records (bench_util.hpp schema).
 */
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "../tests/counting_accelerator.hpp"
#include "accel/profile_cache.hpp"
#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "engine/fleet.hpp"
#include "engine/health.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"

using namespace mcbp;

namespace {

double
seconds(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Relative agreement of two aggregates (coalescing drift check). */
bool
near(double a, double b)
{
    const double scale = std::max({std::abs(a), std::abs(b), 1.0});
    return std::abs(a - b) <= 1e-9 * scale;
}

/** Costed traces bit-identical field for field. */
bool
costsIdentical(const engine::ServingSimulator::CostedTrace &a,
               const engine::ServingSimulator::CostedTrace &b)
{
    if (a.clockGhz != b.clockGhz || a.serialSeconds != b.serialSeconds ||
        a.serialJoules != b.serialJoules ||
        a.costs.size() != b.costs.size())
        return false;
    for (std::size_t i = 0; i < a.costs.size(); ++i) {
        const engine::CostedRequest &x = a.costs[i];
        const engine::CostedRequest &y = b.costs[i];
        if (x.req->id != y.req->id ||
            x.arrivalCycles != y.arrivalCycles ||
            x.recomputeCycles != y.recomputeCycles || x.next != y.next ||
            x.shape->rates != y.shape->rates ||
            x.kvBytes != y.kvBytes ||
            x.kvBytesPerToken != y.kvBytesPerToken ||
            x.remainingTokens != y.remainingTokens)
            return false;
    }
    return true;
}

/** The coalescing equivalence contract between two reports. */
bool
decisionsIdentical(const engine::ServingReport &ref,
                   const engine::ServingReport &coal, bool &drift_ok)
{
    drift_ok = near(ref.busySeconds, coal.busySeconds) &&
               near(ref.makespanSeconds, coal.makespanSeconds) &&
               near(ref.joulesPerToken, coal.joulesPerToken) &&
               near(ref.meanTpotSeconds, coal.meanTpotSeconds) &&
               near(ref.p99FirstTokenSeconds, coal.p99FirstTokenSeconds);
    if (ref.admissionOrder != coal.admissionOrder ||
        ref.preemptionOrder != coal.preemptionOrder ||
        ref.preemptions != coal.preemptions ||
        ref.decodeIterations != coal.decodeIterations ||
        ref.requests.size() != coal.requests.size())
        return false;
    for (std::size_t i = 0; i < ref.requests.size(); ++i) {
        if (ref.requests[i].id != coal.requests[i].id)
            return false;
        drift_ok = drift_ok && near(ref.requests[i].completionSeconds,
                                    coal.requests[i].completionSeconds);
    }
    return true;
}

/** Distinct (model, task, prompt, decode) shapes of @p trace. */
std::size_t
distinctShapes(const std::vector<model::Request> &trace)
{
    std::set<std::tuple<std::string, std::string, std::size_t, std::size_t>>
        shapes;
    for (const model::Request &r : trace)
        shapes.insert({r.model, r.task, r.promptLen, r.decodeLen});
    return shapes.size();
}

/**
 * The phase evaluations one memo needs for @p trace: each distinct
 * (model, task, promptLen) prefill plus each distinct (model, task,
 * attention bucket, 2*promptLen + decodeLen) decode step.
 */
std::size_t
distinctPhases(const std::vector<model::Request> &trace)
{
    std::set<std::tuple<std::string, std::string, std::size_t>> prompts;
    std::set<std::tuple<std::string, std::string, std::size_t, std::size_t>>
        contexts;
    for (const model::Request &r : trace) {
        prompts.insert({r.model, r.task, r.promptLen});
        if (r.decodeLen > 0)
            contexts.insert({r.model, r.task,
                             accel::contextBucket(r.promptLen),
                             2 * r.promptLen + r.decodeLen});
    }
    return prompts.size() + contexts.size();
}

/** Two doubles with the same bits. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Every field of two serving reports bit-identical, requests and
 *  fault log included. */
bool
reportsBitIdentical(const engine::ServingReport &a,
                    const engine::ServingReport &b)
{
    bool same = a.accelerator == b.accelerator &&
                a.scheduler == b.scheduler && a.kvPolicy == b.kvPolicy &&
                a.noCompletions == b.noCompletions &&
                a.admissionOrder == b.admissionOrder &&
                a.preemptionOrder == b.preemptionOrder &&
                a.retryOrder == b.retryOrder && a.dropOrder == b.dropOrder &&
                a.requests.size() == b.requests.size() &&
                a.faultLog.size() == b.faultLog.size();
#define MCBP_SAME_COUNTER(type, stat, member, key, rule, unit)                \
    same = same && sameBits(static_cast<double>(a.member),                    \
                            static_cast<double>(b.member));
    MCBP_SERVING_COUNTERS(MCBP_SAME_COUNTER)
#undef MCBP_SAME_COUNTER
    const auto aggregates = [](const engine::ServingReport &r) {
        return std::array{
            r.serialSeconds,        r.serialJoules,
            r.meanLatencySeconds,   r.p50LatencySeconds,
            r.p90LatencySeconds,    r.p99LatencySeconds,
            r.p50QueueSeconds,      r.p90QueueSeconds,
            r.p99QueueSeconds,      r.p50FirstTokenSeconds,
            r.p90FirstTokenSeconds, r.p99FirstTokenSeconds,
            r.meanTpotSeconds,      r.tokensPerSecond,
            r.joulesPerToken,       r.meanBatchOccupancy,
            r.kvUtilization,        r.kvBlockUtilization,
            r.degradedFraction,     r.goodputTokensPerSecond,
            r.sloAttainment};
    };
    const auto x = aggregates(a);
    const auto y = aggregates(b);
    for (std::size_t i = 0; same && i < x.size(); ++i)
        same = sameBits(x[i], y[i]);
    for (std::size_t i = 0; same && i < a.requests.size(); ++i) {
        const engine::RequestMetrics &m = a.requests[i];
        const engine::RequestMetrics &n = b.requests[i];
        same = m.id == n.id && sameBits(m.arrivalSeconds, n.arrivalSeconds) &&
               sameBits(m.admissionSeconds, n.admissionSeconds) &&
               sameBits(m.firstTokenSeconds, n.firstTokenSeconds) &&
               sameBits(m.completionSeconds, n.completionSeconds) &&
               m.decodeTokens == n.decodeTokens &&
               sameBits(m.kvBytes, n.kvBytes) &&
               m.preemptions == n.preemptions &&
               m.recomputedTokens == n.recomputedTokens &&
               m.retries == n.retries && m.sloMiss == n.sloMiss &&
               sameBits(m.joules, n.joules);
    }
    for (std::size_t i = 0; same && i < a.faultLog.size(); ++i) {
        const engine::FaultImpact &f = a.faultLog[i];
        const engine::FaultImpact &g = b.faultLog[i];
        same = f.eventId == g.eventId && sameBits(f.at, g.at) &&
               f.kind == g.kind && f.chip == g.chip &&
               f.permanent == g.permanent && f.killed == g.killed &&
               f.dropped == g.dropped;
    }
    return same;
}

std::size_t
generatedTokens(const engine::ServingReport &r)
{
    std::size_t tokens = 0;
    for (const engine::RequestMetrics &m : r.requests)
        tokens += m.decodeTokens;
    return tokens;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::validatedJsonPathFromArgs(argc, argv);
    bench::JsonRecords json("serving_speed");
    bool all_gates = true;

    engine::Registry registry;
    auto accel = registry.make("mcbp");

    // ---- Section 1: trace costing over the shape table ---------------
    bench::banner("Trace costing: serial vs parallel over distinct shapes");
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "Dolly";
    tc.requests = 100000;
    tc.arrivalsPerSecond = 100.0;
    tc.seed = 5;
    const auto costing_trace = model::synthesizeTrace(tc);

    // Warm the profile cache once, untimed: both timed runs then pay
    // only the per-shape folds, the layer the fan-out parallelizes.
    {
        engine::ServingOptions warm;
        warm.costingThreads = 1;
        (void)engine::ServingSimulator(*accel, warm)
            .costTrace(costing_trace);
    }
    engine::ServingOptions serial_opts;
    serial_opts.costingThreads = 1;
    engine::ServingSimulator serial_sim(*accel, serial_opts);
    engine::ServingSimulator::CostedTrace serial_costs;
    const double serial_s = seconds(
        [&] { serial_costs = serial_sim.costTrace(costing_trace); });

    engine::ServingOptions par_opts;
    par_opts.costingThreads = 0; // full pool.
    engine::ServingSimulator par_sim(*accel, par_opts);
    engine::ServingSimulator::CostedTrace par_costs;
    const double par_s =
        seconds([&] { par_costs = par_sim.costTrace(costing_trace); });

    const double cost_speedup = par_s > 0.0 ? serial_s / par_s : 1.0;
    const bool cost_identical = costsIdentical(serial_costs, par_costs);
    const std::size_t distinct = distinctShapes(costing_trace);
    const bool shapes_once = serial_costs.shapeCount() == distinct &&
                             par_costs.shapeCount() == distinct;
    const bool no_plan_computes =
        serial_sim.planCache()->computeCalls() == 0 &&
        par_sim.planCache()->computeCalls() == 0;
    const std::size_t phases = distinctPhases(costing_trace);
    const std::size_t phase_evaluations = serial_costs.phaseEvaluations();
    const bool phases_once =
        phase_evaluations > 0 && phase_evaluations <= phases;
    const bool cost_gate_enforced = parallel::hardwareThreads() >= 8;
    const bool cost_gate =
        cost_identical && shapes_once && no_plan_computes && phases_once &&
        (!cost_gate_enforced || cost_speedup >= 4.0);
    all_gates = all_gates && cost_gate;

    std::printf("  requests %zu  distinct shapes %zu  threads %zu\n",
                costing_trace.size(), par_costs.shapeCount(),
                parallel::hardwareThreads());
    std::printf("  serial    %8.3f s  (%.0f req/s)\n", serial_s,
                serial_s > 0.0 ? costing_trace.size() / serial_s : 0.0);
    std::printf("  parallel  %8.3f s  (%.0f req/s)\n", par_s,
                par_s > 0.0 ? costing_trace.size() / par_s : 0.0);
    std::printf("  speedup   %8.2fx   bit-identical: %s\n", cost_speedup,
                cost_identical ? "yes" : "NO (BUG)");
    std::printf("  shapes priced == distinct shapes (%zu): %s   "
                "plan-cache computes == 0: %s\n",
                distinct, shapes_once ? "yes" : "NO (BUG)",
                no_plan_computes ? "yes" : "NO (BUG)");
    std::printf("  phase evaluations serial %zu, parallel %zu; distinct "
                "phases %zu (two per shape would be %zu): %s\n",
                phase_evaluations, par_costs.phaseEvaluations(), phases,
                2 * distinct, phases_once ? "yes" : "NO (BUG)");
    if (!cost_gate_enforced)
        std::printf("  speedup gate (>= 4x) skipped: %zu hardware "
                    "threads < 8\n",
                    parallel::hardwareThreads());
    else
        std::printf("  speedup gate (>= 4x): %s\n",
                    cost_gate ? "pass" : "FAIL");
    json.begin()
        .field("section", "trace_costing")
        .field("requests", costing_trace.size())
        .field("distinct_shapes", par_costs.shapeCount())
        .field("threads", parallel::hardwareThreads())
        .field("serial_s", serial_s)
        .field("parallel_s", par_s)
        .field("requests_costed_per_s",
               par_s > 0.0 ? costing_trace.size() / par_s : 0.0)
        .field("speedup", cost_speedup)
        .field("bit_identical", cost_identical ? 1 : 0)
        .field("shapes_priced_once", shapes_once ? 1 : 0)
        .field("plan_cache_computes",
               par_sim.planCache()->computeCalls())
        .field("phase_evaluations", phase_evaluations)
        .field("phase_evaluations_parallel", par_costs.phaseEvaluations())
        .field("distinct_phases", phases)
        .field("gate_enforced", cost_gate_enforced ? 1 : 0);

    // ---- Section 1b: degraded prices on first read --------------------
    bench::banner("Degraded costing: the twin prices only what runs read");
    {
        tc.requests = 4000;
        const auto faulted_trace = model::synthesizeTrace(tc);
        const auto replica = registry.make("mcbp:tp=2");
        const engine::CountingAccelerator twin(
            registry.make(engine::degradedSpec("mcbp:tp=2")));
        engine::ServingOptions opts;
        const double makespan = engine::ServingSimulator(*replica, opts)
                                    .simulate(faulted_trace)
                                    .makespanSeconds;
        opts.degradedAccel = &twin;
        // One chip down for a twentieth of the healthy run.
        sim::FaultEvent fail;
        fail.at = makespan / 4.0;
        fail.kind = sim::FaultKind::ChipFail;
        fail.repairAt = fail.at + makespan / 20.0;
        opts.faults.events = {fail};
        const engine::ServingSimulator sim(*replica, opts);
        const engine::ServingSimulator::CostedTrace costed =
            sim.costTrace(faulted_trace);
        const std::size_t costing_runs = twin.runs();
        const engine::ServingReport report = sim.serve(
            costed,
            sim::buildFaultTimeline(
                opts.faults,
                std::max<std::size_t>(1, replica->capabilities().kvShards)));
        const std::size_t priced = costed.degradedShapesPriced();
        const bool lazy_gate = costing_runs == 0 && twin.runs() == priced &&
                               priced > 0 && priced < costed.shapeCount() &&
                               report.degradedSeconds > 0.0;
        all_gates = all_gates && lazy_gate;
        std::printf("  twin runs at costing %zu   degraded shapes priced "
                    "%zu of %zu   gate: %s\n",
                    costing_runs, priced, costed.shapeCount(),
                    lazy_gate ? "pass" : "FAIL");
        json.begin()
            .field("section", "degraded_costing")
            .field("requests", faulted_trace.size())
            .field("distinct_shapes", costed.shapeCount())
            .field("twin_runs_at_costing", costing_runs)
            .field("degraded_shapes_priced", priced)
            .field("degraded_s", report.degradedSeconds)
            .field("gate", lazy_gate ? 1 : 0);
    }

    // ---- Section 2: decode-iteration coalescing ----------------------
    bench::banner("Decode coalescing: per-token vs coalesced stepping");
    // A long-decode burst (everything arrives at t = 0): the per-token
    // loop pays one pass per generated token, the coalesced loop one
    // pass per discrete event. Decode lengths are staggered so
    // completions keep re-chunking the windows.
    std::vector<model::Request> decode_trace;
    for (std::size_t i = 0; i < 256; ++i) {
        model::Request r;
        r.id = i;
        r.arrivalSeconds = 0.0;
        r.model = "OPT1B3";
        r.task = "Dolly";
        r.promptLen = 96 + (i * 13) % 64;
        r.decodeLen = 2048 + (i * 257) % 2048;
        decode_trace.push_back(r);
    }

    struct Leg
    {
        const char *name;
        engine::KvPolicy kv;
        double capacity; // <= 0 = unbounded.
        /** Enforce the >= 10x window-reduction gate: the long-decode
         *  leg's claim. The preempting leg exists to gate decision
         *  identity under eviction; its every preemption deliberately
         *  pins a window to one iteration, so only its contract —
         *  not its reduction ratio — is gated. */
        bool gateWindows;
    };
    std::vector<Leg> legs = {{"reserve_unbounded",
                              engine::KvPolicy::Reserve, 0.0, true}};
    {
        // Size a paged pool to preempt: the decision-identity gate
        // must cover eviction victims, not just admissions.
        engine::ServingOptions probe;
        probe.maxBatch = 64;
        probe.kvPolicy = engine::KvPolicy::Paged;
        const double peak = engine::ServingSimulator(*accel, probe)
                                .simulate(decode_trace)
                                .kvPeakBytes;
        legs.push_back({"paged_preempting", engine::KvPolicy::Paged,
                        peak / 4.0, false});
    }

    for (const Leg &leg : legs) {
        engine::ServingOptions base;
        base.maxBatch = 64;
        base.kvPolicy = leg.kv;
        base.kvCapacityBytes = leg.capacity;

        engine::ServingOptions ref_opts = base;
        ref_opts.stepMode = engine::StepMode::PerToken;
        engine::ServingSimulator ref_sim(*accel, ref_opts);
        engine::ServingOptions coal_opts = base;
        coal_opts.stepMode = engine::StepMode::Coalesced;
        engine::ServingSimulator coal_sim(*accel, coal_opts);

        engine::ServingReport ref, coal;
        const double ref_s =
            seconds([&] { ref = ref_sim.simulate(decode_trace); });
        const double coal_s =
            seconds([&] { coal = coal_sim.simulate(decode_trace); });

        bool drift_ok = false;
        const bool decisions = decisionsIdentical(ref, coal, drift_ok);
        const double wall_speedup = coal_s > 0.0 ? ref_s / coal_s : 1.0;
        const double window_reduction =
            coal.decodeWindows > 0
                ? static_cast<double>(coal.decodeIterations) /
                      static_cast<double>(coal.decodeWindows)
                : 1.0;
        // The algorithmic gate: >= 10x fewer decode loop passes. The
        // wall-clock win is reported but not gated (tiny traces put
        // costing/aggregation in the denominator).
        const bool leg_gate =
            decisions && drift_ok &&
            (!leg.gateWindows || window_reduction >= 10.0);
        all_gates = all_gates && leg_gate;

        const std::size_t tokens = generatedTokens(coal);
        std::printf("  [%s]\n", leg.name);
        std::printf("    per-token  %8.3f s  (%zu iterations, "
                    "%zu passes)\n",
                    ref_s, ref.decodeIterations, ref.decodeWindows);
        std::printf("    coalesced  %8.3f s  (%zu iterations, "
                    "%zu windows)\n",
                    coal_s, coal.decodeIterations, coal.decodeWindows);
        std::printf("    wall %5.2fx  window reduction %7.1fx  "
                    "sim tokens/s %.3g  preemptions %zu\n",
                    wall_speedup, window_reduction,
                    coal_s > 0.0 ? tokens / coal_s : 0.0,
                    coal.preemptions);
        std::printf("    decisions identical: %s   drift <= 1e-9: %s   "
                    "gate%s: %s\n",
                    decisions ? "yes" : "NO (BUG)",
                    drift_ok ? "yes" : "NO (BUG)",
                    leg.gateWindows ? " (>= 10x windows)" : "",
                    leg_gate ? "pass" : "FAIL");
        json.begin()
            .field("section", "decode_coalescing")
            .field("leg", leg.name)
            .field("per_token_s", ref_s)
            .field("coalesced_s", coal_s)
            .field("wall_speedup", wall_speedup)
            .field("window_reduction", window_reduction)
            .field("simulated_tokens_per_s",
                   coal_s > 0.0 ? tokens / coal_s : 0.0)
            .field("decisions_identical", decisions ? 1 : 0)
            .field("drift_ok", drift_ok ? 1 : 0)
            .field("windows_gate_enforced", leg.gateWindows ? 1 : 0);
        bench::appendServingFields(json, coal);
    }

    // ---- Section 3: admission scaling ---------------------------------
    bench::banner("Admission scaling: t = 0 burst at n and 4n requests");
    // Shortest-prompt-first walks its prefill order over the indexed
    // queue; the pool, a quarter of the unbounded peak, keeps the
    // queue KV-blocked for most passes.
    auto burst = [](std::size_t n) {
        model::TraceConfig bc;
        bc.model = "OPT1B3";
        bc.task = "MBPP";
        bc.requests = n;
        bc.arrivalsPerSecond = 0.0;
        bc.seed = 9;
        return model::synthesizeTrace(bc);
    };
    constexpr std::size_t kBurstRequests = 500;
    engine::ServingOptions burst_base;
    burst_base.maxBatch = 64;
    burst_base.policy = engine::SchedulerPolicy::ShortestPromptFirst;
    burst_base.kvPolicy = engine::KvPolicy::Paged;
    burst_base.kvCapacityBytes =
        engine::ServingSimulator(*accel, burst_base)
            .simulate(burst(kBurstRequests))
            .kvPeakBytes /
        4.0;

    const std::size_t burst_sizes[2] = {kBurstRequests, 4 * kBurstRequests};
    // kv_ledger_updates of the grower that walked the whole batch per
    // fill-to-fill segment, counted on these two legs; printed for
    // context, not gated.
    const std::size_t segment_walk_updates[2] = {233702, 929610};
    std::size_t probes[2] = {0, 0};
    bool scaling_decisions = true;
    bool ledger_gate = true;
    for (std::size_t leg = 0; leg < 2; ++leg) {
        const auto trace = burst(burst_sizes[leg]);
        engine::ServingOptions ref_opts = burst_base;
        ref_opts.stepMode = engine::StepMode::PerToken;
        engine::ServingOptions coal_opts = burst_base;
        coal_opts.stepMode = engine::StepMode::Coalesced;
        engine::ServingReport ref, coal;
        const double ref_s = seconds([&] {
            ref = engine::ServingSimulator(*accel, ref_opts).simulate(trace);
        });
        const double coal_s = seconds([&] {
            coal =
                engine::ServingSimulator(*accel, coal_opts).simulate(trace);
        });
        bool drift_ok = false;
        const bool decisions = decisionsIdentical(ref, coal, drift_ok);
        scaling_decisions = scaling_decisions && decisions && drift_ok;
        probes[leg] = coal.admissionProbes;
        // At most maxBatch write-backs per window, and one charge per
        // block fill: occupancy / blockTokens fills, plus at most one
        // more per decode stint of a request (at most maxBatch per
        // window). The factor 3 leaves maxBatch per window of slack.
        const double ledger_bound =
            3.0 * static_cast<double>(burst_base.maxBatch) *
                static_cast<double>(coal.decodeWindows) +
            coal.meanBatchOccupancy *
                static_cast<double>(coal.decodeIterations) /
                static_cast<double>(burst_base.kvBlockTokens);
        const bool ledger_ok =
            static_cast<double>(coal.kvLedgerUpdates) <= ledger_bound;
        ledger_gate = ledger_gate && ledger_ok;

        std::printf("  [%zu requests]\n", trace.size());
        std::printf("    per-token  %8.3f s   coalesced %8.3f s   "
                    "preemptions %zu\n",
                    ref_s, coal_s, coal.preemptions);
        std::printf("    admission probes %zu (%.1f per admission)   "
                    "decisions identical: %s   drift <= 1e-9: %s\n",
                    coal.admissionProbes,
                    static_cast<double>(coal.admissionProbes) /
                        static_cast<double>(coal.admissionOrder.size()),
                    decisions ? "yes" : "NO (BUG)",
                    drift_ok ? "yes" : "NO (BUG)");
        std::printf("    kv ledger updates %zu in %zu windows (%.1f per "
                    "window; per-segment walk: %zu)   gate (<= %.0f): %s\n",
                    coal.kvLedgerUpdates, coal.decodeWindows,
                    static_cast<double>(coal.kvLedgerUpdates) /
                        static_cast<double>(coal.decodeWindows),
                    segment_walk_updates[leg], ledger_bound,
                    ledger_ok ? "pass" : "FAIL");
        json.begin()
            .field("section", "admission_scaling")
            .field("requests", trace.size())
            .field("per_token_s", ref_s)
            .field("coalesced_s", coal_s)
            .field("decisions_identical", decisions ? 1 : 0)
            .field("drift_ok", drift_ok ? 1 : 0)
            .field("kv_ledger_bound", ledger_bound)
            .field("kv_ledger_gate", ledger_ok ? 1 : 0);
        bench::appendServingFields(json, coal);
    }
    const double probe_ratio =
        probes[0] > 0 ? static_cast<double>(probes[1]) /
                            static_cast<double>(probes[0])
                      : 0.0;
    const bool scaling_gate = scaling_decisions && ledger_gate &&
                              probes[0] > 0 && probe_ratio <= 5.0;
    all_gates = all_gates && scaling_gate;
    std::printf("  probes(4n) / probes(n) = %.2f   gate (<= 5, identical "
                "decisions, ledger updates bounded): %s\n",
                probe_ratio, scaling_gate ? "pass" : "FAIL");
    json.begin()
        .field("section", "admission_scaling_gate")
        .field("probe_ratio", probe_ratio)
        .field("gate", scaling_gate ? 1 : 0);

    // ---- Section 4: the fleet's stages --------------------------------
    bench::banner("Fleet stages: dp=4,pp=2,tp=2, fault-free, stage by stage");
    {
        const auto pod = registry.make("mcbp:dp=4,pp=2,tp=2");
        const auto &fleet = dynamic_cast<const engine::FleetAccelerator &>(*pod);
        const std::size_t dp = fleet.options().dataParallel;
        model::TraceConfig fc;
        fc.model = "OPT1B3";
        fc.task = "Dolly";
        fc.requests = 20000;
        fc.arrivalsPerSecond = 3.0;
        fc.seed = 7;
        const auto trace = model::synthesizeTrace(fc);
        engine::ServingOptions opts;
        opts.maxBatch = 64;
        const engine::FleetRouter router(fleet, opts);

        // The stages as simulate() composes them. A fault-free fleet
        // with unbounded KV serves its replicas on the fleet's own
        // options: no replica dies, every timeline slice is empty, and
        // the synthesized trace is in (arrival, id) order, so its
        // sub-traces are too.
        engine::FleetRouter::Dispatch run;
        engine::ServingSimulator::CostedTrace costed;
        const double cost_s = seconds([&] {
            costed = engine::ServingSimulator(fleet.replica(), opts)
                         .costTrace(trace);
        });
        run.timelines.resize(dp);
        run.deadAt.assign(dp, std::numeric_limits<double>::infinity());
        const double route_s = seconds([&] {
            run.assignment = router.route(costed, run.deadAt);
            run.subTraces.resize(dp);
            for (std::size_t i = 0; i < trace.size(); ++i)
                run.subTraces[run.assignment[i]].push_back({i, &trace[i]});
        });
        std::vector<std::size_t> all(dp);
        std::iota(all.begin(), all.end(), 0);
        const double serve_s = seconds([&] {
            run.reports = router.serveReplicas(costed, run.subTraces,
                                               run.timelines, all,
                                               &run.indices);
        });
        const double failover_s =
            seconds([&] { router.failover(costed, run); });
        engine::FleetOutcome staged;
        const double merge_s = seconds(
            [&] { staged = router.merge(costed, std::move(run)); });
        engine::FleetOutcome whole;
        const double simulate_s =
            seconds([&] { whole = router.simulate(trace); });

        const bool fleet_gate =
            reportsBitIdentical(staged.fleet, whole.fleet);
        all_gates = all_gates && fleet_gate;
        std::printf("  requests %zu  replicas %zu  completed %zu\n",
                    trace.size(), dp, whole.fleet.requests.size());
        std::printf("  cost %.4f s  route %.4f s  serve %.4f s  failover "
                    "%.4f s  merge %.4f s  (simulate %.4f s)\n",
                    cost_s, route_s, serve_s, failover_s, merge_s,
                    simulate_s);
        std::printf("  staged report bit-identical to simulate(): %s\n",
                    fleet_gate ? "yes" : "NO (BUG)");
        json.begin()
            .field("section", "fleet_stages")
            .field("requests", trace.size())
            .field("replicas", dp)
            .field("cost_s", cost_s)
            .field("route_s", route_s)
            .field("serve_replicas_s", serve_s)
            .field("failover_s", failover_s)
            .field("merge_s", merge_s)
            .field("simulate_s", simulate_s)
            .field("bit_identical", fleet_gate ? 1 : 0);
        bench::appendServingFields(json, whole.fleet);
    }

    json.writeIfRequested(argc, argv);
    std::printf("\nserving-speed gates: %s\n",
                all_gates ? "PASS" : "FAIL");
    return all_gates ? 0 : 1;
}
