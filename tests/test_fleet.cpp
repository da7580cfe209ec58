/**
 * @file
 * Replica-fleet (dp=) serving invariants (engine/fleet):
 *  - dp=1 is bit-identical to the flat serving path, down to every
 *    field of the ServingReport (the identity the router guarantees
 *    by wholesale delegation);
 *  - every routing policy conserves requests across replicas (each
 *    trace id served exactly once, no drops on healthy runs);
 *  - a permanently failed replica drains onto the survivors through
 *    the retry/backoff path (reroutes happen, goodput never beats the
 *    healthy run, conservation still holds);
 *  - the fleet's degraded fraction stays within [0, 1] although its
 *    degraded time sums the replicas, and it counts each fleet-wide
 *    fault event once, as its fault log does;
 *  - the fleet prices each distinct shape once per topology, and no
 *    replica run or failover re-run prices it again;
 *  - goldens: twelve fleet configs (dp=2/3/4, pp=/tp= replicas,
 *    reserve and paged KV, failover, degraded twins, sampled and
 *    hand-authored faults) hash their merged report, every replica
 *    report, the assignment and the reroute count;
 *  - the route() stage alone reproduces the assignment of every
 *    golden config that does not reroute; it skips dead replicas and
 *    sends work to the last to die when every replica is dead;
 *  - a deadline binds on a replica whose slice of the fleet's fault
 *    timeline holds no event, as on its siblings and a flat engine,
 *    and a rerouted request keeps the deadline of its original
 *    arrival;
 *  - the coalesced-vs-per-token step-mode identity contract survives
 *    the fleet under injected faults (decision orders verbatim,
 *    aggregates to 1e-9 relative);
 *  - the pod spec grammar (`mcbp-s:dp=4,pp=4,tp=8`) parses, plans and
 *    serves end-to-end, and malformed fleet specs are rejected with
 *    the aggregated unknown-key message.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>

#include "counting_accelerator.hpp"
#include "engine/fleet.hpp"
#include "engine/health.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"

namespace mcbp::engine {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

std::vector<model::Request>
fleetTrace(std::size_t n = 24, double rate = 100.0,
           std::uint64_t seed = 13)
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "MBPP";
    tc.requests = n;
    tc.arrivalsPerSecond = rate;
    tc.seed = seed;
    return model::synthesizeTrace(tc);
}

sim::FaultEvent
permanentFail(double at, std::size_t chip)
{
    sim::FaultEvent e;
    e.at = at;
    e.kind = sim::FaultKind::ChipFail;
    e.chip = chip;
    e.permanent = true;
    return e;
}

/** Field-by-field bit equality of two serving reports. */
void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.accelerator, b.accelerator);
    EXPECT_EQ(a.scheduler, b.scheduler);
    EXPECT_EQ(a.kvPolicy, b.kvPolicy);
#define EXPECT_COUNTER_EQ(type, stat, member, key, rule, unit)                \
    EXPECT_EQ(a.member, b.member) << #member;
    MCBP_SERVING_COUNTERS(EXPECT_COUNTER_EQ)
#undef EXPECT_COUNTER_EQ
    EXPECT_EQ(a.serialSeconds, b.serialSeconds);
    EXPECT_EQ(a.serialJoules, b.serialJoules);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.p50LatencySeconds, b.p50LatencySeconds);
    EXPECT_EQ(a.p90LatencySeconds, b.p90LatencySeconds);
    EXPECT_EQ(a.p99LatencySeconds, b.p99LatencySeconds);
    EXPECT_EQ(a.p50QueueSeconds, b.p50QueueSeconds);
    EXPECT_EQ(a.p90QueueSeconds, b.p90QueueSeconds);
    EXPECT_EQ(a.p99QueueSeconds, b.p99QueueSeconds);
    EXPECT_EQ(a.p50FirstTokenSeconds, b.p50FirstTokenSeconds);
    EXPECT_EQ(a.p90FirstTokenSeconds, b.p90FirstTokenSeconds);
    EXPECT_EQ(a.p99FirstTokenSeconds, b.p99FirstTokenSeconds);
    EXPECT_EQ(a.meanTpotSeconds, b.meanTpotSeconds);
    EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond);
    EXPECT_EQ(a.joulesPerToken, b.joulesPerToken);
    EXPECT_EQ(a.meanBatchOccupancy, b.meanBatchOccupancy);
    EXPECT_EQ(a.kvUtilization, b.kvUtilization);
    EXPECT_EQ(a.kvBlockUtilization, b.kvBlockUtilization);
    EXPECT_EQ(a.admissionOrder, b.admissionOrder);
    EXPECT_EQ(a.preemptionOrder, b.preemptionOrder);
    EXPECT_EQ(a.noCompletions, b.noCompletions);
    EXPECT_EQ(a.degradedFraction, b.degradedFraction);
    EXPECT_EQ(a.goodputTokensPerSecond, b.goodputTokensPerSecond);
    EXPECT_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_EQ(a.retryOrder, b.retryOrder);
    EXPECT_EQ(a.dropOrder, b.dropOrder);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].arrivalSeconds,
                  b.requests[i].arrivalSeconds);
        EXPECT_EQ(a.requests[i].admissionSeconds,
                  b.requests[i].admissionSeconds);
        EXPECT_EQ(a.requests[i].firstTokenSeconds,
                  b.requests[i].firstTokenSeconds);
        EXPECT_EQ(a.requests[i].completionSeconds,
                  b.requests[i].completionSeconds);
        EXPECT_EQ(a.requests[i].decodeTokens, b.requests[i].decodeTokens);
        EXPECT_EQ(a.requests[i].kvBytes, b.requests[i].kvBytes);
        EXPECT_EQ(a.requests[i].retries, b.requests[i].retries);
        EXPECT_EQ(a.requests[i].sloMiss, b.requests[i].sloMiss);
        EXPECT_EQ(a.requests[i].joules, b.requests[i].joules);
    }
}

/** Every trace id appears exactly once among the completed requests. */
void
expectConservation(const ServingReport &report,
                   const std::vector<model::Request> &trace)
{
    EXPECT_EQ(report.droppedRequests, 0u);
    ASSERT_EQ(report.requests.size(), trace.size());
    std::map<std::size_t, std::size_t> seen;
    for (const RequestMetrics &r : report.requests)
        ++seen[r.id];
    for (const model::Request &r : trace) {
        EXPECT_EQ(seen[r.id], 1u) << "request " << r.id;
    }
}

// ---- Outcome goldens -------------------------------------------------

/** FNV-1a over 64-bit words, doubles by their bits. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(bool v) { add(std::uint64_t{v}); }
    void add(const std::string &s)
    {
        add(std::uint64_t{s.size()});
        for (const char c : s)
            add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    void add(const std::vector<std::size_t> &ids)
    {
        add(std::uint64_t{ids.size()});
        for (const std::size_t id : ids)
            add(std::uint64_t{id});
    }
};

/** Every field of @p r, requests and fault log included. */
void
hashReport(Fnv &h, const ServingReport &r)
{
    h.add(r.accelerator);
    h.add(r.scheduler);
    h.add(r.kvPolicy);
#define MCBP_HASH_COUNTER(type, stat, member, key, rule, unit) h.add(r.member);
    MCBP_SERVING_COUNTERS(MCBP_HASH_COUNTER)
#undef MCBP_HASH_COUNTER
    for (const double v :
         {r.serialSeconds, r.serialJoules, r.meanLatencySeconds,
          r.p50LatencySeconds, r.p90LatencySeconds, r.p99LatencySeconds,
          r.p50QueueSeconds, r.p90QueueSeconds, r.p99QueueSeconds,
          r.p50FirstTokenSeconds, r.p90FirstTokenSeconds,
          r.p99FirstTokenSeconds, r.meanTpotSeconds, r.tokensPerSecond,
          r.joulesPerToken, r.meanBatchOccupancy, r.kvUtilization,
          r.kvBlockUtilization, r.degradedFraction,
          r.goodputTokensPerSecond, r.sloAttainment})
        h.add(v);
    h.add(r.noCompletions);
    h.add(r.admissionOrder);
    h.add(r.preemptionOrder);
    h.add(r.retryOrder);
    h.add(r.dropOrder);
    h.add(std::uint64_t{r.requests.size()});
    for (const RequestMetrics &m : r.requests) {
        h.add(std::uint64_t{m.id});
        for (const double v :
             {m.arrivalSeconds, m.admissionSeconds, m.firstTokenSeconds,
              m.completionSeconds, m.kvBytes, m.joules})
            h.add(v);
        for (const std::size_t v : {m.decodeTokens, m.preemptions,
                                    m.recomputedTokens, m.retries})
            h.add(std::uint64_t{v});
        h.add(m.sloMiss);
    }
    h.add(std::uint64_t{r.faultLog.size()});
    for (const ServingReport::FaultImpact &f : r.faultLog) {
        h.add(std::uint64_t{f.eventId});
        h.add(f.seconds);
        h.add(static_cast<std::uint64_t>(f.kind));
        for (const std::size_t v : {f.chip, f.killed, f.dropped})
            h.add(std::uint64_t{v});
        h.add(f.permanent);
    }
}

sim::FaultEvent
transientFail(double at, double repairAt, std::size_t chip)
{
    sim::FaultEvent e;
    e.at = at;
    e.kind = sim::FaultKind::ChipFail;
    e.chip = chip;
    e.repairAt = repairAt;
    return e;
}

/** A fleet-wide window of @p kind (LinkDegrade or StragglerStart) from
 *  @p at to @p end. */
void
addWindow(sim::FaultSpec &spec, sim::FaultKind kind, double at, double end,
          double factor)
{
    sim::FaultEvent open;
    open.at = at;
    open.kind = kind;
    open.factor = factor;
    sim::FaultEvent close = open;
    close.at = end;
    close.kind = kind == sim::FaultKind::LinkDegrade
                     ? sim::FaultKind::LinkRestore
                     : sim::FaultKind::StragglerEnd;
    spec.events.push_back(open);
    spec.events.push_back(close);
}

/** One fleet golden config: its outcome, and what it must exercise. */
struct GoldenRun
{
    FleetOutcome out;
    bool preempts = false;  ///< Config is built to preempt (paged KV).
    bool reroutes = false;  ///< Config is built to fail over.
    bool deadline = false;  ///< A deadline is set.
    /** route() alone on configs that do not reroute: no replica of
     *  theirs dies, so every replica is alive throughout. */
    std::vector<std::size_t> routed;
};

/**
 * Serve fleet golden config @p k. Every config with a deadline gives
 * every replica fault events (fleet-wide link/straggler windows reach
 * all of them), so the fault layer is on in every replica run.
 */
GoldenRun
fleetGolden(std::size_t k)
{
    Registry registry;
    const char *specs[] = {
        "mcbp:dp=2",
        "mcbp:dp=3,route=rr",
        "mcbp:tp=2,dp=4",
        "mcbp:pp=2,dp=2",
        "mcbp-s:dp=2,pp=2,tp=2",
        "mcbp:tp=2,dp=2",
        "mcbp:tp=2,dp=2",
        "mcbp:tp=2,dp=3",
        "mcbp:procs=148,dp=4,pp=2,tp=2",
        "mcbp:tp=2,dp=4,route=rr",
        "mcbp:dp=3",
        "mcbp:tp=2,dp=2",
    };
    const std::string spec = specs[k];
    const auto accel = registry.make(spec);
    const auto *fleet = dynamic_cast<const FleetAccelerator *>(accel.get());
    const std::string degSpec = degradedSpec(spec);
    const std::unique_ptr<Accelerator> degraded =
        degSpec.empty() ? nullptr : registry.make(degSpec);
    const std::size_t dp = fleet->options().dataParallel;

    GoldenRun run;
    ServingOptions opts;
    opts.maxBatch = 8;
    // Pinned, so MCBP_SERVING_STEP cannot move the aggregate bits.
    opts.stepMode = StepMode::Coalesced;
    std::vector<model::Request> trace = fleetTrace(24);
    // A budget of @p perReplica largest footprints on every replica.
    auto kvBudget = [&](double perReplica) {
        double largest = 0.0;
        for (const CostedRequest &c :
             ServingSimulator(fleet->replica(), opts).costTrace(trace).costs)
            largest = std::max(largest, c.kvBytes);
        opts.kvCapacityBytes =
            perReplica * largest * static_cast<double>(dp);
    };
    switch (k) {
    case 0: // Healthy least-loaded.
        break;
    case 1: // Healthy round-robin under SJF.
        trace = fleetTrace(30, 50.0, 3);
        opts.maxBatch = 4;
        opts.policy = SchedulerPolicy::ShortestPromptFirst;
        break;
    case 2: // Reserve KV under pressure, the whole trace at t=0.
        trace = fleetTrace(40, 0.0, 5);
        kvBudget(2.5);
        break;
    case 3: // Paged KV with preemptions.
        trace = fleetTrace(32, 0.0, 7);
        opts.maxBatch = 16;
        opts.kvPolicy = KvPolicy::Paged;
        kvBudget(3.0);
        run.preempts = true;
        break;
    case 4: // Paged pod replicas, a transient kill and a replica death.
        trace = fleetTrace(32, 0.0, 9);
        opts.maxBatch = 16;
        opts.kvPolicy = KvPolicy::Paged;
        kvBudget(3.0);
        opts.faults.events = {transientFail(0.01, 0.03, 1),
                              permanentFail(0.05, 6)};
        run.preempts = true;
        run.reroutes = true;
        break;
    case 5: // Replica death without a degraded twin: failover.
        opts.faults.events = {permanentFail(0.02, 2)};
        run.reroutes = true;
        break;
    case 6: // Degraded twin: replica 1 degrades, then dies.
        opts.degradedAccel = degraded.get();
        opts.faults.events = {permanentFail(0.02, 2), permanentFail(2.0, 3)};
        run.reroutes = true;
        break;
    case 7: // Sampled faults, degraded twin, paged KV, a deadline.
        trace = fleetTrace(60, 40.0, 11);
        opts.kvPolicy = KvPolicy::Paged;
        kvBudget(4.0);
        opts.degradedAccel = degraded.get();
        opts.faults.seed = 5;
        opts.faults.mtbfSeconds = 8.0;
        opts.faults.repairSeconds = 0.5;
        opts.faults.permanentFraction = 0.5;
        opts.faults.linkDegradeRate = 1.0;
        opts.faults.stragglerRate = 1.0;
        opts.faults.horizonSeconds = 10.0;
        opts.retry.deadlineSeconds = 15.0;
        run.reroutes = true;
        run.deadline = true;
        break;
    case 8: // The pod_faults shape at small scale.
        trace = fleetTrace(80, 40.0, 13);
        opts.maxBatch = 64;
        opts.degradedAccel = degraded.get();
        opts.faults.seed = 2;
        opts.faults.mtbfSeconds = 2.0;
        opts.faults.linkDegradeRate = 2.0;
        opts.faults.stragglerRate = 2.0;
        opts.faults.horizonSeconds = trace.back().arrivalSeconds;
        opts.retry.maxRetries = 5;
        opts.retry.deadlineSeconds = 1.5;
        run.deadline = true;
        break;
    case 9: // Paged round-robin; one transient kill, no deadline, so
            // three replicas see no fault event.
        trace = fleetTrace(32, 0.0, 15);
        opts.maxBatch = 16;
        opts.kvPolicy = KvPolicy::Paged;
        kvBudget(3.0);
        opts.degradedAccel = degraded.get();
        opts.faults.events = {transientFail(0.005, 0.02, 0)};
        run.preempts = true;
        break;
    case 10: // Link and straggler windows, a replica death, a deadline.
        trace = fleetTrace(36, 30.0, 17);
        kvBudget(3.0);
        addWindow(opts.faults, sim::FaultKind::LinkDegrade, 0.01, 0.2, 0.5);
        addWindow(opts.faults, sim::FaultKind::StragglerStart, 0.05, 0.15,
                  2.0);
        opts.faults.events.push_back(permanentFail(3.0, 1));
        opts.retry.deadlineSeconds = 15.0;
        run.reroutes = true;
        run.deadline = true;
        break;
    case 11: // Transient kills on both replicas, a tight retry budget.
        opts.degradedAccel = degraded.get();
        opts.faults.events = {transientFail(0.02, 0.05, 0),
                              transientFail(0.03, 0.06, 3)};
        opts.retry.maxRetries = 1;
        opts.retry.backoffBaseSeconds = 0.01;
        opts.retry.deadlineSeconds = 8.0;
        run.deadline = true;
        break;
    }
    const FleetRouter router(*fleet, opts);
    run.out = router.simulate(trace);
    if (!run.reroutes)
        run.routed = router.route(
            ServingSimulator(fleet->replica(), opts).costTrace(trace),
            std::vector<double>(dp, kNever));
    return run;
}

std::uint64_t
outcomeHash(const FleetOutcome &out)
{
    Fnv h;
    hashReport(h, out.fleet);
    h.add(std::uint64_t{out.replicas.size()});
    for (const ServingReport &r : out.replicas)
        hashReport(h, r);
    h.add(out.assignment);
    h.add(std::uint64_t{out.reroutes});
    return h.h;
}

/** outcomeHash(fleetGolden(k).out), recorded before replica runs
 *  served slices of the fleet's costed trace. Configs 7 and 10 were
 *  re-recorded when a rerouted request kept its original deadline. */
constexpr std::array<std::uint64_t, 12> kFleetGoldens = {
    0xd1167f69065c248bull, 0x4fc834bf90230a75ull, 0x312d8991d6122b30ull,
    0xcd9de24c94d58f4full, 0xc1cc473226a08bbdull, 0x7533db8b0800d759ull,
    0x3eba153df7669d1dull, 0xef6b8c25105e9f16ull, 0x44f23ebc6b247e2aull,
    0xe32d9f37c2c8ab8bull, 0xf519db22437d0b59ull, 0x12d946fa2b67fe86ull,
};

TEST(Fleet, OutcomesMatchGoldens)
{
    for (std::size_t k = 0; k < kFleetGoldens.size(); ++k) {
        const GoldenRun run = fleetGolden(k);
        // The configs exercise what they were built for.
        if (run.preempts) {
            EXPECT_GT(run.out.fleet.preemptions, 0u) << "config " << k;
        }
        EXPECT_EQ(run.out.reroutes > 0, run.reroutes) << "config " << k;
        if (run.deadline) {
            // Every replica that served work saw fault events.
            for (const ServingReport &r : run.out.replicas) {
                if (!r.admissionOrder.empty() || !r.dropOrder.empty()) {
                    EXPECT_GT(r.faultEvents, 0u) << "config " << k;
                }
            }
        }
        const std::uint64_t h = outcomeHash(run.out);
        EXPECT_EQ(h, kFleetGoldens[k])
            << "config " << k << " hash 0x" << std::hex << h;
    }
}

TEST(Fleet, RouteStageReproducesAssignments)
{
    for (const std::size_t k : {0, 1, 2, 3, 8, 9, 11}) {
        const GoldenRun run = fleetGolden(k);
        ASSERT_EQ(run.out.reroutes, 0u) << "config " << k;
        EXPECT_EQ(run.routed, run.out.assignment) << "config " << k;
    }
}

TEST(Fleet, RouteSkipsDeadReplicasAndFallsBackToTheLastToDie)
{
    Registry registry;
    const auto trace = fleetTrace(12);
    ASSERT_TRUE(std::is_sorted(trace.begin(), trace.end(),
                               [](const model::Request &a,
                                  const model::Request &b) {
                                   return a.arrivalSeconds <
                                          b.arrivalSeconds;
                               }));
    const double t0 = trace.front().arrivalSeconds;
    ASSERT_GT(t0, 0.0);
    for (const char *spec : {"mcbp:dp=3,route=rr", "mcbp:dp=3"}) {
        const auto accel = registry.make(spec);
        const auto *fleet =
            dynamic_cast<const FleetAccelerator *>(accel.get());
        ASSERT_NE(fleet, nullptr);
        const auto costed =
            ServingSimulator(fleet->replica()).costTrace(trace);
        const FleetRouter router(*fleet, {});

        // Replica 1 is dead from the start: nothing lands on it, and
        // round-robin hands its turns to the next replica alive.
        const auto skip = router.route(costed, {kNever, 0.0, kNever});
        for (std::size_t i = 0; i < skip.size(); ++i) {
            EXPECT_NE(skip[i], 1u) << spec << " request " << i;
            if (fleet->options().policy == ReplicaPolicy::RoundRobin) {
                EXPECT_EQ(skip[i], i % 3 == 0 ? 0u : 2u) << "request " << i;
            }
        }

        // Every replica dies before the first arrival: everything goes
        // to the replica that dies last, and drops there.
        const auto last =
            router.route(costed, {0.2 * t0, 0.6 * t0, 0.4 * t0});
        EXPECT_EQ(last, std::vector<std::size_t>(trace.size(), 1)) << spec;
    }
}

TEST(Fleet, ReroutedRequestKeepsItsOriginalDeadline)
{
    // The whole trace waits at t = 0. Replica 0 dies for good at 0.5 s
    // and its queue fails over to replica 1, where it waits behind
    // replica 1's own queue. The survivor measures each rerouted
    // request's deadline from its original arrival, not from the
    // re-dispatch, so no request is admitted past that deadline.
    Registry registry;
    auto accel = registry.make("mcbp:dp=2");
    const auto *fleet = dynamic_cast<const FleetAccelerator *>(accel.get());
    ASSERT_NE(fleet, nullptr);
    const auto trace = fleetTrace(64, 0.0, 5);
    ServingOptions opts;
    opts.maxBatch = 4;
    opts.stepMode = StepMode::Coalesced;
    opts.faults.events = {permanentFail(0.5, 0)};
    opts.retry.deadlineSeconds = 40.0;
    const FleetOutcome out = FleetRouter(*fleet, opts).simulate(trace);

    EXPECT_GT(out.reroutes, 0u);
    EXPECT_EQ(out.fleet.requests.size() + out.fleet.droppedRequests,
              trace.size());
    for (const RequestMetrics &r : out.fleet.requests)
        EXPECT_LE(r.admissionSeconds,
                  r.arrivalSeconds + opts.retry.deadlineSeconds)
            << "request " << r.id;
}

TEST(Fleet, Dp1ReportIsBitIdenticalToFlatPath)
{
    Registry registry;
    auto flat = registry.make("mcbp:procs=32,tp=2");
    auto dp1 = registry.make("mcbp:procs=32,tp=2,dp=1");
    EXPECT_EQ(dp1->name(), flat->name());
    EXPECT_EQ(dp1->configSummary(), flat->configSummary());
    EXPECT_EQ(dp1->capabilities().replicas, 1u);
    EXPECT_EQ(dp1->capabilities().processors,
              flat->capabilities().processors);

    const auto trace = fleetTrace();
    ServingOptions opts;
    opts.maxBatch = 8;
    expectReportsIdentical(ServingSimulator(*dp1, opts).simulate(trace),
                           ServingSimulator(*flat, opts).simulate(trace));
}

TEST(Fleet, CapabilitiesAndNameScaleWithDp)
{
    Registry registry;
    auto flat = registry.make("mcbp:procs=2,tp=2");
    auto fleet = registry.make("mcbp:procs=2,tp=2,dp=4");
    EXPECT_EQ(fleet->capabilities().replicas, 4u);
    EXPECT_EQ(fleet->capabilities().processors,
              4u * flat->capabilities().processors);
    EXPECT_EQ(fleet->capabilities().kvShards,
              4u * flat->capabilities().kvShards);
    EXPECT_DOUBLE_EQ(fleet->capabilities().hbmCapacityBytes,
                     4.0 * flat->capabilities().hbmCapacityBytes);
    EXPECT_NE(fleet->name().find("[dp4]"), std::string::npos);
    // One request runs on exactly one replica: the plan is the
    // replica's plan (capacity multiplies, speed does not).
    const model::LlmConfig &m = model::findModel("OPT1B3");
    const model::Workload &t = model::findTask("MBPP");
    EXPECT_EQ(fleet->plan(m, t).decode.cycles,
              flat->plan(m, t).decode.cycles);
}

TEST(Fleet, RoutingConservesRequestsAcrossReplicas)
{
    Registry registry;
    const auto trace = fleetTrace(32);
    for (const char *spec :
         {"mcbp:dp=4,route=least", "mcbp:dp=4,route=rr"}) {
        auto accel = registry.make(spec);
        const auto *fleet =
            dynamic_cast<const FleetAccelerator *>(accel.get());
        ASSERT_NE(fleet, nullptr) << spec;
        ServingOptions opts;
        opts.maxBatch = 8;
        const FleetOutcome out = FleetRouter(*fleet, opts).simulate(trace);
        expectConservation(out.fleet, trace);
        EXPECT_EQ(out.reroutes, 0u) << spec; // healthy: no failover
        ASSERT_EQ(out.replicas.size(), 4u);
        ASSERT_EQ(out.assignment.size(), trace.size());
        std::vector<std::size_t> perReplica(4, 0);
        for (std::size_t r : out.assignment) {
            ASSERT_LT(r, 4u);
            ++perReplica[r];
        }
        std::size_t replicaTotal = 0;
        for (std::size_t r = 0; r < 4; ++r) {
            EXPECT_EQ(out.replicas[r].requests.size(), perReplica[r]);
            replicaTotal += out.replicas[r].requests.size();
        }
        EXPECT_EQ(replicaTotal, trace.size());
    }
    // Round-robin keeps healthy replicas balanced to within one.
    auto accel = registry.make("mcbp:dp=4,route=round-robin");
    const auto *fleet =
        dynamic_cast<const FleetAccelerator *>(accel.get());
    ASSERT_NE(fleet, nullptr);
    const FleetOutcome out = FleetRouter(*fleet, {8}).simulate(trace);
    std::vector<std::size_t> perReplica(4, 0);
    for (std::size_t r : out.assignment)
        ++perReplica[r];
    const auto [lo, hi] =
        std::minmax_element(perReplica.begin(), perReplica.end());
    EXPECT_LE(*hi - *lo, 1u);
}

TEST(Fleet, PermanentReplicaFailureDrainsOntoSurvivors)
{
    Registry registry;
    auto accel = registry.make("mcbp:tp=2,dp=2");
    const auto *fleet =
        dynamic_cast<const FleetAccelerator *>(accel.get());
    ASSERT_NE(fleet, nullptr);
    const auto trace = fleetTrace(24);

    ServingOptions healthyOpts;
    healthyOpts.maxBatch = 8;
    const FleetOutcome healthy =
        FleetRouter(*fleet, healthyOpts).simulate(trace);
    expectConservation(healthy.fleet, trace);

    // Chips 0,1 belong to replica 0; kill chip 2 => replica 1 dies
    // early (no degraded topology configured) and its queue must
    // drain onto replica 0 through the retry/backoff path.
    ServingOptions faulty = healthyOpts;
    faulty.faults.events.push_back(permanentFail(0.02, 2));
    const FleetOutcome out = FleetRouter(*fleet, faulty).simulate(trace);

    expectConservation(out.fleet, trace);
    EXPECT_GT(out.reroutes, 0u);
    EXPECT_GT(out.fleet.retriesScheduled, 0u);
    EXPECT_TRUE(std::any_of(out.fleet.requests.begin(),
                            out.fleet.requests.end(),
                            [](const RequestMetrics &r) {
                                return r.retries > 0;
                            }));
    // Everything rerouted landed on the survivor.
    for (std::size_t r : out.assignment)
        EXPECT_LT(r, 2u);
    EXPECT_GE(out.fleet.makespanSeconds, healthy.fleet.makespanSeconds);
    EXPECT_LE(out.fleet.goodputTokensPerSecond,
              healthy.fleet.goodputTokensPerSecond + 1e-9);
    // The failure shows up in the merged fault log, on the fleet-wide
    // chip index.
    EXPECT_TRUE(std::any_of(out.fleet.faultLog.begin(),
                            out.fleet.faultLog.end(),
                            [](const ServingReport::FaultImpact &f) {
                                return f.kind == sim::FaultKind::ChipFail &&
                                       f.chip == 2 && f.permanent;
                            }));
}

TEST(Fleet, PricesEachShapeOnceAcrossReplicasAndFailover)
{
    Registry registry;
    // The fleet owns its replica, so keep a handle on each counter.
    auto replica =
        std::make_unique<CountingAccelerator>(registry.make("mcbp:tp=2"));
    const CountingAccelerator &healthy = *replica;
    const FleetAccelerator fleet(std::move(replica), {2});
    const CountingAccelerator degraded(
        registry.make(degradedSpec("mcbp:tp=2")));
    const auto trace = fleetTrace(24);
    std::set<std::tuple<std::size_t, std::size_t>> shapes;
    for (const model::Request &r : trace)
        shapes.insert({r.promptLen, r.decodeLen});

    // Both of replica 1's chips (2, 3) fail for good: the first
    // degrades it, the second kills it, and its work fails over.
    ServingOptions opts;
    opts.maxBatch = 8;
    opts.degradedAccel = &degraded;
    opts.faults.events = {permanentFail(0.02, 2), permanentFail(2.0, 3)};
    const FleetOutcome out = FleetRouter(fleet, opts).simulate(trace);
    EXPECT_GT(out.reroutes, 0u);
    EXPECT_GT(out.fleet.degradedSeconds, 0.0);
    expectConservation(out.fleet, trace);

    // The fleet priced the full trace once per topology; no replica
    // run or failover re-run priced anything again.
    EXPECT_EQ(healthy.runs(), shapes.size());
    EXPECT_EQ(degraded.runs(), shapes.size());
}

TEST(Fleet, DegradedFractionStaysWithinOne)
{
    // One chip of each replica fails for good early on: both replicas
    // serve degraded for most of their runs, so the replica-summed
    // degradedSeconds exceeds the fleet makespan.
    Registry registry;
    auto accel = registry.make("mcbp:tp=2,dp=2");
    auto degraded = registry.make(degradedSpec("mcbp:tp=2"));
    ServingOptions opts;
    opts.maxBatch = 8;
    opts.degradedAccel = degraded.get();
    opts.faults.events = {permanentFail(0.01, 0), permanentFail(0.01, 2)};
    const ServingReport report =
        ServingSimulator(*accel, opts).simulate(fleetTrace());
    EXPECT_GT(report.degradedSeconds, report.makespanSeconds);
    EXPECT_GT(report.degradedFraction, 0.0);
    EXPECT_LE(report.degradedFraction, 1.0);
}

TEST(Fleet, CountsEachFleetWideFaultEventOnce)
{
    // Link and straggler windows reach every replica; the fleet
    // counts each once, as its merged fault log does, and as a single
    // engine always does.
    Registry registry;
    const auto trace = fleetTrace(200, 20.0);
    ServingOptions opts;
    opts.faults.seed = 3;
    opts.faults.mtbfSeconds = 20.0;
    opts.faults.linkDegradeRate = 0.5;
    opts.faults.stragglerRate = 0.5;
    opts.faults.horizonSeconds = 12.0;
    for (const char *spec : {"mcbp", "mcbp:dp=2", "mcbp:dp=4"}) {
        auto accel = registry.make(spec);
        const ServingReport report =
            ServingSimulator(*accel, opts).simulate(trace);
        EXPECT_GT(report.faultEvents, 0u) << spec;
        EXPECT_EQ(report.faultEvents, report.faultLog.size()) << spec;
    }
}

TEST(Fleet, DeadlineBindsOnReplicasWithoutFaultEvents)
{
    // The whole trace waits at t = 0 behind a 50 ms deadline. The only
    // fault event lands on replica 0 long after the run ends, so
    // replica 1's slice of the timeline is empty; the deadline is a
    // fleet-wide knob and must drop its queued work all the same.
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "Dolly";
    tc.requests = 64;
    tc.arrivalsPerSecond = 0.0;
    tc.seed = 5;
    const auto trace = model::synthesizeTrace(tc);

    Registry registry;
    auto accel = registry.make("mcbp:dp=2");
    const auto *fleet = dynamic_cast<const FleetAccelerator *>(accel.get());
    ASSERT_NE(fleet, nullptr);
    ServingOptions opts;
    opts.maxBatch = 4;
    opts.faults.events = {transientFail(1e6, 1e6 + 1.0, 0)};
    opts.retry.deadlineSeconds = 0.05;
    const FleetOutcome out = FleetRouter(*fleet, opts).simulate(trace);

    for (std::size_t r = 0; r < 2; ++r) {
        const ServingReport &rep = out.replicas[r];
        const auto assigned = static_cast<std::size_t>(
            std::count(out.assignment.begin(), out.assignment.end(), r));
        EXPECT_GT(rep.droppedRequests, 0u) << "replica " << r;
        EXPECT_LT(rep.sloAttainment, 1.0) << "replica " << r;
        EXPECT_EQ(rep.requests.size() + rep.droppedRequests, assigned)
            << "replica " << r;
    }
    EXPECT_EQ(out.replicas[1].faultEvents, 0u);

    // The flat engine enforces the same deadline.
    const ServingReport flat =
        ServingSimulator(*registry.make("mcbp"), opts).simulate(trace);
    EXPECT_GT(flat.droppedRequests, 0u);
}

TEST(Fleet, KvBudgetTooSmallPerReplicaFailsUpFront)
{
    Registry registry;
    auto accel = registry.make("mcbp:dp=2");
    const auto *fleet =
        dynamic_cast<const FleetAccelerator *>(accel.get());
    ASSERT_NE(fleet, nullptr);
    const auto trace = fleetTrace(16);

    double largest = 0.0;
    for (const CostedRequest &c :
         ServingSimulator(fleet->replica()).costTrace(trace).costs)
        largest = std::max(largest, c.kvBytes);
    ASSERT_GT(largest, 0.0);

    // The fleet budget holds every request, but its per-replica half
    // does not hold the largest one.
    ServingOptions opts;
    opts.maxBatch = 8;
    opts.kvCapacityBytes = 1.5 * largest;
    try {
        (void)FleetRouter(*fleet, opts).simulate(trace);
        FAIL() << "expected the KV split to be rejected";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("per-replica share"), std::string::npos) << msg;
        EXPECT_NE(msg.find("dp=2"), std::string::npos) << msg;
    }

    // Twice the largest footprint splits into replicas that fit.
    opts.kvCapacityBytes = 2.0 * largest;
    expectConservation(FleetRouter(*fleet, opts).simulate(trace).fleet,
                       trace);
}

TEST(Fleet, DuplicateRequestIdsFailUpFront)
{
    // Ids 0..3, each twice: the flat path serves all eight, but a
    // fleet tracks requests by id across replicas and would merge the
    // twins into phantom drops.
    auto trace = fleetTrace(8);
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].id = i % 4;

    Registry registry;
    ServingOptions opts;
    opts.maxBatch = 8;
    const ServingReport flat =
        ServingSimulator(*registry.make("mcbp"), opts).simulate(trace);
    EXPECT_EQ(flat.requests.size(), trace.size());
    EXPECT_EQ(flat.droppedRequests, 0u);

    const auto fleet = registry.make("mcbp:dp=2");
    try {
        (void)ServingSimulator(*fleet, opts).simulate(trace);
        FAIL() << "expected the repeated id to be rejected";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("request id 0 repeats at trace positions 0 "
                           "and 4"),
                  std::string::npos)
            << msg;
    }
}

TEST(Fleet, StepModeIdentityHoldsUnderFaultsAtDp2Pp2Tp2)
{
    Registry registry;
    auto accel = registry.make("mcbp-s:dp=2,pp=2,tp=2");
    const auto *fleet =
        dynamic_cast<const FleetAccelerator *>(accel.get());
    ASSERT_NE(fleet, nullptr);
    EXPECT_EQ(fleet->capabilities().replicas, 2u);
    const auto trace = fleetTrace(20);

    ServingOptions opts;
    opts.maxBatch = 8;
    // Replica chips are [0..3] and [4..7]: a transient kill on
    // replica 0 plus a permanent death of replica 1.
    sim::FaultEvent transient;
    transient.at = 0.01;
    transient.kind = sim::FaultKind::ChipFail;
    transient.chip = 1;
    transient.permanent = false;
    transient.repairAt = 0.03;
    opts.faults.events.push_back(transient);
    opts.faults.events.push_back(permanentFail(0.05, 6));

    ServingOptions coalesced = opts;
    coalesced.stepMode = StepMode::Coalesced;
    ServingOptions perToken = opts;
    perToken.stepMode = StepMode::PerToken;
    const FleetOutcome a = FleetRouter(*fleet, coalesced).simulate(trace);
    const FleetOutcome b = FleetRouter(*fleet, perToken).simulate(trace);

    // Decision logs verbatim...
    EXPECT_EQ(a.fleet.admissionOrder, b.fleet.admissionOrder);
    EXPECT_EQ(a.fleet.preemptionOrder, b.fleet.preemptionOrder);
    EXPECT_EQ(a.fleet.retryOrder, b.fleet.retryOrder);
    EXPECT_EQ(a.fleet.dropOrder, b.fleet.dropOrder);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.reroutes, b.reroutes);
    EXPECT_EQ(a.fleet.decodeIterations, b.fleet.decodeIterations);
    // ...aggregates to 1e-9 relative.
    const auto near = [](double x, double y) {
        const double scale = std::max({1.0, std::abs(x), std::abs(y)});
        EXPECT_NEAR(x, y, 1e-9 * scale);
    };
    near(a.fleet.makespanSeconds, b.fleet.makespanSeconds);
    near(a.fleet.busySeconds, b.fleet.busySeconds);
    near(a.fleet.tokensPerSecond, b.fleet.tokensPerSecond);
    near(a.fleet.goodputTokensPerSecond, b.fleet.goodputTokensPerSecond);
    near(a.fleet.joulesPerToken, b.fleet.joulesPerToken);
    near(a.fleet.p99LatencySeconds, b.fleet.p99LatencySeconds);
}

TEST(Fleet, PodSpecServesEndToEnd)
{
    Registry registry;
    auto pod = registry.make("mcbp-s:dp=4,pp=4,tp=8");
    EXPECT_EQ(pod->capabilities().replicas, 4u);
    EXPECT_EQ(pod->capabilities().kvShards, 4u * 4u * 8u);
    // Plans through the replica (OPT1B3: 24 layers / pp=4, 32 heads /
    // tp=8 both divide).
    const model::LlmConfig &m = model::findModel("OPT1B3");
    const model::Workload &t = model::findTask("MBPP");
    EXPECT_GT(pod->plan(m, t).decode.cycles, 0.0);

    const auto trace = fleetTrace(16);
    const ServingReport report =
        ServingSimulator(*pod, {8}).simulate(trace);
    EXPECT_EQ(report.requests.size(), trace.size());
    EXPECT_EQ(report.droppedRequests, 0u);
    EXPECT_GT(report.tokensPerSecond, 0.0);
    EXPECT_NE(report.accelerator.find("[dp4]"), std::string::npos);
}

TEST(Fleet, MalformedFleetSpecsAreRejected)
{
    Registry registry;
    EXPECT_THROW((void)registry.make("mcbp:dp=0"), std::runtime_error);
    // route= without replicas (or at dp=1) is a silent no-op: reject.
    EXPECT_THROW((void)registry.make("mcbp:route=rr"),
                 std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:dp=1,route=least"),
                 std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:dp=2,route=bogus"),
                 std::runtime_error);
    // Nested fleets are rejected at construction.
    FleetOptions two;
    two.dataParallel = 2;
    EXPECT_THROW(FleetAccelerator(registry.make("mcbp:dp=2"), two),
                 std::runtime_error);
    // The aggregated unknown-key message advertises the fleet keys.
    try {
        (void)registry.make("mcbp:dq=4");
        FAIL() << "expected unknown-key rejection";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'dq'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("dp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("route"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace mcbp::engine
