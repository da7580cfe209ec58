/**
 * @file
 * Fault-tolerant serving contract (sim/fault_model.hpp +
 * event_core.hpp + health.hpp):
 *  - the fault timeline is deterministic in (spec, chips) and stream-
 *    separated from trace synthesis (seed ^ kFaultStream), so enabling
 *    faults never perturbs the costed trace — pinned bit-identically;
 *  - a fault-enabled run whose timeline never fires is bit-identical
 *    to a plain run (the zero-fault purity gate);
 *  - transient chip failures kill in-flight work, retry it with
 *    backoff, and recover; permanent failures without a degraded plan
 *    drop everything into a zeroed-but-tagged report; with a degraded
 *    accelerator the fleet replans and serves through at degraded
 *    prices; deadlines drop queued work and dent SLO attainment;
 *  - a negative or non-finite retry backoff or deadline, a degraded
 *    accelerator at another clock, or an out-of-range maxBatch, KV
 *    block size, KV watermark or SJF aging weight, is rejected when
 *    the simulator is built;
 *  - degraded prices are computed on first read: costing prices none,
 *    a run prices each shape it reads in degraded mode once, and the
 *    parallel replica runs of a fleet share them;
 *  - degradedSpec() rewrites topologies the way a surviving fleet
 *    re-forms (halved axis, invalid knobs dropped), on the same spec
 *    grammar Registry::make() reads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "counting_accelerator.hpp"
#include "engine/fleet.hpp"
#include "engine/health.hpp"
#include "engine/registry.hpp"
#include "engine/scheduler.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"
#include "sim/fault_model.hpp"

namespace mcbp::engine {
namespace {

std::vector<model::Request>
smallTrace(std::size_t n = 16, double rate = 30.0)
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "MBPP";
    tc.requests = n;
    tc.arrivalsPerSecond = rate;
    tc.seed = 9;
    return model::synthesizeTrace(tc);
}

sim::FaultSpec
transientFailAt(double at, double repairSeconds)
{
    sim::FaultSpec spec;
    sim::FaultEvent e;
    e.at = at;
    e.kind = sim::FaultKind::ChipFail;
    e.chip = 0;
    e.permanent = false;
    e.repairAt = at + repairSeconds;
    spec.events.push_back(e);
    return spec;
}

TEST(FaultModel, TimelineDeterministicAndSeedSeparated)
{
    sim::FaultSpec spec;
    spec.seed = 7;
    spec.mtbfSeconds = 0.5;
    spec.repairSeconds = 0.1;
    spec.permanentFraction = 0.25;
    spec.linkDegradeRate = 2.0;
    spec.stragglerRate = 3.0;
    spec.horizonSeconds = 4.0;

    const auto a = sim::buildFaultTimeline(spec, 4);
    const auto b = sim::buildFaultTimeline(spec, 4);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].chip, b[i].chip);
        EXPECT_EQ(a[i].id, i); // Ids are timeline positions.
        if (i > 0) {
            EXPECT_LE(a[i - 1].at, a[i].at); // Sorted.
        }
    }

    // A different seed re-draws the processes.
    sim::FaultSpec other = spec;
    other.seed = 8;
    const auto c = sim::buildFaultTimeline(other, 4);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].at != c[i].at;
    EXPECT_TRUE(differs);

    // Stream separation: the fault stream's first draws are not the
    // trace-synthesis stream's (seed vs seed ^ kFaultStream).
    Rng trace_stream(spec.seed);
    Rng fault_stream(spec.seed ^ sim::kFaultStream);
    EXPECT_NE(trace_stream.next(), fault_stream.next());
}

TEST(FaultModel, GeneratedProcessesAreWellFormed)
{
    // Permanent-only failures: at most one ChipFail per chip, no
    // repairs ever emitted.
    sim::FaultSpec spec;
    spec.seed = 3;
    spec.mtbfSeconds = 0.2;
    spec.permanentFraction = 1.0;
    spec.horizonSeconds = 5.0;
    const auto events = sim::buildFaultTimeline(spec, 3);
    ASSERT_FALSE(events.empty());
    std::vector<std::size_t> fails(3, 0);
    for (const sim::FaultEvent &e : events) {
        ASSERT_EQ(e.kind, sim::FaultKind::ChipFail);
        EXPECT_TRUE(e.permanent);
        ++fails[e.chip];
    }
    for (std::size_t n : fails)
        EXPECT_LE(n, 1u);

    // Link windows come in (degrade, restore) pairs with the factor
    // carried on both ends.
    sim::FaultSpec link;
    link.seed = 3;
    link.linkDegradeRate = 5.0;
    link.linkDegradeSeconds = 0.05;
    link.linkDegradeFactor = 0.25;
    link.horizonSeconds = 2.0;
    const auto windows = sim::buildFaultTimeline(link, 1);
    ASSERT_FALSE(windows.empty());
    EXPECT_EQ(windows.size() % 2, 0u);
    std::size_t opens = 0;
    for (const sim::FaultEvent &e : windows) {
        EXPECT_EQ(e.factor, 0.25);
        if (e.kind == sim::FaultKind::LinkDegrade)
            ++opens;
        else
            EXPECT_EQ(e.kind, sim::FaultKind::LinkRestore);
    }
    EXPECT_EQ(opens * 2, windows.size());
}

TEST(FaultModel, KnobAndEventValidation)
{
    // Rates without a horizon cannot be sampled.
    sim::FaultSpec no_horizon;
    no_horizon.mtbfSeconds = 1.0;
    EXPECT_THROW((void)sim::buildFaultTimeline(no_horizon, 2),
                 std::runtime_error);

    // Explicit events: chip index bounds and transient repair times.
    sim::FaultSpec bad_chip = transientFailAt(0.1, 0.1);
    bad_chip.events[0].chip = 5;
    EXPECT_THROW((void)sim::buildFaultTimeline(bad_chip, 2),
                 std::runtime_error);
    sim::FaultSpec bad_repair = transientFailAt(0.1, 0.1);
    bad_repair.events[0].repairAt = 0.05;
    EXPECT_THROW((void)sim::buildFaultTimeline(bad_repair, 2),
                 std::runtime_error);

    // Out-of-order explicit events are sorted and id-stamped.
    sim::FaultSpec unsorted;
    sim::FaultEvent late;
    late.at = 2.0;
    late.kind = sim::FaultKind::StragglerStart;
    late.factor = 2.0;
    sim::FaultEvent early = late;
    early.at = 1.0;
    unsorted.events = {late, early};
    const auto sorted = sim::buildFaultTimeline(unsorted, 1);
    ASSERT_EQ(sorted.size(), 2u);
    EXPECT_EQ(sorted[0].at, 1.0);
    EXPECT_EQ(sorted[1].at, 2.0);
    EXPECT_EQ(sorted[0].id, 0u);
    EXPECT_EQ(sorted[1].id, 1u);
}

TEST(FaultServing, CostedTraceBitIdenticalWithFaultsEnabled)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions plain;
    ServingOptions faulted = plain;
    faulted.faults.mtbfSeconds = 1.0;
    faulted.faults.horizonSeconds = 2.0;

    const auto healthy = ServingSimulator(*accel, plain).costTrace(trace);
    const auto injected =
        ServingSimulator(*accel, faulted).costTrace(trace);
    // A deadline is stamped only when faults are on.
    const double deadline = 0.25;
    ServingOptions plainDeadline = plain;
    plainDeadline.retry.deadlineSeconds = deadline;
    ServingOptions faultedDeadline = faulted;
    faultedDeadline.retry.deadlineSeconds = deadline;
    const auto unstamped =
        ServingSimulator(*accel, plainDeadline).costTrace(trace);
    const auto stamped =
        ServingSimulator(*accel, faultedDeadline).costTrace(trace);
    ASSERT_EQ(healthy.costs.size(), injected.costs.size());
    ASSERT_EQ(healthy.costs.size(), unstamped.costs.size());
    ASSERT_EQ(healthy.costs.size(), stamped.costs.size());
    EXPECT_EQ(healthy.clockGhz, injected.clockGhz);
    EXPECT_EQ(healthy.serialSeconds, injected.serialSeconds);
    for (std::size_t i = 0; i < healthy.costs.size(); ++i) {
        const CostedRequest &h = healthy.costs[i];
        const CostedRequest &f = injected.costs[i];
        EXPECT_EQ(h.arrivalCycles, f.arrivalCycles);
        EXPECT_EQ(h.recomputeCycles, f.recomputeCycles);
        EXPECT_EQ(h.shape->rates, f.shape->rates);
        EXPECT_EQ(h.kvBytes, f.kvBytes);
        // Both defer the prefill charge to admission, where the
        // event core prices the full prompt from the shape's rates:
        // faults change no bit of the costing.
        EXPECT_EQ(h.joules, 0.0);
        EXPECT_EQ(f.joules, 0.0);
        EXPECT_EQ(h.next, NextPrefill::Prompt);
        EXPECT_EQ(f.next, NextPrefill::Prompt);
        const std::array<double, kTopologies> unpriced{};
        EXPECT_EQ(h.recomputeCycles, unpriced);
        EXPECT_EQ(f.recomputeCycles, unpriced);
        EXPECT_EQ(h.deadlineCycles, 0.0);
        EXPECT_EQ(f.deadlineCycles, 0.0);
        EXPECT_EQ(unstamped.costs[i].deadlineCycles, 0.0);
        EXPECT_EQ(stamped.costs[i].arrivalCycles, h.arrivalCycles);
        EXPECT_EQ(stamped.costs[i].deadlineCycles,
                  h.arrivalCycles + deadline * (healthy.clockGhz * 1e9));
    }
}

TEST(FaultServing, ZeroEventRunBitIdenticalToPlainRun)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions plain;
    plain.maxBatch = 8;
    // Faults armed but statistically inert: the sampled timeline over
    // this horizon is empty, so every fault branch stays cold.
    ServingOptions armed = plain;
    armed.faults.mtbfSeconds = 1e9;
    armed.faults.horizonSeconds = 1e-6;

    // Faults off with a deadline far below the makespan: the retry
    // knobs bind only through the fault layer, so nothing drops.
    ServingOptions deadlined = plain;
    deadlined.retry.deadlineSeconds = 1e-6;

    const ServingReport a = ServingSimulator(*accel, plain).simulate(trace);
    const ServingReport b = ServingSimulator(*accel, armed).simulate(trace);
    const ServingReport c =
        ServingSimulator(*accel, deadlined).simulate(trace);
    ASSERT_EQ(b.faultEvents, 0u);
    EXPECT_FALSE(b.noCompletions);

    // Bit-identical, not approximately equal.
    for (const ServingReport *r : {&b, &c}) {
        EXPECT_EQ(a.makespanSeconds, r->makespanSeconds);
        EXPECT_EQ(a.busySeconds, r->busySeconds);
        EXPECT_EQ(a.tokensPerSecond, r->tokensPerSecond);
        EXPECT_EQ(a.goodputTokensPerSecond, r->goodputTokensPerSecond);
        EXPECT_EQ(a.sloAttainment, r->sloAttainment);
        EXPECT_EQ(a.joulesPerToken, r->joulesPerToken);
        EXPECT_EQ(a.meanLatencySeconds, r->meanLatencySeconds);
        EXPECT_EQ(a.p99LatencySeconds, r->p99LatencySeconds);
        EXPECT_EQ(a.admissionOrder, r->admissionOrder);
        EXPECT_EQ(r->droppedRequests, 0u);
        ASSERT_EQ(a.requests.size(), r->requests.size());
        for (std::size_t i = 0; i < a.requests.size(); ++i) {
            EXPECT_EQ(a.requests[i].id, r->requests[i].id);
            EXPECT_EQ(a.requests[i].completionSeconds,
                      r->requests[i].completionSeconds);
            EXPECT_EQ(a.requests[i].firstTokenSeconds,
                      r->requests[i].firstTokenSeconds);
            EXPECT_EQ(a.requests[i].joules, r->requests[i].joules);
            EXPECT_EQ(a.requests[i].sloMiss, r->requests[i].sloMiss);
        }
    }
    // Availability on a clean run: full goodput, full SLO attainment.
    EXPECT_EQ(b.goodputTokensPerSecond, b.tokensPerSecond);
    EXPECT_EQ(b.sloAttainment, 1.0);
    EXPECT_EQ(b.droppedRequests, 0u);
    EXPECT_EQ(b.degradedSeconds, 0.0);
}

TEST(FaultServing, TransientOutageKillsRetriesAndRecovers)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions plain;
    plain.maxBatch = 8;
    const ServingReport healthy =
        ServingSimulator(*accel, plain).simulate(trace);
    ASSERT_GT(healthy.makespanSeconds, 0.0);

    // One transient failure mid-run on a fleet with no degraded plan:
    // a full outage until the repair, every in-flight request killed
    // and retried.
    ServingOptions opts = plain;
    opts.faults =
        transientFailAt(healthy.makespanSeconds / 3.0, 0.2);
    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);

    EXPECT_EQ(r.faultEvents, 2u); // Fail + repair.
    EXPECT_GT(r.killedInFlight, 0u);
    EXPECT_GT(r.retriesScheduled, 0u);
    EXPECT_EQ(r.droppedRequests, 0u); // Budget 3 >= the single kill.
    EXPECT_EQ(r.requests.size(), trace.size());
    EXPECT_GT(r.faultRecomputeSeconds, 0.0);
    EXPECT_GT(r.outageSeconds, 0.0);
    EXPECT_EQ(r.degradedSeconds, 0.0); // No degraded plan exists.
    EXPECT_GT(r.makespanSeconds, healthy.makespanSeconds);
    EXPECT_EQ(r.retryOrder.size(), r.retriesScheduled);
    ASSERT_FALSE(r.faultLog.empty());
    EXPECT_EQ(r.faultLog[0].kind, sim::FaultKind::ChipFail);
    EXPECT_EQ(r.faultLog[0].killed, r.killedInFlight);
    // Lost decode progress was re-served: goodput <= healthy rate.
    EXPECT_LE(r.goodputTokensPerSecond, healthy.tokensPerSecond);
}

TEST(FaultServing, PermanentFailureWithoutSpareDropsEverything)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions opts;
    sim::FaultEvent e;
    e.at = 0.0;
    e.kind = sim::FaultKind::ChipFail;
    e.permanent = true;
    opts.faults.events.push_back(e);

    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);
    // The zeroed-but-tagged report: no completions, no percentile
    // indexing, every drop accounted.
    EXPECT_TRUE(r.noCompletions);
    EXPECT_TRUE(r.requests.empty());
    EXPECT_EQ(r.droppedRequests, trace.size());
    EXPECT_EQ(r.dropOrder.size(), trace.size());
    EXPECT_EQ(r.p99LatencySeconds, 0.0);
    EXPECT_EQ(r.p99FirstTokenSeconds, 0.0);
    EXPECT_EQ(r.meanTpotSeconds, 0.0);
    EXPECT_EQ(r.tokensPerSecond, 0.0);
    EXPECT_EQ(r.goodputTokensPerSecond, 0.0);
    EXPECT_EQ(r.sloAttainment, 0.0);
}

TEST(FaultServing, DegradedReplanServesThroughPermanentFailure)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp:tp=2");
    // The surviving topology, derived by the health rewrite and built
    // through the same registry.
    const std::string spare = degradedSpec("mcbp:tp=2");
    EXPECT_EQ(spare, "mcbp");
    const auto degraded = registry.make(spare);

    ServingOptions plain;
    plain.maxBatch = 8;
    const ServingReport healthy =
        ServingSimulator(*accel, plain).simulate(trace);

    ServingOptions opts = plain;
    opts.degradedAccel = degraded.get();
    sim::FaultEvent e;
    e.at = healthy.makespanSeconds / 3.0;
    e.kind = sim::FaultKind::ChipFail;
    e.chip = 1;
    e.permanent = true;
    opts.faults.events.push_back(e);

    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);
    // Everything completes — on the slower surviving fleet.
    EXPECT_EQ(r.requests.size(), trace.size());
    EXPECT_EQ(r.droppedRequests, 0u);
    EXPECT_GT(r.killedInFlight, 0u);
    EXPECT_GT(r.degradedSeconds, 0.0);
    EXPECT_EQ(r.outageSeconds, 0.0); // Degraded, never down.
    EXPECT_GT(r.degradedFraction, 0.0);
    EXPECT_LE(r.degradedFraction, 1.0);
    EXPECT_GT(r.makespanSeconds, healthy.makespanSeconds);

    // A second permanent failure exhausts the replan and is fatal.
    sim::FaultEvent e2 = e;
    e2.at = e.at * 1.5;
    e2.chip = 0;
    opts.faults.events.push_back(e2);
    const ServingReport rr =
        ServingSimulator(*accel, opts).simulate(trace);
    EXPECT_GT(rr.droppedRequests, 0u);
    EXPECT_LT(rr.sloAttainment, 1.0);
}

TEST(FaultServing, FailureAtTimeZeroServesLikeTheDegradedAccelerator)
{
    // A permanent failure before the first arrival puts the whole run
    // on the degraded topology: every prefill, decode window and joule
    // must be priced exactly as a plain run on the surviving fleet.
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp:tp=2");
    const auto degraded = registry.make("mcbp");

    ServingOptions plain;
    plain.maxBatch = 8;
    const ServingReport survivor =
        ServingSimulator(*degraded, plain).simulate(trace);

    ServingOptions opts = plain;
    opts.degradedAccel = degraded.get();
    sim::FaultEvent e;
    e.at = 0.0;
    e.kind = sim::FaultKind::ChipFail;
    e.permanent = true;
    opts.faults.events.push_back(e);
    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);

    EXPECT_EQ(r.killedInFlight, 0u);
    EXPECT_EQ(r.droppedRequests, 0u);
    EXPECT_EQ(r.degradedSeconds, r.makespanSeconds);
    ASSERT_EQ(r.requests.size(), survivor.requests.size());
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
        EXPECT_EQ(r.requests[i].id, survivor.requests[i].id);
        EXPECT_EQ(r.requests[i].completionSeconds,
                  survivor.requests[i].completionSeconds);
        EXPECT_EQ(r.requests[i].joules, survivor.requests[i].joules)
            << "request " << r.requests[i].id;
    }
    EXPECT_EQ(r.joulesPerToken, survivor.joulesPerToken);
}

TEST(FaultServing, DegradedPricesOnlyWhatADegradedWindowReads)
{
    const auto trace = smallTrace(64, 30.0);
    Registry registry;
    const auto accel = registry.make("mcbp:tp=2");
    const CountingAccelerator twin(registry.make(degradedSpec("mcbp:tp=2")));

    ServingOptions plain;
    plain.maxBatch = 8;
    const double makespan =
        ServingSimulator(*accel, plain).simulate(trace).makespanSeconds;

    // A twin without faults, or with faults that fail no chip, is
    // never read.
    ServingOptions off = plain;
    off.degradedAccel = &twin;
    (void)ServingSimulator(*accel, off).simulate(trace);
    ServingOptions slow = off;
    slow.faults.seed = 3;
    slow.faults.stragglerRate = 20.0;
    slow.faults.horizonSeconds = makespan;
    EXPECT_GT(ServingSimulator(*accel, slow).simulate(trace).faultEvents, 0u);
    EXPECT_EQ(twin.runs(), 0u);

    // One transient chip failure: costing prices no degraded shape, and
    // the run prices each shape it reads in degraded mode exactly once.
    ServingOptions opts = off;
    opts.faults = transientFailAt(makespan / 3.0, makespan / 10.0);
    const ServingSimulator sim(*accel, opts);
    const ServingSimulator::CostedTrace costed = sim.costTrace(trace);
    EXPECT_EQ(twin.runs(), 0u);
    EXPECT_EQ(costed.degradedShapesPriced(), 0u);
    const ServingReport r = sim.serve(
        costed,
        sim::buildFaultTimeline(
            opts.faults,
            std::max<std::size_t>(1, accel->capabilities().kvShards)));
    EXPECT_GT(r.degradedSeconds, 0.0);
    const std::size_t priced = costed.degradedShapesPriced();
    EXPECT_GT(priced, 0u);
    EXPECT_LT(priced, costed.shapeCount());
    EXPECT_EQ(twin.runs(), priced);
    // simulate() is that costing and run: the same report, on a fresh
    // table that prices the same shapes again.
    const ServingReport again = sim.simulate(trace);
    EXPECT_EQ(again.makespanSeconds, r.makespanSeconds);
    EXPECT_EQ(again.admissionOrder, r.admissionOrder);
    EXPECT_EQ(twin.runs(), 2 * priced);

    // A dp=2 fleet's replicas read one table in parallel. They price
    // the shapes its replicas price when served one at a time.
    const auto fleetAccel = registry.make("mcbp:tp=2,dp=2");
    const auto &fleet = dynamic_cast<const FleetAccelerator &>(*fleetAccel);
    const std::size_t chips =
        std::max<std::size_t>(1, fleet.replica().capabilities().kvShards);
    const CountingAccelerator parallelTwin(
        registry.make(degradedSpec("mcbp:tp=2")));
    ServingOptions fleetOpts = plain;
    fleetOpts.degradedAccel = &parallelTwin;
    fleetOpts.faults = transientFailAt(makespan / 4.0, makespan / 10.0);
    sim::FaultEvent second = fleetOpts.faults.events[0];
    second.at = makespan / 2.0;
    second.repairAt = second.at + makespan / 10.0;
    second.chip = chips; // Replica 1's first chip.
    fleetOpts.faults.events.push_back(second);
    const FleetOutcome out = FleetRouter(fleet, fleetOpts).simulate(trace);
    ASSERT_EQ(out.reroutes, 0u);
    EXPECT_GT(out.degradedShapesPriced, 0u);
    EXPECT_EQ(parallelTwin.runs(), out.degradedShapesPriced);

    const CountingAccelerator serialTwin(
        registry.make(degradedSpec("mcbp:tp=2")));
    ServingOptions serialOpts = fleetOpts;
    serialOpts.degradedAccel = &serialTwin;
    const FleetRouter router(fleet, serialOpts);
    const ServingSimulator::CostedTrace fleetCosted =
        ServingSimulator(fleet.replica(), serialOpts).costTrace(trace);
    const std::vector<std::size_t> assignment = router.route(
        fleetCosted,
        std::vector<double>(2, std::numeric_limits<double>::infinity()));
    ASSERT_EQ(assignment, out.assignment);
    std::vector<FleetRouter::SubTrace> subTraces(2);
    for (std::size_t i = 0; i < trace.size(); ++i)
        subTraces[assignment[i]].push_back({i, &trace[i]});
    for (FleetRouter::SubTrace &sub : subTraces)
        std::stable_sort(sub.begin(), sub.end(),
                         [](const FleetRouter::Routed &a,
                            const FleetRouter::Routed &b) {
                             return std::pair(a.req->arrivalSeconds,
                                              a.req->id) <
                                    std::pair(b.req->arrivalSeconds,
                                              b.req->id);
                         });
    std::vector<std::vector<sim::FaultEvent>> timelines;
    for (sim::FaultEvent e : fleetOpts.faults.events) {
        e.chip %= chips;
        sim::FaultSpec local;
        local.events = {e};
        timelines.push_back(sim::buildFaultTimeline(local, chips));
    }
    for (std::size_t replica = 0; replica < 2; ++replica) {
        const ServingReport alone = router.serveReplicas(
            fleetCosted, subTraces, timelines, {replica})[0];
        EXPECT_EQ(alone.makespanSeconds,
                  out.replicas[replica].makespanSeconds);
        EXPECT_EQ(alone.admissionOrder,
                  out.replicas[replica].admissionOrder);
    }
    EXPECT_EQ(fleetCosted.degradedShapesPriced(), out.degradedShapesPriced);
    EXPECT_EQ(serialTwin.runs(), out.degradedShapesPriced);
}

TEST(FaultServing, NextPrefillFollowsEvictionAndMode)
{
    // Two requests of one shape (4 prompt + 4 decode tokens), served
    // paged by FIFO on a 12-byte pool of 1-byte tokens and 1-token
    // blocks, with a transient chip failure at 245 cycles onto a
    // degraded twin. Every price is a small integer, so every expected
    // sum below is exact:
    //  - healthy: prompt prefill 100 cycles / 1 J, 10 cycles a token;
    //  - degraded: prompt prefill 300 cycles / 3 J, 30 cycles a token;
    //  - a recompute re-prices to 500 cycles / 5 J healthy and
    //    700 cycles / 7 J degraded.
    // Decode costs no energy, so a request's joules are its prefills'.
    Rates healthy;
    healthy.prefillCycles = 100.0;
    healthy.prefillJoules = 1.0;
    healthy.otherCyclesPerToken = 10.0;
    Rates degraded;
    degraded.prefillCycles = 300.0;
    degraded.prefillJoules = 3.0;
    degraded.otherCyclesPerToken = 30.0;
    std::vector<PricedShape> shapes(1);
    shapes[0].rates = healthy;
    const LazyRates lazy(shapes,
                         [&](const CostedRequest &) { return degraded; });
    const PrefillPricer healthyRecompute = [](const CostedRequest &,
                                              std::size_t) {
        return PrefillPrice{500.0, 5.0};
    };
    const PrefillPricer degradedRecompute = [](const CostedRequest &,
                                               std::size_t) {
        return PrefillPrice{700.0, 7.0};
    };

    std::vector<model::Request> reqs(2);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = i;
        reqs[i].model.assign(1, 'm'); // `= "m"` trips g++ 12 -Wrestrict
        reqs[i].promptLen = 4;
        reqs[i].decodeLen = 4;
    }
    KvOptions kv;
    kv.policy = KvPolicy::Paged;
    kv.capacityBytes = 12.0;
    kv.blockTokens = 1;
    kv.lowWatermark = 0.0;
    FaultInputs faults;
    sim::FaultEvent fail;
    fail.at = 245.0;
    fail.kind = sim::FaultKind::ChipFail;
    fail.repairAt = 1e9;
    faults.timeline.push_back(fail);
    faults.backoffBaseCycles = 1000.0;
    faults.backoffCapCycles = 1000.0;
    faults.degraded = &lazy;
    const auto fifo = makeScheduler(SchedulerPolicy::Fifo);

    for (const StepMode step : {StepMode::Coalesced, StepMode::PerToken}) {
        std::vector<CostedRequest> requests(reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            requests[i].req = &reqs[i];
            requests[i].shape = &shapes[0];
            requests[i].kvBytesPerToken = 1.0;
            requests[i].kvBytes = 8.0;
            requests[i].remainingTokens = reqs[i].decodeLen;
        }
        const EventCore core(*fifo, 2, kv, healthyRecompute, step, faults,
                             degradedRecompute);
        const EventStats stats = core.run(requests);
        const std::string mode = toString(step);
        // Both admit healthy (clock 200) and decode two tokens; the
        // third overflows the pool, so B (the youngest) is preempted at
        // 240. A decodes alone to 250, where the failure (due at 245)
        // kills it and degrades the fleet.
        EXPECT_EQ(stats.admissionOrder,
                  (std::vector<std::size_t>{0, 1, 1, 0}))
            << mode;
        EXPECT_EQ(stats.preemptionOrder, std::vector<std::size_t>{1})
            << mode;
        EXPECT_EQ(stats.retryOrder, std::vector<std::size_t>{0}) << mode;
        const CostedRequest &a = requests[0];
        const CostedRequest &b = requests[1];
        // B re-admits at 250, degraded: its recompute runs at the
        // degraded re-price, and charges no second prefill energy (its
        // healthy recompute energy was charged at the preemption).
        EXPECT_EQ(b.completionCycles, 250.0 + 700.0 + 2.0 * 30.0) << mode;
        EXPECT_EQ(b.joules, 1.0 + 5.0) << mode;
        // A's retry expires at 1250 and it re-admits degraded: it pays
        // the full-prompt prefill again, energy included, at degraded
        // prices, and that prefill is the run's fault recompute.
        EXPECT_EQ(a.completionCycles, 1250.0 + 300.0 + 4.0 * 30.0) << mode;
        EXPECT_EQ(a.joules, 1.0 + 3.0) << mode;
        EXPECT_EQ(stats.faultRecomputeCycles, 300.0) << mode;
        EXPECT_EQ(stats.busyCycles,
                  2.0 * 100.0 + 2.0 * 20.0 + 10.0 + 700.0 + 2.0 * 30.0 +
                      300.0 + 4.0 * 30.0)
            << mode;
        EXPECT_EQ(a.next, NextPrefill::Prompt) << mode;
        EXPECT_EQ(b.next, NextPrefill::Prompt) << mode;
    }
    EXPECT_EQ(lazy.priced(), 1u);
}

TEST(FaultServing, DeadlinesDropQueuedWorkDuringOutage)
{
    const auto trace = smallTrace(16, 60.0); // Dense arrivals queue up.
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions plain;
    plain.maxBatch = 4;
    const ServingReport healthy =
        ServingSimulator(*accel, plain).simulate(trace);

    ServingOptions opts = plain;
    // A long outage early in the run with a short completion deadline:
    // queued work expires while the fleet is down.
    opts.faults = transientFailAt(healthy.makespanSeconds / 4.0,
                                  healthy.makespanSeconds * 2.0);
    opts.retry.deadlineSeconds = healthy.makespanSeconds / 2.0;
    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);

    EXPECT_GT(r.droppedRequests, 0u);
    EXPECT_LT(r.sloAttainment, 1.0);
    EXPECT_LE(r.goodputTokensPerSecond, r.tokensPerSecond);
    EXPECT_EQ(r.dropOrder.size(), r.droppedRequests);
    // Dropped and completed partition the trace.
    EXPECT_EQ(r.requests.size() + r.droppedRequests, trace.size());
}

/** The fatal() message of constructing a simulator with @p opts, or
 *  "" when it constructs. */
std::string
constructionError(const ServingOptions &opts)
{
    const auto accel = Registry().make("mcbp");
    try {
        (void)ServingSimulator(*accel, opts);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** Every negative or non-finite value of one retry field is rejected
 *  with a message naming the field and its range; 0 is accepted. */
void
expectRetryFieldChecked(double RetryOptions::*field, const char *name)
{
    for (const double bad : {-0.5, -1e-9, std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
        ServingOptions opts;
        opts.retry.*field = bad;
        const std::string msg = constructionError(opts);
        EXPECT_NE(msg.find(name), std::string::npos) << bad << ": " << msg;
        EXPECT_NE(msg.find(">= 0"), std::string::npos) << msg;
    }
    ServingOptions zero;
    zero.retry.*field = 0.0;
    EXPECT_EQ(constructionError(zero), "") << name;
}

TEST(FaultServing, DegradedTwinAtAnotherClockIsRejectedAtConstruction)
{
    // The A100 model runs at 1.41 GHz, the MCBP chip at 1 GHz.
    Registry registry;
    const CountingAccelerator twin(registry.make("a100"));
    ASSERT_NE(twin.capabilities().clockGhz, 1.0);
    ServingOptions opts;
    opts.degradedAccel = &twin;
    opts.faults.mtbfSeconds = 1.0;
    opts.faults.horizonSeconds = 2.0;
    const std::string msg = constructionError(opts);
    EXPECT_NE(msg.find("1.41 GHz"), std::string::npos) << msg;
    EXPECT_NE(msg.find("at 1 GHz"), std::string::npos) << msg;
    // A fleet's replica simulator checks its unwrapped twin too.
    const auto fleetAccel = registry.make("mcbp:dp=2");
    const auto &fleet = dynamic_cast<const FleetAccelerator &>(*fleetAccel);
    EXPECT_THROW((void)FleetRouter(fleet, opts), std::runtime_error);
    EXPECT_THROW((void)ServingSimulator(fleet, opts), std::runtime_error);
    // Rejected before any costing ran the twin.
    EXPECT_EQ(twin.runs(), 0u);
}

TEST(ServingOptions, BoundsAreCheckedAtConstruction)
{
    // Each bound fires when the simulator is built, before costing, so
    // no trace is needed to see it and a fleet inherits it.
    auto bad = [](auto set) {
        ServingOptions opts;
        set(opts);
        return opts;
    };
    const std::vector<std::pair<ServingOptions, std::string>> cases = {
        {bad([](ServingOptions &o) { o.maxBatch = 0; }), "maxBatch"},
        {bad([](ServingOptions &o) { o.kvBlockTokens = 0; }), "block size"},
        {bad([](ServingOptions &o) { o.kvLowWatermark = -0.1; }),
         "watermark"},
        {bad([](ServingOptions &o) { o.kvLowWatermark = 1.0; }),
         "watermark"},
        {bad([](ServingOptions &o) {
             o.policy = SchedulerPolicy::ShortestPromptFirst;
             o.sjfAgingWeight = -1.0;
         }),
         "sjfAgingWeight"},
        {bad([](ServingOptions &o) {
             o.policy = SchedulerPolicy::ShortestPromptFirst;
             o.sjfAgingWeight = std::numeric_limits<double>::infinity();
         }),
         "sjfAgingWeight"},
    };
    Registry registry;
    const CountingAccelerator flat(registry.make("mcbp"));
    const FleetAccelerator fleet(
        std::make_unique<CountingAccelerator>(registry.make("mcbp")),
        FleetOptions{2});
    const auto &replica =
        dynamic_cast<const CountingAccelerator &>(fleet.replica());
    const auto trace = smallTrace(4);
    for (const auto &[opts, field] : cases) {
        const std::string msg = constructionError(opts);
        EXPECT_NE(msg.find(field), std::string::npos) << field << ": " << msg;
        EXPECT_THROW((void)ServingSimulator(flat, opts).simulate(trace),
                     std::runtime_error)
            << field;
        EXPECT_THROW((void)FleetRouter(fleet, opts).simulate(trace),
                     std::runtime_error)
            << field;
        EXPECT_THROW((void)ServingSimulator(fleet, opts).simulate(trace),
                     std::runtime_error)
            << field;
    }
    // Rejected before any costing ran either accelerator.
    EXPECT_EQ(flat.runs(), 0u);
    EXPECT_EQ(replica.runs(), 0u);
}

TEST(RetryOptions, NegativeOrNonFiniteBackoffBaseIsRejected)
{
    // A negative backoff would re-dispatch failover work into the
    // past, before the request arrived.
    expectRetryFieldChecked(&RetryOptions::backoffBaseSeconds,
                            "backoffBaseSeconds");
}

TEST(RetryOptions, NegativeOrNonFiniteBackoffCapIsRejected)
{
    expectRetryFieldChecked(&RetryOptions::backoffCapSeconds,
                            "backoffCapSeconds");
}

TEST(RetryOptions, NegativeOrNonFiniteDeadlineIsRejected)
{
    expectRetryFieldChecked(&RetryOptions::deadlineSeconds,
                            "deadlineSeconds");
}

TEST(FaultServing, StragglerAndLinkWindowsSlowWithoutKilling)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp:tp=2");

    ServingOptions plain;
    plain.maxBatch = 8;
    const ServingReport healthy =
        ServingSimulator(*accel, plain).simulate(trace);

    ServingOptions opts = plain;
    const double third = healthy.makespanSeconds / 3.0;
    sim::FaultEvent s;
    s.at = third;
    s.kind = sim::FaultKind::StragglerStart;
    s.factor = 2.0;
    sim::FaultEvent se = s;
    se.at = 2.0 * third;
    se.kind = sim::FaultKind::StragglerEnd;
    sim::FaultEvent l;
    l.at = third * 1.2;
    l.kind = sim::FaultKind::LinkDegrade;
    l.factor = 0.5;
    sim::FaultEvent le = l;
    le.at = third * 1.8;
    le.kind = sim::FaultKind::LinkRestore;
    opts.faults.events = {s, se, l, le};

    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);
    EXPECT_EQ(r.faultEvents, 4u);
    EXPECT_EQ(r.killedInFlight, 0u);
    EXPECT_EQ(r.droppedRequests, 0u);
    EXPECT_EQ(r.requests.size(), trace.size());
    EXPECT_GT(r.makespanSeconds, healthy.makespanSeconds);
    EXPECT_EQ(r.tokensPerSecond, r.goodputTokensPerSecond);
}

TEST(Health, DegradedSpecRewritesTopologies)
{
    EXPECT_EQ(degradedSpec("mcbp:procs=148,tp=4"),
              "mcbp:procs=148,tp=2");
    EXPECT_EQ(degradedSpec("mcbp:tp=2"), "mcbp");
    EXPECT_EQ(degradedSpec("mcbp:pp=4,mb=8"), "mcbp:pp=2,mb=8");
    // Collapsing to a single chip sheds the knobs the registry would
    // reject without a fabric/pipeline.
    EXPECT_EQ(degradedSpec("mcbp:pp=2,mb=8,linkgbs=600"), "mcbp");
    // tp halves before pp re-partitions.
    EXPECT_EQ(degradedSpec("mcbp:pp=2,tp=2"), "mcbp:pp=2");
    // No redundancy, no degraded form.
    EXPECT_EQ(degradedSpec("mcbp"), "");
    EXPECT_EQ(degradedSpec("mcbp:tp=1"), "");
    // Axis values follow make()'s integer grammar: any whole number.
    EXPECT_EQ(degradedSpec("mcbp:tp=4.0"), "mcbp:tp=2");
    EXPECT_EQ(degradedSpec("mcbp:pp=4e0,mb=8"), "mcbp:pp=2,mb=8");

    // Every non-empty rewrite must actually build.
    Registry registry;
    for (const char *spec :
         {"mcbp:procs=148,tp=4", "mcbp:tp=2", "mcbp:pp=4,mb=8",
          "mcbp:pp=2,mb=8,linkgbs=600", "mcbp:pp=2,tp=2", "mcbp:tp=4.0",
          "mcbp:pp=4e0,mb=8"}) {
        const std::string deg = degradedSpec(spec);
        ASSERT_FALSE(deg.empty()) << spec;
        EXPECT_NO_THROW((void)registry.make(deg)) << deg;
    }
}

TEST(Health, RepeatedOptionKeysFailInMakeAndDegradedSpec)
{
    // Keys compare after lower-casing, so TP= repeats tp= too. Keeping
    // either copy would silently ignore the other; the degraded twin
    // would halve one copy and keep the other.
    Registry registry;
    for (const std::string spec : {"mcbp:tp=4,tp=2", "mcbp:tp=4,TP=2"}) {
        for (const bool degraded : {false, true}) {
            try {
                if (degraded)
                    (void)degradedSpec(spec);
                else
                    (void)registry.make(spec);
                ADD_FAILURE() << "expected a repeated-key error: " << spec;
            } catch (const std::runtime_error &e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find("'tp'"), std::string::npos) << msg;
                EXPECT_NE(msg.find("repeated"), std::string::npos) << msg;
                EXPECT_NE(msg.find(spec), std::string::npos) << msg;
            }
        }
    }
}

} // namespace
} // namespace mcbp::engine
