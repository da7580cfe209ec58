/**
 * @file
 * Coalesced-vs-per-token equivalence contract of the event core
 * (event_core.hpp "Stepping"), over the full policy matrix
 * {fifo, skip-ahead, shortest-prompt} x {reserve, paged} x
 * {single chip, pp=2 x tp=2 cluster}:
 *  - every scheduling decision — admission order (including
 *    re-admissions), preemption victims, completion order — is
 *    exactly the per-token reference's;
 *  - aggregate times/energies agree to 1e-9 relative (the closed
 *    forms only re-associate floating-point sums);
 *  - coalescing actually coalesces (decodeWindows << decodeIterations)
 *    and the per-token path remains one pass per iteration;
 *  - fixed-seed fuzzed paged configs (block size, pool capacity, batch
 *    size, scheduler, dp=1/2/3, faults with and without a degraded
 *    twin) keep the same contract; a failure names its draw;
 *  - MCBP_SERVING_STEP spelling is validated (fatal on junk).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/health.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"
#include "sim/fault_model.hpp"

namespace mcbp::engine {
namespace {

std::vector<model::Request>
denseTrace(std::size_t n = 24)
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "MBPP";
    tc.requests = n;
    tc.arrivalsPerSecond = 50.0;
    tc.seed = 17;
    return model::synthesizeTrace(tc);
}

void
expectNear(double a, double b, const char *what)
{
    const double scale = std::max(std::abs(a), std::abs(b));
    EXPECT_LE(std::abs(a - b), 1e-9 * std::max(scale, 1.0)) << what;
}

/** The full contract between a per-token and a coalesced run. */
void
expectEquivalent(const ServingReport &ref, const ServingReport &coal)
{
    // Decisions verbatim.
    EXPECT_EQ(ref.admissionOrder, coal.admissionOrder);
    EXPECT_EQ(ref.preemptionOrder, coal.preemptionOrder);
    EXPECT_EQ(ref.preemptions, coal.preemptions);
    EXPECT_EQ(ref.recomputedTokens, coal.recomputedTokens);
    EXPECT_EQ(ref.peakBatch, coal.peakBatch);
    EXPECT_EQ(ref.decodeIterations, coal.decodeIterations);
    ASSERT_EQ(ref.requests.size(), coal.requests.size());
    for (std::size_t i = 0; i < ref.requests.size(); ++i) {
        EXPECT_EQ(ref.requests[i].id, coal.requests[i].id)
            << "completion order diverged at " << i;
        EXPECT_EQ(ref.requests[i].preemptions,
                  coal.requests[i].preemptions);
        expectNear(ref.requests[i].completionSeconds,
                   coal.requests[i].completionSeconds, "completion");
        expectNear(ref.requests[i].firstTokenSeconds,
                   coal.requests[i].firstTokenSeconds, "first token");
        expectNear(ref.requests[i].joules, coal.requests[i].joules,
                   "request joules");
        expectNear(ref.requests[i].admissionSeconds,
                   coal.requests[i].admissionSeconds, "admission");
    }
    // Fault decisions verbatim too (all zero/empty on clean runs).
    EXPECT_EQ(ref.retryOrder, coal.retryOrder);
    EXPECT_EQ(ref.dropOrder, coal.dropOrder);
    EXPECT_EQ(ref.faultEvents, coal.faultEvents);
    EXPECT_EQ(ref.killedInFlight, coal.killedInFlight);
    EXPECT_EQ(ref.retriesScheduled, coal.retriesScheduled);
    EXPECT_EQ(ref.droppedRequests, coal.droppedRequests);
    EXPECT_EQ(ref.faultLostTokens, coal.faultLostTokens);
    // Aggregates to 1e-9 relative.
    expectNear(ref.busySeconds, coal.busySeconds, "busy");
    expectNear(ref.makespanSeconds, coal.makespanSeconds, "makespan");
    expectNear(ref.serialSeconds, coal.serialSeconds, "serial");
    expectNear(ref.joulesPerToken, coal.joulesPerToken, "J/token");
    expectNear(ref.meanTpotSeconds, coal.meanTpotSeconds, "TPOT");
    expectNear(ref.p99FirstTokenSeconds, coal.p99FirstTokenSeconds,
               "p99 TTFT");
    expectNear(ref.kvPeakBytes, coal.kvPeakBytes, "kv peak");
    expectNear(ref.degradedSeconds, coal.degradedSeconds, "degraded");
    expectNear(ref.outageSeconds, coal.outageSeconds, "outage");
    expectNear(ref.faultRecomputeSeconds, coal.faultRecomputeSeconds,
               "fault recompute");
    expectNear(ref.goodputTokensPerSecond, coal.goodputTokensPerSecond,
               "goodput");
}

TEST(EventEquivalence, CoalescedMatchesPerTokenAcrossPolicyMatrix)
{
    const auto trace = denseTrace();
    Registry registry;
    for (const char *spec : {"mcbp", "mcbp:pp=2,tp=2"}) {
        auto accel = registry.make(spec);
        for (SchedulerPolicy policy : allSchedulerPolicies()) {
            for (KvPolicy kv : allKvPolicies()) {
                ServingOptions opts;
                opts.maxBatch = 8;
                opts.policy = policy;
                opts.kvPolicy = kv;
                if (kv == KvPolicy::Paged) {
                    // Size the pool off an unbounded probe so the
                    // paged leg actually preempts and recomputes.
                    ServingOptions probe = opts;
                    probe.kvCapacityBytes = 0.0;
                    opts.kvCapacityBytes =
                        ServingSimulator(*accel, probe)
                            .simulate(trace)
                            .kvPeakBytes /
                        4.0;
                }
                ServingOptions ref = opts;
                ref.stepMode = StepMode::PerToken;
                ServingOptions coal = opts;
                coal.stepMode = StepMode::Coalesced;
                const ServingReport a =
                    ServingSimulator(*accel, ref).simulate(trace);
                const ServingReport b =
                    ServingSimulator(*accel, coal).simulate(trace);
                SCOPED_TRACE(std::string(spec) + " / " +
                             toString(policy) + " / " + toString(kv));
                if (kv == KvPolicy::Paged) {
                    EXPECT_GT(b.preemptions, 0u);
                }
                // Per-token runs one loop pass per iteration; the
                // coalesced run folds them into far fewer windows.
                EXPECT_EQ(a.decodeWindows, a.decodeIterations);
                EXPECT_LT(b.decodeWindows, b.decodeIterations);
                expectEquivalent(a, b);
            }
        }
    }
}

TEST(EventEquivalence, CoalescedMatchesPerTokenUnderInjectedFaults)
{
    const auto trace = denseTrace();
    Registry registry;
    for (const char *spec : {"mcbp", "mcbp:pp=2,tp=2"}) {
        auto accel = registry.make(spec);
        // The composed topology fails over to its degraded form; the
        // single chip has none and rides out an outage instead.
        const std::string deg = degradedSpec(spec);
        std::unique_ptr<Accelerator> degraded;
        if (!deg.empty())
            degraded = registry.make(deg);

        // Hand-authored timeline at fractions of the healthy
        // makespan: a transient chip failure (kills + retries), a
        // straggler stall and a link-degradation window.
        ServingOptions probe_opts;
        probe_opts.maxBatch = 8;
        const double T = ServingSimulator(*accel, probe_opts)
                             .simulate(trace)
                             .makespanSeconds;
        ASSERT_GT(T, 0.0);
        sim::FaultSpec faults;
        sim::FaultEvent fail;
        fail.at = T / 4.0;
        fail.kind = sim::FaultKind::ChipFail;
        fail.permanent = false;
        fail.repairAt = fail.at + T / 10.0;
        faults.events.push_back(fail);
        sim::FaultEvent stall;
        stall.at = T / 2.0;
        stall.kind = sim::FaultKind::StragglerStart;
        stall.factor = 1.75;
        faults.events.push_back(stall);
        sim::FaultEvent stall_end = stall;
        stall_end.at = 0.7 * T;
        stall_end.kind = sim::FaultKind::StragglerEnd;
        faults.events.push_back(stall_end);
        sim::FaultEvent link;
        link.at = 0.55 * T;
        link.kind = sim::FaultKind::LinkDegrade;
        link.factor = 0.5;
        faults.events.push_back(link);
        sim::FaultEvent link_end = link;
        link_end.at = 0.8 * T;
        link_end.kind = sim::FaultKind::LinkRestore;
        faults.events.push_back(link_end);

        for (KvPolicy kv : allKvPolicies()) {
            ServingOptions opts;
            opts.maxBatch = 8;
            opts.kvPolicy = kv;
            opts.faults = faults;
            opts.degradedAccel = degraded.get();
            if (kv == KvPolicy::Paged) {
                ServingOptions probe = probe_opts;
                probe.kvPolicy = kv;
                opts.kvCapacityBytes =
                    ServingSimulator(*accel, probe)
                        .simulate(trace)
                        .kvPeakBytes /
                    4.0;
            }
            ServingOptions ref = opts;
            ref.stepMode = StepMode::PerToken;
            ServingOptions coal = opts;
            coal.stepMode = StepMode::Coalesced;
            const ServingReport a =
                ServingSimulator(*accel, ref).simulate(trace);
            const ServingReport b =
                ServingSimulator(*accel, coal).simulate(trace);
            SCOPED_TRACE(std::string(spec) + " / " + toString(kv) +
                         " / faulted");
            // The leg must actually exercise the fault machinery (the
            // transient failure expands to fail + repair: 6 events).
            EXPECT_EQ(b.faultEvents, 6u);
            EXPECT_GT(b.killedInFlight, 0u);
            EXPECT_GT(b.retriesScheduled, 0u);
            EXPECT_LT(b.decodeWindows, b.decodeIterations);
            expectEquivalent(a, b);
        }
    }
}

/** The accelerators the fuzzed configs draw from, built once: a
 *  tp=2 and a pp=2,tp=2 replica at dp=1/2/3, each replica with its
 *  degraded twin. */
struct FuzzAccels
{
    static constexpr std::array<const char *, 2> kReplicas = {
        "mcbp:tp=2", "mcbp:pp=2,tp=2"};

    FuzzAccels()
    {
        for (std::size_t r = 0; r < kReplicas.size(); ++r) {
            const std::string replica = kReplicas[r];
            for (std::size_t dp = 1; dp <= 3; ++dp)
                byDp[r][dp - 1] = registry.make(
                    dp == 1 ? replica
                            : replica + ",dp=" + std::to_string(dp));
            degraded[r] = registry.make(degradedSpec(replica));
        }
    }

    Registry registry;
    std::array<std::array<std::unique_ptr<Accelerator>, 3>, 2> byDp;
    std::array<std::unique_ptr<Accelerator>, 2> degraded;
};

/** Fuzzed config @p draw, served per-token and coalesced; returns the
 *  coalesced report. */
ServingReport
expectFuzzedConfigEquivalent(const FuzzAccels &accels, std::uint64_t draw)
{
    Rng rng(0xf022ed00u + draw);
    std::ostringstream what;
    what << "draw " << draw;

    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "MBPP";
    tc.requests = 8 + rng.uniformInt(33);
    const double rates[] = {0.0, 20.0, 80.0};
    tc.arrivalsPerSecond = rates[rng.uniformInt(3)];
    tc.seed = rng.next();
    const auto trace = model::synthesizeTrace(tc);
    what << ": " << tc.requests << " requests at " << tc.arrivalsPerSecond
         << "/s (trace seed " << tc.seed << ")";

    ServingOptions opts;
    opts.maxBatch = 1 + rng.uniformInt(64);
    opts.policy = allSchedulerPolicies()[rng.uniformInt(
        allSchedulerPolicies().size())];
    opts.kvPolicy = KvPolicy::Paged;
    opts.kvBlockTokens = 1 + rng.uniformInt(64);
    const std::size_t dp = 1 + rng.uniformInt(3);
    const std::size_t replica = rng.bernoulli(1.0 / 3.0) ? 1 : 0;
    if (rng.bernoulli(0.25))
        opts.kvPolicy = KvPolicy::Reserve;
    const Accelerator &accel = *accels.byDp[replica][dp - 1];
    what << ", maxBatch " << opts.maxBatch << ", "
         << toString(opts.policy) << ", " << toString(opts.kvPolicy)
         << " KV, block " << opts.kvBlockTokens << ", "
         << FuzzAccels::kReplicas[replica] << ",dp=" << dp;

    // An unbounded, fault-free probe sizes the pool and the fault
    // timeline to this trace; the pool never drops below the largest
    // footprint on each replica.
    ServingOptions probe_opts = opts;
    probe_opts.stepMode = StepMode::Coalesced;
    const ServingReport probe =
        ServingSimulator(accel, probe_opts).simulate(trace);
    const double T = probe.makespanSeconds;
    double largest = 0.0;
    for (const RequestMetrics &m : probe.requests)
        largest = std::max(largest, m.kvBytes);
    const double fraction = rng.uniform(0.2, 0.9);
    opts.kvCapacityBytes =
        static_cast<double>(dp) *
        std::max(probe.kvPeakBytes * fraction, largest * 1.01);
    what << ", capacity x" << fraction << " of the unbounded peak";

    if (rng.bernoulli(0.5)) {
        sim::FaultSpec &f = opts.faults;
        f.seed = rng.next();
        f.mtbfSeconds = T * rng.uniform(0.5, 4.0);
        f.repairSeconds = T * rng.uniform(0.02, 0.1);
        f.permanentFraction = rng.uniform(0.0, 0.5);
        f.linkDegradeRate = rng.uniform(0.0, 3.0) / T;
        f.linkDegradeSeconds = 0.05 * T;
        f.stragglerRate = rng.uniform(0.0, 3.0) / T;
        f.stragglerSeconds = 0.05 * T;
        f.horizonSeconds = T;
        opts.retry.maxRetries = rng.uniformInt(4);
        opts.retry.backoffBaseSeconds = 0.01 * T;
        opts.retry.backoffCapSeconds = 0.1 * T;
        if (rng.bernoulli(0.5))
            opts.retry.deadlineSeconds = T * rng.uniform(0.1, 0.8);
        if (rng.bernoulli(0.7))
            opts.degradedAccel = accels.degraded[replica].get();
        what << ", faults (seed " << f.seed << ", "
             << (opts.degradedAccel != nullptr ? "degraded twin"
                                               : "no twin")
             << ")";
    }

    ServingOptions ref = opts;
    ref.stepMode = StepMode::PerToken;
    ServingOptions coal = opts;
    coal.stepMode = StepMode::Coalesced;
    const ServingReport a = ServingSimulator(accel, ref).simulate(trace);
    const ServingReport b = ServingSimulator(accel, coal).simulate(trace);
    SCOPED_TRACE(what.str());
    expectEquivalent(a, b);
    return b;
}

TEST(EventEquivalence, FuzzedConfigsMatchPerToken)
{
    // Fixed-seed draws over the window grower's inputs: block sizes
    // 1-64 (non-powers of two included), pools at 0.2-0.9 of the
    // unbounded peak, batches of 1-64, every scheduler, paged or (a
    // quarter of draws) reserve KV, tp=2 or (a third) pp=2,tp=2
    // replicas at dp=1/2/3, and sampled faults with or without a
    // degraded twin. Each draw must make the per-token reference's
    // decisions verbatim.
    const FuzzAccels accels;
    constexpr std::uint64_t kDraws = 200;
    std::size_t preempting = 0;
    std::size_t killing = 0;
    std::size_t reserve = 0;
    std::size_t pipelined = 0;
    for (std::uint64_t draw = 0; draw < kDraws; ++draw) {
        const ServingReport r = expectFuzzedConfigEquivalent(accels, draw);
        preempting += r.preemptions > 0 ? 1 : 0;
        killing += r.killedInFlight > 0 ? 1 : 0;
        reserve += r.kvPolicy == toString(KvPolicy::Reserve) ? 1 : 0;
        pipelined +=
            r.accelerator.find("[pp2]") != std::string::npos ? 1 : 0;
    }
    // The draws must reach the preemption and fault-kill paths, the
    // reserve ledger and the pipelined replica.
    EXPECT_GE(preempting, kDraws / 4);
    EXPECT_GE(killing, kDraws / 10);
    EXPECT_GE(reserve, kDraws / 8);
    EXPECT_GE(pipelined, kDraws / 8);
    std::printf("fuzzed draws: %zu, preempting %zu, with kills %zu, "
                "reserve KV %zu, pp=2 %zu\n",
                static_cast<std::size_t>(kDraws), preempting, killing,
                reserve, pipelined);
}

TEST(EventEquivalence, StepModeSpellingsAndEnvValidation)
{
    EXPECT_EQ(toString(StepMode::Coalesced), "coalesced");
    EXPECT_EQ(toString(StepMode::PerToken), "per-token");

    // Env resolution: unset/empty -> coalesced; junk is fatal.
    unsetenv("MCBP_SERVING_STEP");
    EXPECT_EQ(stepModeFromEnv(), StepMode::Coalesced);
    setenv("MCBP_SERVING_STEP", "", 1);
    EXPECT_EQ(stepModeFromEnv(), StepMode::Coalesced);
    setenv("MCBP_SERVING_STEP", "per-token", 1);
    EXPECT_EQ(stepModeFromEnv(), StepMode::PerToken);
    setenv("MCBP_SERVING_STEP", "coalesced", 1);
    EXPECT_EQ(stepModeFromEnv(), StepMode::Coalesced);
    setenv("MCBP_SERVING_STEP", "warp-speed", 1);
    EXPECT_THROW((void)stepModeFromEnv(), std::runtime_error);
    unsetenv("MCBP_SERVING_STEP");
}

} // namespace
} // namespace mcbp::engine
