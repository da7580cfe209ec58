/**
 * @file
 * PlanCache invariants (the costing fast path's correctness contract):
 *  - singleflight: threads racing on a cold key run its compute
 *    exactly once and all read the same bits;
 *  - keying: identity, model and workload shape all separate entries —
 *    two accelerators (or two shapes) can never alias a cost;
 *  - the serving costing fan-out is bit-identical at every thread
 *    count (index-ordered join over cached metrics);
 *  - a second simulate() on the same simulator recomputes nothing
 *    (full cache reuse, including the paged recompute re-pricer).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "accel/plan_cache.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/llm_config.hpp"
#include "model/request.hpp"

namespace mcbp::accel {
namespace {

/** A distinguishable metric (only cycles matter to these tests). */
RunMetrics
metric(double cycles)
{
    RunMetrics rm;
    rm.prefill.cycles = cycles;
    return rm;
}

TEST(PlanCache, SingleflightComputesOncePerKey)
{
    PlanCache cache;
    const model::LlmConfig &m = model::findModel("OPT1B3");
    constexpr std::size_t kKeys = 4;
    constexpr std::size_t kThreads = 8;

    std::atomic<std::size_t> executed{0};
    std::vector<std::thread> threads;
    std::vector<std::vector<double>> seen(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t k = 0; k < kKeys; ++k) {
                model::Workload w = model::findTask("Dolly");
                w.promptLen = 100 + k; // distinct shape per key.
                const RunMetrics &rm =
                    cache.metrics("accel-A", m, w, [&, k] {
                        ++executed;
                        return metric(static_cast<double>(k));
                    });
                seen[t].push_back(rm.prefill.cycles);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    // One compute per distinct key, no matter how many threads raced.
    EXPECT_EQ(executed.load(), kKeys);
    EXPECT_EQ(cache.computeCalls(), kKeys);
    EXPECT_EQ(cache.size(), kKeys);
    for (const auto &row : seen) {
        ASSERT_EQ(row.size(), kKeys);
        for (std::size_t k = 0; k < kKeys; ++k)
            EXPECT_EQ(row[k], static_cast<double>(k));
    }
}

TEST(PlanCache, KeySeparatesIdentityModelAndShape)
{
    PlanCache cache;
    const model::LlmConfig &opt = model::findModel("OPT1B3");
    const model::LlmConfig &llama = model::findModel("Llama7B");
    const model::Workload base = model::findTask("Dolly");

    auto compute_of = [](double v) {
        return [v] { return metric(v); };
    };
    EXPECT_EQ(cache.metrics("A", opt, base, compute_of(1)).prefill.cycles,
              1.0);
    // Same key -> cached, the second compute never runs.
    EXPECT_EQ(cache.metrics("A", opt, base, compute_of(99)).prefill.cycles,
              1.0);
    // Identity, model and each shape component separate entries.
    EXPECT_EQ(cache.metrics("B", opt, base, compute_of(2)).prefill.cycles,
              2.0);
    EXPECT_EQ(
        cache.metrics("A", llama, base, compute_of(3)).prefill.cycles,
        3.0);
    model::Workload longer = base;
    longer.promptLen += 1;
    EXPECT_EQ(
        cache.metrics("A", opt, longer, compute_of(4)).prefill.cycles,
        4.0);
    model::Workload prefillOnly = base;
    prefillOnly.decodeLen = 0;
    EXPECT_EQ(
        cache.metrics("A", opt, prefillOnly, compute_of(5)).prefill.cycles,
        5.0);
    EXPECT_EQ(cache.computeCalls(), 5u);
    EXPECT_EQ(cache.size(), 5u);
}

std::vector<model::Request>
trace(std::size_t n, const char *task = "Dolly")
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = task;
    tc.requests = n;
    tc.arrivalsPerSecond = 50.0;
    tc.seed = 23;
    return model::synthesizeTrace(tc);
}

void
expectCostsBitIdentical(const engine::ServingSimulator::CostedTrace &a,
                        const engine::ServingSimulator::CostedTrace &b)
{
    EXPECT_EQ(a.clockGhz, b.clockGhz);
    EXPECT_EQ(a.serialSeconds, b.serialSeconds);
    EXPECT_EQ(a.serialJoules, b.serialJoules);
    ASSERT_EQ(a.costs.size(), b.costs.size());
    for (std::size_t i = 0; i < a.costs.size(); ++i) {
        const engine::CostedRequest &x = a.costs[i];
        const engine::CostedRequest &y = b.costs[i];
        EXPECT_EQ(x.req->id, y.req->id);
        EXPECT_EQ(x.arrivalCycles, y.arrivalCycles);
        EXPECT_EQ(x.prefillCycles, y.prefillCycles);
        EXPECT_EQ(x.rates, y.rates);
        EXPECT_EQ(x.kvBytes, y.kvBytes);
        EXPECT_EQ(x.kvBytesPerToken, y.kvBytesPerToken);
        EXPECT_EQ(x.remainingTokens, y.remainingTokens);
    }
}

TEST(PlanCache, CostingBitIdenticalAcrossThreadCounts)
{
    engine::Registry registry;
    auto accel = registry.make("mcbp");
    const auto reqs = trace(48);

    engine::ServingOptions serial;
    serial.costingThreads = 1;
    const auto a = engine::ServingSimulator(*accel, serial).costTrace(reqs);

    for (std::size_t threads : {std::size_t{0}, std::size_t{8}}) {
        engine::ServingOptions opts;
        opts.costingThreads = threads;
        engine::ServingSimulator sim(*accel, opts);
        expectCostsBitIdentical(a, sim.costTrace(reqs));
        // Distinct shapes priced once each; repeats were cache hits.
        EXPECT_EQ(sim.planCache()->computeCalls(),
                  sim.planCache()->size());
        EXPECT_LE(sim.planCache()->size(), reqs.size());
    }
}

TEST(PlanCache, SecondSimulateRecomputesNothing)
{
    engine::Registry registry;
    auto accel = registry.make("mcbp");
    const auto reqs = trace(24, "MBPP");

    // A tight paged pool over a decode-heavy trace forces
    // preemptions, so the recompute re-pricer also runs through the
    // cache.
    engine::ServingOptions opts;
    opts.maxBatch = 16;
    opts.kvPolicy = engine::KvPolicy::Paged;
    engine::ServingSimulator probe(*accel, opts);
    opts.kvCapacityBytes = probe.simulate(reqs).kvPeakBytes / 4.0;
    engine::ServingSimulator sim(*accel, opts);

    const engine::ServingReport first = sim.simulate(reqs);
    EXPECT_GT(first.preemptions, 0u);
    const std::uint64_t warm = sim.planCache()->computeCalls();
    EXPECT_GT(warm, 0u);

    const engine::ServingReport second = sim.simulate(reqs);
    EXPECT_EQ(sim.planCache()->computeCalls(), warm);
    EXPECT_EQ(first.busySeconds, second.busySeconds);
    EXPECT_EQ(first.joulesPerToken, second.joulesPerToken);
    EXPECT_EQ(first.preemptions, second.preemptions);
}

} // namespace
} // namespace mcbp::accel
