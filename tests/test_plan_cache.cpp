/**
 * @file
 * PlanCache invariants and the trace-costing contract:
 *  - singleflight: threads racing on a cold key run its compute
 *    exactly once and all read the same bits;
 *  - keying: identity, model and workload shape all separate entries —
 *    two accelerators (or two shapes) can never alias a cost;
 *  - trace costing prices each distinct (model, task, prompt, decode)
 *    shape exactly once per topology, never through the plan cache,
 *    and is bit-identical at every thread count;
 *  - a second simulate() on the same simulator recomputes nothing
 *    (full cache reuse by the paged recompute re-pricer).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "accel/plan_cache.hpp"
#include "counting_accelerator.hpp"
#include "engine/health.hpp"
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
        EXPECT_EQ(x.shape->rates, y.shape->rates);
        EXPECT_EQ(x.kvBytes, y.kvBytes);
        EXPECT_EQ(x.kvBytesPerToken, y.kvBytesPerToken);
        EXPECT_EQ(x.remainingTokens, y.remainingTokens);
    }
}

/** Distinct (model, task, prompt, decode) shapes of @p reqs. */
std::size_t
distinctShapes(const std::vector<model::Request> &reqs)
{
    std::set<std::tuple<std::string, std::string, std::size_t, std::size_t>>
        shapes;
    for (const model::Request &r : reqs)
        shapes.insert({r.model, r.task, r.promptLen, r.decodeLen});
    return shapes.size();
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
        const auto b = sim.costTrace(reqs);
        expectCostsBitIdentical(a, b);
        // Costing prices through the shape table: the plan cache is
        // left to the paged re-pricer and stays empty.
        EXPECT_EQ(sim.planCache()->computeCalls(), 0u);
        EXPECT_EQ(sim.planCache()->size(), 0u);
        EXPECT_EQ(b.shapeCount(), distinctShapes(reqs));
        EXPECT_LE(b.shapeCount(), reqs.size());
    }
}

TEST(PlanCache, CostingRunsOncePerShapePerTopology)
{
    engine::Registry registry;
    const engine::CountingAccelerator healthy(registry.make("mcbp:tp=2"));
    const engine::CountingAccelerator degraded(
        registry.make(engine::degradedSpec("mcbp:tp=2")));
    // The trace twice over (ids offset): every shape repeats.
    auto reqs = trace(40);
    const std::size_t n = reqs.size();
    for (std::size_t i = 0; i < n; ++i) {
        model::Request r = reqs[i];
        r.id += n;
        reqs.push_back(r);
    }
    const std::size_t shapes = distinctShapes(reqs);
    ASSERT_LT(shapes, reqs.size());

    // Faults plus a degraded accelerator price both topologies.
    engine::ServingOptions opts;
    opts.faults.mtbfSeconds = 1.0;
    opts.faults.horizonSeconds = 2.0;
    opts.degradedAccel = &degraded;
    engine::ServingSimulator sim(healthy, opts);
    const auto costed = sim.costTrace(reqs);
    EXPECT_EQ(healthy.runs(), shapes);
    EXPECT_EQ(degraded.runs(), shapes);
    EXPECT_EQ(costed.shapeCount(), shapes);
    EXPECT_EQ(sim.planCache()->computeCalls(), 0u);
    // Every request of one shape shares one entry.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(costed.costs[i].shape, costed.costs[i + n].shape);
}

TEST(PlanCache, EqualLengthsOnDifferentTasksPriceSeparately)
{
    engine::Registry registry;
    const engine::CountingAccelerator accel(registry.make("mcbp"));
    // A mixed Dolly + MBPP trace whose two tasks share every length.
    std::vector<model::Request> reqs;
    for (std::size_t i = 0; i < 8; ++i) {
        model::Request r;
        r.id = i;
        r.arrivalSeconds = 0.01 * static_cast<double>(i);
        r.model = "OPT1B3";
        r.task = i % 2 == 0 ? "Dolly" : "MBPP";
        r.promptLen = 128 + 32 * (i / 4);
        r.decodeLen = 64;
        reqs.push_back(r);
    }
    const auto costed = engine::ServingSimulator(accel).costTrace(reqs);
    EXPECT_EQ(costed.shapeCount(), 4u);
    EXPECT_EQ(accel.runs(), 4u);
    const model::LlmConfig &m = model::findModel("OPT1B3");
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const engine::CostedRequest &c = costed.costs[i];
        EXPECT_EQ(c.shape->task, reqs[i].task);
        // Each request carries its own task's batch-1 price.
        const RunMetrics rm = accel.run(m, reqs[i].workload());
        EXPECT_EQ(c.shape->rates[engine::kHealthy].prefillCycles,
                  rm.prefill.cycles);
        EXPECT_EQ(c.shape->seconds, rm.seconds());
    }
    EXPECT_NE(costed.costs[0].shape, costed.costs[1].shape);
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
