/**
 * @file
 * PlanCache invariants and the trace-costing contract:
 *  - singleflight: threads racing on a cold key run its compute
 *    exactly once and all read the same bits;
 *  - keying: identity, model and every workload field (the exact
 *    concentration included) separate entries — two accelerators (or
 *    two shapes) can never alias a cost;
 *  - a compute that throws leaves its key cold for the next caller;
 *  - trace costing prices each distinct (model, task, prompt, decode)
 *    shape exactly once on the healthy topology (degraded prices wait
 *    for their first read), never through the plan cache,
 *    into a table in (prompt, decode, model, task) order, and is
 *    bit-identical at every thread count;
 *  - a second simulate() on the same simulator recomputes nothing
 *    (full cache reuse by the paged recompute re-pricer);
 *  - the phase memo costing uses (accel/phase_memo.hpp) changes no
 *    bit: every plan costTrace() makes through it equals a per-shape
 *    run() on every PhaseMetrics field, on flat, tp, pp, fleet and
 *    degraded MCBP topologies and on designs that ignore the memo,
 *    at one and at four costing threads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "accel/phase_memo.hpp"
#include "accel/plan_cache.hpp"
#include "common/annotations.hpp"
#include "common/rng.hpp"
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
    // The concentration compares exactly: a difference past the sixth
    // decimal is still another key.
    model::Workload sharper = base;
    sharper.attentionConcentration += 1e-9;
    EXPECT_EQ(
        cache.metrics("A", opt, sharper, compute_of(6)).prefill.cycles,
        6.0);
    // Every other Workload field is in the key too.
    model::Workload renamed = base;
    renamed.name += "-b";
    EXPECT_EQ(
        cache.metrics("A", opt, renamed, compute_of(7)).prefill.cycles,
        7.0);
    model::Workload batched = base;
    batched.batch += 1;
    EXPECT_EQ(
        cache.metrics("A", opt, batched, compute_of(8)).prefill.cycles,
        8.0);
    model::Workload rekinded = base;
    rekinded.kind = base.kind == model::TaskKind::Generation
                        ? model::TaskKind::Reasoning
                        : model::TaskKind::Generation;
    EXPECT_EQ(
        cache.metrics("A", opt, rekinded, compute_of(9)).prefill.cycles,
        9.0);
    EXPECT_EQ(cache.computeCalls(), 9u);
    EXPECT_EQ(cache.size(), 9u);
}

TEST(PlanCache, ThrowingComputeLeavesTheKeyCold)
{
    PlanCache cache;
    const model::LlmConfig &m = model::findModel("OPT1B3");
    const model::Workload w = model::findTask("Dolly");
    EXPECT_THROW(cache.metrics("A", m, w,
                               []() -> RunMetrics {
                                   throw std::runtime_error("cold");
                               }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.computeCalls(), 0u);
    // The next caller on the same key computes it.
    EXPECT_EQ(cache.metrics("A", m, w, [] { return metric(7); })
                  .prefill.cycles,
              7.0);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.computeCalls(), 1u);
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
        EXPECT_EQ(x.recomputeCycles, y.recomputeCycles);
        EXPECT_EQ(x.next, y.next);
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

    // Faults plus a degraded accelerator: costing prices the healthy
    // topology only, and leaves every degraded price to its first read.
    engine::ServingOptions opts;
    opts.faults.mtbfSeconds = 1.0;
    opts.faults.horizonSeconds = 2.0;
    opts.degradedAccel = &degraded;
    engine::ServingSimulator sim(healthy, opts);
    const auto costed = sim.costTrace(reqs);
    EXPECT_EQ(healthy.runs(), shapes);
    EXPECT_EQ(degraded.runs(), 0u);
    EXPECT_EQ(costed.degradedShapesPriced(), 0u);
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
        EXPECT_EQ(c.shape->task->name, reqs[i].task);
        // Each request carries its own task's batch-1 price.
        const RunMetrics rm = accel.run(m, reqs[i].workload());
        EXPECT_EQ(c.shape->rates.prefillCycles,
                  rm.prefill.cycles);
        EXPECT_EQ(c.shape->seconds, rm.seconds());
    }
    EXPECT_NE(costed.costs[0].shape, costed.costs[1].shape);
}

TEST(PlanCache, ShapeTableOrdersOnLengthsThenNames)
{
    engine::Registry registry;
    const auto accel = registry.make("mcbp");
    // Three (model, task) pairs, shuffled so they are first seen out
    // of name order, all at the same lengths. Prompt lengths need 1, 2
    // and 3 radix bytes, and each longer one has lower bytes below the
    // shorter ones', so a missing pass misorders them. Decode lengths
    // need 1 and 2 bytes, and every shape appears twice.
    const std::vector<std::pair<std::string, std::string>> pairs = {
        {"OPT1B3", "MBPP"}, {"Llama7B", "Dolly"}, {"OPT1B3", "Dolly"}};
    std::vector<model::Request> reqs;
    for (int copy = 0; copy < 2; ++copy)
        for (const auto &[name, task] : pairs)
            for (const std::size_t prompt : {200, 3000, 65600})
                for (const std::size_t decode : {5, 260}) {
                    model::Request r;
                    r.model = name;
                    r.task = task;
                    r.promptLen = prompt;
                    r.decodeLen = decode;
                    reqs.push_back(r);
                }
    // A fixed-seed shuffle, then ids and arrivals in trace order.
    Rng rng(29);
    for (std::size_t i = reqs.size() - 1; i > 0; --i)
        std::swap(reqs[i], reqs[rng.uniformInt(i + 1)]);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = i;
        reqs[i].arrivalSeconds = 0.01 * static_cast<double>(i);
    }
    std::vector<std::pair<std::string, std::string>> firstSeen;
    for (const model::Request &r : reqs)
        if (std::find(firstSeen.begin(), firstSeen.end(),
                      std::pair(r.model, r.task)) == firstSeen.end())
            firstSeen.emplace_back(r.model, r.task);
    ASSERT_FALSE(std::is_sorted(firstSeen.begin(), firstSeen.end()));

    // Entries hold zoo handles, not names or a workload copy.
    EXPECT_LE(sizeof(engine::PricedShape), 120u);
    // A costed request restates none of its shape's prices.
    EXPECT_LE(sizeof(engine::CostedRequest), 240u);
    engine::ServingOptions serial;
    serial.costingThreads = 1;
    const auto a = engine::ServingSimulator(*accel, serial).costTrace(reqs);
    ASSERT_EQ(a.shapeCount(), reqs.size() / 2);
    const auto key = [&](std::size_t i) {
        return std::tie(reqs[i].promptLen, reqs[i].decodeLen, reqs[i].model,
                        reqs[i].task);
    };
    const auto index = [&](std::size_t i) {
        return a.costs[i].shape - a.table->shapes.data();
    };
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(a.costs[i].shape->task->name, reqs[i].task);
        EXPECT_EQ(a.costs[i].shape->config->name, reqs[i].model);
        for (std::size_t j = 0; j < reqs.size(); ++j) {
            // One entry per distinct shape, in shape order.
            EXPECT_EQ(a.costs[i].shape == a.costs[j].shape, key(i) == key(j))
                << i << " vs " << j;
            EXPECT_EQ(index(i) < index(j), key(i) < key(j))
                << i << " vs " << j;
        }
    }

    engine::ServingOptions pooled;
    pooled.costingThreads = 0;
    const auto b = engine::ServingSimulator(*accel, pooled).costTrace(reqs);
    expectCostsBitIdentical(a, b);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(b.costs[i].shape - b.table->shapes.data(), index(i));
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

/** Every PhaseMetrics field of @p a and @p b holds the same bits. */
void
expectPhaseBits(const PhaseMetrics &a, const PhaseMetrics &b,
                const std::string &where)
{
    const auto fields = [](const PhaseMetrics &p) {
        const sim::EnergyBreakdown &e = p.energy;
        return std::array{p.cycles,
                          e.computePj,
                          e.bitReorderPj,
                          e.camPj,
                          e.codecPj,
                          e.bgppPj,
                          e.sramPj,
                          e.dramPj,
                          e.sfuPj,
                          e.interconnectPj,
                          p.traffic.weightBytes,
                          p.traffic.kvBytes,
                          p.traffic.predictionBytes,
                          p.traffic.actBytes,
                          p.denseMacs,
                          p.executedAdds,
                          p.gemmCycles,
                          p.weightLoadCycles,
                          p.kvLoadCycles,
                          p.otherCycles,
                          p.weightStreamCycles,
                          p.linearWorkCycles,
                          p.fixedStepCycles};
    };
    const auto x = fields(a);
    const auto y = fields(b);
    for (std::size_t f = 0; f < x.size(); ++f)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x[f]),
                  std::bit_cast<std::uint64_t>(y[f]))
            << where << ": field " << f << " is " << x[f] << " vs "
            << y[f];
    EXPECT_EQ(a.memorySerialized, b.memorySerialized) << where;
}

/** Every RunMetrics field of @p a and @p b holds the same bits. */
void
expectRunBits(const RunMetrics &a, const RunMetrics &b,
              const std::string &where)
{
    EXPECT_EQ(a.accelerator, b.accelerator) << where;
    EXPECT_EQ(a.processors, b.processors) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.clockGhz),
              std::bit_cast<std::uint64_t>(b.clockGhz))
        << where;
    expectPhaseBits(a.prefill, b.prefill, where + " prefill");
    expectPhaseBits(a.decode, b.decode, where + " decode");
}

/**
 * Forwards to @p inner and records the folded plan of every shape it
 * prices. With @p forwardMemo false it drops the costing's phase
 * memo, so the costing prices each shape as a plain run() does.
 */
class PlanRecorder : public engine::Accelerator
{
  public:
    struct Priced
    {
        const model::LlmConfig *model;
        model::Workload task;
        RunMetrics metrics;
    };

    PlanRecorder(const engine::Accelerator &inner, bool forwardMemo)
        : inner_(inner), forwardMemo_(forwardMemo)
    {
    }

    std::string name() const override { return inner_.name(); }
    std::string runName() const override { return inner_.runName(); }
    engine::Capabilities capabilities() const override
    {
        return inner_.capabilities();
    }
    std::string configSummary() const override
    {
        return inner_.configSummary();
    }
    ExecutionPlan plan(const model::LlmConfig &model,
                       const model::Workload &task,
                       PhaseMemo *memo = nullptr) const override
    {
        ExecutionPlan p =
            inner_.plan(model, task, forwardMemo_ ? memo : nullptr);
        const MutexLock lock(mutex_);
        priced_.push_back({&model, task, p.fold(runName())});
        return p;
    }
    void
    profileRequests(const model::LlmConfig &model,
                    const model::Workload &task,
                    std::vector<ProfileRequest> &out) const override
    {
        inner_.profileRequests(model, task, out);
    }
    std::shared_ptr<ProfileCache> profileCache() const override
    {
        return inner_.profileCache();
    }

    /** The plans priced so far, in no particular order. */
    std::vector<Priced>
    priced() const
    {
        const MutexLock lock(mutex_);
        return priced_;
    }

  private:
    const engine::Accelerator &inner_;
    bool forwardMemo_;
    mutable Mutex mutex_;
    mutable std::vector<Priced> priced_ MCBP_GUARDED_BY(mutex_);
};

/**
 * Two interleaved (model, task) pairs over the attention buckets'
 * edges (prompts 63/64/65, 2047/2048/2049 and past the 2048 clamp)
 * with decode lengths 0 and 1, plus shapes whose 2*promptLen +
 * decodeLen coincide inside one bucket (63+3 and 64+1, 2047+3 and
 * 2048+1) and across a bucket edge (65+1 and 64+3).
 */
std::vector<model::Request>
bucketEdgeTrace()
{
    const std::array<std::pair<std::size_t, std::size_t>, 16> lengths{{
        {1, 0}, {1, 1}, {63, 0}, {63, 3}, {64, 1}, {64, 3}, {65, 1},
        {65, 0}, {2047, 1}, {2047, 3}, {2048, 1}, {2048, 0},
        {2049, 1}, {2049, 40}, {3000, 0}, {3000, 17},
    }};
    const std::array<std::pair<const char *, const char *>, 2> pairs{
        {{"OPT1B3", "Dolly"}, {"Bloom1B7", "MBPP"}}};
    std::vector<model::Request> reqs;
    for (const auto &[prompt, decode] : lengths)
        for (const auto &[modelName, task] : pairs) {
            model::Request r;
            r.id = reqs.size();
            r.arrivalSeconds = 0.01 * static_cast<double>(r.id);
            r.model = modelName;
            r.task = task;
            r.promptLen = prompt;
            r.decodeLen = decode;
            reqs.push_back(r);
        }
    return reqs;
}

TEST(PhaseMemo, MemoizedCostingMatchesPerShapeRunBitForBit)
{
    const engine::Registry registry;
    const std::vector<model::Request> reqs = bucketEdgeTrace();
    const std::size_t shapes = distinctShapes(reqs);
    constexpr const char *kFleet = "mcbp:procs=148,dp=2,pp=2,tp=2";
    for (const std::string &spec :
         {std::string("mcbp"), std::string("mcbp:tp=2"),
          std::string("mcbp:pp=2"), std::string(kFleet),
          engine::degradedSpec(kFleet), std::string("spatten"),
          std::string("a100"), std::string("a100:pp=2"),
          std::string("spatten:pp=2,tp=2")}) {
        SCOPED_TRACE(spec);
        const std::unique_ptr<engine::Accelerator> accel =
            registry.make(spec);
        const bool memoizes = spec.rfind("mcbp", 0) == 0;

        // The same costing with the memo dropped: a plain run() per
        // shape.
        const PlanRecorder plain(*accel, false);
        engine::ServingOptions serial;
        serial.costingThreads = 1;
        const auto reference =
            engine::ServingSimulator(plain, serial).costTrace(reqs);
        EXPECT_EQ(reference.phaseEvaluations(), 0u);

        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(threads);
            const PlanRecorder memoized(*accel, true);
            engine::ServingOptions opts;
            opts.costingThreads = threads;
            const auto costed =
                engine::ServingSimulator(memoized, opts).costTrace(reqs);
            expectCostsBitIdentical(reference, costed);
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                EXPECT_EQ(costed.costs[i].shape->seconds,
                          reference.costs[i].shape->seconds);
                EXPECT_EQ(costed.costs[i].shape->joules,
                          reference.costs[i].shape->joules);
            }

            // Each shape planned once, each plan equal to a run().
            const std::vector<PlanRecorder::Priced> priced =
                memoized.priced();
            EXPECT_EQ(priced.size(), shapes);
            for (const PlanRecorder::Priced &p : priced)
                expectRunBits(p.metrics, accel->run(*p.model, p.task),
                              p.model->name + "/" + p.task.name + " " +
                                  std::to_string(p.task.promptLen) +
                                  "+" + std::to_string(p.task.decodeLen));

            // The memo is used where a phase split exists, and one
            // memo evaluates fewer phases than two per shape.
            if (memoizes) {
                EXPECT_GT(costed.phaseEvaluations(), 0u);
                if (threads == 1) {
                    EXPECT_LT(costed.phaseEvaluations(), 2 * shapes);
                }
            } else {
                EXPECT_EQ(costed.phaseEvaluations(), 0u);
            }
        }
    }
}

TEST(PhaseMemo, HitsInAnyOrderMatchRun)
{
    // Costing visits shapes in sorted order; a memo read in reverse
    // order, twice over, must still return exact prices.
    const engine::Registry registry;
    std::vector<model::Request> reqs = bucketEdgeTrace();
    std::reverse(reqs.begin(), reqs.end());
    for (const char *spec : {"mcbp", "mcbp:pp=2,tp=2"}) {
        const std::unique_ptr<engine::Accelerator> accel =
            registry.make(spec);
        PhaseMemo memo;
        for (int pass = 0; pass < 2; ++pass)
            for (const model::Request &r : reqs) {
                const model::LlmConfig &m = model::findModel(r.model);
                const model::Workload w = r.workload();
                expectRunBits(accel->plan(m, w, &memo).fold(accel->runName()),
                              accel->run(m, w),
                              std::string(spec) + " " + r.model + " " +
                                  std::to_string(r.promptLen) + "+" +
                                  std::to_string(r.decodeLen));
            }
        EXPECT_GT(memo.evaluations(), 0u);
        EXPECT_LT(memo.evaluations(), 2 * reqs.size());
    }
}

} // namespace
} // namespace mcbp::accel
