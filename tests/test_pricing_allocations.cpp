/**
 * @file
 * Allocation budget of shape pricing. Pricing one request shape is the
 * inner loop of trace costing, so it must not touch the heap beyond
 * the plan's own segment vectors:
 *  - one run() allocates at most once on a flat chip, a small constant
 *    on a pp=2,tp=2 replica and on its degraded twin;
 *  - costTrace allocates about once per distinct shape on a flat chip,
 *    and a small constant per shape and topology on the faulted
 *    pp=2,tp=2 set-up.
 *
 * This binary replaces the global operator new/delete with a counting
 * pair that forwards to malloc/free. Counting is switched on only
 * around the call under test, after the profile cache is warm.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "engine/health.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/llm_config.hpp"
#include "model/request.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void *
countedAlloc(std::size_t bytes)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (bytes + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

/** Heap allocations @p fn makes. */
template <typename Fn>
std::size_t
allocationsOf(Fn &&fn)
{
    const std::size_t before = g_allocations.load();
    g_counting = true;
    fn();
    g_counting = false;
    return g_allocations.load() - before;
}

} // namespace

void *operator new(std::size_t bytes) { return countedAlloc(bytes); }
void *operator new[](std::size_t bytes) { return countedAlloc(bytes); }
void *
operator new(std::size_t bytes, std::align_val_t align)
{
    return countedAlignedAlloc(bytes, align);
}
void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return countedAlignedAlloc(bytes, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace mcbp::engine {
namespace {

constexpr const char *kFlat = "mcbp:procs=148";
constexpr const char *kReplica = "mcbp:procs=148,pp=2,tp=2";

model::Request
dollyRequest()
{
    model::Request r;
    r.promptLen = 256;
    r.decodeLen = 128;
    return r;
}

/** Allocations of one run() on @p spec, its profiles already warm. */
std::size_t
runAllocations(const std::string &spec)
{
    const Registry registry;
    const std::unique_ptr<Accelerator> accel = registry.make(spec);
    const model::LlmConfig &m = model::findModel("Llama7B");
    const model::Workload w = dollyRequest().workload();
    (void)accel->run(m, w); // warm the profile cache.
    accel::RunMetrics rm;
    const std::size_t n = allocationsOf([&] { rm = accel->run(m, w); });
    EXPECT_GT(rm.totalCycles(), 0.0) << spec;
    return n;
}

/** A jittered Dolly trace of @p requests requests. */
std::vector<model::Request>
dollyTrace(std::size_t requests)
{
    model::TraceConfig cfg;
    cfg.model = "Llama7B";
    cfg.task = "Dolly";
    cfg.requests = requests;
    cfg.arrivalsPerSecond = 10.0;
    cfg.lengthJitter = 0.5;
    cfg.seed = 11;
    return model::synthesizeTrace(cfg);
}

TEST(PricingAllocations, OneRunOnAFlatChipAllocatesAtMostOnce)
{
    EXPECT_LE(runAllocations(kFlat), 1u);
}

TEST(PricingAllocations, OneRunOnAComposedReplicaStaysSmall)
{
    EXPECT_LE(runAllocations(kReplica), 6u);
    EXPECT_LE(runAllocations(degradedSpec(kReplica)), 3u);
}

TEST(PricingAllocations, FlatCostTraceAllocatesAboutOncePerShape)
{
    const Registry registry;
    const std::unique_ptr<Accelerator> accel = registry.make("mcbp");
    ServingOptions opts;
    opts.costingThreads = 1;
    opts.profileThreads = 1;
    const std::vector<model::Request> trace = dollyTrace(20000);
    const ServingSimulator sim(*accel, opts);
    (void)sim.costTrace(trace); // warm the profile cache.

    ServingSimulator::CostedTrace costed;
    const std::size_t n =
        allocationsOf([&] { costed = sim.costTrace(trace); });
    const std::size_t shapes = costed.shapeCount();
    ASSERT_GT(shapes, 1000u);
    EXPECT_LE(n, shapes + 64) << shapes << " shapes";
}

TEST(PricingAllocations, FaultedReplicaCostTraceStaysSmallPerShape)
{
    const Registry registry;
    const std::unique_ptr<Accelerator> replica = registry.make(kReplica);
    const std::unique_ptr<Accelerator> degraded =
        registry.make(degradedSpec(kReplica));
    ServingOptions opts;
    opts.costingThreads = 1;
    opts.profileThreads = 1;
    opts.degradedAccel = degraded.get();
    opts.faults.seed = 3;
    opts.faults.mtbfSeconds = 200.0;
    opts.faults.linkDegradeRate = 0.5;
    opts.faults.stragglerRate = 0.5;
    const std::vector<model::Request> trace = dollyTrace(5000);
    const ServingSimulator sim(*replica, opts);
    (void)sim.costTrace(trace); // warm the profile cache.

    ServingSimulator::CostedTrace costed;
    const std::size_t n =
        allocationsOf([&] { costed = sim.costTrace(trace); });
    const std::size_t priced = costed.shapeCount() * kTopologies;
    ASSERT_GT(costed.shapeCount(), 500u);
    EXPECT_LE(n, 8 * priced) << priced << " shape-topology prices";
}

} // namespace
} // namespace mcbp::engine
