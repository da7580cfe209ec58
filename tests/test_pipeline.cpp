/**
 * @file
 * Pipeline-parallel composition and execution-plan invariants:
 *  - plan() is the single costing source: run() folds it bit-for-bit
 *    on all three adapter families, and the plan's layer segments
 *    partition the stack and slice back to the totals;
 *  - a pp=1 PipelineAccelerator is bit-identical to the bare adapter,
 *    down to the serving report;
 *  - pp=N serving conserves requests and tokens;
 *  - the prefill fill/drain bubble shrinks monotonically in mb=, and
 *    micro-batched prefill beats unbatched at pp=4;
 *  - pp= composes with tp= (registry grammar, capability
 *    introspection, manual-composition parity);
 *  - the paged KV budget is respected on a pipelined fleet, with the
 *    per-stage pool advertised through kvShards;
 *  - RunMetrics::processors accounting semantics are pinned;
 *  - the registry reports ALL unknown keys of a spec in one message;
 *  - composed plans (totals, segments, slices, labels) keep golden
 *    bits on bare, tp=, nested tp=, pp= and pp= x tp= specs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/cluster.hpp"
#include "engine/health.hpp"
#include "engine/pipeline.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/llm_config.hpp"

namespace mcbp::engine {
namespace {

const model::LlmConfig &llama7b() { return model::findModel("Llama7B"); }

std::vector<model::Request>
denseTrace(std::size_t n = 24, const char *model = "Llama7B",
           std::uint64_t seed = 11)
{
    model::TraceConfig tc;
    tc.model = model;
    tc.task = "MBPP";
    tc.requests = n;
    tc.arrivalsPerSecond = 50.0;
    tc.seed = seed;
    return model::synthesizeTrace(tc);
}

void
expectPhaseIdentical(const accel::PhaseMetrics &a,
                     const accel::PhaseMetrics &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.weightStreamCycles, b.weightStreamCycles);
    EXPECT_EQ(a.linearWorkCycles, b.linearWorkCycles);
    EXPECT_EQ(a.memorySerialized, b.memorySerialized);
    EXPECT_EQ(a.fixedStepCycles, b.fixedStepCycles);
    EXPECT_EQ(a.denseMacs, b.denseMacs);
    EXPECT_EQ(a.traffic.total(), b.traffic.total());
    EXPECT_EQ(a.energy.totalPj(), b.energy.totalPj());
}

// ---- The plan API ------------------------------------------------------

TEST(ExecutionPlan, RunFoldsPlanBitForBitOnEveryAdapterFamily)
{
    Registry registry;
    const model::Workload &task = model::findTask("MBPP");
    for (const char *spec : {"mcbp", "spatten", "a100"}) {
        auto accel = registry.make(spec);
        const accel::ExecutionPlan plan = accel->plan(llama7b(), task);
        const accel::RunMetrics folded = plan.fold(accel->runName());
        const accel::RunMetrics run = accel->run(llama7b(), task);
        EXPECT_EQ(run.accelerator, folded.accelerator) << spec;
        EXPECT_EQ(run.clockGhz, folded.clockGhz) << spec;
        EXPECT_EQ(run.processors, folded.processors) << spec;
        expectPhaseIdentical(run.prefill, folded.prefill);
        expectPhaseIdentical(run.decode, folded.decode);
    }
}

TEST(ExecutionPlan, NamesAndLabelsArePinned)
{
    // Benches, reports and the JSON print these strings verbatim.
    Registry registry;
    const model::Workload &task = model::findTask("Dolly");
    const std::string pod = "mcbp:procs=148,dp=4,pp=2,tp=2";
    const struct
    {
        std::string spec, name, runName;
    } pinned[] = {
        {"mcbp", "MCBP(S)", "MCBP(S)"},
        {"mcbp:tp=2", "MCBP(S)[tp2]", "MCBP(S)[tp2]"},
        {"mcbp:pp=2,tp=2", "MCBP(S)[tp2][pp2]", "MCBP(S)[tp2][pp2]"},
        {"mcbp:tp=2,tp2=2", "MCBP(S)[tp2][tp2]", "MCBP(S)[tp2][tp2]"},
        {pod, "MCBP(S)[tp2][pp2][dp4]", "MCBP(S)[tp2][pp2]"},
        {degradedSpec(pod), "MCBP(S)[pp2][dp4]", "MCBP(S)[pp2]"},
    };
    for (const auto &p : pinned) {
        const auto accel = registry.make(p.spec);
        EXPECT_EQ(accel->name(), p.name) << p.spec;
        EXPECT_EQ(accel->run(llama7b(), task).accelerator, p.runName)
            << p.spec;
    }

    const accel::ExecutionPlan flat =
        registry.make("mcbp")->plan(llama7b(), task);
    EXPECT_EQ(flat.segments().front().label(), "layers[0,32)");
    EXPECT_EQ(flat.slice(8, 8).label(), "layers[8,16)");

    const accel::ExecutionPlan staged =
        registry.make("mcbp:pp=4")->plan(llama7b(), task);
    std::vector<std::string> labels;
    for (const accel::PlanSegment &seg : staged.segments())
        labels.push_back(seg.label());
    EXPECT_EQ(labels,
              (std::vector<std::string>{
                  "stage0 layers[0,8)", "stage1 layers[8,16)",
                  "stage2 layers[16,24)", "stage3 layers[24,32)"}));
}

TEST(ExecutionPlan, SegmentsPartitionTheStackAndSliceExactly)
{
    Registry registry;
    const model::Workload &task = model::findTask("Dolly");
    for (const char *spec : {"mcbp", "sofa", "a100", "mcbp:tp=2"}) {
        auto accel = registry.make(spec);
        const accel::ExecutionPlan plan = accel->plan(llama7b(), task);
        ASSERT_FALSE(plan.segments().empty()) << spec;
        EXPECT_EQ(plan.modelLayers, llama7b().layers);

        // Segments tile [0, layers) contiguously.
        std::size_t next = 0;
        for (const accel::PlanSegment &seg : plan.segments()) {
            EXPECT_EQ(seg.firstLayer, next) << spec;
            EXPECT_GT(seg.layerCount, 0u) << spec;
            next += seg.layerCount;
        }
        EXPECT_EQ(next, plan.modelLayers) << spec;

        // A full-stack slice reproduces the totals (scaling by 1.0 is
        // the bit-exact identity on the single-segment plans).
        const accel::PlanSegment whole =
            plan.slice(0, plan.modelLayers);
        EXPECT_EQ(whole.prefill.cycles, plan.prefill.cycles) << spec;
        EXPECT_EQ(whole.decode.cycles, plan.decode.cycles) << spec;
        EXPECT_EQ(whole.prefill.energy.totalPj(),
                  plan.prefill.energy.totalPj())
            << spec;

        // Half-stack slices sum (near-exactly) to the totals, and the
        // weight-stream vs compute split scales with the layer share.
        const std::size_t half = plan.modelLayers / 2;
        const accel::PlanSegment lo = plan.slice(0, half);
        const accel::PlanSegment hi =
            plan.slice(half, plan.modelLayers - half);
        EXPECT_NEAR(lo.prefill.cycles + hi.prefill.cycles,
                    plan.prefill.cycles,
                    1e-9 * std::max(1.0, plan.prefill.cycles))
            << spec;
        EXPECT_NEAR(lo.decode.weightStreamCycles +
                        hi.decode.weightStreamCycles,
                    plan.decode.weightStreamCycles,
                    1e-9 *
                        std::max(1.0, plan.decode.weightStreamCycles))
            << spec;

        // Degenerate slices are rejected.
        EXPECT_THROW((void)plan.slice(0, 0), std::runtime_error);
        EXPECT_THROW((void)plan.slice(0, plan.modelLayers + 1),
                     std::runtime_error);
    }
}

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
    void add(const std::string &s)
    {
        add(std::uint64_t{s.size()});
        for (const char c : s)
            add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    void add(const accel::PhaseMetrics &p)
    {
        for (const double v :
             {p.cycles, p.denseMacs, p.executedAdds, p.gemmCycles,
              p.weightLoadCycles, p.kvLoadCycles, p.otherCycles,
              p.weightStreamCycles, p.linearWorkCycles, p.fixedStepCycles,
              p.traffic.weightBytes, p.traffic.kvBytes,
              p.traffic.predictionBytes, p.traffic.actBytes,
              p.energy.computePj, p.energy.bitReorderPj, p.energy.camPj,
              p.energy.codecPj, p.energy.bgppPj, p.energy.sramPj,
              p.energy.dramPj, p.energy.sfuPj, p.energy.interconnectPj})
            add(v);
        add(std::uint64_t{p.memorySerialized});
    }
    void add(const accel::PlanSegment &s)
    {
        add(std::uint64_t{s.firstLayer});
        add(std::uint64_t{s.layerCount});
        add(std::uint64_t{s.stage.has_value()});
        add(std::uint64_t{s.stage.value_or(0)});
        add(s.prefill);
        add(s.decode);
        add(s.label());
    }
};

TEST(ExecutionPlan, ComposedPlanBitsMatchGoldens)
{
    // Every bit a composed plan exposes: the totals, each segment, the
    // quarter and half slices, a slice straddling the stage boundaries
    // and the whole stack, with every label. Bucket-edge prompts with
    // decode lengths 0, 1 and 300 on Llama7B (32 layers, 32 heads).
    const struct
    {
        const char *spec;
        std::uint64_t hash;
    } goldens[] = {
        {"mcbp", 0xce5ab0e0332102e3ull},
        {"mcbp:tp=2", 0xbe12f3dd8e004f9full},
        {"mcbp:tp=2,tp2=2", 0x08385996bfdac413ull},
        {"mcbp:pp=2", 0x1c3d52b9eb3d7485ull},
        {"mcbp:pp=4,mb=4", 0xd867511f41b4dcecull},
        {"mcbp:pp=2,tp=2", 0xa4fa2babc5ea5adcull},
        {"a100:pp=2", 0xa53175f076a8a2c2ull},
        {"a100:tp=8", 0xa5f44d539344818eull},
        {"spatten:pp=2,tp=2", 0x2c98f416a6259367ull},
    };
    const Registry registry;
    const model::Workload &dolly = model::findTask("Dolly");
    for (const auto &g : goldens) {
        const auto accel = registry.make(g.spec);
        Fnv h;
        for (const std::size_t prompt : {63, 64, 65, 2047, 2048, 2049})
            for (const std::size_t decode : {0, 1, 300}) {
                model::Workload task = dolly;
                task.promptLen = prompt;
                task.decodeLen = decode;
                const accel::ExecutionPlan plan =
                    accel->plan(llama7b(), task);
                h.add(plan.clockGhz);
                h.add(std::uint64_t{plan.processors});
                h.add(std::uint64_t{plan.modelLayers});
                h.add(plan.prefill);
                h.add(plan.decode);
                const std::vector<accel::PlanSegment> segments =
                    plan.segments();
                h.add(std::uint64_t{segments.size()});
                for (const accel::PlanSegment &seg : segments)
                    h.add(seg);
                const std::size_t layers = plan.modelLayers;
                const std::size_t quarter = layers / 4;
                const std::size_t half = layers / 2;
                for (std::size_t q = 0; q < 4; ++q)
                    h.add(plan.slice(q * quarter, quarter));
                for (std::size_t q = 0; q < 2; ++q)
                    h.add(plan.slice(q * half, half));
                h.add(plan.slice(quarter - 1, half + 2));
                h.add(plan.slice(0, layers));
            }
        EXPECT_EQ(h.h, g.hash)
            << g.spec << ": 0x" << std::hex << h.h << "ull";
    }
}

// ---- pp=1 identity -----------------------------------------------------

TEST(Pipeline, Pp1IsBitIdenticalToBareAdapter)
{
    Registry registry;
    auto bare = registry.make("mcbp:procs=148");
    auto pp1 = registry.make("mcbp:procs=148,pp=1");
    EXPECT_EQ(pp1->name(), bare->name());
    EXPECT_EQ(pp1->configSummary(), bare->configSummary());
    EXPECT_EQ(pp1->capabilities().pipelineStages, 1u);
    EXPECT_EQ(pp1->capabilities().kvShards, 1u);

    const model::Workload &task = model::findTask("MBPP");
    const accel::RunMetrics a = bare->run(llama7b(), task);
    const accel::RunMetrics b = pp1->run(llama7b(), task);
    EXPECT_EQ(a.accelerator, b.accelerator);
    EXPECT_EQ(a.processors, b.processors);
    expectPhaseIdentical(a.prefill, b.prefill);
    expectPhaseIdentical(a.decode, b.decode);
}

TEST(Pipeline, Pp1ServingReportIsBitForBit)
{
    Registry registry;
    auto bare = registry.make("mcbp");
    auto pp1 = registry.make("mcbp:pp=1");
    const auto trace = denseTrace();
    const ServingReport a = ServingSimulator(*bare, {8}).simulate(trace);
    const ServingReport b = ServingSimulator(*pp1, {8}).simulate(trace);
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.busySeconds, b.busySeconds);
    EXPECT_EQ(a.joulesPerToken, b.joulesPerToken);
    EXPECT_EQ(a.p99LatencySeconds, b.p99LatencySeconds);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].completionSeconds,
                  b.requests[i].completionSeconds);
        EXPECT_EQ(a.requests[i].joules, b.requests[i].joules);
    }
}

// ---- pp=N behaviour ----------------------------------------------------

TEST(Pipeline, StagePartitioningConservesWorkAndAddsLinkEnergy)
{
    Registry registry;
    const model::Workload &task = model::findTask("MBPP");
    const accel::RunMetrics single =
        registry.make("mcbp")->run(llama7b(), task);
    for (std::size_t pp : {2u, 4u, 8u}) {
        auto pipe = registry.make("mcbp:pp=" + std::to_string(pp) +
                                  ",mb=8");
        const accel::RunMetrics rm = pipe->run(llama7b(), task);
        EXPECT_EQ(rm.processors, pp);
        // Logical work is conserved by stage partitioning.
        EXPECT_EQ(rm.prefill.denseMacs, single.prefill.denseMacs);
        EXPECT_EQ(rm.decode.denseMacs, single.decode.denseMacs);
        // Micro-batched prefill beats the single chip (stages overlap)
        // but never the ideal 1/pp split (fill/drain is real).
        EXPECT_LT(rm.prefill.cycles, single.prefill.cycles);
        EXPECT_GT(rm.prefill.cycles, single.prefill.cycles /
                                         static_cast<double>(pp));
        // The decode weight stream parallelizes across per-stage HBM.
        EXPECT_LT(rm.decode.weightStreamCycles,
                  single.decode.weightStreamCycles);
        // Boundary links are priced in energy; total energy never
        // drops below the single chip (same work + transfer floor).
        EXPECT_GT(rm.decode.energy.interconnectPj, 0.0);
        EXPECT_GE(rm.joules(), single.joules());
    }
}

TEST(Pipeline, PpMustDivideLayerCount)
{
    Registry registry;
    auto pipe = registry.make("mcbp:pp=5"); // Llama7B has 32 layers.
    EXPECT_THROW((void)pipe->run(llama7b(), model::findTask("MBPP")),
                 std::runtime_error);
}

TEST(Pipeline, BubbleFractionShrinksMonotonicallyInMb)
{
    Registry registry;
    const model::Workload &task = model::findTask("Wikilingua");
    double prev_bubble = 1.0;
    double prev_cycles = 0.0;
    bool first = true;
    for (std::size_t mb : {1u, 2u, 4u, 8u, 16u}) {
        auto accel = registry.make("mcbp:procs=148,pp=4,mb=" +
                                   std::to_string(mb));
        const auto *pipe =
            dynamic_cast<const PipelineAccelerator *>(accel.get());
        ASSERT_NE(pipe, nullptr);
        const PipelineAccelerator::Timing t =
            pipe->prefillTiming(llama7b(), task);
        EXPECT_GT(t.totalCycles, 0.0);
        EXPECT_GE(t.bubbleFraction, 0.0);
        EXPECT_LT(t.bubbleFraction, 1.0);
        if (!first) {
            EXPECT_LT(t.bubbleFraction, prev_bubble) << "mb=" << mb;
            EXPECT_LT(t.totalCycles, prev_cycles) << "mb=" << mb;
        }
        prev_bubble = t.bubbleFraction;
        prev_cycles = t.totalCycles;
        first = false;
        // The timing decomposition is the plan's prefill wall clock.
        EXPECT_DOUBLE_EQ(
            t.totalCycles,
            accel->plan(llama7b(), task).prefill.cycles);
    }
}

TEST(Pipeline, ServingConservesRequestsAndTokens)
{
    Registry registry;
    auto pipe = registry.make("mcbp:pp=4,mb=4");
    const auto trace = denseTrace();
    const ServingReport r =
        ServingSimulator(*pipe, {8}).simulate(trace);
    ASSERT_EQ(r.requests.size(), trace.size());
    std::vector<bool> seen(trace.size(), false);
    std::size_t tokens = 0, expected = 0;
    for (const RequestMetrics &m : r.requests) {
        ASSERT_LT(m.id, seen.size());
        EXPECT_FALSE(seen[m.id]);
        seen[m.id] = true;
        EXPECT_GT(m.completionSeconds, m.arrivalSeconds);
        tokens += m.decodeTokens;
    }
    for (const model::Request &req : trace)
        expected += req.decodeLen;
    EXPECT_EQ(tokens, expected);
    // Batching still wins on a pipeline (the iteration overlaps
    // distinct requests' traversals across stages).
    EXPECT_GT(r.batchingSpeedup(), 1.0);
}

// ---- pp x tp composition -----------------------------------------------

TEST(Pipeline, ComposesWithClusterAndMatchesManualComposition)
{
    Registry registry;
    auto spec = registry.make("mcbp:pp=2,tp=2,mb=4");

    // Capability introspection composes multiplicatively.
    auto bare = registry.make("mcbp");
    const Capabilities c = spec->capabilities();
    EXPECT_EQ(c.processors, 4u);
    EXPECT_EQ(c.kvShards, 4u);
    EXPECT_EQ(c.pipelineStages, 2u);
    EXPECT_DOUBLE_EQ(c.hbmCapacityBytes,
                     4.0 * bare->capabilities().hbmCapacityBytes);
    EXPECT_NE(spec->name().find("tp2"), std::string::npos);
    EXPECT_NE(spec->name().find("pp2"), std::string::npos);

    // The registry's composition order is Pipeline(Cluster(chip)):
    // hand-building the same stack is bit-identical.
    ClusterOptions cl;
    cl.tensorParallel = 2;
    PipelineOptions pl;
    pl.pipelineParallel = 2;
    pl.microBatches = 4;
    PipelineAccelerator manual(
        std::make_unique<ClusterAccelerator>(registry.make("mcbp"), cl),
        pl);
    const model::Workload &task = model::findTask("MBPP");
    const accel::RunMetrics a = spec->run(llama7b(), task);
    const accel::RunMetrics b = manual.run(llama7b(), task);
    EXPECT_EQ(a.processors, b.processors);
    expectPhaseIdentical(a.prefill, b.prefill);
    expectPhaseIdentical(a.decode, b.decode);

    // The reverse order stays rejected: a cluster cannot shard a
    // pipeline (the 1/N rescale would corrupt the hop floors).
    ClusterOptions outer;
    outer.tensorParallel = 2;
    EXPECT_THROW(ClusterAccelerator(registry.make("mcbp:pp=2"), outer),
                 std::runtime_error);
    // And pipelines do not nest: one pp= axis.
    PipelineOptions nested;
    nested.pipelineParallel = 2;
    EXPECT_THROW(
        PipelineAccelerator(registry.make("mcbp:pp=2"), nested),
        std::runtime_error);
}

// ---- KV budget on a pipelined fleet ------------------------------------

TEST(Pipeline, PagedKvBudgetRespectedPerStage)
{
    Registry registry;
    auto pipe = registry.make("mcbp:pp=4");
    EXPECT_EQ(pipe->capabilities().kvShards, 4u);
    const auto trace = denseTrace();

    const ServingReport free_run =
        ServingSimulator(*pipe, {16}).simulate(trace);
    ASSERT_GT(free_run.kvPeakBytes, 0.0);

    ServingOptions opts;
    opts.maxBatch = 16;
    opts.kvPolicy = KvPolicy::Paged;
    opts.kvCapacityBytes = free_run.kvPeakBytes / 3.0;
    const ServingReport bounded =
        ServingSimulator(*pipe, opts).simulate(trace);
    // The aggregate ledger (= 4 symmetric per-stage pools) never
    // exceeds the budget, so no stage's own pool overflows either.
    EXPECT_LE(bounded.kvPeakBytes, opts.kvCapacityBytes);
    EXPECT_EQ(bounded.requests.size(), trace.size());
    EXPECT_GT(bounded.kvUtilization, 0.0);
}

// ---- RunMetrics::processors accounting (pinned semantics) --------------

TEST(Report, ProcessorsSemanticsArePinned)
{
    // Per-phase cycles are the gang's critical path: seconds() must be
    // processor-count-invariant. Per-phase energy is per chip:
    // joules() multiplies by the count. Logical work is the gang
    // total: gops() needs no processor factor.
    accel::RunMetrics rm;
    rm.clockGhz = 1.0;
    rm.prefill.cycles = 1e9;
    rm.prefill.energy.computePj = 5e12;
    rm.prefill.denseMacs = 1e12;
    rm.decode.cycles = 1e9;
    rm.decode.energy.dramPj = 3e12;

    rm.processors = 1;
    const double s1 = rm.seconds();
    const double j1 = rm.joules();
    const double g1 = rm.gops();
    rm.processors = 4;
    EXPECT_DOUBLE_EQ(rm.seconds(), s1);
    EXPECT_DOUBLE_EQ(rm.joules(), 4.0 * j1);
    EXPECT_DOUBLE_EQ(rm.gops(), g1);
    EXPECT_DOUBLE_EQ(rm.watts(), 4.0 * j1 / s1);

    // The composed topologies follow the same contract: a tp=2,pp=2
    // stack reports 4 chips and its joules() is 4 x the per-chip sum.
    Registry registry;
    auto stack = registry.make("mcbp:pp=2,tp=2");
    const accel::RunMetrics run =
        stack->run(llama7b(), model::findTask("MBPP"));
    EXPECT_EQ(run.processors, 4u);
    EXPECT_DOUBLE_EQ(run.joules(),
                     (run.prefill.energy.totalPj() +
                      run.decode.energy.totalPj()) *
                         1e-12 * 4.0);
}

// ---- Registry grammar --------------------------------------------------

TEST(Pipeline, RegistrySpecGrammarValidates)
{
    Registry registry;
    for (const char *spec :
         {"mcbp:pp=2", "mcbp:procs=148,pp=4,mb=8",
          "mcbp-s:pp=4,tp=2,mb=8,linkgbs=600", "a100:pp=2,linkpj=5",
          "spatten:pp=2,hops=50", "mcbp:pp=1"})
        EXPECT_NE(registry.make(spec), nullptr) << spec;
    EXPECT_THROW((void)registry.make("mcbp:pp=0"), std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:pp=2.5"),
                 std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:pp=2,mb=0"),
                 std::runtime_error);
    // mb= without a pipeline (or at pp=1) is a silent no-op: rejected
    // by presence, like the link knobs.
    EXPECT_THROW((void)registry.make("mcbp:mb=8"), std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:pp=1,mb=8"),
                 std::runtime_error);
    // Link knobs are valid with either fabric, but still rejected
    // when neither exists (the tp=1 rejection is kept).
    EXPECT_NE(registry.make("mcbp:pp=2,linkgbs=600"), nullptr);
    EXPECT_THROW((void)registry.make("mcbp:tp=1,linkgbs=600"),
                 std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:pp=1,linkgbs=600"),
                 std::runtime_error);
}

TEST(Pipeline, UnknownKeysAreCollectedIntoOneMessage)
{
    Registry registry;
    try {
        (void)registry.make("mcbp:foo=1,alpha=0.5,bar=2");
        FAIL() << "expected a spec error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        // Both unknown keys in one message, plus the accepted list.
        EXPECT_NE(msg.find("'foo'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'bar'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("accepted keys"), std::string::npos) << msg;
        EXPECT_NE(msg.find("procs"), std::string::npos) << msg;
        EXPECT_NE(msg.find("pp"), std::string::npos) << msg;
    }
    // A design-inapplicable key is "unknown" for that design and
    // names what IS accepted (topology keys only, for systolic).
    try {
        (void)registry.make("systolic:alpha=0.5");
        FAIL() << "expected a spec error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'alpha'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("accepted keys"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tp"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace mcbp::engine
