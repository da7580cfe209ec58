/**
 * @file
 * Unit tests for the engine/ layer: adapter parity with the wrapped
 * accel/ classes (bit-identical RunMetrics), registry spec parsing
 * (with a fixed-seed grammar fuzz) and profile sharing, and the
 * continuous-batching serving invariants.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "accel/baselines.hpp"
#include "accel/gpu_model.hpp"
#include "accel/mcbp_accelerator.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "engine/adapters.hpp"
#include "engine/health.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"

namespace mcbp::engine {
namespace {

const model::LlmConfig &opt1b3() { return model::findModel("OPT1B3"); }

/** Bit-identical phase comparison (adapters must not change numbers). */
void
expectPhaseIdentical(const accel::PhaseMetrics &a,
                     const accel::PhaseMetrics &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.denseMacs, b.denseMacs);
    EXPECT_EQ(a.executedAdds, b.executedAdds);
    EXPECT_EQ(a.gemmCycles, b.gemmCycles);
    EXPECT_EQ(a.weightLoadCycles, b.weightLoadCycles);
    EXPECT_EQ(a.kvLoadCycles, b.kvLoadCycles);
    EXPECT_EQ(a.otherCycles, b.otherCycles);
    EXPECT_EQ(a.traffic.weightBytes, b.traffic.weightBytes);
    EXPECT_EQ(a.traffic.kvBytes, b.traffic.kvBytes);
    EXPECT_EQ(a.traffic.predictionBytes, b.traffic.predictionBytes);
    EXPECT_EQ(a.traffic.actBytes, b.traffic.actBytes);
    EXPECT_EQ(a.energy.totalPj(), b.energy.totalPj());
}

void
expectRunIdentical(const accel::RunMetrics &a, const accel::RunMetrics &b)
{
    EXPECT_EQ(a.accelerator, b.accelerator);
    EXPECT_EQ(a.clockGhz, b.clockGhz);
    EXPECT_EQ(a.processors, b.processors);
    expectPhaseIdentical(a.prefill, b.prefill);
    expectPhaseIdentical(a.decode, b.decode);
}

TEST(Adapters, McbpParity)
{
    const model::Workload &task = model::findTask("Cola");
    Registry registry;
    expectRunIdentical(registry.make("mcbp")->run(opt1b3(), task),
                       accel::makeMcbpStandard().run(opt1b3(), task));
    expectRunIdentical(
        registry.make("mcbp-aggressive")->run(opt1b3(), task),
        accel::makeMcbpAggressive().run(opt1b3(), task));
    expectRunIdentical(
        registry.make("mcbp-baseline")->run(opt1b3(), task),
        accel::makeMcbpBaseline().run(opt1b3(), task));
}

TEST(Adapters, BaselineParity)
{
    const model::Workload &task = model::findTask("Cola");
    Registry registry;
    auto adapted = registry.make("spatten");
    // Direct construction with the same profiling point (alpha 0.6,
    // seed 1) the registry defaults to.
    accel::AttentionStats as =
        accel::profileAttention(opt1b3(), task, 0.6, 1);
    accel::BaselineAccelerator direct(accel::makeSpatten(as));
    expectRunIdentical(adapted->run(opt1b3(), task),
                       direct.run(opt1b3(), task));
}

TEST(Adapters, GpuParity)
{
    const model::Workload &task = model::findTask("Cola");
    Registry registry;
    auto adapted = registry.make("a100");
    accel::GpuA100Model direct;
    expectRunIdentical(adapted->run(opt1b3(), task),
                       direct.run(opt1b3(), task));
}

TEST(Registry, KnownSpecsAllConstructible)
{
    Registry registry;
    for (const std::string &spec : Registry::knownSpecs()) {
        auto accel = registry.make(spec);
        ASSERT_NE(accel, nullptr) << spec;
        EXPECT_FALSE(accel->name().empty()) << spec;
        EXPECT_FALSE(accel->configSummary().empty()) << spec;
    }
}

TEST(Registry, SpecOptionsApply)
{
    Registry registry;
    auto ganged = registry.make("mcbp:procs=148");
    EXPECT_EQ(ganged->capabilities().processors, 148u);
    auto ablated = registry.make("mcbp:bgpp=0");
    EXPECT_EQ(ablated->name(), "MCBP[RC]");
    auto aggressive = registry.make("MCBP-Aggressive"); // case-insensitive
    EXPECT_EQ(aggressive->name(), "MCBP(A)");
    auto sw_gpu = registry.make("a100-sw");
    EXPECT_TRUE(sw_gpu->capabilities().weightTrafficOptimized);
}

TEST(Registry, RejectsUnknownSpecsAndOptions)
{
    Registry registry;
    EXPECT_THROW((void)registry.make("tpu-v5"), std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:warp=9"), std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:procs"), std::runtime_error);
    EXPECT_THROW((void)registry.make(""), std::runtime_error);
    // Options a design cannot react to are errors, not silent no-ops.
    EXPECT_THROW((void)registry.make("bitwave:alpha=0.5"),
                 std::runtime_error);
    EXPECT_THROW((void)registry.make("systolic:seed=2"),
                 std::runtime_error);
    // Counts must be representable integers.
    EXPECT_THROW((void)registry.make("mcbp:procs=-4"),
                 std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:procs=2.5"),
                 std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:procs=1e30"),
                 std::runtime_error);
}

TEST(Registry, RejectsNanOptionValues)
{
    // strtod reads "nan", and NaN passes every `v < min` range check,
    // so the value parser itself refuses it and names the key. The
    // same specs with a finite value build.
    const struct
    {
        const char *spec;
        const char *finite;
        const char *key;
    } cases[] = {
        {"mcbp:alpha=nan", "mcbp:alpha=0.5", "alpha"},
        {"mcbp:tp=2,linkgbs=nan", "mcbp:tp=2,linkgbs=50", "linkgbs"},
        {"mcbp:tp=2,LinkPJ=NaN", "mcbp:tp=2,LinkPJ=5", "linkpj"},
        {"mcbp:procs=-nan", "mcbp:procs=64", "procs"},
    };
    Registry registry;
    for (const auto &c : cases) {
        EXPECT_NO_THROW((void)registry.make(c.finite)) << c.finite;
        try {
            (void)registry.make(c.spec);
            ADD_FAILURE() << c.spec << " built";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(std::string("'") + c.key +
                                                 "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Registry, SpecGrammarFuzz)
{
    // Random specs over the whole grammar: make() either builds or
    // throws std::runtime_error, and every spec it builds has a
    // degraded twin that builds at half the chips (or, with no
    // redundant axis, none).
    constexpr std::uint64_t kSeed = 17;
    Rng rng(kSeed);
    std::vector<std::string> names = Registry::knownSpecs();
    names.push_back("warp-drive");
    const std::vector<std::string> keys = {
        "tp",       "tp2",     "pp",    "mb",    "dp",   "route",
        "linkgbs",  "linkpj",  "hops",  "linkgbs2", "linkpj2", "hops2",
        "procs",    "alpha",   "seed",  "brcr",  "bstc", "bgpp",
        "warp"};
    const std::vector<std::string> values = {
        "0", "1", "2", "4", "8", "2.5", "4.0", "1e1", "-1", "x", "", "nan"};
    auto pick = [&rng](const std::vector<std::string> &pool) {
        return pool[rng.uniformInt(pool.size())];
    };

    Registry registry;
    std::size_t built = 0;
    std::size_t degraded = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string spec = pick(names);
        std::vector<std::string> drawn;
        const std::size_t options = rng.uniformInt(4);
        for (std::size_t k = 0; k < options; ++k) {
            std::string key = !drawn.empty() && rng.bernoulli(0.05)
                                  ? pick(drawn)
                                  : pick(keys);
            drawn.push_back(key);
            for (char &c : key)
                if (rng.bernoulli(0.25))
                    c = static_cast<char>(
                        std::toupper(static_cast<unsigned char>(c)));
            spec += (k == 0 ? ":" : ",") + key + "=" + pick(values);
        }
        SCOPED_TRACE("seed " + std::to_string(kSeed) + ", spec '" + spec +
                     "'");

        std::unique_ptr<Accelerator> accel;
        try {
            accel = registry.make(spec);
        } catch (const std::runtime_error &) {
            continue;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "make() threw a non-runtime_error: "
                          << e.what();
            continue;
        }
        EXPECT_EQ(spec.find("=nan"), std::string::npos)
            << "a NaN option value built";
        ++built;
        std::string deg;
        try {
            deg = degradedSpec(spec);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "degradedSpec() threw: " << e.what();
            continue;
        }
        const Capabilities caps = accel->capabilities();
        if (deg.empty()) {
            EXPECT_EQ(caps.kvShards, caps.replicas);
            continue;
        }
        ++degraded;
        std::unique_ptr<Accelerator> twin;
        try {
            twin = registry.make(deg);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "degraded '" << deg
                          << "' does not build: " << e.what();
            continue;
        }
        const Capabilities half = twin->capabilities();
        EXPECT_EQ(half.processors * 2, caps.processors) << deg;
        EXPECT_EQ(half.kvShards * 2, caps.kvShards) << deg;
        EXPECT_EQ(half.replicas, caps.replicas) << deg;
    }
    // The draw must reach both the building and the degrading paths.
    EXPECT_GT(built, 250u);
    EXPECT_GT(degraded, 20u);
}

TEST(Registry, FleetSharesOneProfileCache)
{
    const model::Workload &task = model::findTask("Cola");
    Registry registry;
    auto fleet = registry.fleet({"mcbp", "fusekna", "a100"});
    for (const auto &accel : fleet)
        (void)accel->run(opt1b3(), task);
    // One weight profile + one attention profile serve the whole fleet.
    EXPECT_EQ(registry.profileCache()->size(), 2u);
}

TEST(Registry, ColdKeySingleflight)
{
    // 8 threads racing on one cold key must trigger exactly one
    // profiling computation (the singleflight contract): racers block
    // on the in-flight slot instead of redoing the work, and all see
    // the same cached object.
    accel::ProfileCache cache;
    const model::LlmConfig &m = opt1b3();
    constexpr std::size_t kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<const accel::WeightStats *> seen(kThreads, nullptr);
    for (std::size_t i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            seen[i] = &cache.weights(m, quant::BitWidth::Int8, 1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(cache.profileCalls(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    for (std::size_t i = 1; i < kThreads; ++i)
        EXPECT_EQ(seen[i], seen[0]); // one entry, stable reference.
}

TEST(Registry, WarmFleetProfilesEachKeyOnce)
{
    // Warming a fleet across (models x tasks), then running every
    // combination, must never profile a key twice: the parallel warm
    // fan-out and the demand path share the singleflight slots. The
    // fleet spans weight-profile, attention-profile and both-profile
    // designs.
    Registry registry;
    auto fleet = registry.fleet({"mcbp", "spatten", "fusekna", "a100"});
    const std::vector<std::string> models = {"OPT1B3", "Bloom1B7"};
    const std::vector<std::string> tasks = {"Cola", "MMLU"};
    registry.warmFleet(fleet, models, tasks);
    const std::uint64_t calls_after_warm =
        registry.profileCache()->profileCalls();
    EXPECT_EQ(calls_after_warm, registry.profileCache()->size());
    for (const auto &accel : fleet)
        for (const std::string &mn : models)
            for (const std::string &tn : tasks)
                (void)accel->run(model::findModel(mn),
                                 model::findTask(tn));
    // Every run() hit warm cache: no new profiling happened.
    EXPECT_EQ(registry.profileCache()->profileCalls(), calls_after_warm);
}

TEST(Registry, ProfileCacheIsThreadSafe)
{
    // Concurrent serving simulation hits the shared profile cache from
    // many threads; results must match a single-threaded run.
    Registry registry;
    auto accel = registry.make("mcbp");
    const model::Workload &task = model::findTask("Cola");
    const accel::RunMetrics expect = accel->run(opt1b3(), task);

    Registry fresh; // un-profiled cache, so threads race on the fill.
    auto shared = fresh.make("mcbp");
    std::vector<std::thread> threads;
    std::vector<accel::RunMetrics> results(4);
    for (std::size_t i = 0; i < results.size(); ++i) {
        threads.emplace_back([&, i] {
            results[i] = shared->run(opt1b3(), task);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const accel::RunMetrics &r : results)
        expectRunIdentical(r, expect);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
    EXPECT_DOUBLE_EQ(percentile({42.0}, 0.9), 42.0);
    EXPECT_THROW((void)percentile({}, 0.5), std::runtime_error);
}

TEST(Trace, SynthesizerProducesSortedJitteredTrace)
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "Cola";
    tc.requests = 32;
    tc.arrivalsPerSecond = 20.0;
    tc.seed = 3;
    auto trace = model::synthesizeTrace(tc);
    ASSERT_EQ(trace.size(), 32u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].arrivalSeconds, trace[i - 1].arrivalSeconds);
    for (const auto &r : trace) {
        EXPECT_GE(r.promptLen, 1u);
        EXPECT_GE(r.decodeLen, 1u);
        EXPECT_EQ(r.workload().batch, 1u);
    }
    // Deterministic for a fixed seed.
    auto again = model::synthesizeTrace(tc);
    EXPECT_EQ(again[7].promptLen, trace[7].promptLen);
    EXPECT_EQ(again[7].arrivalSeconds, trace[7].arrivalSeconds);
}

std::vector<model::Request>
smallTrace(std::size_t n = 32)
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "Cola";
    tc.requests = n;
    tc.arrivalsPerSecond = 100.0; // dense enough that batches form.
    tc.seed = 11;
    return model::synthesizeTrace(tc);
}

TEST(Serving, EveryRequestCompletesMonotonically)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    ServingSimulator sim(*accel, {8});
    const auto trace = smallTrace();
    const ServingReport r = sim.simulate(trace);

    ASSERT_EQ(r.requests.size(), trace.size());
    std::vector<bool> seen(trace.size(), false);
    double prev_completion = 0.0;
    for (const RequestMetrics &m : r.requests) {
        ASSERT_LT(m.id, seen.size());
        EXPECT_FALSE(seen[m.id]);
        seen[m.id] = true;
        EXPECT_GT(m.completionSeconds, m.arrivalSeconds);
        EXPECT_LE(m.firstTokenSeconds, m.completionSeconds);
        // Completion order is time-monotone.
        EXPECT_GE(m.completionSeconds, prev_completion);
        prev_completion = m.completionSeconds;
    }
    EXPECT_GT(r.tokensPerSecond, 0.0);
    EXPECT_GT(r.joulesPerToken, 0.0);
    EXPECT_LE(r.p50LatencySeconds, r.p90LatencySeconds);
    EXPECT_LE(r.p90LatencySeconds, r.p99LatencySeconds);
    EXPECT_LE(r.p50FirstTokenSeconds, r.p90FirstTokenSeconds);
    EXPECT_LE(r.p90FirstTokenSeconds, r.p99FirstTokenSeconds);
    // TTFT sits between queueing and full latency at every percentile.
    EXPECT_GE(r.p50FirstTokenSeconds, r.p50QueueSeconds);
    EXPECT_LE(r.p99FirstTokenSeconds, r.p99LatencySeconds);
    EXPECT_GT(r.meanTpotSeconds, 0.0);
    EXPECT_LE(static_cast<double>(r.peakBatch), 8.0);
}

TEST(Serving, TtftAndTpotAggregatesMatchPerRequestMetrics)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    ServingSimulator sim(*accel, {8});
    const ServingReport r = sim.simulate(smallTrace());

    std::vector<double> ttft;
    double tpot_sum = 0.0;
    std::size_t tpot_n = 0;
    for (const RequestMetrics &m : r.requests) {
        EXPECT_GE(m.firstTokenSeconds, m.arrivalSeconds);
        ttft.push_back(m.firstTokenSeconds - m.arrivalSeconds);
        if (m.decodeTokens > 1) {
            tpot_sum += (m.completionSeconds - m.firstTokenSeconds) /
                        static_cast<double>(m.decodeTokens - 1);
            ++tpot_n;
        }
    }
    std::sort(ttft.begin(), ttft.end());
    EXPECT_EQ(r.p50FirstTokenSeconds, percentileSorted(ttft, 0.50));
    EXPECT_EQ(r.p90FirstTokenSeconds, percentileSorted(ttft, 0.90));
    EXPECT_EQ(r.p99FirstTokenSeconds, percentileSorted(ttft, 0.99));
    ASSERT_GT(tpot_n, 0u);
    EXPECT_EQ(r.meanTpotSeconds,
              tpot_sum / static_cast<double>(tpot_n));

    // A pure-prefill request contributes its completion as TTFT and
    // never contributes a TPOT sample.
    auto trace = smallTrace(4);
    for (auto &req : trace)
        req.decodeLen = 0;
    const ServingReport prefill_only = sim.simulate(trace);
    EXPECT_EQ(prefill_only.meanTpotSeconds, 0.0);
    EXPECT_GT(prefill_only.p50FirstTokenSeconds, 0.0);
}

TEST(Serving, PercentilesBySelectionMatchSortedSamples)
{
    // Sample patterns: ties, descending input and a fixed-seed shuffle.
    const auto pattern = [](int kind, std::size_t n) {
        std::vector<double> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = kind == 0 ? 0.25 * static_cast<double>(i % 3)
                             : 0.5 * static_cast<double>(n - i);
        if (kind == 2) {
            Rng rng(41);
            for (std::size_t i = n - 1; i > 0; --i)
                std::swap(v[i], v[rng.uniformInt(i + 1)]);
        }
        return v;
    };
    for (const std::size_t n : {1, 2, 3, 100, 1001})
        for (const int kind : {0, 1, 2}) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " kind=" << kind);
            // The three series follow different patterns, so each is
            // selected from its own order.
            const std::vector<double> queue = pattern(kind, n);
            const std::vector<double> ttft = pattern((kind + 1) % 3, n);
            const std::vector<double> latency = pattern((kind + 2) % 3, n);
            ServingReport r;
            r.makespanSeconds = 1.0;
            for (std::size_t i = 0; i < n; ++i) {
                RequestMetrics m;
                m.id = i;
                m.arrivalSeconds = 0.125 * static_cast<double>(i);
                m.admissionSeconds = m.arrivalSeconds + queue[i];
                m.firstTokenSeconds = m.arrivalSeconds + ttft[i];
                m.completionSeconds = m.arrivalSeconds + latency[i];
                m.decodeTokens = 4;
                r.requests.push_back(m);
            }
            finalizeServingAggregates(r, n);

            std::vector<double> lat, que, fir;
            double sum = 0.0;
            for (const RequestMetrics &m : r.requests) {
                lat.push_back(m.latencySeconds());
                que.push_back(m.queueSeconds());
                fir.push_back(m.firstTokenSeconds - m.arrivalSeconds);
                sum += m.latencySeconds();
            }
            EXPECT_EQ(r.meanLatencySeconds, sum / static_cast<double>(n));
            std::sort(lat.begin(), lat.end());
            std::sort(que.begin(), que.end());
            std::sort(fir.begin(), fir.end());
            EXPECT_EQ(r.p50LatencySeconds, percentileSorted(lat, 0.50));
            EXPECT_EQ(r.p90LatencySeconds, percentileSorted(lat, 0.90));
            EXPECT_EQ(r.p99LatencySeconds, percentileSorted(lat, 0.99));
            EXPECT_EQ(r.p50QueueSeconds, percentileSorted(que, 0.50));
            EXPECT_EQ(r.p90QueueSeconds, percentileSorted(que, 0.90));
            EXPECT_EQ(r.p99QueueSeconds, percentileSorted(que, 0.99));
            EXPECT_EQ(r.p50FirstTokenSeconds, percentileSorted(fir, 0.50));
            EXPECT_EQ(r.p90FirstTokenSeconds, percentileSorted(fir, 0.90));
            EXPECT_EQ(r.p99FirstTokenSeconds, percentileSorted(fir, 0.99));
        }
}

TEST(Serving, BatchedBusyTimeNeverExceedsSerialSum)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    const auto trace = smallTrace();
    for (std::size_t max_batch : {1u, 4u, 16u}) {
        ServingSimulator sim(*accel, {max_batch});
        const ServingReport r = sim.simulate(trace);
        EXPECT_LE(r.busySeconds, r.serialSeconds * (1.0 + 1e-9))
            << "maxBatch=" << max_batch;
    }
    // maxBatch=1 degenerates to serial execution exactly.
    ServingSimulator serial_sim(*accel, {1});
    const ServingReport serial = serial_sim.simulate(trace);
    EXPECT_NEAR(serial.busySeconds, serial.serialSeconds,
                serial.serialSeconds * 1e-9);
    // A real batch must not be slower than serial.
    ServingSimulator batched_sim(*accel, {16});
    const ServingReport batched = batched_sim.simulate(trace);
    EXPECT_LE(batched.busySeconds, serial.busySeconds * (1.0 + 1e-9));
    EXPECT_GT(batched.meanBatchOccupancy, 1.0);

    // Energy mirrors the cycle model: the shared weight stream is
    // amortized, so batched J/token never exceeds the serial run's and
    // strictly improves once requests actually share iterations.
    auto total_joules = [](const ServingReport &r) {
        double j = 0.0;
        for (const RequestMetrics &m : r.requests)
            j += m.joules;
        return j;
    };
    EXPECT_NEAR(total_joules(serial), serial.serialJoules,
                serial.serialJoules * 1e-9);
    EXPECT_LE(total_joules(batched),
              batched.serialJoules * (1.0 + 1e-9));
    EXPECT_LT(batched.joulesPerToken, serial.joulesPerToken);
}

TEST(Serving, SerializedMemoryModelsDecomposeExactly)
{
    // The A100 roofline composes its linear segment additively
    // (weight stream + per-request memory/compute), unlike the
    // pipelined MCBP max-composition; the scheduler must invert each
    // correctly, which shows as exact busy == serial at maxBatch 1.
    Registry registry;
    auto gpu = registry.make("a100");
    const auto trace = smallTrace(8);
    ServingSimulator serial_sim(*gpu, {1});
    const ServingReport serial = serial_sim.simulate(trace);
    EXPECT_NEAR(serial.busySeconds, serial.serialSeconds,
                serial.serialSeconds * 1e-9);
    ServingSimulator batched_sim(*gpu, {8});
    const ServingReport batched = batched_sim.simulate(trace);
    EXPECT_LE(batched.busySeconds, serial.busySeconds * (1.0 + 1e-9));
}

TEST(Serving, ZeroDecodeRequestsFinishAtPrefill)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    auto trace = smallTrace(4);
    trace[2].decodeLen = 0; // pure-prefill (classification) request.
    ServingSimulator sim(*accel, {4});
    const ServingReport r = sim.simulate(trace);
    ASSERT_EQ(r.requests.size(), 4u);
    for (const RequestMetrics &m : r.requests) {
        if (m.id == 2) {
            EXPECT_EQ(m.decodeTokens, 0u);
        }
        EXPECT_GT(m.completionSeconds, m.arrivalSeconds);
    }
}

TEST(Serving, MixedModelTracesNeverShareABatch)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    // 4 OPT1B3 + 4 Bloom1B7 requests, all at t=0 with room for 8: if
    // models could co-batch, occupancy would reach 8; the per-model
    // barrier caps it at each model's own 4.
    auto trace = smallTrace(4);
    model::TraceConfig tc;
    tc.model = "Bloom1B7";
    tc.task = "Cola";
    tc.requests = 4;
    tc.arrivalsPerSecond = 100.0;
    tc.seed = 13;
    auto other = model::synthesizeTrace(tc);
    for (auto &r : other) {
        r.id += trace.size();
        trace.push_back(r);
    }
    for (auto &r : trace)
        r.arrivalSeconds = 0.0;
    ServingSimulator sim(*accel, {8});
    const ServingReport r = sim.simulate(trace);
    ASSERT_EQ(r.requests.size(), 8u);
    EXPECT_LE(r.peakBatch, 4u);
    EXPECT_EQ(r.peakBatch, 4u); // ...but each model does fill its 4.
    EXPECT_LE(r.busySeconds, r.serialSeconds * (1.0 + 1e-9));
}

TEST(Registry, CapabilitiesAgreeWithSimulatedTraits)
{
    // The Table 1 capability flags and the traits that actually drive
    // the simulation must never drift apart.
    const model::Workload &task = model::findTask("Cola");
    Registry registry;
    for (const std::string spec :
         {"systolic", "sanger", "spatten", "fact", "sofa", "energon",
          "bitwave", "fusekna", "cambricon-c"}) {
        auto accel = registry.make(spec);
        const auto *adapter =
            dynamic_cast<const BaselineAdapter *>(accel.get());
        ASSERT_NE(adapter, nullptr) << spec;
        const accel::BaselineTraits traits =
            adapter->traitsFor(opt1b3(), task);
        EXPECT_EQ(adapter->capabilities().decodeOptimized,
                  traits.decodeOptimized)
            << spec;
    }
}

} // namespace
} // namespace mcbp::engine
