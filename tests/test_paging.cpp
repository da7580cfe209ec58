/**
 * @file
 * Paged-KV admission invariants (the preempt-and-recompute path):
 *  - block-rounding and footprint math, including the zero-decode and
 *    unbounded-sentinel (<= 0) edges, uniformly across serving and
 *    cluster paths;
 *  - paged == reserve bit-for-bit (times, energies, admissions) when
 *    the capacity never binds, at tp=1;
 *  - the reserve policy ignores every paging knob (pre-paging parity);
 *  - under KV pressure, paging admits at least as many requests as
 *    reservation by any horizon, preempts and re-queues for recompute
 *    without dropping or duplicating requests, and never exceeds the
 *    configured capacity;
 *  - preemption is deterministic: identical trace + seed gives
 *    bit-identical reports at profileThreads 1 and 8;
 *  - the shortest-prompt scheduler's aging term bounds long-prompt
 *    starvation under a sustained short-prompt flood;
 *  - an empty trace yields a zeroed report instead of indexing into
 *    empty percentile vectors;
 *  - a request whose footprint exceeds the budget is rejected with a
 *    message naming it, its footprint, the capacity and the smallest
 *    budget that admits the trace.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>

#include "engine/kv_block_manager.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/llm_config.hpp"

namespace mcbp::engine {
namespace {

std::vector<model::Request>
denseTrace(std::size_t n = 24, const char *model = "Llama7B",
           std::uint64_t seed = 11)
{
    model::TraceConfig tc;
    tc.model = model;
    tc.task = "MBPP";
    tc.requests = n;
    tc.arrivalsPerSecond = 50.0; // dense enough that batches form.
    tc.seed = seed;
    return model::synthesizeTrace(tc);
}

double
lastArrival(const std::vector<model::Request> &trace)
{
    double last = 0.0;
    for (const model::Request &r : trace)
        last = std::max(last, r.arrivalSeconds);
    return last;
}

std::size_t
admittedBy(const ServingReport &r, double horizonSeconds)
{
    std::size_t n = 0;
    for (const RequestMetrics &m : r.requests)
        if (m.admissionSeconds <= horizonSeconds)
            ++n;
    return n;
}

void
expectConserves(const ServingReport &r, std::size_t expected)
{
    ASSERT_EQ(r.requests.size(), expected);
    std::vector<bool> seen(expected, false);
    for (const RequestMetrics &m : r.requests) {
        ASSERT_LT(m.id, seen.size());
        EXPECT_FALSE(seen[m.id]) << "duplicate id " << m.id;
        seen[m.id] = true;
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));
}

/** Every field two runs of the same costed trace must agree on. */
void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.busySeconds, b.busySeconds);
    EXPECT_EQ(a.serialSeconds, b.serialSeconds);
    EXPECT_EQ(a.serialJoules, b.serialJoules);
    EXPECT_EQ(a.p50LatencySeconds, b.p50LatencySeconds);
    EXPECT_EQ(a.p99LatencySeconds, b.p99LatencySeconds);
    EXPECT_EQ(a.p99QueueSeconds, b.p99QueueSeconds);
    EXPECT_EQ(a.joulesPerToken, b.joulesPerToken);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recomputedTokens, b.recomputedTokens);
    EXPECT_EQ(a.kvPeakBytes, b.kvPeakBytes);
    EXPECT_EQ(a.kvBlockUtilization, b.kvBlockUtilization);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].admissionSeconds,
                  b.requests[i].admissionSeconds);
        EXPECT_EQ(a.requests[i].completionSeconds,
                  b.requests[i].completionSeconds);
        EXPECT_EQ(a.requests[i].preemptions, b.requests[i].preemptions);
        EXPECT_EQ(a.requests[i].joules, b.requests[i].joules);
    }
}

TEST(KvBlocks, PolicyNamesRoundTrip)
{
    for (KvPolicy p : allKvPolicies())
        EXPECT_EQ(kvPolicyFromString(toString(p)), p);
    EXPECT_THROW((void)kvPolicyFromString("swap"), std::runtime_error);
}

TEST(KvBlocks, FootprintAndRoundingMath)
{
    KvOptions kv;
    kv.blockTokens = 16;
    kv.capacityBytes = 1000.0;
    const KvBlockManager mgr(kv);
    // 17 tokens at 2 B/token -> 2 blocks of 16 tokens = 64 B.
    EXPECT_DOUBLE_EQ(mgr.allocatedBytes(2.0, 17), 64.0);
    EXPECT_DOUBLE_EQ(mgr.allocatedBytes(2.0, 16), 32.0);
    EXPECT_DOUBLE_EQ(mgr.allocatedBytes(2.0, 0), 0.0);

    // Footprints: exact under reserve, block-rounded under paged,
    // zero whenever no token is generated (prefill-only requests
    // retain no KV) under either policy.
    kv.policy = KvPolicy::Reserve;
    EXPECT_DOUBLE_EQ(kvFootprintBytes(kv, 2.0, 10, 7), 34.0);
    EXPECT_DOUBLE_EQ(kvFootprintBytes(kv, 2.0, 10, 0), 0.0);
    kv.policy = KvPolicy::Paged;
    EXPECT_DOUBLE_EQ(kvFootprintBytes(kv, 2.0, 10, 7), 64.0);
    EXPECT_DOUBLE_EQ(kvFootprintBytes(kv, 2.0, 10, 0), 0.0);

    // The unified sentinel: any capacity <= 0 is unbounded.
    EXPECT_TRUE(kvUnbounded(0.0));
    EXPECT_TRUE(kvUnbounded(-3.0));
    EXPECT_FALSE(kvUnbounded(1.0));

    // Watermark headroom applies to admission checks only.
    KvOptions tight;
    tight.blockTokens = 16;
    tight.capacityBytes = 100.0;
    tight.lowWatermark = 0.1;
    const KvBlockManager pool(tight);
    EXPECT_TRUE(pool.fits(95.0, /*admission=*/false));
    EXPECT_FALSE(pool.fits(95.0, /*admission=*/true));
    EXPECT_TRUE(pool.fits(90.0, /*admission=*/true));
}

TEST(KvBlocks, LedgerTracksPeaksAndFragmentation)
{
    KvOptions kv;
    kv.blockTokens = 8;
    kv.capacityBytes = 256.0;
    KvBlockManager pool(kv);
    pool.add(128.0, 100.0);
    pool.add(64.0, 60.0);
    EXPECT_DOUBLE_EQ(pool.usedBytes(), 192.0);
    EXPECT_DOUBLE_EQ(pool.neededBytes(), 160.0);
    EXPECT_DOUBLE_EQ(pool.peakFragmentationBytes(), 32.0);
    pool.remove(128.0, 100.0);
    pool.remove(64.0, 60.0);
    pool.clearIdleResidual();
    EXPECT_DOUBLE_EQ(pool.usedBytes(), 0.0);
    EXPECT_DOUBLE_EQ(pool.peakUsedBytes(), 192.0);
}

TEST(Paging, MatchesReserveWhenCapacityNeverBinds)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    const auto trace = denseTrace();

    ServingOptions reserve;
    reserve.maxBatch = 8;
    reserve.kvPolicy = KvPolicy::Reserve;
    const ServingReport a =
        ServingSimulator(*accel, reserve).simulate(trace);

    // A budget comfortably above the reserve peak (and its watermark)
    // never binds: paged admission decisions — and therefore every
    // clock and every joule — are bit-identical to reservation. Only
    // the kv* fields differ (block-rounded residency).
    ServingOptions paged = reserve;
    paged.kvPolicy = KvPolicy::Paged;
    paged.kvCapacityBytes = a.kvPeakBytes * 2.0;
    const ServingReport b =
        ServingSimulator(*accel, paged).simulate(trace);

    EXPECT_EQ(a.kvPolicy, "reserve");
    EXPECT_EQ(b.kvPolicy, "paged");
    EXPECT_EQ(b.preemptions, 0u);
    EXPECT_EQ(b.recomputedTokens, 0u);
    expectReportsIdentical(
        [&] { // mask the kv fields both sides, compare the rest.
            ServingReport r = a;
            r.kvPeakBytes = 0.0;
            r.kvBlockUtilization = 0.0;
            return r;
        }(),
        [&] {
            ServingReport r = b;
            r.kvPeakBytes = 0.0;
            r.kvBlockUtilization = 0.0;
            return r;
        }());
    // The paged peak tracks current block-rounded residency — which
    // grows token by token — so it sits at or below the reserve
    // peak's full-footprint reservations plus one block per request.
    EXPECT_GT(b.kvPeakBytes, 0.0);
    EXPECT_GT(b.kvBlockUtilization, 0.0);
    EXPECT_LE(b.kvBlockUtilization, 1.0);
}

TEST(Paging, ReservePolicyIgnoresPagingKnobs)
{
    // The pre-paging policy must reproduce its reports exactly no
    // matter how the paging knobs are set: block size, watermark and
    // aging default must not leak into the reserve path.
    Registry registry;
    auto accel = registry.make("mcbp");
    const auto trace = denseTrace(16);

    ServingOptions a;
    a.maxBatch = 8;
    a.kvCapacityBytes = 6e9;
    a.kvPolicy = KvPolicy::Reserve;
    a.kvBlockTokens = 16;
    a.kvLowWatermark = 0.05;

    ServingOptions b = a;
    b.kvBlockTokens = 1024;
    b.kvLowWatermark = 0.4;

    const ServingReport ra = ServingSimulator(*accel, a).simulate(trace);
    const ServingReport rb = ServingSimulator(*accel, b).simulate(trace);
    expectReportsIdentical(ra, rb);
    EXPECT_EQ(ra.kvPeakBytes, rb.kvPeakBytes);
    EXPECT_EQ(ra.preemptions, 0u);
    EXPECT_EQ(ra.kvBlockUtilization, 0.0);
    // Reserve holds each footprint as both allocated and needed bytes
    // in the one pool: never fragmented, never over capacity.
    EXPECT_EQ(ra.kvFragmentationPeakBytes, 0.0);
    EXPECT_GT(ra.kvPeakBytes, 0.0);
    EXPECT_LE(ra.kvPeakBytes, a.kvCapacityBytes);
}

TEST(Paging, AdmitsMoreThanReservationUnderPressure)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    const auto trace = denseTrace(24);
    const double horizon = lastArrival(trace);

    ServingOptions free_opts;
    free_opts.maxBatch = 16;
    const ServingReport free_run =
        ServingSimulator(*accel, free_opts).simulate(trace);
    ASSERT_GT(free_run.kvPeakBytes, 0.0);

    // A budget at a quarter of the unbounded peak forces the policies
    // apart: reservation blocks on full footprints, paging admits
    // against current occupancy and preempts when growth overflows.
    ServingOptions reserve = free_opts;
    reserve.kvCapacityBytes = free_run.kvPeakBytes / 4.0;
    ServingOptions paged = reserve;
    paged.kvPolicy = KvPolicy::Paged;

    const ServingReport r =
        ServingSimulator(*accel, reserve).simulate(trace);
    const ServingReport p =
        ServingSimulator(*accel, paged).simulate(trace);

    expectConserves(r, trace.size());
    expectConserves(p, trace.size());

    // Both respect the budget; paging buys earlier admission.
    EXPECT_LE(r.kvPeakBytes, reserve.kvCapacityBytes);
    EXPECT_LE(p.kvPeakBytes, paged.kvCapacityBytes);
    EXPECT_GE(admittedBy(p, horizon), admittedBy(r, horizon));
    EXPECT_GT(admittedBy(p, horizon), 0u);
    // The pressure is real: paging had to preempt and recompute.
    EXPECT_GT(p.preemptions, 0u);
    EXPECT_GT(p.recomputedTokens, 0u);
    EXPECT_GT(p.kvBlockUtilization, 0.0);
    EXPECT_LE(p.kvBlockUtilization, 1.0);
    EXPECT_GE(p.kvFragmentationPeakBytes, 0.0);
    // Recompute work is billed: total energy exceeds the serial sum.
    double joules = 0.0;
    for (const RequestMetrics &m : p.requests)
        joules += m.joules;
    EXPECT_GT(joules, 0.0);
}

TEST(Paging, PreemptionIsDeterministicAcrossProfileThreads)
{
    const auto trace = denseTrace(20, "Llama7B", 17);

    auto run = [&](std::size_t threads) {
        // A fresh registry per run: each owns a cold profile cache,
        // so the second run genuinely re-profiles at its own thread
        // count — proving the report never depends on profiling
        // parallelism, preemption re-pricing included.
        Registry registry;
        auto accel = registry.make("mcbp");
        ServingOptions opts;
        opts.maxBatch = 16;
        opts.kvPolicy = KvPolicy::Paged;
        opts.kvCapacityBytes = 2e9; // tight: preemptions happen.
        opts.profileThreads = threads;
        return ServingSimulator(*accel, opts).simulate(trace);
    };
    const ServingReport a = run(1);
    const ServingReport b = run(8);
    ASSERT_GT(a.preemptions, 0u);
    expectReportsIdentical(a, b);
}

TEST(Paging, ZeroDecodeRequestsChargeNoKv)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    auto trace = denseTrace(4);
    trace[1].decodeLen = 0; // pure-prefill (classification) request.

    for (KvPolicy policy : allKvPolicies()) {
        ServingOptions opts;
        opts.maxBatch = 4;
        opts.kvPolicy = policy;
        opts.kvCapacityBytes = 6e9;
        const ServingReport r =
            ServingSimulator(*accel, opts).simulate(trace);
        expectConserves(r, trace.size());
        for (const RequestMetrics &m : r.requests) {
            if (m.id == 1) {
                EXPECT_EQ(m.decodeTokens, 0u);
                EXPECT_EQ(m.kvBytes, 0.0) << toString(policy);
            } else {
                EXPECT_GT(m.kvBytes, 0.0) << toString(policy);
            }
        }
    }

    // An all-prefill trace fits any budget — even one byte — because
    // nothing is ever retained (the pre-fix accounting charged the
    // prompt and made this fatal).
    for (auto &req : trace)
        req.decodeLen = 0;
    ServingOptions tiny;
    tiny.kvCapacityBytes = 1.0;
    const ServingReport r =
        ServingSimulator(*accel, tiny).simulate(trace);
    expectConserves(r, trace.size());
    EXPECT_EQ(r.kvPeakBytes, 0.0);
}

TEST(Paging, NegativeCapacityIsUnboundedEverywhere)
{
    // The sentinel is uniform: <= 0 means unbounded in the serving
    // path and through a cluster accelerator alike, for both KV
    // policies.
    Registry registry;
    const auto trace = denseTrace(8);
    for (const char *spec : {"mcbp", "mcbp:tp=2"}) {
        auto accel = registry.make(spec);
        for (KvPolicy policy : allKvPolicies()) {
            ServingOptions zero;
            zero.maxBatch = 8;
            zero.kvPolicy = policy;
            zero.kvCapacityBytes = 0.0;
            ServingOptions negative = zero;
            negative.kvCapacityBytes = -1e9;
            const ServingReport a =
                ServingSimulator(*accel, zero).simulate(trace);
            const ServingReport b =
                ServingSimulator(*accel, negative).simulate(trace);
            expectReportsIdentical(a, b);
            EXPECT_EQ(a.kvUtilization, 0.0);
            EXPECT_EQ(b.kvUtilization, 0.0);
            EXPECT_EQ(a.preemptions, 0u);
        }
    }
}

TEST(Paging, OversizedRequestFatalNamesRequestAndBudget)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    const auto trace = denseTrace(8);
    auto bytes = [](double b) {
        std::ostringstream os;
        os << std::fixed << std::setprecision(0) << b << " B";
        return os.str();
    };
    for (KvPolicy policy : allKvPolicies()) {
        ServingOptions opts;
        opts.kvPolicy = policy;
        // Footprints as this policy quantizes them; the budget sits
        // just below the largest, so exactly that request is too big.
        const auto costed =
            ServingSimulator(*accel, opts).costTrace(trace);
        const CostedRequest *largest = &costed.costs.front();
        for (const CostedRequest &c : costed.costs)
            if (c.kvBytes > largest->kvBytes)
                largest = &c;
        opts.kvCapacityBytes = largest->kvBytes - 1.0;
        try {
            (void)ServingSimulator(*accel, opts).simulate(trace);
            FAIL() << "expected the oversized request to be rejected";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("request " + std::to_string(largest->req->id) +
                               " "),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find(bytes(largest->kvBytes)), std::string::npos)
                << msg;
            EXPECT_NE(msg.find(bytes(opts.kvCapacityBytes)),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("at least " + bytes(largest->kvBytes)),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(Paging, PagedServingOnClusterRespectsBudget)
{
    Registry registry;
    auto cluster = registry.make("mcbp:tp=2");
    EXPECT_EQ(cluster->capabilities().kvShards, 2u);
    const auto trace = denseTrace(12);

    const ServingReport free_run =
        ServingSimulator(*cluster, {8}).simulate(trace);
    ServingOptions opts;
    opts.maxBatch = 8;
    opts.kvPolicy = KvPolicy::Paged;
    opts.kvCapacityBytes = free_run.kvPeakBytes / 3.0;
    const ServingReport r =
        ServingSimulator(*cluster, opts).simulate(trace);
    expectConserves(r, trace.size());
    EXPECT_LE(r.kvPeakBytes, opts.kvCapacityBytes);
    EXPECT_GT(r.kvPeakBytes, 0.0);
}

TEST(Paging, EmptyTraceYieldsZeroedReport)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    for (KvPolicy policy : allKvPolicies()) {
        ServingOptions opts;
        opts.kvPolicy = policy;
        const ServingReport r =
            ServingSimulator(*accel, opts).simulate({});
        EXPECT_EQ(r.accelerator, accel->name());
        EXPECT_EQ(r.scheduler, "fifo");
        EXPECT_EQ(r.kvPolicy, toString(policy));
        EXPECT_TRUE(r.requests.empty());
        EXPECT_EQ(r.makespanSeconds, 0.0);
        EXPECT_EQ(r.p50LatencySeconds, 0.0);
        EXPECT_EQ(r.p99LatencySeconds, 0.0);
        EXPECT_EQ(r.p99QueueSeconds, 0.0);
        EXPECT_EQ(r.tokensPerSecond, 0.0);
        EXPECT_EQ(r.joulesPerToken, 0.0);
        EXPECT_EQ(r.preemptions, 0u);
    }
}

/** FNV-1a over 64-bit words. */
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
};

/** The ledger matrix: block sizes x capacities x step modes. */
constexpr std::array<std::size_t, 6> kLedgerBlocks = {1, 2, 7, 16, 33, 128};
/** Pool capacities as fractions of the unbounded peak (0: unbounded). */
constexpr std::array<double, 3> kLedgerCapacities = {0.0, 0.5, 0.25};
constexpr std::size_t kLedgerConfigs =
    kLedgerBlocks.size() * kLedgerCapacities.size() * 2;

/** Config @p i of the ledger matrix: step mode fastest, block slowest. */
struct LedgerConfig
{
    std::size_t blockTokens;
    double capacityFraction;
    StepMode step;

    explicit LedgerConfig(std::size_t i)
        : blockTokens(kLedgerBlocks[i / 2 / kLedgerCapacities.size()]),
          capacityFraction(
              kLedgerCapacities[i / 2 % kLedgerCapacities.size()]),
          step(i % 2 == 0 ? StepMode::Coalesced : StepMode::PerToken)
    {
    }
};

/** Paged serving of @p config over @p trace. */
ServingReport
ledgerRun(const Accelerator &accel, const std::vector<model::Request> &trace,
          const LedgerConfig &config)
{
    ServingOptions opts;
    opts.maxBatch = 16;
    opts.policy = SchedulerPolicy::ShortestPromptFirst;
    opts.kvPolicy = KvPolicy::Paged;
    opts.kvBlockTokens = config.blockTokens;
    opts.stepMode = config.step;
    if (config.capacityFraction > 0.0) {
        // Size the pool off an unbounded probe at this block size, and
        // never below the largest footprint (which would be fatal).
        ServingOptions probe_opts = opts;
        probe_opts.stepMode = StepMode::Coalesced;
        const ServingReport probe =
            ServingSimulator(accel, probe_opts).simulate(trace);
        double largest = 0.0;
        for (const RequestMetrics &m : probe.requests)
            largest = std::max(largest, m.kvBytes);
        opts.kvCapacityBytes = std::max(
            probe.kvPeakBytes * config.capacityFraction, largest * 1.01);
    }
    return ServingSimulator(accel, opts).simulate(trace);
}

/** ledgerRun(i)'s ledger statistics, makespan and preemptions hashed
 *  bit for bit, for i in [0, kLedgerConfigs), recorded from the event
 *  core that charged a decode window's growth one request at a time. */
constexpr std::array<std::uint64_t, kLedgerConfigs> kLedgerGoldens = {
    0x80e14ff500ebdc3aull, 0x8eb23c9d770d7900ull, 0xd9c4bc97170391f0ull,
    0x1f4071122ff3047dull, 0xf17aaad4c293c79bull, 0xa1c2866e91d1c873ull,
    0xf319947704ea563full, 0x3635621f21397e1dull, 0xa426bbf22a89be3aull,
    0x9d350de699d685b9ull, 0x15f1e0fe0bf9eabull, 0x985aa76037fb4fecull,
    0xbe0124701363db11ull, 0x679bd0c9d4424c8ull, 0x67874536d356e8bdull,
    0xa61b55ea28847be5ull, 0xc0feec57472385ceull, 0x2026409dc78f5aabull,
    0xa9b8434295e68a7full, 0xce1691d872fb3f83ull, 0x89b81d16b82dbaaaull,
    0x695f059a44deb187ull, 0x2530e6990aa5d63full, 0x76b550e36ae0fe83ull,
    0x5474bcba91c63151ull, 0x2fa9e6a193c77aeull, 0xb93ea5d5fc1d1ae9ull,
    0x33958bb04d76f78eull, 0x99e9d4fbd8b57597ull, 0x36144f817d555a40ull,
    0xa764d0eec689d67eull, 0xc84dbe8a36c69fdaull, 0x979c0a6b99c4e643ull,
    0xfe35ee25711460e9ull, 0x627d3574918302e4ull, 0x42925913f7e4099full,
};

TEST(Paging, LedgerBitsMatchGoldens)
{
    // A t = 0 burst, so admission is KV-bound from the first pass, on
    // a model with whole-number bytes per token: every ledger value is
    // an exact integer, and the statistics must not depend on the
    // order in which a decode window charges the batch's growth.
    model::TraceConfig tc;
    tc.model = "Llama7B";
    tc.task = "MBPP";
    tc.requests = 32;
    tc.arrivalsPerSecond = 0.0;
    tc.seed = 23;
    const auto trace = model::synthesizeTrace(tc);
    Registry registry;
    const auto accel = registry.make("mcbp");

    std::size_t preempting = 0;
    for (std::size_t i = 0; i < kLedgerConfigs; ++i) {
        const LedgerConfig config(i);
        const ServingReport r = ledgerRun(*accel, trace, config);
        Fnv h;
        for (const double v : {r.kvPeakBytes, r.kvFragmentationPeakBytes,
                               r.kvBlockUtilization, r.makespanSeconds})
            h.add(std::bit_cast<std::uint64_t>(v));
        h.add(r.preemptions);
        EXPECT_EQ(h.h, kLedgerGoldens[i])
            << "config " << i << " hash 0x" << std::hex << h.h << std::dec
            << ": block " << config.blockTokens << ", capacity x"
            << config.capacityFraction << ", " << toString(config.step)
            << std::hexfloat
            << ", peak " << r.kvPeakBytes << ", fragmentation peak "
            << r.kvFragmentationPeakBytes << ", utilization "
            << r.kvBlockUtilization << ", makespan " << r.makespanSeconds
            << std::defaultfloat << ", preemptions " << r.preemptions;
        if (r.preemptions > 0)
            ++preempting;
    }
    // The matrix must exercise the preemption path, not only growth.
    EXPECT_GE(preempting, kLedgerConfigs / 3);
}

TEST(Schedulers, AgingBoundsLongPromptStarvation)
{
    // A long-prompt minority inside a sustained short-prompt flood:
    // pure SJF (agingWeight 0) starves the longs until the flood
    // ends; the aged key admits them once they have waited their own
    // extra prefill cost, bounding their queue tail.
    Registry registry;
    auto accel = registry.make("mcbp");
    const model::LlmConfig &m = model::findModel("Llama7B");

    model::Request probe{0, 0.0, "Llama7B", "Dolly", 64, 64};
    const double short_service =
        accel->run(m, probe.workload()).seconds();

    std::vector<model::Request> trace;
    const std::size_t shorts = 40;
    // Shorts arrive faster than they are served: the queue never
    // drains until the flood ends.
    const double interval = 0.5 * short_service;
    for (std::size_t i = 0; i < shorts; ++i)
        trace.push_back({i, static_cast<double>(i) * interval,
                         "Llama7B", "Dolly", 64, 64});
    for (std::size_t i = 0; i < 3; ++i)
        trace.push_back({shorts + i, 0.0, "Llama7B", "Dolly", 2048, 8});

    auto run = [&](double agingWeight) {
        ServingOptions opts;
        opts.maxBatch = 1; // serialize admissions: pure queueing.
        opts.policy = SchedulerPolicy::ShortestPromptFirst;
        opts.sjfAgingWeight = agingWeight;
        return ServingSimulator(*accel, opts).simulate(trace);
    };
    const ServingReport aged = run(1.0);   // the default
    const ServingReport pure = run(0.0);   // the pre-fix behaviour
    expectConserves(aged, trace.size());
    expectConserves(pure, trace.size());

    auto maxLongQueue = [&](const ServingReport &r) {
        double worst = 0.0;
        for (const RequestMetrics &mx : r.requests)
            if (mx.id >= shorts)
                worst = std::max(worst, mx.queueSeconds());
        return worst;
    };
    const double aged_wait = maxLongQueue(aged);
    const double pure_wait = maxLongQueue(pure);
    // Pure SJF holds every long until the flood is over...
    EXPECT_GT(pure_wait, 0.8 * static_cast<double>(shorts) * interval);
    // ...while aging bounds the longs' tail well inside the flood.
    EXPECT_LT(aged_wait, 0.5 * pure_wait);
}

} // namespace
} // namespace mcbp::engine
