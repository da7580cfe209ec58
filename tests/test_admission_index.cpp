/**
 * @file
 * Decision identity of the indexed waiting queue (waiting_queue.hpp)
 * that admission walks instead of re-checking every waiting request:
 *  - goldens: seeded random serving configs (policy, KV policy and
 *    capacity, a two-model trace, faults with a degraded twin,
 *    deadlines, dp=1/2, step mode) hash their admission, preemption,
 *    retry and drop orders and the makespan bits. The golden values
 *    were recorded from the per-pass candidate scan the index
 *    replaced, so any decision the index changes shows here;
 *  - targeted cases: SJF ties on the exact key go to queue position
 *    (a preempted request re-queued at the head included); a FIFO
 *    deferral behind a head of another model pins coalescing to
 *    one-iteration windows; skip-ahead passes a KV-blocked head; a
 *    pass's fit checks stay O(1) for a KV-blocked queue; deadline
 *    drops come out in queue order after retries re-entered at the
 *    tail;
 *  - sjfAgingWeight must be finite and non-negative.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/health.hpp"
#include "engine/kv_block_manager.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "engine/waiting_queue.hpp"
#include "model/request.hpp"

namespace mcbp::engine {
namespace {

// ---- Goldens ---------------------------------------------------------

/** The accelerators every golden config draws from, built once. */
struct GoldenAccels
{
    Registry registry;
    std::unique_ptr<Accelerator> single = registry.make("mcbp:tp=2");
    std::unique_ptr<Accelerator> fleet = registry.make("mcbp:tp=2,dp=2");
    std::unique_ptr<Accelerator> degraded =
        registry.make(degradedSpec("mcbp:tp=2"));
};

const GoldenAccels &
goldenAccels()
{
    static const GoldenAccels accels;
    return accels;
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
    void add(const std::vector<std::size_t> &ids)
    {
        add(ids.size());
        for (std::size_t id : ids)
            add(id);
    }
};

/** Two models' traces interleaved by arrival, ids renumbered. */
std::vector<model::Request>
twoModelTrace(Rng &rng)
{
    std::vector<model::Request> trace;
    for (const char *name : {"OPT1B3", "Bloom1B7"}) {
        model::TraceConfig tc;
        tc.model = name;
        tc.task = "MBPP";
        tc.requests = 8 + rng.uniformInt(17);
        const double rates[] = {0.0, 10.0, 40.0};
        tc.arrivalsPerSecond = rates[rng.uniformInt(3)];
        tc.seed = rng.next();
        const auto part = model::synthesizeTrace(tc);
        trace.insert(trace.end(), part.begin(), part.end());
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const model::Request &a, const model::Request &b) {
                         return a.arrivalSeconds < b.arrivalSeconds;
                     });
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].id = i;
    return trace;
}

/** Serve golden config @p seed and hash its decisions. */
std::uint64_t
decisionHash(std::uint64_t seed)
{
    const GoldenAccels &accels = goldenAccels();
    Rng rng(0x5eed0000u + seed);

    ServingOptions opts;
    opts.maxBatch = 2 + rng.uniformInt(7);
    opts.policy = allSchedulerPolicies()[rng.uniformInt(3)];
    const double weights[] = {0.0, 0.5, 1.0, 4.0};
    opts.sjfAgingWeight = weights[rng.uniformInt(4)];
    opts.kvPolicy = allKvPolicies()[rng.uniformInt(2)];
    const std::size_t blocks[] = {8, 16, 32};
    opts.kvBlockTokens = blocks[rng.uniformInt(3)];
    opts.stepMode =
        rng.bernoulli(0.25) ? StepMode::PerToken : StepMode::Coalesced;
    const bool dp2 = rng.bernoulli(0.5);
    const Accelerator &accel = dp2 ? *accels.fleet : *accels.single;
    const double replicas = dp2 ? 2.0 : 1.0;
    const auto trace = twoModelTrace(rng);

    // An unbounded, fault-free probe sizes the pool and the fault
    // timeline to this trace.
    ServingOptions probe_opts = opts;
    probe_opts.stepMode = StepMode::Coalesced;
    const ServingReport probe =
        ServingSimulator(accel, probe_opts).simulate(trace);
    const double T = probe.makespanSeconds;
    double largest = 0.0;
    for (const RequestMetrics &m : probe.requests)
        largest = std::max(largest, m.kvBytes);
    if (rng.bernoulli(0.75))
        opts.kvCapacityBytes =
            replicas * std::max(probe.kvPeakBytes * rng.uniform(0.2, 0.9),
                                largest * 1.01);

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
            opts.degradedAccel = accels.degraded.get();
    }

    const ServingReport r = ServingSimulator(accel, opts).simulate(trace);
    Fnv h;
    h.add(r.admissionOrder);
    h.add(r.preemptionOrder);
    h.add(r.retryOrder);
    h.add(r.dropOrder);
    h.add(r.requests.size());
    h.add(std::bit_cast<std::uint64_t>(r.makespanSeconds));
    return h.h;
}

/** decisionHash(i) of the candidate scan, for i in [0, 100). Config 26
 *  (dp=2, faults, a deadline) was re-recorded when the deadline began
 *  to bind on the replica whose slice of the fault timeline is empty;
 *  that replica used to run with the fault layer off. */
constexpr std::array<std::uint64_t, 100> kGoldens = {
    0xf3ad669c79769dfeull, 0xd39da4c3dd070e75ull, 0x5b036d9a6165ce91ull,
    0x4f739364d3901ba1ull, 0x99e9b81018172dbull, 0x8875b8608445456bull,
    0xc5c52b4aaedf8e43ull, 0x9a80363c7f705f53ull, 0xa7bb930294ee6f9ull,
    0x7abbf504cb4050adull, 0xe7bfb43312fa9657ull, 0xf6a0069f1e2a113aull,
    0xe2e52df3b8156cc9ull, 0x4c5241adcd0108dcull, 0xf1dfe2e2a758b45bull,
    0xb8315c1a4111e99dull, 0xd9d0294372c9b056ull, 0x15e689eb55952cf0ull,
    0x4b0b9d1ce24fc731ull, 0xc091a437f8aec16dull, 0x4dc3e8565ff20a54ull,
    0x1bc61c49b41ed6dull, 0x85c09c734d034136ull, 0xdbbe54c88305d43ull,
    0xc96c65a81f8cb3adull, 0x47a6e48ef0a5540ull, 0x62633304a8335eebull,
    0xaa928ba23f5525ddull, 0x88947b192bf4baa2ull, 0x19f8b962bbe0af37ull,
    0xf6c32fea8fed1268ull, 0xfbb93ce0d301cf24ull, 0x82fe5216eb325c4full,
    0x71efba25984187ffull, 0x812b5973be9363c2ull, 0x5ad7363fbf19a18dull,
    0xae22bd615f437f1cull, 0xade077bfa37dd767ull, 0xcb3d83f37831ab85ull,
    0x2cd59573503b4c68ull, 0xcc75e41a22c56bebull, 0xf9341046f2d12dc5ull,
    0xd8341e895f4b100aull, 0xfbcf011e7d3139c7ull, 0xfe61475cec714dceull,
    0x3dfbd1bca27dd604ull, 0x73f60558f875bb0ull, 0xec21c00423b250d9ull,
    0x9220c6c706fd9a42ull, 0xbf53b1d2625b759cull, 0x8e47fee5fbd7ac4eull,
    0x9448e4c9fd05f37dull, 0x4bf35c43fc707166ull, 0xf1b3e81bf7b180a3ull,
    0x2ea3c575d62c4332ull, 0x808ce7c0cc5774ceull, 0x621212fb99ad8e87ull,
    0x8c5763ab41517f2full, 0x41932de2b1f27983ull, 0xcbfa1c20cc7af8dbull,
    0x8b92fec81ae2a174ull, 0x88962eb66502a388ull, 0xae81b83bc1ef5d66ull,
    0x4b452bf95226b907ull, 0xb203b3a75f7d4034ull, 0xb5781b0ad27a38fcull,
    0x8e77e51caf490da0ull, 0xc88d685c82f7cba1ull, 0x9ea4f5c0f8d83bb4ull,
    0x6966120906a3d98aull, 0xaa738fb9adfd24e7ull, 0x28aa9aaacaf4cf18ull,
    0xf4bac50bebaeee5eull, 0xa2f69a9fd6996e31ull, 0x96ef74fd15c3ede6ull,
    0xb7a3a6f45e1614d2ull, 0xf324290753e5ceb4ull, 0x9b09e94039e27ffcull,
    0xfb3980722bfb0714ull, 0x35ee51e9475a9495ull, 0x732d4ba7f0a95753ull,
    0x4344d2db4d60acf9ull, 0xb9435a6041d7941bull, 0x43f65c23d9926a37ull,
    0x85d627ad57d36d9dull, 0x3559a1c8876b4a51ull, 0xf4331c0baa756d7dull,
    0x12502304e0ebd84eull, 0xdcda203ee707e2cull, 0x19ef6bc384f11f66ull,
    0x1da994cd8d39793dull, 0x13753299954e2a50ull, 0x572481471f5c5d56ull,
    0x28cfa7587eb2a962ull, 0xcb9527de1f7fd01dull, 0xcf2813544ec43edull,
    0x571eba9774aeaba8ull, 0x49aa4fde3289e482ull, 0x7f99fd2e5463e2d6ull,
    0xd042194f07a12b9cull,
};

TEST(AdmissionIndex, DecisionsMatchGoldens)
{
    for (std::size_t i = 0; i < kGoldens.size(); ++i) {
        const std::uint64_t h = decisionHash(i);
        EXPECT_EQ(h, kGoldens[i])
            << "config " << i << " hash 0x" << std::hex << h;
    }
}

// ---- Targeted cases --------------------------------------------------

/** Hand-built waiting requests for queue-level cases. */
class HandQueue
{
  public:
    /** A request of @p model with healthy/degraded prefill prices. */
    CostedRequest &add(const std::string &model, double prefill,
                       double arrival, double deadline = 0.0,
                       double degradedPrefill = 0.0)
    {
        model::Request &r = reqs_.emplace_back();
        r.id = reqs_.size() - 1;
        r.model = model;
        CostedRequest &c = costs_.emplace_back();
        c.req = &r;
        c.arrivalCycles = arrival;
        c.deadlineCycles = deadline;
        prefill_.push_back({prefill, degradedPrefill});
        return c;
    }

    /** The healthy/degraded prefill prices @p c was added with: the
     *  keys its push passes to the queue. */
    const std::array<double, kTopologies> &
    prefill(const CostedRequest &c) const
    {
        return prefill_[c.req->id];
    }

  private:
    std::deque<model::Request> reqs_;
    std::deque<CostedRequest> costs_;
    std::deque<std::array<double, kTopologies>> prefill_;
};

/** Ids @p scheduler admits from @p q, draining it one pick at a time. */
std::vector<std::size_t>
drainOrder(const Scheduler &scheduler, WaitingQueue &q,
           const AdmissionPass &pass)
{
    std::vector<std::size_t> ids;
    while (!q.empty()) {
        const AdmissionPick pick = scheduler.pick(q, pass);
        if (pick.entry == nullptr)
            break;
        ids.push_back(q.erase(*pick.entry).req->id);
    }
    return ids;
}

TEST(AdmissionIndex, ShortestPromptTiesGoToQueuePosition)
{
    const auto sjf = makeScheduler(SchedulerPolicy::ShortestPromptFirst);
    const KvBlockManager pool(KvOptions{}); // Unbounded.
    HandQueue reqs;
    // Aged keys prefill + 1 x arrival: ids 0, 1 and 2 all tie at 300,
    // and id 3 is the cheapest. The degraded keys are 110, 20, 80 and
    // 400.
    CostedRequest &a = reqs.add("m", 200.0, 100.0, 0.0, 10.0);
    CostedRequest &b = reqs.add("m", 300.0, 0.0, 0.0, 20.0);
    CostedRequest &p = reqs.add("m", 250.0, 50.0, 0.0, 30.0);
    CostedRequest &d = reqs.add("m", 100.0, 0.0, 0.0, 400.0);
    for (std::size_t topology : {kHealthy, kDegraded}) {
        WaitingQueue q(sjf->prefillAging(), kTopologies);
        q.pushBack(a, 0.0, reqs.prefill(a));
        q.pushBack(b, 0.0, reqs.prefill(b));
        // A preemption re-queues at the head.
        q.pushFront(p, 0.0, reqs.prefill(p));
        q.pushBack(d, 0.0, reqs.prefill(d));
        std::size_t probes = 0;
        const AdmissionPass pass(pool, false, nullptr, topology, probes);
        const std::vector<std::size_t> want =
            topology == kHealthy ? std::vector<std::size_t>{3, 2, 0, 1}
                                 : std::vector<std::size_t>{1, 2, 0, 3};
        EXPECT_EQ(drainOrder(*sjf, q, pass), want) << topology;
    }
}

TEST(AdmissionIndex, FifoDeferralBehindOtherModelPinsOneIterationWindows)
{
    // Request 0 decodes alone for 200 tokens; request 1 (another
    // model) heads the queue behind it, and request 2 (request 0's
    // model) waits behind that head. FIFO defers: something is
    // admissible but not the head, so every window is one iteration
    // until request 0 completes. Skip-ahead batches request 2 instead.
    std::vector<model::Request> trace(3);
    const char *models[] = {"OPT1B3", "Bloom1B7", "OPT1B3"};
    const std::size_t decode[] = {200, 8, 8};
    for (std::size_t i = 0; i < 3; ++i) {
        trace[i].id = i;
        trace[i].arrivalSeconds = 1e-9 * static_cast<double>(i);
        trace[i].model = models[i];
        trace[i].task = "MBPP";
        trace[i].promptLen = 64;
        trace[i].decodeLen = decode[i];
    }
    Registry registry;
    auto accel = registry.make("mcbp");
    ServingReport runs[2][2]; // [fifo, skip-ahead][per-token, coalesced]
    const SchedulerPolicy policies[] = {SchedulerPolicy::Fifo,
                                        SchedulerPolicy::SkipAhead};
    const StepMode steps[] = {StepMode::PerToken, StepMode::Coalesced};
    for (std::size_t p = 0; p < 2; ++p)
        for (std::size_t s = 0; s < 2; ++s) {
            ServingOptions opts;
            opts.maxBatch = 4;
            opts.policy = policies[p];
            opts.stepMode = steps[s];
            runs[p][s] = ServingSimulator(*accel, opts).simulate(trace);
        }
    const ServingReport &fifo = runs[0][1];
    const ServingReport &skip = runs[1][1];
    EXPECT_EQ(fifo.admissionOrder, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(skip.admissionOrder, (std::vector<std::size_t>{0, 2, 1}));
    EXPECT_GE(fifo.decodeWindows, decode[0]);
    EXPECT_LT(skip.decodeWindows, 20u);
    for (std::size_t p = 0; p < 2; ++p) {
        EXPECT_EQ(runs[p][0].admissionOrder, runs[p][1].admissionOrder);
        EXPECT_EQ(runs[p][0].decodeIterations,
                  runs[p][1].decodeIterations);
    }
}

TEST(AdmissionIndex, SkipAheadPassesKvBlockedHead)
{
    KvOptions kv;
    kv.capacityBytes = 1000.0;
    KvBlockManager pool(kv);
    pool.add(600.0, 600.0);
    HandQueue reqs;
    CostedRequest &head = reqs.add("m", 1.0, 0.0);
    CostedRequest &mid = reqs.add("m", 3.0, 0.0);
    CostedRequest &tail = reqs.add("m", 2.0, 0.0);
    const auto skip = makeScheduler(SchedulerPolicy::SkipAhead);
    const auto fifo = makeScheduler(SchedulerPolicy::Fifo);
    WaitingQueue q(std::nullopt, 1);
    // 600 + 500 > 1000: blocked.
    q.pushBack(head, 500.0, reqs.prefill(head));
    q.pushBack(mid, 300.0, reqs.prefill(mid));
    q.pushBack(tail, 100.0, reqs.prefill(tail));

    std::size_t probes = 0;
    const AdmissionPass pass(pool, false, nullptr, kHealthy, probes);
    const AdmissionPick skipped = skip->pick(q, pass);
    ASSERT_NE(skipped.entry, nullptr);
    EXPECT_EQ(skipped.entry->request, &mid); // Oldest fit, not smallest.
    EXPECT_FALSE(skipped.deferred);
    // The smallest footprint, then the head and the pick.
    EXPECT_EQ(probes, 3u);

    probes = 0;
    const AdmissionPick deferred = fifo->pick(q, pass);
    EXPECT_EQ(deferred.entry, nullptr);
    EXPECT_TRUE(deferred.deferred);
    EXPECT_EQ(probes, 2u); // The head, then the smallest footprint.
}

TEST(AdmissionIndex, KvBlockedQueueCostsOneCheckPerPass)
{
    KvOptions kv;
    kv.capacityBytes = 1000.0;
    KvBlockManager pool(kv);
    pool.add(950.0, 950.0);
    HandQueue reqs;
    const auto sjf = makeScheduler(SchedulerPolicy::ShortestPromptFirst);
    WaitingQueue q(sjf->prefillAging(), 1);
    for (std::size_t i = 0; i < 1000; ++i) {
        CostedRequest &c = reqs.add("m", static_cast<double>(i % 7), 0.0);
        q.pushBack(c, 100.0 + static_cast<double>(i % 13),
                   reqs.prefill(c));
    }
    std::size_t probes = 0;
    const AdmissionPass pass(pool, true, nullptr, kHealthy, probes);
    for (const SchedulerPolicy policy : allSchedulerPolicies()) {
        probes = 0;
        const AdmissionPick pick = makeScheduler(policy)->pick(q, pass);
        EXPECT_EQ(pick.entry, nullptr) << toString(policy);
        EXPECT_FALSE(pick.deferred) << toString(policy);
        // FIFO checks its head first; every walk starts at the
        // smallest footprint, which already does not fit.
        EXPECT_EQ(probes, policy == SchedulerPolicy::Fifo ? 2u : 1u)
            << toString(policy);
    }
}

TEST(AdmissionIndex, DeadlineDropsComeOutInQueueOrder)
{
    HandQueue reqs;
    CostedRequest &a = reqs.add("m", 1.0, 0.0, 50.0);
    CostedRequest &b = reqs.add("x", 1.0, 0.0, 40.0);
    CostedRequest &preempted = reqs.add("m", 1.0, 0.0, 30.0);
    CostedRequest &retry = reqs.add("x", 1.0, 0.0, 10.0);
    CostedRequest &late = reqs.add("m", 1.0, 0.0, 500.0);
    WaitingQueue q(std::nullopt, 1);
    q.pushBack(a, 0.0, reqs.prefill(a));
    q.pushBack(b, 0.0, reqs.prefill(b));
    q.pushFront(preempted, 0.0, reqs.prefill(preempted));
    // A retry re-enters at the tail.
    q.pushBack(retry, 0.0, reqs.prefill(retry));
    q.pushBack(late, 0.0, reqs.prefill(late));
    EXPECT_EQ(q.earliestDeadline(), 10.0);
    EXPECT_TRUE(q.takeExpired(9.0).empty());
    const std::vector<CostedRequest *> dropped = q.takeExpired(50.0);
    EXPECT_EQ(dropped, (std::vector<CostedRequest *>{&preempted, &a, &b,
                                                     &retry}));
    EXPECT_EQ(q.earliestDeadline(), 500.0);
    EXPECT_EQ(q.takeAll(), (std::vector<CostedRequest *>{&late}));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.earliestDeadline(),
              std::numeric_limits<double>::infinity());
}

// ---- Validation ------------------------------------------------------

TEST(AdmissionIndex, RejectsNonFiniteOrNegativeAgingWeight)
{
    for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
        try {
            (void)makeScheduler(SchedulerPolicy::ShortestPromptFirst, w);
            ADD_FAILURE() << "accepted sjfAgingWeight " << w;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("sjfAgingWeight"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_NO_THROW(
        (void)makeScheduler(SchedulerPolicy::ShortestPromptFirst, 0.0));
}

} // namespace
} // namespace mcbp::engine
