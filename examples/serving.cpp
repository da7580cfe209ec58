/**
 * @file
 * Serving-engine demo: a 48-request Poisson trace (Llama7B, MBPP-style
 * code-generation requests with jittered lengths) pushed through the
 * continuous-batching ServingSimulator on three platforms from the
 * registry — the A100 roofline and MCBP standard/aggressive at the
 * paper's 148-processor scale — plus a batching ablation, a
 * tensor-parallel cluster sweep, a pipeline-parallel sweep (pp= x mb=
 * micro-batching, including a pp x tp composition), a dp= replica
 * fleet sweep (the same chips split into independent serving
 * replicas behind the fleet router), and a KV-capacity study on MCBP:
 * scheduler policies, then reservation-vs-paged KV admission
 * (preempt-and-recompute) under the same stress bound.
 *
 * Prints per-request latency percentiles, aggregate tokens/s and
 * J/token, the knobs a serving deployment actually cares about
 * (Fig 20-style throughput/efficiency, but under load). Pass
 * `--json <path>` to archive every row machine-readably (one shared
 * schema, bench_util.hpp).
 */
#include <iostream>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "engine/health.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "sim/fault_model.hpp"

using namespace mcbp;

namespace {

/** One serving run -> console row + JSON record. */
void
report(const engine::ServingReport &r, const std::string &setting,
       Table &t, bench::JsonRecords &json)
{
    t.addRow({r.accelerator, setting, fmt(r.p50LatencySeconds, 3),
              fmt(r.p99LatencySeconds, 3), fmt(r.p99QueueSeconds, 3),
              fmt(r.p50FirstTokenSeconds, 3),
              fmt(r.meanTpotSeconds * 1e3, 1),
              fmt(r.tokensPerSecond, 0),
              fmt(r.joulesPerToken * 1e3, 2),
              fmt(r.meanBatchOccupancy, 1),
              fmt(r.kvPeakBytes / 1e9, 2),
              std::to_string(r.preemptions),
              fmtX(r.batchingSpeedup())});
    bench::appendServingFields(json.begin().field("setting", setting),
                               r);
}

} // namespace

int
main(int argc, char **argv)
{
    // --env: print the documented MCBP_* knob table (common/env.hpp,
    // the registry every environment read routes through) and exit.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--env") {
            std::cout << "MCBP_* environment knobs (common/env.hpp):\n"
                      << env::describeKnobs();
            return 0;
        }
    }

    // Reject a bad --json path before simulating anything.
    (void)bench::validatedJsonPathFromArgs(argc, argv);
    bench::JsonRecords json("serving");

    // --- The trace: 48 generation requests arriving at 8 req/s ----------
    model::TraceConfig tc;
    tc.model = "Llama7B";
    tc.task = "MBPP"; // code generation: decode-heavy, batching-friendly
    tc.requests = 48;
    tc.arrivalsPerSecond = 8.0;
    tc.lengthJitter = 0.5;
    tc.seed = 7;
    const std::vector<model::Request> trace = model::synthesizeTrace(tc);
    std::cout << "Trace: " << trace.size() << " requests, Poisson "
              << tc.arrivalsPerSecond << " req/s, " << tc.model << "/"
              << tc.task
              << ", lengths jittered +/-" << tc.lengthJitter * 100.0
              << "%\n";

    engine::Registry registry;
    Table t({"Accelerator", "Setting", "p50 [s]", "p99 [s]",
             "p99 queue [s]", "p50 TTFT [s]", "TPOT [ms]", "tok/s",
             "mJ/token", "mean batch", "KV peak [GB]", "preempt",
             "batching gain"});

    // --- The fleet ------------------------------------------------------
    for (const std::string spec :
         {"a100", "mcbp:procs=148", "mcbp-aggressive:procs=148"}) {
        auto accel = registry.make(spec);
        engine::ServingSimulator sim(*accel, {/*maxBatch=*/32});
        report(sim.simulate(trace), "maxBatch=32", t, json);
    }

    // --- Batching ablation on MCBP --------------------------------------
    auto mcbp = registry.make("mcbp:procs=148");
    for (std::size_t b : {1u, 4u, 16u}) {
        engine::ServingSimulator sim(*mcbp, {b});
        report(sim.simulate(trace),
               "maxBatch=" + std::to_string(b), t, json);
    }

    // --- Tensor-parallel cluster sweep ----------------------------------
    // tp=N shards the model across N chips: the decode weight stream
    // and linear work split 1/N, attention partitions by heads, and
    // every layer pays two activation all-reduces on the ring fabric.
    for (std::size_t tp : {1u, 2u, 4u, 8u}) {
        auto cluster = registry.make("mcbp:procs=148,tp=" +
                                     std::to_string(tp));
        engine::ServingSimulator sim(*cluster, {32});
        report(sim.simulate(trace), "tp=" + std::to_string(tp), t,
               json);
    }

    // --- Pipeline-parallel sweep ----------------------------------------
    // pp=N splits the decoder layers across N stages: prefill flows
    // through the stages in mb= micro-batches (fill/drain bubbles
    // shrink as mb grows), decode streams each stage's weights from
    // its own HBM (the shared stream divides by N) while the serving
    // engine overlaps distinct requests' traversals across stages.
    // pp composes with tp: each stage can itself be a tensor-parallel
    // cluster.
    for (const char *spec :
         {"mcbp:procs=148,pp=2,mb=8", "mcbp:procs=148,pp=4,mb=1",
          "mcbp:procs=148,pp=4,mb=8", "mcbp:procs=148,pp=2,tp=2,mb=8"}) {
        auto pipe = registry.make(spec);
        engine::ServingSimulator sim(*pipe, {32});
        const std::string setting =
            std::string(spec).substr(std::string(spec).find(',') + 1);
        report(sim.simulate(trace), setting, t, json);
    }
    {
        auto stack = registry.make("mcbp:procs=148,pp=2,tp=2,mb=8");
        const engine::Capabilities c = stack->capabilities();
        std::cout << "\npp=2,tp=2 topology: " << c.processors
                  << " processors, " << c.pipelineStages
                  << " pipeline stages, " << c.kvShards
                  << " KV shards (per-shard HBM "
                  << c.hbmCapacityBytes / 1e9 /
                         static_cast<double>(c.kvShards)
                  << " GB)\n";
    }

    // --- Memory-bounded serving: KV capacity + scheduler policy ---------
    // The documented budget derivation — aggregate advertised HBM
    // minus the resident weights — leaves ~2.4 TB of headroom on the
    // 148-processor gang, which this 48-request trace never stresses.
    // So print that headroom, then apply a deliberately tight 2 GB
    // stress bound instead, making admission the bottleneck so the
    // policy choice shows (skip-ahead / shortest-prompt admit around
    // a blocked head).
    const engine::Capabilities caps = mcbp->capabilities();
    const double kv_headroom =
        caps.hbmCapacityBytes -
        static_cast<double>(model::findModel(tc.model).weightBytes());
    const double kv_budget = 2e9;
    std::cout << "\nAggregate KV headroom (HBM - weights): "
              << kv_headroom / 1e9 << " GB; stress bound applied: "
              << kv_budget / 1e9 << " GB\n";
    for (engine::SchedulerPolicy policy :
         engine::allSchedulerPolicies()) {
        engine::ServingOptions opts;
        opts.maxBatch = 32;
        opts.policy = policy;
        opts.kvCapacityBytes = kv_budget;
        engine::ServingSimulator sim(*mcbp, opts);
        report(sim.simulate(trace),
               "kv-bounded," + engine::toString(policy), t, json);
    }

    // --- KV admission policy: reservation vs block paging ----------------
    // Same stress bound, both KV policies: `reserve` holds each
    // request's full (prompt + decode) footprint from admission, so
    // the queue absorbs the pressure; `paged` allocates 16-token
    // blocks as requests actually grow and preempts the youngest
    // running request for recompute when growth overflows — more of
    // the trace gets in sooner, paid for in recompute prefills.
    for (engine::KvPolicy kv_policy : engine::allKvPolicies()) {
        engine::ServingOptions opts;
        opts.maxBatch = 32;
        opts.kvCapacityBytes = kv_budget;
        opts.kvPolicy = kv_policy;
        engine::ServingSimulator sim(*mcbp, opts);
        report(sim.simulate(trace),
               "kv=" + engine::toString(kv_policy), t, json);
    }

    // A tp=4 shard holds 1/4 of every token's KV, so its share of the
    // budget is 1/4 too — the aggregate ledger is exact by symmetry.
    {
        auto tp4 = registry.make("mcbp:procs=148,tp=4");
        const engine::Capabilities c4 = tp4->capabilities();
        std::cout << "tp=4 KV sharding: " << c4.kvShards
                  << " shards, per-shard HBM "
                  << c4.hbmCapacityBytes / 1e9 /
                         static_cast<double>(c4.kvShards)
                  << " GB\n";
        engine::ServingOptions opts;
        opts.maxBatch = 32;
        opts.kvCapacityBytes = kv_budget;
        opts.kvPolicy = engine::KvPolicy::Paged;
        engine::ServingSimulator sim(*tp4, opts);
        report(sim.simulate(trace), "kv=paged,tp=4", t, json);
    }

    // --- Replica fleets: the dp= axis ------------------------------------
    // dp=N replicates the whole serving group N ways behind the fleet
    // router: each request runs on exactly one replica (capacity
    // multiplies, per-request speed does not), the router picks the
    // replica by outstanding KV pressure (route=least, the default)
    // or round-robin, and a dead replica drains onto the survivors
    // through the retry path. Same 8 chips either way: tp=8 is one
    // fast engine, dp=4,tp=2 is four slower ones that drain a burst
    // in parallel.
    for (const char *spec :
         {"mcbp:procs=148,tp=8", "mcbp:procs=148,dp=2,tp=4",
          "mcbp:procs=148,dp=4,tp=2",
          "mcbp:procs=148,dp=4,tp=2,route=rr"}) {
        auto fleet = registry.make(spec);
        engine::ServingSimulator sim(*fleet, {8});
        const std::string setting =
            std::string(spec).substr(std::string(spec).find(',') + 1) +
            ",maxBatch=8";
        report(sim.simulate(trace), setting, t, json);
    }
    {
        auto fleet = registry.make("mcbp:procs=148,dp=4,tp=2");
        const engine::Capabilities c = fleet->capabilities();
        std::cout << "\ndp=4,tp=2 fleet: " << c.replicas
                  << " replicas, " << c.processors << " processors, "
                  << c.kvShards << " KV shards (fleet HBM "
                  << c.hbmCapacityBytes / 1e9 << " GB)\n";
    }

    // --- Fault injection: retries, failover, SLOs ------------------------
    // A tp=2 group under transient chip failures: each failure kills
    // the in-flight batch (lost tokens recompute on retry with capped
    // exponential backoff) and the group re-forms at tp=1 — the
    // degraded topology from engine/health.hpp — until the repair
    // lands. Requests carry a completion deadline; work still queued
    // past it is dropped, and goodput counts only SLO-compliant
    // tokens.
    {
        const std::string spec = "mcbp:procs=148,tp=2";
        auto group = registry.make(spec);
        auto degraded = registry.make(engine::degradedSpec(spec));
        engine::ServingOptions opts;
        opts.maxBatch = 32;
        opts.faults.seed = tc.seed; // stream-separated from the trace
        opts.faults.mtbfSeconds = 1.5;
        opts.faults.repairSeconds = 0.3;
        opts.faults.permanentFraction = 0.0;
        opts.faults.horizonSeconds = 30.0;
        opts.degradedAccel = degraded.get();
        opts.retry.maxRetries = 5;
        opts.retry.backoffBaseSeconds = 0.02;
        opts.retry.backoffCapSeconds = 0.5;
        opts.retry.deadlineSeconds = 20.0;
        engine::ServingSimulator sim(*group, opts);
        const engine::ServingReport r = sim.simulate(trace);
        report(r, "tp=2,faults,mtbf=1.5s", t, json);
        std::cout << "\nFault injection (tp=2, MTBF 1.5 s, repair 0.3 "
                     "s, deadline 20 s):\n  "
                  << r.faultEvents << " fault events, "
                  << r.killedInFlight << " in-flight kills, "
                  << r.retriesScheduled << " retries, "
                  << r.droppedRequests << " drops, "
                  << r.faultLostTokens << " lost tokens ("
                  << fmt(r.faultRecomputeSeconds, 3)
                  << " s recomputing)\n  degraded "
                  << fmt(r.degradedSeconds, 3) << " s ("
                  << fmtPct(r.degradedFraction) << " of the run), outage "
                  << fmt(r.outageSeconds, 3) << " s\n  goodput "
                  << fmt(r.goodputTokensPerSecond, 0)
                  << " tok/s under the SLO, attainment "
                  << fmtPct(r.sloAttainment) << "\n";
        for (const engine::ServingReport::FaultImpact &f : r.faultLog)
            std::cout << "  [fault " << f.eventId << "] t="
                      << fmt(f.seconds, 3) << "s " << sim::toString(f.kind)
                      << " chip=" << f.chip
                      << (f.permanent ? " (permanent)" : "")
                      << ": killed " << f.killed << ", dropped "
                      << f.dropped << "\n";
    }

    std::cout << "\nServing the trace (continuous batching):\n";
    t.print(std::cout);
    std::cout
        << "\nBatching amortizes the decode weight stream across "
           "in-flight requests; the gain saturates once the "
           "per-request KV/compute work dominates the iteration.\n"
           "tp=N keeps cutting decode latency until the all-reduce "
           "floor shows; a bounded KV budget turns admission into "
           "the bottleneck, where the scheduler policy sets the "
           "queue-time tail and the paged KV policy trades recompute "
           "prefills for earlier admission.\n";

    json.writeIfRequested(argc, argv);
    return 0;
}
