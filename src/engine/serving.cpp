#include "engine/serving.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "engine/event_core.hpp"
#include "engine/fleet.hpp"

namespace mcbp::engine {

namespace {

/** Decode-energy fraction attributable to the weight stream (HBM
 *  weight traffic + BSTC/Huffman decode), which a batch shares. */
double
weightEnergyFraction(const accel::PhaseMetrics &decode)
{
    const double total = decode.energy.totalPj();
    if (total <= 0.0)
        return 0.0;
    const double traffic = decode.traffic.total();
    const double dram_weight =
        traffic > 0.0
            ? decode.energy.dramPj * decode.traffic.weightBytes / traffic
            : 0.0;
    const double frac =
        (decode.energy.codecPj + dram_weight) / total;
    return std::clamp(frac, 0.0, 1.0);
}

/** The shape key a ShapeTable is sorted on: every input of a batch-1
 *  run, lengths first so most comparisons never reach the strings. */
auto
shapeKey(const model::Request &r)
{
    return std::tie(r.promptLen, r.decodeLen, r.model, r.task);
}

/** Energy of @p rm's prefill phase, over all its processors. */
double
prefillJoules(const accel::RunMetrics &rm)
{
    return rm.prefill.energy.totalPj() * 1e-12 *
           static_cast<double>(rm.processors);
}

/**
 * One topology's prices, from a batch-1 run @p rm of a request that
 * generates @p decodeLen tokens on an accelerator of @p stages
 * pipeline stages. Raw streams let the scheduler re-compose the
 * linear segment at the batch's size, inverting the model's own
 * composition rule; the remainder (attention, SFU) is per-request
 * work. Decode energy accrues per served token with the weight
 * stream amortized.
 */
Rates
ratesOf(const accel::RunMetrics &rm, std::size_t decodeLen,
        std::size_t stages)
{
    Rates r;
    r.stages = stages;
    r.prefillCycles = rm.prefill.cycles;
    r.prefillJoules = prefillJoules(rm);
    if (decodeLen == 0)
        return r;
    const accel::PhaseMetrics &d = rm.decode;
    const double steps = static_cast<double>(decodeLen);
    r.memorySerialized = d.memorySerialized;
    r.weightCyclesPerToken = d.weightStreamCycles / steps;
    r.linearCyclesPerToken = d.linearWorkCycles / steps;
    const double linear_segment = accel::composedLinearCycles(
        d.weightStreamCycles, d.linearWorkCycles, d.memorySerialized);
    r.fixedCyclesPerToken = d.fixedStepCycles / steps;
    r.otherCyclesPerToken =
        std::max(0.0, d.cycles - linear_segment - d.fixedStepCycles) /
        steps;
    const double decode_joules = d.energy.totalPj() * 1e-12 *
                                 static_cast<double>(rm.processors);
    const double wf = weightEnergyFraction(d);
    r.weightJoulesPerToken = decode_joules * wf / steps;
    r.otherJoulesPerToken = decode_joules * (1.0 - wf) / steps;
    return r;
}

} // namespace

ServingSimulator::ServingSimulator(const Accelerator &accel,
                                   ServingOptions opts)
    : accels_{&accel, opts.degradedAccel}, opts_(opts),
      planCache_(accel::makePlanCache())
{
    // Retry knobs are simulated seconds: a negative backoff would
    // re-dispatch work into the past. Other option bounds are enforced
    // by EventCore, which owns them.
    for (const auto &[value, field] :
         {std::pair{opts_.retry.backoffBaseSeconds, "backoffBaseSeconds"},
          {opts_.retry.backoffCapSeconds, "backoffCapSeconds"},
          {opts_.retry.deadlineSeconds, "deadlineSeconds"}})
        if (!std::isfinite(value) || value < 0.0)
            fatal(std::string("retry.") + field + " is " +
                  std::to_string(value) +
                  "; it must be finite and >= 0 seconds");
    for (std::size_t t = 0; t < kTopologies; ++t)
        if (accels_[t] != nullptr)
            identities_[t] =
                accels_[t]->name() + "\n" + accels_[t]->configSummary();
}

KvOptions
ServingSimulator::kvOptions() const
{
    KvOptions kv;
    kv.policy = opts_.kvPolicy;
    kv.capacityBytes = opts_.kvCapacityBytes;
    kv.blockTokens = opts_.kvBlockTokens;
    kv.lowWatermark = opts_.kvLowWatermark;
    return kv;
}

std::size_t
ServingSimulator::topologies() const
{
    return pricedTopologies(opts_.faults.enabled(),
                            opts_.degradedAccel != nullptr);
}

PrefillPricer
ServingSimulator::repricer(std::size_t t) const
{
    // The model and the prefill-only shape were resolved at costing,
    // and the price goes through the plan cache: preemptions at the
    // same resident length (recompute prices repeat heavily) compute
    // once.
    return [this, t](const CostedRequest &c, std::size_t tokens) {
        model::Workload w = c.recomputeShape;
        w.promptLen = tokens;
        const accel::RunMetrics &rm = planCache_->metrics(
            identities_[t], *c.model, w,
            [&] { return accels_[t]->run(*c.model, w); });
        return PrefillPrice{rm.prefill.cycles, prefillJoules(rm)};
    };
}

std::shared_ptr<const ShapeTable>
ServingSimulator::priceShapes(const std::vector<model::Request> &trace,
                              std::vector<std::size_t> &shapeOf) const
{
    // ---- One sort dedupes the trace into its distinct shapes ------------
    std::vector<std::size_t> order(trace.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return shapeKey(trace[a]) < shapeKey(trace[b]);
              });
    std::vector<const model::Request *> firsts; // One request per shape.
    shapeOf.resize(trace.size());
    for (const std::size_t i : order) {
        if (firsts.empty() ||
            shapeKey(*firsts.back()) != shapeKey(trace[i]))
            firsts.push_back(&trace[i]);
        shapeOf[i] = firsts.size() - 1;
    }

    // ---- Warm the profile caches on all cores ---------------------------
    // Without this, a cold cache would profile its first-touch keys on
    // whichever pricing thread hits them first. Announcing the needs
    // up front lets the cache fan the distinct keys out over the
    // thread pool. decodeLen never enters a profile key, so one
    // announcement per (model, task, promptLen) covers every shape; a
    // key missed here is still filled inside run(), so results never
    // depend on this step.
    const std::size_t priced = topologies();
    std::array<std::size_t, kTopologies> stages{};
    for (std::size_t t = 0; t < priced; ++t) {
        const Accelerator &device = *accels_[t];
        if (const std::shared_ptr<accel::ProfileCache> cache =
                device.profileCache()) {
            std::vector<accel::ProfileRequest> requests;
            // Shapes sort by promptLen first, so the (model, task)
            // pairs of one prompt length are contiguous.
            std::vector<const model::Request *> announced;
            for (const model::Request *req : firsts) {
                if (!announced.empty() &&
                    announced.front()->promptLen != req->promptLen)
                    announced.clear();
                if (std::any_of(announced.begin(), announced.end(),
                                [&](const model::Request *a) {
                                    return a->model == req->model &&
                                           a->task == req->task;
                                }))
                    continue;
                announced.push_back(req);
                device.profileRequests(model::findModel(req->model),
                                       req->workload(), requests);
            }
            cache->warm(requests, opts_.profileThreads);
        }
        // Pipeline stage count for the decode iteration's stage-aware
        // overlap (one accelerator per topology serves the whole trace).
        stages[t] =
            std::max<std::size_t>(1, device.capabilities().pipelineStages);
    }

    // ---- Price each shape once per topology -----------------------------
    // Every shape is an independent task calling run() directly: no
    // key string, no shared lock. parallelMap returns the entries in
    // shape order, so the table is bit-identical at every thread
    // count. Every topology splits its streams through the same
    // ratesOf(), so degraded decode windows compose the same way
    // healthy ones do.
    auto table = std::make_shared<ShapeTable>();
    table->shapes = parallel::parallelMap<PricedShape>(
        firsts.size(),
        [&](std::size_t s) {
            const model::Request &req = *firsts[s];
            PricedShape shape;
            shape.promptLen = req.promptLen;
            shape.decodeLen = req.decodeLen;
            shape.model = req.model;
            shape.task = req.task;
            shape.config = &model::findModel(req.model);
            const model::Workload w = req.workload();
            for (std::size_t t = 0; t < priced; ++t) {
                const accel::RunMetrics rm =
                    accels_[t]->run(*shape.config, w);
                if (t == kHealthy) {
                    shape.seconds = rm.seconds();
                    shape.joules = rm.joules();
                    shape.clockGhz = rm.clockGhz;
                }
                fatalIf(rm.clockGhz != shape.clockGhz,
                        "degraded accelerator must run at the primary "
                        "accelerator's clock (cycle timelines merge)");
                shape.rates[t] = ratesOf(rm, req.decodeLen, stages[t]);
            }
            shape.recomputeShape = w;
            shape.recomputeShape.decodeLen = 0;
            return shape;
        },
        opts_.costingThreads);
    return table;
}

ServingSimulator::CostedTrace
ServingSimulator::costTrace(const std::vector<model::Request> &trace) const
{
    CostedTrace out;
    if (trace.empty())
        return out;

    std::vector<std::size_t> shape_of;
    out.table = priceShapes(trace, shape_of);
    const KvOptions kv = kvOptions();

    // ---- Cost each request against its shape's prices ------------------
    // Trace order, so the serial sums accumulate exactly as they
    // always have.
    out.costs.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const model::Request &req = trace[i];
        const PricedShape &shape = out.table->shapes[shape_of[i]];
        fatalIf(out.clockGhz != 0.0 && shape.clockGhz != out.clockGhz,
                "accelerator changed clock between requests");
        out.clockGhz = shape.clockGhz;
        out.serialSeconds += shape.seconds;
        out.serialJoules += shape.joules;

        CostedRequest &c = out.costs.emplace_back();
        c.req = &req;
        c.model = shape.config;
        c.recomputeShape = shape.recomputeShape;
        c.shape = &shape;
        // Admission charges the prefill energy, in the mode the
        // prefill runs in (an unpriced topology's rates are 0).
        for (std::size_t t = 0; t < kTopologies; ++t) {
            c.prefillCycles[t] = shape.rates[t].prefillCycles;
            c.pendingPrefillJoules[t] = shape.rates[t].prefillJoules;
        }
        c.arrivalCycles = req.arrivalSeconds * shape.clockGhz * 1e9;
        // Largest-residency footprint, quantized by the KV policy:
        // exact (prompt + decode) bytes under reserve, whole blocks
        // under paged, 0 when no token is ever generated.
        c.kvBytesPerToken =
            static_cast<double>(shape.config->kvBytesPerToken());
        c.promptTokens = req.promptLen;
        c.kvBytes = kvFootprintBytes(kv, c.kvBytesPerToken, req.promptLen,
                                     req.decodeLen);
        c.remainingTokens = req.decodeLen;
    }
    return out;
}

ServingReport
ServingSimulator::simulate(const std::vector<model::Request> &trace) const
{
    // A data-parallel fleet serves through the replica router: each
    // request runs on exactly one replica's event core and the
    // per-replica reports merge into one fleet report (engine/fleet).
    // dp=1 delegates wholesale to a single-replica simulator, so a
    // dp=1 fleet report is bit-identical to the flat path.
    if (const auto *fleet =
            dynamic_cast<const FleetAccelerator *>(accels_[kHealthy]))
        return FleetRouter(*fleet, opts_).simulate(trace).fleet;

    CostedTrace costed = costTrace(trace);
    // The timeline is sampled in seconds (the trace's unit) over the
    // fault domains (one per KV shard). Stream separation
    // (kFaultStream) keeps it independent of trace synthesis at equal
    // seeds.
    std::vector<sim::FaultEvent> timeline;
    if (opts_.faults.enabled() && !trace.empty())
        timeline = sim::buildFaultTimeline(
            opts_.faults,
            std::max<std::size_t>(1,
                                  accels_[kHealthy]->capabilities().kvShards));
    return serve(std::move(costed), std::move(timeline));
}

ServingReport
ServingSimulator::serve(CostedTrace costed,
                        std::vector<sim::FaultEvent> timeline) const
{
    fatalIf(!opts_.faults.enabled() && !timeline.empty(),
            "a fault timeline needs ServingOptions::faults enabled");
    ServingReport report;
    report.accelerator = accels_[kHealthy]->name();
    report.kvPolicy = toString(opts_.kvPolicy);

    const std::unique_ptr<Scheduler> scheduler =
        makeScheduler(opts_.policy, opts_.sjfAgingWeight);
    report.scheduler = scheduler->name();

    // An empty (or fully filtered) trace is a well-defined zeroed
    // report, not an error: no request metrics, no percentiles to
    // index into, every aggregate 0.
    const std::size_t trace_size = costed.costs.size();
    if (trace_size == 0)
        return report;

    report.serialSeconds = costed.serialSeconds;
    report.serialJoules = costed.serialJoules;

    // ---- Fault inputs, rescaled to cycles -------------------------------
    // Converted once now that costing pinned the clock.
    FaultInputs faults;
    if (opts_.faults.enabled()) {
        const double to_cycles = costed.clockGhz * 1e9;
        faults.enabled = true;
        faults.timeline = std::move(timeline);
        for (sim::FaultEvent &e : faults.timeline) {
            e.at *= to_cycles;
            e.repairAt *= to_cycles;
        }
        faults.maxRetries = opts_.retry.maxRetries;
        faults.backoffBaseCycles =
            opts_.retry.backoffBaseSeconds * to_cycles;
        faults.backoffCapCycles =
            opts_.retry.backoffCapSeconds * to_cycles;
        faults.deadlineCycles = opts_.retry.deadlineSeconds * to_cycles;
        faults.hasDegraded = opts_.degradedAccel != nullptr;
    }

    // ---- Discrete-event loop under the selected policies ----------------
    // The paged policy re-prices a preempted request's recompute —
    // its prompt plus every generated token, replayed as one prefill
    // — through the accelerator's own prefill path on every topology
    // the re-admission could land in, so recompute cycles and energy
    // follow the same model as first admission.
    std::array<PrefillPricer, kTopologies> repricers;
    if (opts_.kvPolicy == KvPolicy::Paged)
        for (std::size_t t = 0; t < topologies(); ++t)
            repricers[t] = repricer(t);
    const EventCore core(*scheduler, opts_.maxBatch, kvOptions(),
                         std::move(repricers[kHealthy]), opts_.stepMode,
                         std::move(faults),
                         std::move(repricers[kDegraded]));
    EventStats stats = core.run(costed.costs);

    // ---- Aggregate ------------------------------------------------------
    const double to_seconds = 1.0 / (costed.clockGhz * 1e9);
    report.requests.reserve(stats.completed.size());
    for (const CostedRequest *c : stats.completed) {
        RequestMetrics rmx;
        rmx.id = c->req->id;
        rmx.arrivalSeconds = c->req->arrivalSeconds;
        rmx.admissionSeconds = c->admissionCycles * to_seconds;
        rmx.firstTokenSeconds =
            (c->firstTokenSeen ? c->firstTokenCycles
                               : c->completionCycles) *
            to_seconds;
        rmx.completionSeconds = c->completionCycles * to_seconds;
        rmx.decodeTokens = c->req->decodeLen;
        rmx.kvBytes = c->kvBytes;
        rmx.preemptions = c->preemptions;
        rmx.recomputedTokens = c->recomputedTokens;
        rmx.retries = c->retries;
        rmx.sloMiss = c->deadlineCycles > 0.0 &&
                      c->completionCycles > c->deadlineCycles;
        rmx.joules = c->joules;
        report.requests.push_back(rmx);
    }

#define MCBP_COPY_COUNTER(type, stat, member, key, rule, unit)                \
    report.member = counter::unit::toReport(stats.stat, to_seconds);
    MCBP_SERVING_COUNTERS(MCBP_COPY_COUNTER)
#undef MCBP_COPY_COUNTER
    report.kvUtilization = !kvUnbounded(opts_.kvCapacityBytes)
                               ? stats.kvPeakBytes / opts_.kvCapacityBytes
                               : 0.0;
    report.kvBlockUtilization =
        stats.kvBlockUtilizationIters > 0
            ? stats.kvBlockUtilizationSum /
                  static_cast<double>(stats.kvBlockUtilizationIters)
            : 0.0;
    report.admissionOrder = std::move(stats.admissionOrder);
    report.preemptionOrder = std::move(stats.preemptionOrder);

    // ---- Availability -----------------------------------------------
    report.degradedFraction =
        report.makespanSeconds > 0.0
            ? report.degradedSeconds / report.makespanSeconds
            : 0.0;
    report.retryOrder = std::move(stats.retryOrder);
    report.dropOrder = std::move(stats.dropOrder);
    report.faultLog.reserve(stats.faultLog.size());
    for (const EventStats::FaultImpact &f : stats.faultLog) {
        ServingReport::FaultImpact fi;
        fi.eventId = f.eventId;
        fi.seconds = f.atCycles * to_seconds;
        fi.kind = f.kind;
        fi.chip = f.chip;
        fi.permanent = f.permanent;
        fi.killed = f.killed;
        fi.dropped = f.dropped;
        report.faultLog.push_back(fi);
    }

    finalizeServingAggregates(report, trace_size);
    if (report.noCompletions)
        return report;
    report.meanBatchOccupancy =
        stats.iterations > 0
            ? stats.occupancySum / static_cast<double>(stats.iterations)
            : 0.0;
    return report;
}

void
finalizeServingAggregates(ServingReport &report, std::size_t traceSize)
{
    // Percentiles are only defined over completed requests; an empty
    // completion set (everything rejected or dropped) keeps the
    // zeroed report fields instead of indexing into empty sample
    // vectors, and is tagged so callers can tell "all dropped" from
    // an empty trace.
    if (report.requests.empty()) {
        report.noCompletions = true;
        return;
    }

    std::vector<double> latencies;
    std::vector<double> queue_waits;
    std::vector<double> first_tokens;
    latencies.reserve(report.requests.size());
    queue_waits.reserve(report.requests.size());
    first_tokens.reserve(report.requests.size());
    double total_tokens = 0.0;
    double total_joules = 0.0;
    double good_tokens = 0.0; // Tokens of SLO-compliant completions.
    std::size_t compliant = 0;
    double tpot_sum = 0.0;
    std::size_t tpot_requests = 0;
    for (const RequestMetrics &r : report.requests) {
        latencies.push_back(r.latencySeconds());
        queue_waits.push_back(r.queueSeconds());
        first_tokens.push_back(r.firstTokenSeconds - r.arrivalSeconds);
        total_tokens += static_cast<double>(r.decodeTokens);
        total_joules += r.joules;
        if (!r.sloMiss) {
            good_tokens += static_cast<double>(r.decodeTokens);
            ++compliant;
        }
        // TPOT is the steady decode cadence, defined once a request
        // has an inter-token gap to measure.
        if (r.decodeTokens > 1) {
            tpot_sum += (r.completionSeconds - r.firstTokenSeconds) /
                        static_cast<double>(r.decodeTokens - 1);
            ++tpot_requests;
        }
    }
    report.meanLatencySeconds =
        std::accumulate(latencies.begin(), latencies.end(), 0.0) /
        static_cast<double>(latencies.size());
    // One sort serves all three quantiles.
    std::sort(latencies.begin(), latencies.end());
    report.p50LatencySeconds = percentileSorted(latencies, 0.50);
    report.p90LatencySeconds = percentileSorted(latencies, 0.90);
    report.p99LatencySeconds = percentileSorted(latencies, 0.99);
    std::sort(queue_waits.begin(), queue_waits.end());
    report.p50QueueSeconds = percentileSorted(queue_waits, 0.50);
    report.p90QueueSeconds = percentileSorted(queue_waits, 0.90);
    report.p99QueueSeconds = percentileSorted(queue_waits, 0.99);
    std::sort(first_tokens.begin(), first_tokens.end());
    report.p50FirstTokenSeconds = percentileSorted(first_tokens, 0.50);
    report.p90FirstTokenSeconds = percentileSorted(first_tokens, 0.90);
    report.p99FirstTokenSeconds = percentileSorted(first_tokens, 0.99);
    report.meanTpotSeconds =
        tpot_requests > 0
            ? tpot_sum / static_cast<double>(tpot_requests)
            : 0.0;
    report.tokensPerSecond = report.makespanSeconds > 0.0
                                 ? total_tokens / report.makespanSeconds
                                 : 0.0;
    // Goodput accumulates in the same order as total_tokens, so with
    // no SLO misses it is bit-equal to tokensPerSecond.
    report.goodputTokensPerSecond =
        report.makespanSeconds > 0.0
            ? good_tokens / report.makespanSeconds
            : 0.0;
    report.sloAttainment = static_cast<double>(compliant) /
                           static_cast<double>(traceSize);
    report.joulesPerToken =
        total_tokens > 0.0 ? total_joules / total_tokens : 0.0;
}

} // namespace mcbp::engine
