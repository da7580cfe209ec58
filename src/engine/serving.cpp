#include "engine/serving.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <tuple>
#include <utility>

#include "accel/phase_memo.hpp"
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

/**
 * A request's shape as integers: every input of its batch-1 run, with
 * the (model, task) pair replaced by its rank in name order, so the
 * order on (promptLen, decodeLen, pair) is the order on (promptLen,
 * decodeLen, model, task).
 */
struct ShapeKey
{
    std::size_t promptLen = 0;
    std::size_t decodeLen = 0;
    std::size_t pair = 0;
    std::size_t request = 0; ///< Trace index.

    auto shape() const { return std::tie(promptLen, decodeLen, pair); }
};

/** A (model, task) pair resolved to its entries in the static zoos. */
struct ModelTask
{
    const model::LlmConfig *config = nullptr;
    const model::Workload *task = nullptr;
};

/**
 * The key of every request of @p trace, in trace order, and the
 * trace's distinct (model, task) pairs in rank order. Each request's
 * names are read once, against the pair of the request before it
 * (consecutive requests mostly share one); ranking and zoo lookups are
 * once per distinct pair.
 */
std::vector<ModelTask>
shapeKeys(const std::vector<model::Request> &trace,
          std::vector<ShapeKey> &keys)
{
    std::vector<const model::Request *> seen; // First of each pair.
    keys.resize(trace.size());
    std::size_t pair = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const model::Request &r = trace[i];
        const auto same = [&](std::size_t s) {
            return seen[s]->model == r.model && seen[s]->task == r.task;
        };
        if (seen.empty() || !same(pair)) {
            pair = 0;
            while (pair < seen.size() && !same(pair))
                ++pair;
            if (pair == seen.size())
                seen.push_back(&r);
        }
        keys[i] = {r.promptLen, r.decodeLen, pair, i};
    }

    std::vector<std::size_t> byName(seen.size());
    std::iota(byName.begin(), byName.end(), std::size_t{0});
    std::sort(byName.begin(), byName.end(),
              [&](std::size_t a, std::size_t b) {
                  return std::tie(seen[a]->model, seen[a]->task) <
                         std::tie(seen[b]->model, seen[b]->task);
              });
    std::vector<std::size_t> rankOf(seen.size());
    std::vector<ModelTask> pairs(seen.size());
    for (std::size_t rank = 0; rank < byName.size(); ++rank) {
        const model::Request &first = *seen[byName[rank]];
        rankOf[byName[rank]] = rank;
        pairs[rank] = {&model::findModel(first.model),
                       &model::findTask(first.task)};
    }
    for (ShapeKey &k : keys)
        k.pair = rankOf[k.pair];
    return pairs;
}

/**
 * Stable LSD radix sort of @p keys on (promptLen, decodeLen, pair):
 * byte digits, least significant field first, each field taking only
 * as many passes as its largest value has bytes.
 */
void
radixSort(std::vector<ShapeKey> &keys)
{
    std::vector<ShapeKey> out(keys.size());
    for (std::size_t ShapeKey::*field :
         {&ShapeKey::pair, &ShapeKey::decodeLen, &ShapeKey::promptLen}) {
        std::size_t largest = 0;
        for (const ShapeKey &k : keys)
            largest = std::max(largest, k.*field);
        for (unsigned shift = 0;
             shift < std::numeric_limits<std::size_t>::digits &&
             (largest >> shift) != 0;
             shift += 8) {
            const auto digit = [&](const ShapeKey &k) {
                return (k.*field >> shift) & 0xff;
            };
            std::array<std::size_t, 257> next{};
            for (const ShapeKey &k : keys)
                ++next[digit(k) + 1];
            std::partial_sum(next.begin(), next.end(), next.begin());
            for (const ShapeKey &k : keys)
                out[next[digit(k)]++] = k;
            keys.swap(out);
        }
    }
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
      planCache_(std::make_shared<accel::PlanCache>())
{
    // Retry knobs are simulated seconds: a negative backoff would
    // re-dispatch work into the past.
    for (const auto &[value, field] :
         {std::pair{opts_.retry.backoffBaseSeconds, "backoffBaseSeconds"},
          {opts_.retry.backoffCapSeconds, "backoffCapSeconds"},
          {opts_.retry.deadlineSeconds, "deadlineSeconds"}})
        if (!std::isfinite(value) || value < 0.0)
            fatal(std::string("retry.") + field + " is " +
                  std::to_string(value) +
                  "; it must be finite and >= 0 seconds");
    // Both topologies' cycles land on one timeline, so a twin at
    // another clock is rejected here, before any costing or run.
    if (opts_.degradedAccel != nullptr) {
        const double primary = accel.capabilities().clockGhz;
        const double degraded = opts_.degradedAccel->capabilities().clockGhz;
        if (degraded != primary) {
            std::ostringstream msg;
            msg << "degraded accelerator " << opts_.degradedAccel->name()
                << " runs at " << degraded << " GHz, but the primary "
                << accel.name() << " runs at " << primary
                << " GHz; the degraded accelerator must run at the "
                   "primary's clock (cycle timelines merge)";
            fatal(msg.str());
        }
    }
    for (std::size_t t = 0; t < kTopologies; ++t)
        if (accels_[t] != nullptr)
            identities_[t] =
                accels_[t]->name() + "\n" + accels_[t]->configSummary();
    // Every other bound is checked now too, before any costing, by the
    // code that owns it: the scheduler (sjfAgingWeight), the KV ledger
    // (kvBlockTokens, kvLowWatermark) and the event core (maxBatch).
    const std::unique_ptr<Scheduler> scheduler =
        makeScheduler(opts_.policy, opts_.sjfAgingWeight);
    (void)KvBlockManager(kvOptions());
    (void)EventCore(*scheduler, opts_.maxBatch, kvOptions(), repricer(kHealthy),
                    StepMode::Coalesced);
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
    // Only a run with faults can fail over onto the degraded topology.
    return opts_.faults.enabled() && opts_.degradedAccel != nullptr
               ? kTopologies
               : 1;
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
    // ---- One radix sort dedupes the trace into its distinct shapes -----
    std::vector<ShapeKey> keys;
    const std::vector<ModelTask> pairs = shapeKeys(trace, keys);
    radixSort(keys);
    std::vector<const ShapeKey *> firsts; // One key per shape.
    firsts.reserve(keys.size());
    shapeOf.resize(trace.size());
    for (const ShapeKey &k : keys) {
        if (firsts.empty() || firsts.back()->shape() != k.shape())
            firsts.push_back(&k);
        shapeOf[k.request] = firsts.size() - 1;
    }

    // ---- Warm the profile caches on all cores ---------------------------
    // Without this, a cold cache would profile its first-touch keys on
    // whichever pricing thread hits them first. Announcing the needs
    // up front lets the cache fan the distinct keys out over the
    // thread pool. decodeLen never enters a profile key, so one
    // announcement per (model, task, promptLen) covers every shape,
    // and announce() keeps one request per profile key; a key missed
    // here is still filled inside run(), so results never depend on
    // this step.
    const std::size_t priced = topologies();
    std::array<std::size_t, kTopologies> stages{};
    for (std::size_t t = 0; t < priced; ++t) {
        const Accelerator &device = *accels_[t];
        if (const std::shared_ptr<accel::ProfileCache> cache =
                device.profileCache()) {
            std::vector<accel::ProfileRequest> requests;
            // Shapes sort by promptLen first, so skipping a shape with
            // the previous one's (promptLen, pair) skips most repeats
            // before a Workload is built.
            const ShapeKey *last = nullptr;
            for (const ShapeKey *k : firsts) {
                if (last != nullptr && last->promptLen == k->promptLen &&
                    last->pair == k->pair)
                    continue;
                last = k;
                const ModelTask &mt = pairs[k->pair];
                device.profileRequests(
                    *mt.config,
                    model::singleRequest(*mt.task, k->promptLen,
                                         k->decodeLen),
                    requests);
            }
            cache->warm(requests, opts_.profileThreads);
        }
        // Pipeline stage count for the decode iteration's stage-aware
        // overlap (one accelerator per topology serves the whole trace).
        stages[t] =
            std::max<std::size_t>(1, device.capabilities().pipelineStages);
    }

    // ---- Price each shape on the healthy topology -----------------------
    // Each costing thread prices one contiguous chunk of the sorted
    // shapes, one plan() per shape with no key string, through the
    // chunk's own phase memo: most shapes share their prefill with a
    // neighbour of the same promptLen and their decode step with every
    // shape of the same 2*promptLen + decodeLen, so a chunk evaluates
    // each once. Memo entries are exact and each table slot is written
    // by exactly one chunk, so the table is bit-identical at every
    // thread count. Each memo is freed with its chunk.
    auto table = std::make_shared<ShapeTable>();
    table->shapes.resize(firsts.size());
    const std::size_t chunks = std::min(
        firsts.size(), opts_.costingThreads == 0 ? parallel::hardwareThreads()
                                                 : opts_.costingThreads);
    std::vector<std::size_t> evaluations(chunks);
    parallel::parallelFor(
        chunks,
        [&](std::size_t chunk) {
            accel::PhaseMemo memo;
            const std::size_t end = firsts.size() * (chunk + 1) / chunks;
            for (std::size_t s = firsts.size() * chunk / chunks; s < end;
                 ++s) {
                const ShapeKey &key = *firsts[s];
                PricedShape &shape = table->shapes[s];
                shape.config = pairs[key.pair].config;
                shape.task = pairs[key.pair].task;
                const accel::RunMetrics rm =
                    accels_[kHealthy]
                        ->plan(*shape.config,
                               model::singleRequest(*shape.task,
                                                    key.promptLen,
                                                    key.decodeLen),
                               &memo)
                        .fold();
                shape.seconds = rm.seconds();
                shape.joules = rm.joules();
                shape.clockGhz = rm.clockGhz;
                shape.rates = ratesOf(rm, key.decodeLen, stages[kHealthy]);
            }
            evaluations[chunk] = memo.evaluations();
        },
        opts_.costingThreads);
    table->phaseEvaluations =
        std::accumulate(evaluations.begin(), evaluations.end(),
                        std::size_t{0});

    // ---- Degraded prices, on first read ---------------------------------
    // Only the shapes a run reads in degraded mode (or queues in a
    // degraded prefill order) are ever priced there. The profiles were
    // announced above, so a lazy price never profiles mid-run. Both
    // topologies split their streams through the same ratesOf(), so
    // degraded decode windows compose the same way healthy ones do.
    if (priced == kTopologies)
        table->degraded = std::make_unique<const LazyRates>(
            table->shapes,
            [device = accels_[kDegraded],
             stages = stages[kDegraded]](const CostedRequest &c) {
                const model::Request &r = *c.req;
                return ratesOf(device->run(*c.shape->config,
                                           model::singleRequest(
                                               *c.shape->task, r.promptLen,
                                               r.decodeLen)),
                               r.decodeLen, stages);
            });
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
    // The per-request deadline binds only through the fault layer.
    const double deadline_seconds =
        opts_.faults.enabled() ? opts_.retry.deadlineSeconds : 0.0;

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
        c.recomputeShape =
            model::singleRequest(*shape.task, req.promptLen, 0);
        c.shape = &shape;
        c.arrivalCycles = req.arrivalSeconds * shape.clockGhz * 1e9;
        const double deadline = deadline_seconds * (shape.clockGhz * 1e9);
        if (deadline > 0.0)
            c.deadlineCycles = c.arrivalCycles + deadline;
        // Largest-residency footprint, quantized by the KV policy:
        // exact (prompt + decode) bytes under reserve, whole blocks
        // under paged, 0 when no token is ever generated.
        c.kvBytesPerToken =
            static_cast<double>(shape.config->kvBytesPerToken());
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
                        std::vector<sim::FaultEvent> timeline,
                        Positions *positions) const
{
    fatalIf(!opts_.faults.enabled() && !timeline.empty(),
            "a fault timeline needs ServingOptions::faults enabled");
    if (positions != nullptr)
        *positions = {};
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
    // Converted once now that costing pinned the clock. Without faults
    // the timeline is empty and there is no degraded twin, so the
    // event core's fault steps find nothing to do.
    FaultInputs faults;
    const double to_cycles = costed.clockGhz * 1e9;
    faults.timeline = std::move(timeline);
    for (sim::FaultEvent &e : faults.timeline) {
        e.at *= to_cycles;
        e.repairAt *= to_cycles;
    }
    faults.maxRetries = opts_.retry.maxRetries;
    faults.backoffBaseCycles = opts_.retry.backoffBaseSeconds * to_cycles;
    faults.backoffCapCycles = opts_.retry.backoffCapSeconds * to_cycles;
    // costTrace() builds the lazy degraded prices exactly when this
    // simulator has faults on and a degraded accelerator.
    faults.degraded = costed.table->degraded.get();
    fatalIf((topologies() == kTopologies) != (faults.degraded != nullptr),
            "serve() needs a trace costed by a simulator with the same "
            "faults and degraded accelerator");

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
    report.dropOrder.reserve(stats.dropped.size());
    for (const CostedRequest *c : stats.dropped)
        report.dropOrder.push_back(c->req->id);
    report.faultLog = std::move(stats.faultLog);
    if (positions != nullptr) {
        const CostedRequest *first = costed.costs.data();
        positions->completed.reserve(stats.completed.size());
        for (const CostedRequest *c : stats.completed)
            positions->completed.push_back(
                static_cast<std::size_t>(c - first));
        positions->dropped.reserve(stats.dropped.size());
        for (const CostedRequest *c : stats.dropped)
            positions->dropped.push_back(static_cast<std::size_t>(c - first));
    }
    for (FaultImpact &f : report.faultLog)
        f.at *= to_seconds;

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
    // Selection, not a sort: each series is partitioned around just
    // the order statistics its three quantiles interpolate.
    static constexpr std::array<double, 3> kQuantiles{0.50, 0.90, 0.99};
    std::array<double, 3> q{};
    selectPercentiles(latencies, kQuantiles, q);
    report.p50LatencySeconds = q[0];
    report.p90LatencySeconds = q[1];
    report.p99LatencySeconds = q[2];
    selectPercentiles(queue_waits, kQuantiles, q);
    report.p50QueueSeconds = q[0];
    report.p90QueueSeconds = q[1];
    report.p99QueueSeconds = q[2];
    selectPercentiles(first_tokens, kQuantiles, q);
    report.p50FirstTokenSeconds = q[0];
    report.p90FirstTokenSeconds = q[1];
    report.p99FirstTokenSeconds = q[2];
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
