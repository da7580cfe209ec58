#include "traced.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "accel/plan_cache.hpp"
#include "accel/profile_cache.hpp"
#include "engine/event_core.hpp"
#include "engine/fleet.hpp"
#include "engine/kv_block_manager.hpp"
#include "engine/scheduler.hpp"
#include "tracer.hpp"

using namespace mcbp;

namespace perfbench {

namespace {

/** FNV-1a over the raw bytes of each value fed to it. */
class Hasher
{
  public:
    template <typename T> void add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (const unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(const std::vector<std::size_t> &ids)
    {
        add(ids.size());
        for (const std::size_t id : ids)
            add(id);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * simulate()'s aggregation step over a staged event-core run: the
 * completed requests in completion order, the run totals, then
 * finalizeServingAggregates(). Fault-free runs only.
 */
engine::ServingReport
aggregate(engine::EventStats &stats,
          const engine::ServingSimulator::CostedTrace &costed,
          std::size_t traceSize)
{
    engine::ServingReport report;
    report.serialSeconds = costed.serialSeconds;
    report.serialJoules = costed.serialJoules;
    const double to_seconds = 1.0 / (costed.clockGhz * 1e9);
    report.requests.reserve(stats.completed.size());
    for (const engine::CostedRequest *c : stats.completed) {
        engine::RequestMetrics m;
        m.id = c->req->id;
        m.arrivalSeconds = c->req->arrivalSeconds;
        m.admissionSeconds = c->admissionCycles * to_seconds;
        m.firstTokenSeconds =
            (c->firstTokenSeen ? c->firstTokenCycles : c->completionCycles) *
            to_seconds;
        m.completionSeconds = c->completionCycles * to_seconds;
        m.decodeTokens = c->req->decodeLen;
        m.kvBytes = c->kvBytes;
        m.preemptions = c->preemptions;
        m.recomputedTokens = c->recomputedTokens;
        m.joules = c->joules;
        report.requests.push_back(m);
    }
    report.makespanSeconds = stats.clockCycles * to_seconds;
    report.busySeconds = stats.busyCycles * to_seconds;
    report.peakBatch = stats.peakBatch;
    report.kvPeakBytes = stats.kvPeakBytes;
    report.preemptions = stats.preemptions;
    report.recomputedTokens = stats.recomputedTokens;
    report.kvBlockUtilization =
        ratio(stats.kvBlockUtilizationSum,
              static_cast<double>(stats.kvBlockUtilizationIters));
    report.decodeIterations = stats.iterations;
    report.decodeWindows = stats.decodeWindows;
    report.admissionOrder = std::move(stats.admissionOrder);
    report.preemptionOrder = std::move(stats.preemptionOrder);
    report.droppedRequests = stats.droppedRequests;
    engine::finalizeServingAggregates(report, traceSize);
    return report;
}

} // namespace

std::uint64_t
fingerprint(const engine::ServingReport &r)
{
    Hasher h;
    for (const double v :
         {r.makespanSeconds, r.busySeconds, r.serialSeconds,
          r.p50FirstTokenSeconds, r.p99FirstTokenSeconds, r.meanTpotSeconds,
          r.tokensPerSecond, r.goodputTokensPerSecond, r.joulesPerToken,
          r.kvPeakBytes, r.kvBlockUtilization, r.degradedSeconds})
        h.add(v);
    for (const std::size_t v :
         {r.preemptions, r.recomputedTokens, r.decodeIterations,
          r.decodeWindows, r.droppedRequests, r.faultEvents,
          r.killedInFlight, r.retriesScheduled})
        h.add(v);
    h.add(r.admissionOrder);
    h.add(r.preemptionOrder);
    h.add(r.retryOrder);
    h.add(r.dropOrder);
    h.add(r.requests.size());
    for (const engine::RequestMetrics &m : r.requests) {
        h.add(m.id);
        h.add(m.firstTokenSeconds);
        h.add(m.completionSeconds);
        h.add(m.joules);
    }
    return h.value();
}

TracedRun
runTraced(const Workload &w, const engine::ServingReport &untraced,
          Tracer &tr)
{
    TracedRun out;
    auto metric = [&](std::string name, double value, std::string unit) {
        out.metrics.push_back({std::move(name), value, std::move(unit)});
    };

    Setup s;
    engine::ServingReport staged;
    engine::FleetOutcome fleet_out;
    std::size_t repricer_calls = 0;
    std::size_t plan_entries = 0;
    std::size_t plan_computes = 0;
    std::size_t plan_lookups = 0;
    bool warm_matches = true;
    {
        Scope run(&tr, "run");
        runSetup(w, s, &tr);
        const std::size_t n = s.trace.size();
        const auto *fleet =
            dynamic_cast<const engine::FleetAccelerator *>(s.accel.get());
        if (fleet == nullptr && s.opts.faults.enabled())
            throw std::logic_error(
                "perfbench: staged runs of a single engine are fault-free");

        engine::ServingSimulator sim(*s.accel, s.opts);
        engine::ServingSimulator::CostedTrace costed;
        auto cost_cold = [&] {
            Scope span(&tr, "engine.serving.cost");
            costed = sim.costTrace(s.trace);
            plan_entries = sim.planCache()->size();
            plan_computes = sim.planCache()->computeCalls();
            // One lookup per request, plus one per request on the
            // degraded twin when faults can put the fleet there.
            plan_lookups = n * (s.opts.faults.enabled() && s.degraded ? 2 : 1);
        };

        if (fleet != nullptr) {
            // The fleet re-costs per replica inside simulate(), so the
            // standalone costing spans sit outside the simulate span.
            cost_cold();
            {
                Scope simulate(&tr, "simulate");
                Scope span(&tr, "engine.fleet.simulate");
                fleet_out =
                    engine::FleetRouter(*fleet, s.opts).simulate(s.trace);
                staged = fleet_out.fleet;
            }
            // The fleet merge ends in finalizeServingAggregates(); re-run
            // it on a copy, which must change nothing.
            engine::ServingReport again = staged;
            {
                Scope span(&tr, "engine.serving.aggregate");
                engine::finalizeServingAggregates(again, n);
            }
            if (fingerprint(again) != fingerprint(staged))
                out.mismatch = "re-finalized fleet report differs";
        } else {
            Scope simulate(&tr, "simulate");
            cost_cold();
            const std::unique_ptr<engine::Scheduler> scheduler =
                engine::makeScheduler(s.opts.policy, s.opts.sjfAgingWeight);
            engine::KvOptions kv;
            kv.policy = s.opts.kvPolicy;
            kv.capacityBytes = s.opts.kvCapacityBytes;
            kv.blockTokens = s.opts.kvBlockTokens;
            kv.lowWatermark = s.opts.kvLowWatermark;
            // The recompute re-pricer simulate() installs under paged
            // KV: the prefill over prompt + generated tokens, priced
            // through the simulator's plan cache.
            engine::PrefillPricer repricer;
            if (s.opts.kvPolicy == engine::KvPolicy::Paged) {
                const std::string identity =
                    s.accel->name() + "\n" + s.accel->configSummary();
                repricer = [&, identity](const engine::CostedRequest &c,
                                         std::size_t tokens) {
                    Scope span(&tr, "engine.event_core.repricer");
                    ++repricer_calls;
                    model::Workload shape = c.recomputeShape;
                    shape.promptLen = tokens;
                    const accel::RunMetrics &rm = sim.planCache()->metrics(
                        identity, *c.model, shape,
                        [&] { return s.accel->run(*c.model, shape); });
                    engine::PrefillPrice price;
                    price.cycles = rm.prefill.cycles;
                    price.joules = rm.prefill.energy.totalPj() * 1e-12 *
                                   static_cast<double>(rm.processors);
                    return price;
                };
            }
            const engine::EventCore core(*scheduler, s.opts.maxBatch, kv,
                                         std::move(repricer),
                                         s.opts.stepMode);
            engine::EventStats stats;
            {
                Scope span(&tr, "engine.event_core.run");
                stats = core.run(costed.costs);
            }
            Scope span(&tr, "engine.serving.aggregate");
            staged = aggregate(stats, costed, n);
        }

        // Warm costing hits the plan cache on every lookup: it computes
        // nothing new and prices the trace exactly as cold costing did.
        const double serial_cold = costed.serialSeconds;
        const std::uint64_t computes_before = sim.planCache()->computeCalls();
        {
            Scope span(&tr, "engine.serving.cost_warm");
            costed = sim.costTrace(s.trace);
        }
        warm_matches = costed.serialSeconds == serial_cold &&
                       sim.planCache()->computeCalls() == computes_before;
    }

    if (out.mismatch.empty()) {
        if (staged.makespanSeconds != untraced.makespanSeconds)
            out.mismatch = "staged makespan differs from simulate()";
        else if (staged.admissionOrder != untraced.admissionOrder)
            out.mismatch = "staged admission order differs from simulate()";
        else if (fingerprint(staged) != fingerprint(untraced))
            out.mismatch = "staged report differs from simulate()";
        else if (!warm_matches)
            out.mismatch = "warm costing differs from cold costing";
    }
    out.tracedSeconds = tr.seconds("setup") + tr.seconds("simulate");

    const bool is_fleet = !fleet_out.replicas.empty();
    const std::shared_ptr<accel::ProfileCache> profiles =
        s.registry->profileCache();
    metric("model.synthesize_s", tr.seconds("model.synthesize"), "s");
    metric("engine.registry.make_s", tr.seconds("engine.registry.make"), "s");
    metric("accel.profile.warm_s", tr.seconds("accel.profile.warm"), "s");
    metric("accel.profile.calls",
           static_cast<double>(profiles->profileCalls()), "count");
    metric("accel.profile.entries", static_cast<double>(profiles->size()),
           "count");
    metric("engine.serving.cost_s", tr.seconds("engine.serving.cost"), "s");
    metric("engine.serving.cost_warm_s",
           tr.seconds("engine.serving.cost_warm"), "s");
    metric("accel.plan_cache.entries", static_cast<double>(plan_entries),
           "count");
    metric("accel.plan_cache.compute_calls",
           static_cast<double>(plan_computes), "count");
    metric("accel.plan_cache.lookups", static_cast<double>(plan_lookups),
           "count");
    metric("accel.plan_cache.hit_ratio",
           ratio(static_cast<double>(plan_lookups - plan_computes),
                 static_cast<double>(plan_lookups)),
           "ratio");
    metric("engine.event_core.run_s", tr.seconds("engine.event_core.run"),
           "s");
    metric("engine.event_core.admissions",
           static_cast<double>(staged.admissionOrder.size()), "count");
    metric("engine.event_core.decode_iterations",
           static_cast<double>(staged.decodeIterations), "count");
    metric("engine.event_core.decode_windows",
           static_cast<double>(staged.decodeWindows), "count");
    metric("engine.event_core.coalescing",
           ratio(static_cast<double>(staged.decodeIterations),
                 static_cast<double>(staged.decodeWindows)),
           "ratio");
    metric("engine.event_core.repricer_calls",
           static_cast<double>(repricer_calls), "count");
    metric("engine.event_core.repricer_s",
           tr.seconds("engine.event_core.repricer"), "s");
    metric("engine.kv.preemptions", static_cast<double>(staged.preemptions),
           "count");
    metric("engine.kv.recomputed_tokens",
           static_cast<double>(staged.recomputedTokens), "count");
    metric("engine.kv.peak_bytes", staged.kvPeakBytes, "B");
    metric("engine.kv.block_utilization", staged.kvBlockUtilization,
           "ratio");
    metric("engine.serving.aggregate_s",
           tr.seconds("engine.serving.aggregate"), "s");
    metric("engine.fleet.simulate_s", tr.seconds("engine.fleet.simulate"),
           "s");
    metric("engine.fleet.reroutes", static_cast<double>(fleet_out.reroutes),
           "count");
    double imbalance = 0.0;
    if (is_fleet) {
        double most = 0.0;
        double total = 0.0;
        for (const engine::ServingReport &r : fleet_out.replicas) {
            const double done = static_cast<double>(r.requests.size());
            most = std::max(most, done);
            total += done;
        }
        imbalance = ratio(
            most, total / static_cast<double>(fleet_out.replicas.size()));
    }
    metric("engine.fleet.imbalance", imbalance, "ratio");
    metric("sim.fault.events", static_cast<double>(staged.faultEvents),
           "count");
    metric("engine.fault.killed", static_cast<double>(staged.killedInFlight),
           "count");
    metric("engine.fault.retries",
           static_cast<double>(staged.retriesScheduled), "count");
    metric("engine.fault.dropped",
           static_cast<double>(staged.droppedRequests), "count");
    metric("engine.fault.degraded_s", staged.degradedSeconds, "s");
    return out;
}

} // namespace perfbench
