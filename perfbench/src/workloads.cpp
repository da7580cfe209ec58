#include "workloads.hpp"

#include <set>
#include <tuple>

#include "accel/profile_cache.hpp"
#include "common/logging.hpp"
#include "engine/health.hpp"
#include "model/llm_config.hpp"
#include "tracer.hpp"

using namespace mcbp;

namespace perfbench {

namespace {

/** Feed the accelerator's profile needs over the trace's distinct
 *  shapes to its cache, the warm-up costTrace() would otherwise do. */
void
warmProfiles(const engine::Accelerator &accel,
             const std::vector<model::Request> &trace, std::size_t threads)
{
    const std::shared_ptr<accel::ProfileCache> cache = accel.profileCache();
    if (!cache)
        return;
    std::vector<accel::ProfileRequest> needs;
    std::set<std::tuple<std::string, std::string, std::size_t, std::size_t>>
        shapes;
    for (const model::Request &r : trace)
        if (shapes.insert({r.model, r.task, r.promptLen, r.decodeLen}).second)
            accel.profileRequests(model::findModel(r.model), r.workload(),
                                  needs);
    cache->warm(needs, threads);
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             std::size_t requests, std::size_t threads)
{
    Workload w;
    w.name = name;
    w.trace.model = "Llama7B";
    w.trace.lengthJitter = 0.5;
    w.trace.seed = seed;
    w.opts.maxBatch = 64;
    w.opts.profileThreads = threads;
    w.opts.costingThreads = threads;
    if (name == "steady") {
        // Below capacity with jittered lengths: nearly every request
        // shape is distinct, so host time is almost all cold costing.
        w.spec = "mcbp:procs=148";
        w.trace.task = "Dolly";
        w.trace.requests = 100000;
        w.trace.arrivalsPerSecond = 10.0;
    } else if (name == "burst") {
        // The whole trace waits at t = 0 under a paged pool about a
        // quarter of the unbounded paged peak: host time is the event
        // loop's admission, block accounting and preemption re-pricing.
        w.spec = "mcbp";
        w.trace.task = "MBPP";
        w.trace.requests = 4000;
        w.trace.arrivalsPerSecond = 0.0;
        w.opts.policy = engine::SchedulerPolicy::ShortestPromptFirst;
        w.opts.kvPolicy = engine::KvPolicy::Paged;
        w.opts.kvCapacityBytes = 6e9;
    } else if (name == "pod_faults") {
        // The only workload through the replica fleet, the fault and
        // retry path, and degraded-twin pricing. KV stays unbounded
        // reserve, so a fleet budget can never split below a request.
        // A per-chip MTBF of 200 s keeps kills near 0.1% of requests:
        // at 20 s the fleet sits on a fault-driven overload cliff and
        // the modeled TTFT tail and TPOT vary ~40% from seed to seed.
        w.spec = "mcbp:procs=148,dp=4,pp=2,tp=2";
        w.degradedTwin = true;
        w.trace.task = "Dolly";
        w.trace.requests = 60000;
        w.trace.arrivalsPerSecond = 40.0;
        w.opts.faults.seed = seed;
        w.opts.faults.mtbfSeconds = 200.0;
        w.opts.faults.linkDegradeRate = 0.5;
        w.opts.faults.stragglerRate = 0.5;
        w.opts.retry.maxRetries = 5;
        w.opts.retry.deadlineSeconds = 30.0;
    } else {
        fatal("unknown workload '" + name +
              "' (accepted: steady, burst, pod_faults)");
    }
    if (requests > 0)
        w.trace.requests = requests;
    return w;
}

void
runSetup(const Workload &w, Setup &out, Tracer *tracer)
{
    Scope setup(tracer, "setup");
    {
        Scope span(tracer, "model.synthesize");
        out.trace = model::synthesizeTrace(w.trace);
    }
    out.opts = w.opts;
    if (out.opts.faults.enabled())
        // Faults are sampled over the arrival window of this trace.
        out.opts.faults.horizonSeconds = out.trace.back().arrivalSeconds;
    {
        Scope span(tracer, "engine.registry.make");
        out.registry = std::make_unique<engine::Registry>();
        out.accel = out.registry->make(w.spec);
        out.degraded = w.degradedTwin
                           ? out.registry->make(engine::degradedSpec(w.spec))
                           : nullptr;
        out.opts.degradedAccel = out.degraded.get();
    }
    {
        Scope span(tracer, "accel.profile.warm");
        warmProfiles(*out.accel, out.trace, w.opts.profileThreads);
        if (out.degraded)
            warmProfiles(*out.degraded, out.trace, w.opts.profileThreads);
    }
}

} // namespace perfbench
