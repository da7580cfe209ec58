#include "engine/fleet.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "sim/fault_model.hpp"

namespace mcbp::engine {

std::string
toString(ReplicaPolicy policy)
{
    switch (policy) {
    case ReplicaPolicy::LeastLoaded:
        return "least-loaded";
    case ReplicaPolicy::RoundRobin:
        return "round-robin";
    }
    panic("unknown replica policy");
}

ReplicaPolicy
replicaPolicyFromString(const std::string &name)
{
    if (name == "least" || name == "least-loaded")
        return ReplicaPolicy::LeastLoaded;
    if (name == "rr" || name == "round-robin")
        return ReplicaPolicy::RoundRobin;
    fatal("unknown replica policy '" + name +
          "' (accepted: least, least-loaded, rr, round-robin)");
}

// ---- FleetAccelerator ------------------------------------------------------

FleetAccelerator::FleetAccelerator(std::unique_ptr<Accelerator> replica,
                                   FleetOptions opts)
    : replica_(std::move(replica)), opts_(opts)
{
    fatalIf(!replica_, "fleet needs a replica accelerator");
    fatalIf(opts_.dataParallel == 0,
            "data-parallel degree must be >= 1");
    fatalIf(dynamic_cast<const FleetAccelerator *>(replica_.get()) !=
                nullptr,
            "nested fleet composition is not modeled; use a single "
            "dp= degree");
    name_ = opts_.dataParallel == 1
                ? replica_->name()
                : replica_->name() + "[dp" +
                      std::to_string(opts_.dataParallel) + "]";
}

Capabilities
FleetAccelerator::capabilities() const
{
    Capabilities c = replica_->capabilities();
    c.processors *= opts_.dataParallel;
    c.hbmCapacityBytes *= static_cast<double>(opts_.dataParallel);
    // Fault domains span the whole fleet: the dp= axis multiplies the
    // shard count exactly like tp= and pp= do, so one fault timeline
    // over kvShards domains covers every replica's chips.
    c.kvShards *= opts_.dataParallel;
    c.replicas *= opts_.dataParallel;
    return c;
}

std::string
FleetAccelerator::configSummary() const
{
    if (opts_.dataParallel == 1) // identity: no fleet exists.
        return replica_->configSummary();
    std::ostringstream os;
    os << name() << ": " << opts_.dataParallel
       << "-way data-parallel replica fleet, " << toString(opts_.policy)
       << " routing (each request served by exactly one replica)\n"
       << replica_->configSummary();
    return os.str();
}

// ---- FleetRouter -----------------------------------------------------------

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/** Put a replica's sub-trace in arrival order, ties by id, the order
 *  route() walks the trace in (a sorted trace splits into sorted
 *  sub-traces, so the sort is mostly skipped). */
void
sortByArrival(FleetRouter::SubTrace &sub)
{
    auto before = [](const FleetRouter::Routed &a,
                     const FleetRouter::Routed &b) {
        return std::pair(a.req->arrivalSeconds, a.req->id) <
               std::pair(b.req->arrivalSeconds, b.req->id);
    };
    if (!std::is_sorted(sub.begin(), sub.end(), before))
        std::stable_sort(sub.begin(), sub.end(), before);
}

/**
 * Slice one fleet fault timeline into per-replica timelines, each in
 * fleet order. Chip events land on the owning replica, rebased to its
 * local fault domains; fleet-wide link/straggler windows reach every
 * replica. Ids are re-stamped per replica, as timeline positions.
 */
std::vector<std::vector<sim::FaultEvent>>
sliceFaults(const std::vector<sim::FaultEvent> &timeline, std::size_t dp,
            std::size_t perReplicaChips)
{
    std::vector<std::vector<sim::FaultEvent>> slices(dp);
    for (const sim::FaultEvent &e : timeline) {
        if (e.kind == sim::FaultKind::ChipFail ||
            e.kind == sim::FaultKind::ChipRepair) {
            sim::FaultEvent &local =
                slices[e.chip / perReplicaChips].emplace_back(e);
            local.chip = e.chip % perReplicaChips;
        } else {
            for (std::vector<sim::FaultEvent> &slice : slices)
                slice.push_back(e);
        }
    }
    for (std::vector<sim::FaultEvent> &slice : slices)
        for (std::size_t i = 0; i < slice.size(); ++i)
            slice[i].id = i;
    return slices;
}

/**
 * When each replica goes irrecoverably dead, mirroring the event
 * core's semantics: a permanent chip failure kills the replica
 * outright without a degraded topology, and the SECOND permanent
 * failure kills it when one is configured (the first merely degrades).
 */
std::vector<double>
replicaDeathTimes(const std::vector<sim::FaultEvent> &timeline,
                  std::size_t dp, std::size_t perReplicaChips,
                  bool hasDegraded)
{
    std::vector<double> deadAt(dp, kNever);
    std::vector<std::size_t> permanents(dp, 0);
    for (const sim::FaultEvent &e : timeline) {
        if (e.kind != sim::FaultKind::ChipFail || !e.permanent)
            continue;
        const std::size_t r = e.chip / perReplicaChips;
        ++permanents[r];
        if (deadAt[r] == kNever &&
            (!hasDegraded || permanents[r] >= 2))
            deadAt[r] = e.at;
    }
    return deadAt;
}

/**
 * The one replica-pick rule of routing and failover: the first replica
 * alive at @p t, scanning cyclically from index @p s; deadAt.size()
 * when every replica is dead by then.
 */
std::size_t
firstAlive(const std::vector<double> &deadAt, std::size_t s, double t)
{
    const std::size_t dp = deadAt.size();
    for (std::size_t k = 0; k < dp; ++k)
        if (deadAt[(s + k) % dp] > t)
            return (s + k) % dp;
    return dp;
}

ServingOptions
replicaOptions(const FleetAccelerator &fleet, ServingOptions opts)
{
    // Replicas are symmetric, so the fleet-wide KV budget splits
    // evenly; the degraded fleet unwraps to its replica. The fault spec
    // stays the fleet's, so the fault layer (retries, deadlines) is on
    // in every replica run.
    if (const auto *degFleet =
            dynamic_cast<const FleetAccelerator *>(opts.degradedAccel))
        opts.degradedAccel = &degFleet->replica();
    if (!kvUnbounded(opts.kvCapacityBytes))
        opts.kvCapacityBytes /=
            static_cast<double>(fleet.options().dataParallel);
    return opts;
}

} // namespace

FleetRouter::FleetRouter(const FleetAccelerator &fleet,
                         ServingOptions opts)
    : fleet_(&fleet), opts_(std::move(opts)),
      replicaOpts_(replicaOptions(fleet, opts_)),
      server_(fleet.replica(), replicaOpts_),
      chips_(std::max<std::size_t>(1, fleet.replica().capabilities().kvShards))
{
}

FleetOutcome
FleetRouter::simulate(const std::vector<model::Request> &trace) const
{
    const std::size_t dp = fleet_->options().dataParallel;
    FleetOutcome out;
    if (dp == 1 || trace.empty()) {
        // Identity at dp=1: one replica serves the whole trace —
        // bit-identical to the flat (non-fleet) path by construction.
        // An empty trace gives every replica the zeroed report.
        out.replicas.assign(dp, server_.simulate(trace));
        out.fleet = out.replicas[0];
        out.fleet.accelerator = fleet_->name();
        out.assignment.assign(trace.size(), 0);
        return out;
    }

    // Failover and the merge track requests by id across replicas, so
    // a repeated id would conflate two requests (a phantom drop).
    Dispatch run;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto [it, fresh] = run.indexById.emplace(trace[i].id, i);
        if (!fresh)
            fatal("request id " + std::to_string(trace[i].id) +
                  " repeats at trace positions " +
                  std::to_string(it->second) + " and " +
                  std::to_string(i) + "; a dp=" + std::to_string(dp) +
                  " fleet tracks requests by id, so ids must be unique");
    }

    // One costing of the full trace prices every distinct shape once,
    // on the replica and (when faults can degrade it) its degraded
    // replica. Every stage reads it: routing estimates, copies for each
    // replica run and failover re-run, and the fleet serial baseline,
    // which counts each request once however often it is rerouted.
    const CostedTrace costed = server_.costTrace(trace);

    std::vector<sim::FaultEvent> timeline;
    if (opts_.faults.enabled())
        timeline = sim::buildFaultTimeline(opts_.faults, chips_ * dp);
    run.timelines = sliceFaults(timeline, dp, chips_);
    run.deadAt = replicaDeathTimes(timeline, dp, chips_,
                                   replicaOpts_.degradedAccel != nullptr);

    run.assignment = route(costed, run.deadAt);
    run.subTraces.resize(dp);
    for (std::size_t i = 0; i < trace.size(); ++i)
        run.subTraces[run.assignment[i]].push_back({i, &trace[i]});
    for (SubTrace &sub : run.subTraces)
        sortByArrival(sub);
    std::vector<std::size_t> all(dp);
    std::iota(all.begin(), all.end(), 0);
    run.reports = serveReplicas(costed, run.subTraces, run.timelines, all);
    failover(costed, run);
    return merge(costed, std::move(run));
}

std::vector<std::size_t>
FleetRouter::route(const CostedTrace &costed,
                   const std::vector<double> &deadAt) const
{
    const std::vector<CostedRequest> &costs = costed.costs;
    const std::size_t dp = fleet_->options().dataParallel;
    fatalIf(deadAt.size() != dp, "route() needs one death time per replica");

    // One pass over the costed trace: arrival-order keys (arrival, id,
    // index), so the sort reads no costed request, and the largest KV
    // footprint.
    std::vector<std::tuple<double, std::size_t, std::size_t>> order;
    order.reserve(costs.size());
    double largest = 0.0;
    for (std::size_t i = 0; i < costs.size(); ++i) {
        order.emplace_back(costs[i].req->arrivalSeconds, costs[i].req->id, i);
        largest = std::max(largest, costs[i].kvBytes);
    }
    std::sort(order.begin(), order.end());

    // The fleet budget splits evenly across replicas, so a budget that
    // holds every request can still leave a replica too small for one.
    // Fail here, before any replica runs, instead of mid-simulation.
    const double share = replicaOpts_.kvCapacityBytes;
    if (!kvUnbounded(share) && largest > share) {
        std::ostringstream msg;
        msg << std::fixed << std::setprecision(0)
            << "fleet KV budget of " << opts_.kvCapacityBytes
            << " B splits over dp=" << dp << " replicas into a "
            << "per-replica share of " << share
            << " B, below the largest request KV footprint of " << largest
            << " B; raise kvCapacityBytes to at least "
            << largest * static_cast<double>(dp) << " B or lower dp";
        fatal(msg.str());
    }

    // Deterministic virtual-load balancer: outstanding KV bytes per
    // replica, retired at each request's estimated finish time.
    const double toSeconds = 1.0 / (costed.clockGhz * 1e9);
    std::vector<std::size_t> assign(costs.size(), 0);
    // (finish time, kv bytes) of virtually in-flight requests.
    std::vector<std::vector<std::pair<double, double>>> inflight(dp);
    std::vector<double> outstanding(dp, 0.0);
    std::size_t rrSeq = 0;
    for (const auto &[t, id, i] : order) {
        const CostedRequest &c = costs[i];
        std::size_t target = dp; // sentinel: none alive yet.
        if (fleet_->options().policy == ReplicaPolicy::RoundRobin) {
            target = firstAlive(deadAt, rrSeq++, t);
        } else {
            for (std::size_t r = 0; r < dp; ++r) {
                // Retire virtually finished work before comparing.
                auto &fl = inflight[r];
                for (std::size_t k = 0; k < fl.size();) {
                    if (fl[k].first <= t) {
                        outstanding[r] -= fl[k].second;
                        fl[k] = fl.back();
                        fl.pop_back();
                    } else {
                        ++k;
                    }
                }
                if (deadAt[r] > t &&
                    (target == dp || outstanding[r] < outstanding[target]))
                    target = r;
            }
        }
        if (target == dp) // every replica is dead: the last to die.
            target = static_cast<std::size_t>(
                std::max_element(deadAt.begin(), deadAt.end()) -
                deadAt.begin());
        // The request's KV retires at its healthy estimated finish.
        const Rates &r = c.shape->rates[kHealthy];
        const double perToken = r.weightCyclesPerToken +
                                r.linearCyclesPerToken +
                                r.otherCyclesPerToken + r.fixedCyclesPerToken;
        const double finish =
            t + (r.prefillCycles +
                 static_cast<double>(c.remainingTokens) * perToken) *
                    toSeconds;
        assign[i] = target;
        outstanding[target] += c.kvBytes;
        inflight[target].push_back({finish, c.kvBytes});
    }
    return assign;
}

std::vector<ServingReport>
FleetRouter::serveReplicas(
    const CostedTrace &costed, const std::vector<SubTrace> &subTraces,
    const std::vector<std::vector<sim::FaultEvent>> &timelines,
    const std::vector<std::size_t> &which) const
{
    // A replica serves copies of the fleet's pristine costed requests
    // in sub-trace order, its serial sums taken in that order.
    const double toCycles = costed.clockGhz * 1e9;
    return parallel::parallelMap<ServingReport>(
        which.size(), [&](std::size_t k) {
            const std::size_t r = which[k];
            CostedTrace slice;
            slice.clockGhz = costed.clockGhz;
            slice.table = costed.table;
            slice.costs.reserve(subTraces[r].size());
            for (const Routed &e : subTraces[r]) {
                CostedRequest &c =
                    slice.costs.emplace_back(costed.costs[e.index]);
                if (e.req != c.req && opts_.retry.deadlineSeconds > 0.0)
                    // A failover copy keeps its original deadline.
                    c.deadlineCycles = c.arrivalCycles +
                                       opts_.retry.deadlineSeconds * toCycles;
                c.req = e.req;
                c.arrivalCycles =
                    e.req->arrivalSeconds * c.shape->clockGhz * 1e9;
                slice.serialSeconds += c.shape->seconds;
                slice.serialJoules += c.shape->joules;
            }
            return server_.serve(std::move(slice), timelines[r]);
        });
}

void
FleetRouter::failover(const CostedTrace &costed, Dispatch &run) const
{
    const std::size_t dp = run.reports.size();
    run.reroutes.assign(costed.costs.size(), 0);
    std::vector<bool> settled(costed.costs.size(), false);
    for (bool changed = true; changed;) {
        std::vector<std::size_t> resim;
        for (std::size_t r = 0; r < dp; ++r) {
            if (run.deadAt[r] == kNever)
                continue; // healthy replicas drop for non-fault reasons.
            for (const std::size_t id : run.reports[r].dropOrder) {
                const std::size_t idx = run.indexById.at(id);
                if (run.assignment[idx] != r || settled[idx])
                    continue;
                const double t0 = costed.costs[idx].req->arrivalSeconds;
                const double tNew = std::max(t0, run.deadAt[r]) +
                                    opts_.retry.backoffBaseSeconds;
                // A reroute is a fleet-level retry: bounded by the
                // request's deadline and one visit per other replica.
                // Replica r is dead by tNew, so the scan passes it.
                const std::size_t target = firstAlive(run.deadAt, r + 1, tNew);
                const bool pastDeadline =
                    opts_.retry.deadlineSeconds > 0.0 &&
                    tNew > t0 + opts_.retry.deadlineSeconds;
                if (pastDeadline || run.reroutes[idx] >= dp - 1 ||
                    target == dp) {
                    settled[idx] = true;
                    continue;
                }
                model::Request &moved =
                    run.copies.emplace_back(*costed.costs[idx].req);
                moved.arrivalSeconds = tNew;
                run.subTraces[target].push_back({idx, &moved});
                run.assignment[idx] = target;
                ++run.reroutes[idx];
                run.rerouteOrder.push_back(id);
                resim.push_back(target);
            }
        }
        std::sort(resim.begin(), resim.end());
        resim.erase(std::unique(resim.begin(), resim.end()), resim.end());
        for (const std::size_t r : resim)
            sortByArrival(run.subTraces[r]);
        std::vector<ServingReport> fresh =
            serveReplicas(costed, run.subTraces, run.timelines, resim);
        for (std::size_t k = 0; k < resim.size(); ++k)
            run.reports[resim[k]] = std::move(fresh[k]);
        changed = !resim.empty();
    }
}

FleetOutcome
FleetRouter::merge(const CostedTrace &costed, Dispatch run) const
{
    const std::vector<ServingReport> &reports = run.reports;
    ServingReport merged;
    merged.accelerator = fleet_->name();
    merged.scheduler = reports[0].scheduler;
    merged.kvPolicy = reports[0].kvPolicy;
    merged.serialSeconds = costed.serialSeconds;
    merged.serialJoules = costed.serialJoules;
    auto append = [](std::vector<std::size_t> &to,
                     const std::vector<std::size_t> &from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    double occupancyWeighted = 0.0;
    double blockUtilWeighted = 0.0;
    for (std::size_t r = 0; r < reports.size(); ++r) {
        const ServingReport &rep = reports[r];
#define MCBP_MERGE_COUNTER(type, stat, member, key, rule, unit)               \
    counter::rule::merge(merged.member, rep.member);
        MCBP_SERVING_COUNTERS(MCBP_MERGE_COUNTER)
#undef MCBP_MERGE_COUNTER
        occupancyWeighted += rep.meanBatchOccupancy *
                             static_cast<double>(rep.decodeIterations);
        blockUtilWeighted += rep.kvBlockUtilization *
                             static_cast<double>(rep.decodeIterations);

        // Decision logs concatenate in replica order: each replica's
        // per-token and coalesced runs produce identical sequences, so
        // the concatenation preserves the step-mode identity contract.
        append(merged.admissionOrder, rep.admissionOrder);
        append(merged.preemptionOrder, rep.preemptionOrder);
        append(merged.retryOrder, rep.retryOrder);

        for (const RequestMetrics &rm : rep.requests) {
            RequestMetrics fixed = rm;
            const std::size_t idx = run.indexById.at(rm.id);
            if (run.reroutes[idx] > 0) {
                // A rerouted request's latency runs from its ORIGINAL
                // arrival; the replica only saw the re-dispatch time
                // (its deadline, and so sloMiss, already ran from it).
                fixed.arrivalSeconds = costed.costs[idx].req->arrivalSeconds;
                fixed.retries += run.reroutes[idx];
            }
            merged.requests.push_back(fixed);
        }

        // Chip events are replica-local (remapped to fleet domains);
        // fleet-wide link/straggler windows were fanned out to every
        // replica, so keep replica 0's copy only.
        for (const ServingReport::FaultImpact &f : rep.faultLog) {
            const bool chipEvent = f.kind == sim::FaultKind::ChipFail ||
                                   f.kind == sim::FaultKind::ChipRepair;
            if (!chipEvent && r != 0)
                continue;
            ServingReport::FaultImpact g = f;
            if (chipEvent)
                g.chip = r * chips_ + f.chip;
            merged.faultLog.push_back(g);
        }
    }

    // Fleet-level reroutes are retries too, logged after the
    // per-replica decision streams (an override of the Sum rule).
    merged.retriesScheduled += run.rerouteOrder.size();
    append(merged.retryOrder, run.rerouteOrder);

    std::stable_sort(merged.requests.begin(), merged.requests.end(),
                     [](const RequestMetrics &a, const RequestMetrics &b) {
                         return std::pair(a.completionSeconds, a.id) <
                                std::pair(b.completionSeconds, b.id);
                     });
    std::stable_sort(merged.faultLog.begin(), merged.faultLog.end(),
                     [](const ServingReport::FaultImpact &a,
                        const ServingReport::FaultImpact &b) {
                         return std::pair(a.seconds, a.chip) <
                                std::pair(b.seconds, b.chip);
                     });
    for (std::size_t k = 0; k < merged.faultLog.size(); ++k)
        merged.faultLog[k].eventId = k;

    // Final drops: a request that completed anywhere is not dropped,
    // however many dead replicas logged it on the way.
    std::set<std::size_t> completedIds;
    for (const RequestMetrics &rm : merged.requests)
        completedIds.insert(rm.id);
    std::set<std::size_t> droppedSeen;
    for (const ServingReport &rep : reports)
        for (const std::size_t id : rep.dropOrder)
            if (completedIds.count(id) == 0 &&
                droppedSeen.insert(id).second)
                merged.dropOrder.push_back(id);
    // Two more counters override their merge rule: a request dropped
    // by one replica may complete on another, and a fleet-wide link or
    // straggler event reached every replica but happened once (the
    // log keeps one copy).
    merged.droppedRequests = costed.costs.size() - completedIds.size();
    merged.faultEvents = merged.faultLog.size();

    merged.kvUtilization =
        !kvUnbounded(replicaOpts_.kvCapacityBytes)
            ? merged.kvPeakBytes / replicaOpts_.kvCapacityBytes
            : 0.0;
    // degradedSeconds sums the replicas, each degraded for at most its
    // own makespan, so the fraction divides by dp x makespan.
    merged.degradedFraction =
        merged.makespanSeconds > 0.0
            ? merged.degradedSeconds /
                  (static_cast<double>(reports.size()) *
                   merged.makespanSeconds)
            : 0.0;

    finalizeServingAggregates(merged, costed.costs.size());
    if (!merged.noCompletions && merged.decodeIterations > 0) {
        const double iters = static_cast<double>(merged.decodeIterations);
        merged.meanBatchOccupancy = occupancyWeighted / iters;
        merged.kvBlockUtilization = blockUtilWeighted / iters;
    }

    return {std::move(merged), std::move(run.reports),
            std::move(run.assignment), run.rerouteOrder.size()};
}

} // namespace mcbp::engine
