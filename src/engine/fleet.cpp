#include "engine/fleet.hpp"

#include <algorithm>
#include <deque>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
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

/** Arrival-order request ordering shared by routing and sub-traces. */
bool
arrivesBefore(const model::Request &a, const model::Request &b)
{
    if (a.arrivalSeconds != b.arrivalSeconds)
        return a.arrivalSeconds < b.arrivalSeconds;
    return a.id < b.id;
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

} // namespace

FleetRouter::FleetRouter(const FleetAccelerator &fleet,
                         ServingOptions opts)
    : fleet_(&fleet), opts_(std::move(opts))
{
}

FleetOutcome
FleetRouter::simulate(const std::vector<model::Request> &trace) const
{
    const std::size_t dp = fleet_->options().dataParallel;
    const Accelerator &replica = fleet_->replica();

    // One simulator serves every replica: the fleet-wide KV budget
    // splits evenly (replicas are symmetric), and the degraded fleet
    // unwraps to its replica. The fault spec stays the fleet's, so the
    // fault layer (retries, deadlines) is on in every replica run.
    ServingOptions ropts = opts_;
    if (opts_.degradedAccel != nullptr) {
        if (const auto *degFleet = dynamic_cast<const FleetAccelerator *>(
                opts_.degradedAccel))
            ropts.degradedAccel = &degFleet->replica();
    }
    if (!kvUnbounded(opts_.kvCapacityBytes))
        ropts.kvCapacityBytes =
            opts_.kvCapacityBytes / static_cast<double>(dp);
    const ServingSimulator server(replica, ropts);

    FleetOutcome out;
    if (dp == 1) {
        // Identity: one replica serves the whole trace — bit-identical
        // to the flat (non-fleet) path by construction.
        out.replicas.push_back(server.simulate(trace));
        out.fleet = out.replicas.back();
        out.assignment.assign(trace.size(), 0);
        return out;
    }

    if (trace.empty()) {
        out.fleet = server.simulate(trace);
        out.fleet.accelerator = fleet_->name();
        out.replicas.resize(dp, out.fleet);
        for (ServingReport &r : out.replicas)
            r.accelerator = replica.name();
        return out;
    }

    // Failover and the merge track requests by id across replicas, so
    // a repeated id would conflate two requests (a phantom drop).
    std::map<std::size_t, std::size_t> indexById;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto [it, fresh] = indexById.emplace(trace[i].id, i);
        if (!fresh)
            fatal("request id " + std::to_string(trace[i].id) +
                  " repeats at trace positions " +
                  std::to_string(it->second) + " and " +
                  std::to_string(i) + "; a dp=" + std::to_string(dp) +
                  " fleet tracks requests by id, so ids must be unique");
    }

    // ---- Fleet-level costing --------------------------------------------
    // One costing of the full trace prices every distinct shape once,
    // on the replica and (when faults can degrade it) its degraded
    // replica. Its healthy entries feed (a) the routing estimates and
    // (b) the fleet serial baseline — each request counted exactly
    // once however often failover re-dispatches it — and copies of its
    // costed requests are what every replica run and failover re-run
    // serves below, so nothing is priced twice.
    const ServingSimulator::CostedTrace costed = server.costTrace(trace);
    const double to_seconds = 1.0 / (costed.clockGhz * 1e9);

    std::vector<double> estSeconds(trace.size(), 0.0);
    std::vector<double> kvDemand(trace.size(), 0.0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const CostedRequest &c = costed.costs[i];
        const Rates &r = c.shape->rates[kHealthy];
        const double perToken =
            r.weightCyclesPerToken + r.linearCyclesPerToken +
            r.otherCyclesPerToken + r.fixedCyclesPerToken;
        estSeconds[i] =
            (r.prefillCycles +
             static_cast<double>(c.remainingTokens) * perToken) *
            to_seconds;
        kvDemand[i] = c.kvBytes;
    }

    // The fleet budget splits evenly across replicas, so a budget that
    // holds every request can still leave a replica too small for one.
    // Fail here, before any replica runs, instead of mid-simulation.
    if (!kvUnbounded(ropts.kvCapacityBytes)) {
        const double largest =
            *std::max_element(kvDemand.begin(), kvDemand.end());
        if (largest > ropts.kvCapacityBytes) {
            std::ostringstream msg;
            msg << std::fixed << std::setprecision(0)
                << "fleet KV budget of " << opts_.kvCapacityBytes
                << " B splits over dp=" << dp << " replicas into a "
                << "per-replica share of " << ropts.kvCapacityBytes
                << " B, below the largest request KV footprint of "
                << largest << " B; raise kvCapacityBytes to at least "
                << largest * static_cast<double>(dp) << " B or lower dp";
            fatal(msg.str());
        }
    }

    // ---- Fault slicing ----------------------------------------------------
    const std::size_t perReplicaChips =
        std::max<std::size_t>(1, replica.capabilities().kvShards);
    std::vector<sim::FaultEvent> timeline;
    if (opts_.faults.enabled())
        timeline =
            sim::buildFaultTimeline(opts_.faults, perReplicaChips * dp);
    const std::vector<std::vector<sim::FaultEvent>> replicaTimeline =
        sliceFaults(timeline, dp, perReplicaChips);
    const std::vector<double> deadAt = replicaDeathTimes(
        timeline, dp, perReplicaChips, ropts.degradedAccel != nullptr);

    // ---- Route in arrival order ------------------------------------------
    // Deterministic virtual-load balancer: outstanding KV bytes per
    // replica, retired at each request's estimated finish time.
    std::vector<std::size_t> order(trace.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return arrivesBefore(trace[a], trace[b]);
                     });

    auto aliveAt = [&](std::size_t r, double t) {
        return deadAt[r] > t;
    };
    // Route to the latest-dying replica when every replica is already
    // dead at arrival — the request drops there deterministically.
    auto lastResort = [&]() {
        std::size_t best = 0;
        for (std::size_t r = 1; r < dp; ++r)
            if (deadAt[r] > deadAt[best])
                best = r;
        return best;
    };

    std::vector<std::size_t> assign(trace.size(), 0);
    // (finish time, kv bytes) of virtually in-flight requests.
    std::vector<std::vector<std::pair<double, double>>> inflight(dp);
    std::vector<double> outstanding(dp, 0.0);
    std::size_t rrSeq = 0;
    for (const std::size_t i : order) {
        const double t = trace[i].arrivalSeconds;
        std::size_t target = dp; // sentinel: none alive yet.
        if (fleet_->options().policy == ReplicaPolicy::RoundRobin) {
            for (std::size_t k = 0; k < dp; ++k) {
                const std::size_t r = (rrSeq + k) % dp;
                if (aliveAt(r, t)) {
                    target = r;
                    break;
                }
            }
            ++rrSeq;
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
                if (!aliveAt(r, t))
                    continue;
                if (target == dp || outstanding[r] < outstanding[target])
                    target = r;
            }
        }
        if (target == dp)
            target = lastResort();
        assign[i] = target;
        outstanding[target] += kvDemand[i];
        inflight[target].push_back({t + estSeconds[i], kvDemand[i]});
    }

    // ---- Per-replica simulation ------------------------------------------
    // A sub-trace entry is a trace index and the request the replica
    // sees: the trace's own, or a failover copy re-dispatched later.
    struct Routed
    {
        std::size_t index;
        const model::Request *req;
    };
    std::vector<std::vector<Routed>> sub(dp);
    for (const std::size_t i : order)
        sub[assign[i]].push_back({i, &trace[i]});
    // Failover copies; a deque keeps their addresses stable.
    std::deque<model::Request> redispatched;

    // A replica serves copies of the fleet's pristine costed requests
    // in sub-trace order, its serial sums taken in that order.
    auto runReplica = [&](std::size_t r) {
        ServingSimulator::CostedTrace slice;
        slice.clockGhz = costed.clockGhz;
        slice.table = costed.table;
        slice.costs.reserve(sub[r].size());
        for (const Routed &e : sub[r]) {
            CostedRequest &c = slice.costs.emplace_back(costed.costs[e.index]);
            c.req = e.req;
            c.arrivalCycles = e.req->arrivalSeconds * c.shape->clockGhz * 1e9;
            slice.serialSeconds += c.shape->seconds;
            slice.serialJoules += c.shape->joules;
        }
        return server.serve(std::move(slice), replicaTimeline[r]);
    };

    std::vector<ServingReport> reports =
        parallel::parallelMap<ServingReport>(dp, runReplica);

    // ---- Failover: re-dispatch drops off dead replicas -------------------
    std::vector<std::size_t> rerouteCount(trace.size(), 0);
    std::vector<bool> settled(trace.size(), false);
    std::vector<std::size_t> rerouteOrder;
    bool changed = true;
    while (changed) {
        changed = false;
        std::vector<std::size_t> resim;
        for (std::size_t r = 0; r < dp; ++r) {
            if (deadAt[r] == kNever)
                continue; // healthy replicas drop for non-fault reasons.
            for (const std::size_t id : reports[r].dropOrder) {
                const std::size_t idx = indexById.at(id);
                if (assign[idx] != r || settled[idx])
                    continue;
                const double t0 = trace[idx].arrivalSeconds;
                const double tNew = std::max(t0, deadAt[r]) +
                                    opts_.retry.backoffBaseSeconds;
                // A reroute is a fleet-level retry: bounded by the
                // request's deadline and one visit per other replica.
                const bool pastDeadline =
                    opts_.retry.deadlineSeconds > 0.0 &&
                    tNew > t0 + opts_.retry.deadlineSeconds;
                if (pastDeadline || rerouteCount[idx] >= dp - 1) {
                    settled[idx] = true;
                    continue;
                }
                std::size_t target = dp;
                for (std::size_t k = 1; k <= dp; ++k) {
                    const std::size_t cand = (r + k) % dp;
                    if (cand != r && aliveAt(cand, tNew)) {
                        target = cand;
                        break;
                    }
                }
                if (target == dp) {
                    settled[idx] = true; // nowhere left to go.
                    continue;
                }
                model::Request &moved = redispatched.emplace_back(trace[idx]);
                moved.arrivalSeconds = tNew;
                sub[target].push_back({idx, &moved});
                assign[idx] = target;
                ++rerouteCount[idx];
                ++out.reroutes;
                rerouteOrder.push_back(id);
                resim.push_back(target);
                changed = true;
            }
        }
        std::sort(resim.begin(), resim.end());
        resim.erase(std::unique(resim.begin(), resim.end()),
                    resim.end());
        for (const std::size_t r : resim) {
            std::stable_sort(sub[r].begin(), sub[r].end(),
                             [](const Routed &a, const Routed &b) {
                                 return arrivesBefore(*a.req, *b.req);
                             });
            reports[r] = runReplica(r);
        }
    }

    // ---- Merge ------------------------------------------------------------
    ServingReport merged;
    merged.accelerator = fleet_->name();
    merged.scheduler = reports[0].scheduler;
    merged.kvPolicy = reports[0].kvPolicy;
    merged.serialSeconds = costed.serialSeconds;
    merged.serialJoules = costed.serialJoules;

    double occupancyWeighted = 0.0;
    double blockUtilWeighted = 0.0;
    for (std::size_t r = 0; r < dp; ++r) {
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
        merged.admissionOrder.insert(merged.admissionOrder.end(),
                                     rep.admissionOrder.begin(),
                                     rep.admissionOrder.end());
        merged.preemptionOrder.insert(merged.preemptionOrder.end(),
                                      rep.preemptionOrder.begin(),
                                      rep.preemptionOrder.end());
        merged.retryOrder.insert(merged.retryOrder.end(),
                                 rep.retryOrder.begin(),
                                 rep.retryOrder.end());

        for (const RequestMetrics &rm : rep.requests) {
            RequestMetrics fixed = rm;
            const std::size_t idx = indexById.at(rm.id);
            if (rerouteCount[idx] > 0) {
                // A rerouted request's latency runs from its ORIGINAL
                // arrival; the replica only saw the re-dispatch time.
                fixed.arrivalSeconds = trace[idx].arrivalSeconds;
                fixed.retries += rerouteCount[idx];
                if (opts_.retry.deadlineSeconds > 0.0)
                    fixed.sloMiss =
                        fixed.completionSeconds >
                        fixed.arrivalSeconds +
                            opts_.retry.deadlineSeconds;
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
                g.chip = r * perReplicaChips + f.chip;
            merged.faultLog.push_back(g);
        }
    }

    // Fleet-level reroutes are retries too, logged after the
    // per-replica decision streams (an override of the Sum rule).
    merged.retriesScheduled += out.reroutes;
    merged.retryOrder.insert(merged.retryOrder.end(),
                             rerouteOrder.begin(), rerouteOrder.end());

    std::stable_sort(merged.requests.begin(), merged.requests.end(),
                     [](const RequestMetrics &a,
                        const RequestMetrics &b) {
                         if (a.completionSeconds != b.completionSeconds)
                             return a.completionSeconds <
                                    b.completionSeconds;
                         return a.id < b.id;
                     });
    std::stable_sort(merged.faultLog.begin(), merged.faultLog.end(),
                     [](const ServingReport::FaultImpact &a,
                        const ServingReport::FaultImpact &b) {
                         if (a.seconds != b.seconds)
                             return a.seconds < b.seconds;
                         return a.chip < b.chip;
                     });
    for (std::size_t k = 0; k < merged.faultLog.size(); ++k)
        merged.faultLog[k].eventId = k;

    // Final drops: a request that completed anywhere is not dropped,
    // however many dead replicas logged it on the way.
    std::set<std::size_t> completedIds;
    for (const RequestMetrics &rm : merged.requests)
        completedIds.insert(rm.id);
    std::set<std::size_t> droppedSeen;
    for (std::size_t r = 0; r < dp; ++r)
        for (const std::size_t id : reports[r].dropOrder)
            if (completedIds.count(id) == 0 &&
                droppedSeen.insert(id).second)
                merged.dropOrder.push_back(id);
    // Two more counters override their merge rule: a request dropped
    // by one replica may complete on another, and a fleet-wide link or
    // straggler event reached every replica but happened once (the
    // log keeps one copy).
    merged.droppedRequests = trace.size() - completedIds.size();
    merged.faultEvents = merged.faultLog.size();

    merged.kvUtilization =
        !kvUnbounded(ropts.kvCapacityBytes)
            ? merged.kvPeakBytes / ropts.kvCapacityBytes
            : 0.0;
    // degradedSeconds sums the replicas, each degraded for at most its
    // own makespan, so the fraction divides by dp x makespan.
    merged.degradedFraction =
        merged.makespanSeconds > 0.0
            ? merged.degradedSeconds /
                  (static_cast<double>(dp) * merged.makespanSeconds)
            : 0.0;

    finalizeServingAggregates(merged, trace.size());
    if (!merged.noCompletions) {
        merged.meanBatchOccupancy =
            merged.decodeIterations > 0
                ? occupancyWeighted /
                      static_cast<double>(merged.decodeIterations)
                : 0.0;
        merged.kvBlockUtilization =
            merged.decodeIterations > 0
                ? blockUtilWeighted /
                      static_cast<double>(merged.decodeIterations)
                : 0.0;
    }

    out.fleet = std::move(merged);
    out.replicas = std::move(reports);
    out.assignment = std::move(assign);
    return out;
}

} // namespace mcbp::engine
