/**
 * @file
 * Data-parallel replica fleet: the dp= axis above the event core.
 *
 * A FleetAccelerator owns ONE replica prototype — a full pp= x tp=
 * serving group — and a data-parallel degree N. Replicas are identical
 * stateless cost models, so the fleet holds the prototype once; what
 * makes them distinct at serving time is the traffic and the faults
 * routed to each. The FleetRouter is that serving path. It builds one
 * replica ServingSimulator, calls its costTrace() once over the full
 * trace, and then runs four named stages, each a public const member:
 *  - route(): split the trace across the replicas with a pluggable
 *    selection policy (least-loaded by outstanding KV bytes, or
 *    round-robin);
 *  - serveReplicas(): run replicas as serve() on copies of their
 *    sub-traces' costed requests, fanned out over the thread pool —
 *    the one replica-run path, failover re-runs included;
 *  - failover(): re-dispatch the drops of dead replicas;
 *  - merge(): fold the per-replica reports into one fleet
 *    ServingReport whose sample-derived aggregates follow the
 *    single-engine definitions (finalizeServingAggregates).
 * route() and failover() place work by one rule: the first replica
 * alive at time t, scanning from index s.
 *
 * Bookkeeping is linear, not a search. Each replica run returns the
 * trace index of every completion and drop next to its report
 * (serve()'s costed-trace positions, mapped through the sub-trace), so
 * failover and the merge find a request without an id lookup. The
 * merged request list is in (completionSeconds, id) order: each
 * replica lists its completions in completion order, so the merge
 * puts each run of equal completion times in id order and then takes
 * the dp sorted lists in one dp-way merge into one allocation. route()
 * sorts the trace by (arrival, id) only when it does not already
 * arrive in that order.
 *
 * Failover: the fleet builds ONE fault timeline over dp x kvShards
 * fault domains and hands each replica's serve() its slice (chip
 * events land on the owning replica, rebased to its chips; fleet-wide
 * link/straggler windows reach every replica). The fleet costs its
 * trace once with the fleet's fault spec, which stamps each request's
 * deadline, so deadlines bind on a replica whose slice is empty too. A
 * replica with a fatal permanent failure drops its queued and future
 * work — the router re-dispatches those drops to surviving
 * replicas at the fault time plus the retry backoff, bounded by the
 * per-request deadline and a fleet-size reroute budget, so the
 * existing retry/backoff/deadline vocabulary covers replica failover
 * too. A rerouted request is a copy of its costed request, so it keeps
 * the deadline of its original arrival.
 *
 * dp=1 is the identity: name/capabilities/configSummary forward
 * verbatim and the router delegates wholesale to a single-replica
 * ServingSimulator, so a dp=1 fleet report is bit-identical to the
 * flat path (tests/test_fleet.cpp asserts this down to the report).
 * Because routing, slicing and merging are all deterministic functions
 * of the trace and the timeline, the coalesced-vs-per-token identity
 * contract survives the fleet: both step modes see identical
 * sub-traces and merge identically.
 */
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "engine/accelerator.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"

namespace mcbp::engine {

/** Replica-selection policy of the fleet router. */
enum class ReplicaPolicy
{
    /** Route to the replica with the least outstanding KV bytes
     *  (estimated from the costed trace; ties to the lowest index). */
    LeastLoaded,
    /** Route request k to replica k mod dp (skipping dead replicas). */
    RoundRobin,
};

/** Canonical name: "least-loaded" or "round-robin". */
std::string toString(ReplicaPolicy policy);
/** Parse "least"/"least-loaded" or "rr"/"round-robin" (fatal else). */
ReplicaPolicy replicaPolicyFromString(const std::string &name);

/** Fleet shape. */
struct FleetOptions
{
    /** Replica count (each a full pp= x tp= group). */
    std::size_t dataParallel = 1;
    ReplicaPolicy policy = ReplicaPolicy::LeastLoaded;
};

/** N identical serving replicas presented as one Accelerator. */
class FleetAccelerator : public Accelerator
{
  public:
    FleetAccelerator(std::unique_ptr<Accelerator> replica,
                     FleetOptions opts);

    std::string name() const override { return name_; }
    /** A run is the replica's run, and named after it. */
    std::string runName() const override { return replica_->runName(); }
    Capabilities capabilities() const override;
    std::string configSummary() const override;
    /** A request runs on exactly one replica, so the fleet's plan for
     *  one inference IS the replica's plan (capacity, not speed,
     *  multiplies with dp). */
    accel::ExecutionPlan plan(const model::LlmConfig &model,
                              const model::Workload &task,
                              accel::PhaseMemo *memo = nullptr) const override
    {
        return replica_->plan(model, task, memo);
    }
    void
    profileRequests(const model::LlmConfig &model,
                    const model::Workload &task,
                    std::vector<accel::ProfileRequest> &out) const override
    {
        replica_->profileRequests(model, task, out);
    }
    std::shared_ptr<accel::ProfileCache> profileCache() const override
    {
        return replica_->profileCache();
    }

    const Accelerator &replica() const { return *replica_; }
    const FleetOptions &options() const { return opts_; }

  private:
    std::unique_ptr<Accelerator> replica_;
    FleetOptions opts_;
    /** Display name, composed once at construction. */
    std::string name_;
};

/** Everything the fleet serving path produces (the merged report plus
 *  the per-replica views tests and benches inspect). */
struct FleetOutcome
{
    ServingReport fleet;
    /** Per-replica reports, replica order (dp entries; dp=1 has 1). */
    std::vector<ServingReport> replicas;
    /** Final replica index of each trace entry, trace order. */
    std::vector<std::size_t> assignment;
    /** Failover re-dispatches performed (0 on healthy runs). */
    std::size_t reroutes = 0;
    /** Distinct shapes the fleet's runs priced on the degraded
     *  topology, counted once every replica run and failover re-run is
     *  done (CostedTrace::degradedShapesPriced). */
    std::size_t degradedShapesPriced = 0;
};

/**
 * The dp >= 1 serving path: route, serve the replicas, fail over,
 * merge. ServingSimulator::simulate() delegates here for any
 * FleetAccelerator; the router and its stages are public so tests and
 * benches can see per-replica reports, the assignment and each stage.
 *
 * ServingOptions semantics at dp > 1: kvCapacityBytes is the FLEET
 * budget, split evenly across replicas (matching the fixed-chip-count
 * comparisons of fig20(g)); maxBatch is per replica engine (each
 * replica is an independent continuous-batching engine); faults
 * describe the whole fleet over dp x kvShards domains; degradedAccel
 * may be the fleet's degraded twin (its replica is unwrapped for the
 * replica simulator). At dp=1 every knob keeps its flat meaning.
 */
class FleetRouter
{
  public:
    using CostedTrace = ServingSimulator::CostedTrace;
    using Positions = ServingSimulator::Positions;

    /** One entry of a replica's sub-trace: a costed-trace index and
     *  the request the replica sees — the trace's own, or a failover
     *  copy re-dispatched later. */
    struct Routed
    {
        std::size_t index;
        const model::Request *req;
    };
    using SubTrace = std::vector<Routed>;

    /** A fleet run between the stages: what simulate() set up, where
     *  each request went, and what each replica reported. */
    struct Dispatch
    {
        /** Each replica's slice of the fleet fault timeline. */
        std::vector<std::vector<sim::FaultEvent>> timelines;
        /** When each replica dies for good (infinity: never). */
        std::vector<double> deadAt;
        /** Current replica of each trace entry, trace order. */
        std::vector<std::size_t> assignment;
        /** Each replica's sub-trace, in arrival order. */
        std::vector<SubTrace> subTraces;
        /** Each replica's report of its current sub-trace. */
        std::vector<ServingReport> reports;
        /** The trace index of each entry of reports[r].requests
         *  (completed) and reports[r].dropOrder (dropped): how failover
         *  and the merge find a request without an id search. */
        std::vector<Positions> indices;
        /** Failover re-dispatches of each trace entry, trace order. */
        std::vector<std::size_t> reroutes;
        /** Rerouted request ids, in re-dispatch order. */
        std::vector<std::size_t> rerouteOrder;
        /** The failover copies sub-traces point at; a deque keeps
         *  their addresses stable. */
        std::deque<model::Request> copies;
    };

    /** fatal() when the options fail ServingSimulator's checks. */
    FleetRouter(const FleetAccelerator &fleet, ServingOptions opts);

    /** route(), serveReplicas(), failover() and merge() over the
     *  replica simulator's costTrace(@p trace). fatal() at dp > 1 when
     *  a request id repeats in @p trace, naming its first repeat in
     *  trace order: the fleet's decision logs and its completion order
     *  name requests by id. */
    FleetOutcome simulate(const std::vector<model::Request> &trace) const;

    /**
     * Assign each costed request, in arrival order, to a replica alive
     * at its arrival under the fleet's policy; when none is, to the
     * replica that dies last (the request drops there). Least-loaded
     * retires each request's KV bytes at its healthy estimated finish.
     * fatal() when the per-replica KV share is below a request's
     * footprint. Returns the replica of each entry, trace order.
     */
    std::vector<std::size_t> route(const CostedTrace &costed,
                                   const std::vector<double> &deadAt) const;

    /** Serve replicas @p which, in parallel, each on copies of its
     *  sub-trace's costed requests and its @p timelines slice. A
     *  failover copy arrives at its re-dispatch time but keeps the
     *  deadline of its original arrival. Returns one report per entry
     *  of @p which; when @p indices is set, it receives one entry per
     *  entry of @p which too: the trace index of each of that report's
     *  completions and drops. */
    std::vector<ServingReport>
    serveReplicas(const CostedTrace &costed,
                  const std::vector<SubTrace> &subTraces,
                  const std::vector<std::vector<sim::FaultEvent>> &timelines,
                  const std::vector<std::size_t> &which,
                  std::vector<Positions> *indices = nullptr) const;

    /** Re-dispatch what dead replicas dropped to the next replica alive
     *  at the fault time plus the retry backoff, within the request's
     *  deadline and dp - 1 reroutes, and re-serve the replicas that
     *  took work, until nothing moves. */
    void failover(const CostedTrace &costed, Dispatch &run) const;

    /** Fold the replica reports of @p run into the fleet outcome: a
     *  rerouted request counts from its original arrival, and a
     *  request is dropped only when it completed on no replica. The
     *  fleet's requests are in (completionSeconds, id) order, in one
     *  pass when each replica lists its requests in completion order,
     *  as serve() does. */
    FleetOutcome merge(const CostedTrace &costed, Dispatch run) const;

  private:
    const FleetAccelerator *fleet_;
    ServingOptions opts_;
    /** The fleet's options with the KV budget split across replicas
     *  and the degraded twin unwrapped to its replica. */
    ServingOptions replicaOpts_;
    /** The one simulator every replica run serves on. */
    ServingSimulator server_;
    /** Fault domains per replica. */
    std::size_t chips_;
};

} // namespace mcbp::engine
