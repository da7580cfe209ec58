/**
 * @file
 * The traced run: each layer's public entry point called one at a
 * time, with spans around the calls, and the report identity those
 * staged calls are checked against.
 *
 * The untraced run measures the end-to-end metrics through
 * ServingSimulator::simulate() alone. The traced run rebuilds the same
 * result from its stages — costTrace(), EventCore::run() with a
 * benchmark-supplied PrefillPricer, the aggregation and
 * finalizeServingAggregates() — or, on a replica fleet, through
 * FleetRouter::simulate(), and must reproduce the untraced report bit
 * for bit.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/serving.hpp"
#include "workloads.hpp"

namespace perfbench {

class Tracer;

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Hash of everything a report decides: the modeled aggregates, every
 * decision log, and each completed request's timing and energy. Two
 * reports with equal fingerprints agree bit for bit on all of these.
 */
std::uint64_t fingerprint(const mcbp::engine::ServingReport &report);

/** Outcome of one traced pass. */
struct TracedRun
{
    /** Every per-layer metric except trace.overhead_s (added by the
     *  caller, which holds the untraced timings). */
    std::vector<Metric> metrics;
    /** Traced set-up plus the traced equivalent of one simulate(). */
    double tracedSeconds = 0.0;
    /** Empty when the staged calls reproduced @p untraced; else why not. */
    std::string mismatch;
};

/**
 * Set up @p w from scratch and play it through its layers one call at
 * a time, recording spans into @p tracer. @p untraced is the report
 * simulate() produced for the same workload and seed.
 */
TracedRun runTraced(const Workload &w,
                    const mcbp::engine::ServingReport &untraced,
                    Tracer &tracer);

} // namespace perfbench
