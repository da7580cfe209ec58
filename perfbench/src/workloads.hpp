/**
 * @file
 * The benchmark's workloads and the set-up every run pays.
 *
 * A workload is an open-loop synthetic trace (model::synthesizeTrace)
 * plus the accelerator spec and serving options it is played on. The
 * seed is the benchmark's argument; the simulator only ever sees the
 * generated trace.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/accelerator.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"

namespace perfbench {

class Tracer;

/** One named workload: what to build, what to feed it, how to serve. */
struct Workload
{
    std::string name;
    std::string spec; ///< Registry spec of the serving accelerator.
    /** Build the degradedSpec() twin and price chip failures on it. */
    bool degradedTwin = false;
    mcbp::model::TraceConfig trace;
    /** degradedAccel is left null here; Setup points it at its twin. */
    mcbp::engine::ServingOptions opts;
};

/**
 * The workload @p name at @p seed. @p requests > 0 overrides the
 * trace size (smoke runs); @p threads caps the simulator's profiling
 * and costing fan-out. fatal() on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      std::size_t requests, std::size_t threads);

/**
 * Everything a process builds before it can simulate: the trace, a
 * fresh registry (so a cold profile cache), the accelerator and its
 * degraded twin, and the profile warm-up over the trace's distinct
 * shapes. Not copyable: opts.degradedAccel points into it.
 */
struct Setup
{
    std::vector<mcbp::model::Request> trace;
    std::unique_ptr<mcbp::engine::Registry> registry;
    std::unique_ptr<mcbp::engine::Accelerator> accel;
    std::unique_ptr<mcbp::engine::Accelerator> degraded;
    mcbp::engine::ServingOptions opts;

    Setup() = default;
    Setup(const Setup &) = delete;
    Setup &operator=(const Setup &) = delete;
};

/**
 * Run the set-up of @p w into @p out. With a @p tracer, the layer
 * calls are recorded as spans (model.synthesize, engine.registry.make,
 * accel.profile.warm).
 */
void runSetup(const Workload &w, Setup &out, Tracer *tracer = nullptr);

} // namespace perfbench
