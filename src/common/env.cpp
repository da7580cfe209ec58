#include "common/env.hpp"

#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"

namespace mcbp::env {

const std::vector<Knob> &
knobs()
{
    static const std::vector<Knob> table = {
        {"MCBP_SERVING_STEP", "coalesced", "engine/event_core",
         "Decode stepping: 'coalesced' (closed-form windows between "
         "events) or 'per-token' (reference loop; bit-equal decisions)"},
        {"MCBP_SIMD", "best runnable tier", "common/simd dispatch",
         "Clamp the kernel dispatch DOWN to 'scalar', 'avx2' or "
         "'avx512'; never raises above what CPUID allows"},
        {"MCBP_THREADS", "hardware concurrency", "common/parallel pool",
         "Worker count of the global thread pool (positive integer); "
         "thread count never changes any result, only wall-clock"},
    };
    return table;
}

bool
isRegistered(const char *name)
{
    for (const Knob &k : knobs())
        if (std::strcmp(k.name, name) == 0)
            return true;
    return false;
}

const char *
get(const char *name)
{
    if (!isRegistered(name))
        fatal(std::string("env::get: '") + name +
              "' is not declared in env::knobs(); register the knob "
              "(name, default, consumer) before reading it");
    // The one sanctioned environment read in the tree; everything else
    // must route through this registry so the knob table stays
    // exhaustive (lint rule: stray-getenv).
    return std::getenv(name); // mcbp-lint: allow(stray-getenv): this is the central registry call site
}

std::string
describeKnobs()
{
    std::string out;
    for (const Knob &k : knobs()) {
        out += k.name;
        out += "\n  default:  ";
        out += k.defaultValue;
        out += "\n  consumer: ";
        out += k.consumer;
        out += "\n  ";
        out += k.meaning;
        out += "\n";
    }
    return out;
}

} // namespace mcbp::env
