#include "model/request.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "model/llm_config.hpp"

namespace mcbp::model {

Workload
Request::workload() const
{
    return singleRequest(findTask(task), promptLen, decodeLen);
}

std::vector<Request>
synthesizeTrace(const TraceConfig &cfg)
{
    fatalIf(cfg.requests == 0, "trace needs at least one request");
    fatalIf(cfg.lengthJitter < 0.0 || cfg.lengthJitter >= 1.0,
            "length jitter must be in [0, 1)");
    const Workload &base = findTask(cfg.task);
    (void)findModel(cfg.model); // validate the model name early.

    Rng rng(cfg.seed);
    std::vector<Request> trace;
    trace.reserve(cfg.requests);
    double clock = 0.0;
    for (std::size_t i = 0; i < cfg.requests; ++i) {
        if (cfg.arrivalsPerSecond > 0.0) {
            // Exponential inter-arrival via inverse transform.
            const double u = std::max(1e-12, 1.0 - rng.uniform());
            clock += -std::log(u) / cfg.arrivalsPerSecond;
        }
        auto jittered = [&](std::size_t nominal) {
            const double f = rng.uniform(1.0 - cfg.lengthJitter,
                                         1.0 + cfg.lengthJitter);
            return std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::llround(static_cast<double>(nominal) * f)));
        };
        Request r;
        r.id = i;
        r.arrivalSeconds = clock;
        r.model = cfg.model;
        r.task = cfg.task;
        r.promptLen = jittered(base.promptLen);
        r.decodeLen = jittered(std::max<std::size_t>(1, base.decodeLen));
        trace.push_back(r);
    }
    return trace;
}

} // namespace mcbp::model
