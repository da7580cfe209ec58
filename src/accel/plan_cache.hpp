/**
 * @file
 * Thread-safe, singleflight cache of folded execution-plan costs
 * (RunMetrics) keyed by (accelerator identity, model, workload shape).
 *
 * Its one consumer is the serving layer's paged recompute re-pricer,
 * which hits the same prefill-only shapes on every preemption of a
 * request at the same resident length. A dp= fleet's replica runs all
 * serve() on one replica simulator, so they share its cache from
 * parallel threads. Accelerator::run() is
 * deterministic in its inputs, so the fold can be computed once per
 * key and shared; concurrent threads racing on a cold key block on the
 * single in-flight computation (the ProfileCache singleflight design)
 * and every thread reads the same bits afterwards. Trace costing does
 * not come here: it knows every shape up front, so it sorts the trace
 * into a shape table and prices each distinct shape once, with no key
 * string and no lock (engine/serving.hpp, ShapeTable).
 *
 * The cache cannot see which accelerator produced a metric, so the
 * caller supplies an identity string (name + configSummary covers
 * every knob that changes pricing) as the leading key component.
 * Entries are never evicted and live on the heap, so returned
 * references stay valid for the cache's lifetime even while other
 * threads insert.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "accel/report.hpp"
#include "common/annotations.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"

namespace mcbp::accel {

/** Shared, singleflight folded-run cost store. */
class PlanCache
{
  public:
    /** Computes the metrics of a cold key (typically wraps
     *  Accelerator::run). Must be deterministic in the key. */
    using Compute = std::function<RunMetrics()>;

    /**
     * The metrics of (@p identity, @p model, @p task), computing them
     * via @p compute exactly once per key no matter how many threads
     * race on it. @p identity must cover every accelerator knob that
     * changes pricing (name + configSummary does).
     */
    const RunMetrics &metrics(const std::string &identity,
                              const model::LlmConfig &model,
                              const model::Workload &task,
                              const Compute &compute);

    /** Number of cached (completed) entries, for tests. */
    std::size_t size() const;

    /**
     * Cost computations actually executed (not lookups). Under
     * singleflight this equals the number of distinct keys ever
     * requested, no matter how many threads raced on them.
     */
    std::uint64_t computeCalls() const;

  private:
    /** Singleflight slot (see ProfileCache): the first thread through
     *  the once-flag computes; racers block until the value is ready. */
    struct Slot
    {
        std::once_flag once;
        RunMetrics value;
        bool ready = false; ///< Written once under the once-flag.
    };

    mutable Mutex mutex_;
    std::map<std::string, std::shared_ptr<Slot>> entries_
        MCBP_GUARDED_BY(mutex_);
    std::uint64_t computeCalls_ MCBP_GUARDED_BY(mutex_) = 0;
};

/** A fresh cache wrapped for sharing across simulator layers. */
std::shared_ptr<PlanCache> makePlanCache();

} // namespace mcbp::accel
