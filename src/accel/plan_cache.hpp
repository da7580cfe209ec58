/**
 * @file
 * Thread-safe, singleflight cache of folded execution-plan costs
 * (RunMetrics) keyed by (accelerator identity, model, workload shape).
 *
 * Its one consumer is the serving layer's paged recompute re-pricer,
 * which hits the same prefill-only shapes on every preemption of a
 * request at the same resident length. A dp= fleet's replica runs all
 * serve() on one replica simulator, so they share its cache from
 * parallel threads. Accelerator::run() is deterministic in its inputs,
 * so the fold can be computed once per key and shared: the cache is a
 * keyed view of one SingleflightMap (common/annotations.hpp), so
 * threads racing on a cold key block on the single in-flight
 * computation and every thread reads the same bits afterwards. Trace
 * costing does not come here: it knows every shape up front, so it
 * sorts the trace into a shape table and prices each distinct shape
 * once, with no key and no lock (engine/serving.hpp, ShapeTable).
 *
 * The cache cannot see which accelerator produced a metric, so the
 * caller supplies an identity string (name + configSummary covers
 * every knob that changes pricing) as a key component. Entries are
 * never evicted and live in the map nodes, so returned references stay
 * valid for the cache's lifetime even while other threads insert.
 */
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
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
    const RunMetrics &
    metrics(const std::string &identity, const model::LlmConfig &model,
            const model::Workload &task, const Compute &compute)
    {
        return memo_.get({task.promptLen, task.decodeLen, task.batch,
                          task.kind, task.attentionConcentration,
                          model.name, task.name, identity},
                         compute);
    }

    /** Number of cached (completed) entries, for tests. */
    std::size_t size() const { return memo_.size(); }

    /**
     * Cost computations actually executed (not lookups). Under
     * singleflight this equals the number of distinct keys ever
     * requested, no matter how many threads raced on them.
     */
    std::uint64_t computeCalls() const { return memo_.computeCalls(); }

  private:
    /**
     * Every Workload field an Accelerator::plan() may read, compared
     * exactly (the task name too: it is cheap to keep and guards
     * against task-conditional costing), then the model and the
     * identity. The short fields go first so most comparisons settle
     * before the long identity string.
     */
    struct Key
    {
        std::size_t promptLen;
        std::size_t decodeLen;
        std::size_t batch;
        model::TaskKind kind;
        double attentionConcentration;
        std::string model;
        std::string task;
        std::string identity;
        auto operator<=>(const Key &) const = default;
    };

    SingleflightMap<Key, RunMetrics> memo_;
};

} // namespace mcbp::accel
