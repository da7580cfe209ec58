/**
 * @file
 * Inference task descriptions matching the paper's benchmark suite
 * (section 5.1): nine tasks spanning classification (GLUE), language
 * modeling, reasoning, code generation and long-context processing, each
 * with the paper's prompt length and a representative decode length.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mcbp::model {

/** What dominates a task: prompt processing or autoregressive decode. */
enum class TaskKind { Classification, LanguageModeling, Reasoning,
                      Generation, LongContext };

/** One benchmark task. */
struct Workload
{
    std::string name;
    std::size_t promptLen = 0; ///< S (paper's "S=" per task).
    std::size_t decodeLen = 0; ///< Generated tokens.
    std::size_t batch = 8;     ///< Default batch used in the evaluation.
    TaskKind kind = TaskKind::Classification;
    /**
     * Attention concentration: fraction of keys that capture ~90% of
     * softmax mass. Smaller = sparser attention (long-context tasks are
     * sparser). Drives the synthetic attention generator and BGPP gains.
     */
    double attentionConcentration = 0.15;
};

/** The paper's nine tasks. */
const std::vector<Workload> &taskZoo();

/** Look up a task by name; fatal() on unknown names. */
const Workload &findTask(const std::string &name);

/** Workload with overridden prompt/decode lengths (Fig 19(b) sweeps). */
Workload withLengths(const Workload &base, std::size_t prompt,
                     std::size_t decode);

/** withLengths() as one request's batch-1 run: the workload a serving
 *  request is priced with (model::Request::workload()). */
Workload singleRequest(const Workload &base, std::size_t prompt,
                       std::size_t decode);

} // namespace mcbp::model
