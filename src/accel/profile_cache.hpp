/**
 * @file
 * Thread-safe, singleflight cache of measured workload profiles
 * (WeightStats / AttentionStats). Profiling synthesizes tiles and runs
 * the functional BRCR/BSTC/BGPP engines, which is orders of magnitude
 * more expensive than the analytic cycle model consuming the result —
 * so every accelerator instance and every serving request should share
 * one cache, and no key may ever be profiled twice.
 *
 * The cache is keyed by everything profiling depends on, as plain
 * structs compared field by field: (model, bit width, seed) for weights
 * and (model, context bucket, concentration, alpha, seed) for attention.
 * Doubles compare exactly, so two alphas that differ anywhere are two
 * keys. Each side is a SingleflightMap (common/annotations.hpp), so N
 * threads racing on a cold key block on the single in-flight
 * computation instead of each paying the full profiling cost, and no
 * lock is held while profiling runs. profileCalls() counts the
 * computations actually executed (tests assert it stays at 1 per key
 * under contention). Entries are never evicted and live in the map
 * nodes, so returned references stay valid for the cache's lifetime
 * even while other threads insert.
 *
 * warm() precomputes a batch of keys on the global thread pool
 * (common/parallel.hpp): cold-start fleet construction profiles on all
 * cores instead of serially on the first run() that needs each key.
 */
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "accel/profiles.hpp"
#include "common/annotations.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"
#include "quant/quantizer.hpp"

namespace mcbp::accel {

/**
 * The attention profile bucket of a prompt length: the canonical
 * power-of-two context of min(2048, max(64, promptLen)).
 * profileAttention() depends on the workload only through that
 * clamped context and the task's attention concentration, so the
 * cache keys on those, not the task name, and profiles the bucket's
 * context. Serving traces with jittered per-request lengths then share
 * a handful of deterministic entries instead of aliasing whatever
 * length was profiled first (the zoo tasks' nominal lengths are
 * already powers of two, so figure benches see bit-identical stats).
 */
std::size_t contextBucket(std::size_t promptLen);

/**
 * One profiling need an accelerator announces for (model, task), fed
 * to ProfileCache::warm(). Accelerators append theirs through
 * announce(), which keeps one request per distinct need; warm() still
 * deduplicates by cache key, for vectors built by hand.
 */
struct ProfileRequest
{
    model::LlmConfig model;
    quant::BitWidth bitWidth = quant::BitWidth::Int8;
    std::uint64_t seed = 1;
    /** Weight-side profile wanted (profileWeights). */
    bool wantWeights = false;
    /** Attention-side profile wanted (profileAttention of task/alpha). */
    bool wantAttention = false;
    model::Workload task;
    double alpha = 0.6;
};

/**
 * Which profiles an accelerator's run(model, task) demands, fixed by
 * its options: the same for every (model, task) it serves.
 */
struct ProfileNeeds
{
    bool weights = false;
    bool attention = false;
    double alpha = 0.6;
    std::uint64_t seed = 1;
    quant::BitWidth bitWidth = quant::BitWidth::Int8;
};

/**
 * Append @p needs of (@p model, @p task) to @p out as one
 * ProfileRequest, unless @p out already holds an equal need: the same
 * flags and the same weight and attention cache keys (the context
 * bucket, not the prompt length). The comparison copies nothing, so
 * announcing every shape of a trace costs one comparison per shape
 * and leaves @p out holding one request per profile key.
 */
void announce(std::vector<ProfileRequest> &out,
              const model::LlmConfig &model, const model::Workload &task,
              const ProfileNeeds &needs);

/** Shared, singleflight profile store. */
class ProfileCache
{
  public:
    /** Weight profile of @p model (computed once per key). */
    const WeightStats &weights(const model::LlmConfig &model,
                               quant::BitWidth bw, std::uint64_t seed);

    /** Attention profile of (@p model, @p task) at @p alpha. */
    const AttentionStats &attention(const model::LlmConfig &model,
                                    const model::Workload &task,
                                    double alpha, std::uint64_t seed);

    /**
     * Precompute every distinct key named by @p requests, fanning the
     * cold ones out over the thread pool (@p threads as in
     * parallel::parallelFor: 0 = full pool, 1 = serial). Stats are
     * bit-identical to demand-filling the same keys serially, because
     * each key's computation is self-contained and deterministic.
     */
    void warm(const std::vector<ProfileRequest> &requests,
              std::size_t threads = 0);

    /** Number of cached (completed) entries, for tests. */
    std::size_t size() const;

    /**
     * Profiling computations actually executed (not lookups). Under
     * singleflight this equals the number of distinct keys ever
     * requested, no matter how many threads raced on them.
     */
    std::uint64_t profileCalls() const;

  private:
    friend void announce(std::vector<ProfileRequest> &,
                         const model::LlmConfig &, const model::Workload &,
                         const ProfileNeeds &);

    /**
     * Everything profileWeights() output depends on. The map owns its
     * model name (Name = std::string); announce() compares keys that
     * view it (std::string_view), so a comparison copies nothing.
     */
    template <typename Name> struct WeightKeyOf
    {
        Name model;
        quant::BitWidth bitWidth;
        std::uint64_t seed;
        auto operator<=>(const WeightKeyOf &) const = default;
    };

    /** Everything the bucketed profileAttention() depends on. */
    template <typename Name> struct AttentionKeyOf
    {
        Name model;
        std::size_t contextBucket;
        double concentration;
        double alpha;
        std::uint64_t seed;
        auto operator<=>(const AttentionKeyOf &) const = default;
    };

    using WeightKey = WeightKeyOf<std::string>;
    using AttentionKey = AttentionKeyOf<std::string>;

    template <typename Name = std::string>
    static WeightKeyOf<Name> weightKey(const model::LlmConfig &model,
                                       quant::BitWidth bw,
                                       std::uint64_t seed);
    template <typename Name = std::string>
    static AttentionKeyOf<Name> attentionKey(const model::LlmConfig &model,
                                             const model::Workload &task,
                                             double alpha,
                                             std::uint64_t seed);

    /** attention() with an explicit cap for profileAttention's own
     *  per-query fan-out (threads=1 keeps warm(…, 1) fully serial). */
    const AttentionStats &attentionAt(const model::LlmConfig &model,
                                      const model::Workload &task,
                                      double alpha, std::uint64_t seed,
                                      std::size_t threads);

    SingleflightMap<WeightKey, WeightStats> weights_;
    SingleflightMap<AttentionKey, AttentionStats> attention_;
};

/** A fresh cache wrapped for sharing across accelerator instances. */
std::shared_ptr<ProfileCache> makeProfileCache();

} // namespace mcbp::accel
