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
 * keys. Lookups are singleflight: each key owns a once-initialized
 * slot, so N threads racing on a cold key block on the single
 * in-flight computation instead of each paying the full profiling
 * cost, and the map mutex is never held while profiling runs.
 * profileCalls() counts the computations actually executed
 * (tests assert it stays at 1 per key under contention). Entries are
 * never evicted and live on the heap, so returned references stay
 * valid for the cache's lifetime even while other threads insert.
 *
 * warm() precomputes a batch of keys on the global thread pool
 * (common/parallel.hpp): cold-start fleet construction profiles on all
 * cores instead of serially on the first run() that needs each key.
 */
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "accel/profiles.hpp"
#include "common/annotations.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"
#include "quant/quantizer.hpp"

namespace mcbp::accel {

/**
 * One profiling need an accelerator announces for (model, task), fed
 * to ProfileCache::warm(). Equal keys are deduplicated there, so
 * callers may append requests per (accelerator, model, task) without
 * caring which ones coincide.
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
    /**
     * Singleflight slot: the first thread through the once-flag runs
     * the profiling; racers block inside call_once until the value is
     * ready. Heap-allocated and owned by shared_ptr so the map mutex
     * can drop before profiling starts without invalidating the slot.
     */
    template <typename Stats> struct Slot
    {
        std::once_flag once;
        Stats value;
        bool ready = false; ///< Written once under the once-flag.
    };

    /** Everything profileWeights() output depends on. */
    struct WeightKey
    {
        std::string model;
        quant::BitWidth bitWidth;
        std::uint64_t seed;
        auto operator<=>(const WeightKey &) const = default;
    };

    /** Everything the bucketed profileAttention() depends on. */
    struct AttentionKey
    {
        std::string model;
        std::size_t contextBucket;
        double concentration;
        double alpha;
        std::uint64_t seed;
        auto operator<=>(const AttentionKey &) const = default;
    };

    static WeightKey weightKey(const model::LlmConfig &model,
                               quant::BitWidth bw, std::uint64_t seed);
    static AttentionKey attentionKey(const model::LlmConfig &model,
                                     const model::Workload &task,
                                     double alpha, std::uint64_t seed);

    template <typename Key, typename Stats, typename Compute>
    const Stats &lookup(std::map<Key, std::shared_ptr<Slot<Stats>>> &map,
                        const Key &key, const Compute &compute);

    /** attention() with an explicit cap for profileAttention's own
     *  per-query fan-out (threads=1 keeps warm(…, 1) fully serial). */
    const AttentionStats &attentionAt(const model::LlmConfig &model,
                                      const model::Workload &task,
                                      double alpha, std::uint64_t seed,
                                      std::size_t threads);

    mutable Mutex mutex_;
    std::map<WeightKey, std::shared_ptr<Slot<WeightStats>>> weights_
        MCBP_GUARDED_BY(mutex_);
    std::map<AttentionKey, std::shared_ptr<Slot<AttentionStats>>>
        attention_ MCBP_GUARDED_BY(mutex_);
    std::uint64_t profileCalls_ MCBP_GUARDED_BY(mutex_) = 0;
};

/** A fresh cache wrapped for sharing across accelerator instances. */
std::shared_ptr<ProfileCache> makeProfileCache();

} // namespace mcbp::accel
