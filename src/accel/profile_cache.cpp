#include "accel/profile_cache.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "common/parallel.hpp"

namespace mcbp::accel {

namespace {

/**
 * profileAttention() depends on the workload only through the clamped
 * context min(2048, max(64, promptLen)) and the task's attention
 * concentration, so the cache keys on those — not the task name —
 * and profiles a canonical power-of-two context per bucket. Serving
 * traces with jittered per-request lengths then share a handful of
 * deterministic entries instead of aliasing whatever length was
 * profiled first (the zoo tasks' nominal lengths are already powers
 * of two, so figure benches see bit-identical stats).
 */
std::size_t
contextBucket(std::size_t prompt_len)
{
    const std::size_t ctx = std::min<std::size_t>(
        2048, std::max<std::size_t>(64, prompt_len));
    return std::bit_ceil(ctx);
}

} // namespace

ProfileCache::WeightKey
ProfileCache::weightKey(const model::LlmConfig &model, quant::BitWidth bw,
                        std::uint64_t seed)
{
    return {model.name, bw, seed};
}

ProfileCache::AttentionKey
ProfileCache::attentionKey(const model::LlmConfig &model,
                           const model::Workload &task, double alpha,
                           std::uint64_t seed)
{
    return {model.name, contextBucket(task.promptLen),
            task.attentionConcentration, alpha, seed};
}

/**
 * Find-or-create the key's slot under the map mutex, then run the
 * (expensive) compute through the slot's once-flag with the mutex
 * released: concurrent lookups of other keys proceed, and racers on
 * this key block on the one in-flight computation instead of redoing
 * it (singleflight). If compute throws, call_once lets the next caller
 * retry the key.
 */
template <typename Key, typename Stats, typename Compute>
const Stats &
ProfileCache::lookup(std::map<Key, std::shared_ptr<Slot<Stats>>> &map,
                     const Key &key, const Compute &compute)
{
    std::shared_ptr<Slot<Stats>> slot;
    {
        MutexLock lock(mutex_);
        auto &entry = map[key];
        if (!entry)
            entry = std::make_shared<Slot<Stats>>();
        slot = entry;
    }
    std::call_once(slot->once, [&] {
        Stats computed = compute();
        MutexLock lock(mutex_);
        slot->value = std::move(computed);
        slot->ready = true;
        ++profileCalls_;
    });
    return slot->value;
}

const WeightStats &
ProfileCache::weights(const model::LlmConfig &model, quant::BitWidth bw,
                      std::uint64_t seed)
{
    return lookup(weights_, weightKey(model, bw, seed), [&] {
        return profileWeights(model, bw, seed);
    });
}

const AttentionStats &
ProfileCache::attentionAt(const model::LlmConfig &model,
                          const model::Workload &task, double alpha,
                          std::uint64_t seed, std::size_t threads)
{
    return lookup(
        attention_, attentionKey(model, task, alpha, seed), [&] {
            // Profile the bucket's canonical context so every workload
            // mapping to this key gets identical stats. The stats are
            // bit-identical at every thread count; the cap only bounds
            // the per-query fan-out's concurrency.
            model::Workload canonical = task;
            canonical.promptLen = contextBucket(task.promptLen);
            return profileAttention(model, canonical, alpha, seed,
                                    kProfileMaxContext, kProfileQueries,
                                    threads);
        });
}

const AttentionStats &
ProfileCache::attention(const model::LlmConfig &model,
                        const model::Workload &task, double alpha,
                        std::uint64_t seed)
{
    return attentionAt(model, task, alpha, seed, 0);
}

void
ProfileCache::warm(const std::vector<ProfileRequest> &requests,
                   std::size_t threads)
{
    // Deduplicate by final cache key so the fan-out is one task per
    // distinct profile, not per announcing accelerator.
    std::map<WeightKey, const ProfileRequest *> weightJobs;
    std::map<AttentionKey, const ProfileRequest *> attentionJobs;
    for (const ProfileRequest &r : requests) {
        if (r.wantWeights)
            weightJobs.try_emplace(weightKey(r.model, r.bitWidth, r.seed),
                                   &r);
        if (r.wantAttention)
            attentionJobs.try_emplace(
                attentionKey(r.model, r.task, r.alpha, r.seed), &r);
    }
    std::vector<std::function<void()>> jobs;
    jobs.reserve(weightJobs.size() + attentionJobs.size());
    for (const auto &[key, r] : weightJobs)
        jobs.push_back(
            [this, r] { (void)weights(r->model, r->bitWidth, r->seed); });
    // Propagate the cap into the per-query fan-out, so warm(…, 1) is
    // serial end to end (the bench's reference baseline and the
    // pinned-deployment escape hatch).
    for (const auto &[key, r] : attentionJobs)
        jobs.push_back([this, r, threads] {
            (void)attentionAt(r->model, r->task, r->alpha, r->seed,
                              threads);
        });
    parallel::parallelFor(
        jobs.size(), [&](std::size_t i) { jobs[i](); }, threads);
}

std::size_t
ProfileCache::size() const
{
    MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const auto &kv : weights_)
        n += kv.second->ready ? 1 : 0;
    for (const auto &kv : attention_)
        n += kv.second->ready ? 1 : 0;
    return n;
}

std::uint64_t
ProfileCache::profileCalls() const
{
    MutexLock lock(mutex_);
    return profileCalls_;
}

std::shared_ptr<ProfileCache>
makeProfileCache()
{
    return std::make_shared<ProfileCache>();
}

} // namespace mcbp::accel
