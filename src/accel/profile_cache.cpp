#include "accel/profile_cache.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <map>

#include "common/parallel.hpp"

namespace mcbp::accel {

std::size_t
contextBucket(std::size_t promptLen)
{
    const std::size_t ctx = std::min<std::size_t>(
        2048, std::max<std::size_t>(64, promptLen));
    return std::bit_ceil(ctx);
}

template <typename Name>
ProfileCache::WeightKeyOf<Name>
ProfileCache::weightKey(const model::LlmConfig &model, quant::BitWidth bw,
                        std::uint64_t seed)
{
    return {Name(model.name), bw, seed};
}

template <typename Name>
ProfileCache::AttentionKeyOf<Name>
ProfileCache::attentionKey(const model::LlmConfig &model,
                           const model::Workload &task, double alpha,
                           std::uint64_t seed)
{
    return {Name(model.name), contextBucket(task.promptLen),
            task.attentionConcentration, alpha, seed};
}

void
announce(std::vector<ProfileRequest> &out, const model::LlmConfig &model,
         const model::Workload &task, const ProfileNeeds &needs)
{
    if (!needs.weights && !needs.attention)
        return;
    using View = std::string_view;
    const auto weights =
        ProfileCache::weightKey<View>(model, needs.bitWidth, needs.seed);
    const auto attention = ProfileCache::attentionKey<View>(
        model, task, needs.alpha, needs.seed);
    // out holds distinct needs only, a handful per trace, and the
    // latest is the likeliest match: scan from the back.
    for (auto r = out.rbegin(); r != out.rend(); ++r)
        if (r->wantWeights == needs.weights &&
            r->wantAttention == needs.attention &&
            (!needs.weights ||
             ProfileCache::weightKey<View>(r->model, r->bitWidth,
                                           r->seed) == weights) &&
            (!needs.attention ||
             ProfileCache::attentionKey<View>(r->model, r->task, r->alpha,
                                              r->seed) == attention))
            return;
    out.push_back({model, needs.bitWidth, needs.seed, needs.weights,
                   needs.attention, task, needs.alpha});
}

const WeightStats &
ProfileCache::weights(const model::LlmConfig &model, quant::BitWidth bw,
                      std::uint64_t seed)
{
    return weights_.get(weightKey(model, bw, seed), [&] {
        return profileWeights(model, bw, seed);
    });
}

const AttentionStats &
ProfileCache::attentionAt(const model::LlmConfig &model,
                          const model::Workload &task, double alpha,
                          std::uint64_t seed, std::size_t threads)
{
    return attention_.get(attentionKey(model, task, alpha, seed), [&] {
        // Profile the bucket's canonical context so every workload
        // mapping to this key gets identical stats. The stats are
        // bit-identical at every thread count; the cap only bounds the
        // per-query fan-out's concurrency.
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
    return weights_.size() + attention_.size();
}

std::uint64_t
ProfileCache::profileCalls() const
{
    return weights_.computeCalls() + attention_.computeCalls();
}

std::shared_ptr<ProfileCache>
makeProfileCache()
{
    return std::make_shared<ProfileCache>();
}

} // namespace mcbp::accel
