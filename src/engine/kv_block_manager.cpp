#include "engine/kv_block_manager.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace mcbp::engine {

std::string
toString(KvPolicy policy)
{
    switch (policy) {
    case KvPolicy::Reserve:
        return "reserve";
    case KvPolicy::Paged:
        return "paged";
    }
    panic("unhandled KV policy");
}

KvPolicy
kvPolicyFromString(const std::string &name)
{
    for (KvPolicy p : allKvPolicies())
        if (name == toString(p))
            return p;
    fatal("unknown KV policy '" + name +
          "' (expected reserve or paged)");
}

const std::vector<KvPolicy> &
allKvPolicies()
{
    static const std::vector<KvPolicy> all = {KvPolicy::Reserve,
                                              KvPolicy::Paged};
    return all;
}

double
kvFootprintBytes(const KvOptions &kv, double bytesPerToken,
                 std::size_t promptLen, std::size_t decodeLen)
{
    // Prefill-only requests never read the cache back: nothing is
    // retained, so nothing is charged (under either policy).
    if (decodeLen == 0)
        return 0.0;
    const std::size_t tokens = promptLen + decodeLen;
    if (kv.policy == KvPolicy::Reserve)
        return bytesPerToken * static_cast<double>(tokens);
    return KvBlockManager(kv).allocatedBytes(bytesPerToken, tokens);
}

KvBlockManager::KvBlockManager(const KvOptions &opts) : opts_(opts)
{
    fatalIf(opts_.blockTokens == 0, "KV block size must be >= 1 token");
    fatalIf(opts_.lowWatermark < 0.0 || opts_.lowWatermark >= 1.0,
            "KV low watermark must be in [0, 1)");
}

double
KvBlockManager::allocatedBytes(double bytesPerToken,
                               std::size_t tokens) const
{
    if (tokens == 0 || bytesPerToken <= 0.0)
        return 0.0;
    // Whole blocks of blockTokens tokens. Every TP shard holds the
    // same block count of 1/shards-sized slices, so the aggregate is
    // exactly shards x the per-shard ledger (see file comment).
    const std::size_t blocks =
        (tokens + opts_.blockTokens - 1) / opts_.blockTokens;
    return static_cast<double>(blocks) *
           static_cast<double>(opts_.blockTokens) * bytesPerToken;
}

bool
KvBlockManager::fits(double extraBytes, bool admission) const
{
    if (unbounded())
        return true;
    const double headroom =
        admission ? opts_.lowWatermark * opts_.capacityBytes : 0.0;
    return used_ + extraBytes <= opts_.capacityBytes - headroom;
}

void
KvBlockManager::add(double allocated, double needed)
{
    used_ += allocated;
    needed_ += needed;
    peakUsed_ = std::max(peakUsed_, used_);
    peakFrag_ = std::max(peakFrag_, used_ - needed_);
}

void
KvBlockManager::remove(double allocated, double needed)
{
    used_ -= allocated;
    needed_ -= needed;
}

void
KvBlockManager::clearIdleResidual()
{
    panicIf(std::abs(used_) > 1.0,
            "KV block accounting leak: idle engine still holds "
            "allocated blocks");
    used_ = 0.0;
    needed_ = 0.0;
}

} // namespace mcbp::engine
