/**
 * @file
 * Block-granular KV-cache accounting for the serving engine.
 *
 * Two admission policies share one capacity sentinel (a capacity
 * <= 0 means unbounded, everywhere):
 *
 *  - KvPolicy::Reserve — the conservative pre-paging rule: a request
 *    reserves its full (prompt + decode) KV footprint at admission and
 *    holds it until completion. No preemption can ever be needed, but
 *    the engine under-admits exactly when decode-heavy requests are
 *    far from their final length.
 *
 *  - KvPolicy::Paged — vLLM-style block paging: KV is allocated in
 *    fixed blocks of `blockTokens` tokens as a request actually grows.
 *    Admission charges only the current residency (prompt + any
 *    recompute progress), decode appends one token per iteration and
 *    allocates a new block only when the last one fills, and when the
 *    pool cannot hold the batch's growth the youngest running request
 *    is preempted: its blocks are freed and it is re-queued for
 *    recompute, whose cycles/energy are re-priced through the
 *    accelerator's prefill path at its full (prompt + generated)
 *    length.
 *
 * KvBlockManager is the one ledger under both policies: block
 * rounding, capacity and admission-watermark checks, and the peak and
 * fragmentation statistics the report surfaces (allocated vs needed
 * bytes, peak internal fragmentation). Reserve holds a request's full
 * footprint as both its allocated and its needed bytes, so its
 * fragmentation is exactly 0 and it never uses the watermark. A
 * request whose decodeLen is 0 retains no KV at all (prefill-only
 * work never reads the cache back), under either policy.
 *
 * Tensor-parallel sharding (Capabilities::kvShards): each of the N
 * shards stores 1/N of every token's KV (the head split), so
 * per-shard capacity is 1/N of the fleet HBM and every shard's block
 * ledger is an exact 1/N copy of the aggregate one. The aggregate
 * accounting below is therefore identical to per-shard accounting by
 * symmetry, and needs no shard knob; benches and examples read
 * Capabilities::kvShards directly to surface the per-shard view.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/annotations.hpp"

namespace mcbp::engine {

/** Selectable KV admission policies (ServingOptions::kvPolicy). */
enum class KvPolicy
{
    Reserve, ///< Full-footprint reservation at admission (pre-paging).
    Paged,   ///< Block-granular growth with preempt-and-recompute.
};

/** Canonical name, e.g. "reserve", "paged". */
std::string toString(KvPolicy policy);

/** Parse a policy name; fatal() on unknown names. */
KvPolicy kvPolicyFromString(const std::string &name);

/** All selectable policies (for sweeps and validation messages). */
const std::vector<KvPolicy> &allKvPolicies();

/** The one capacity sentinel: any capacity <= 0 means unbounded. */
inline bool
kvUnbounded(double capacityBytes)
{
    return capacityBytes <= 0.0;
}

/** KV admission configuration (the event core's memory knobs). */
struct KvOptions
{
    KvPolicy policy = KvPolicy::Reserve;
    /** Pool capacity in bytes; <= 0 = unbounded (unified sentinel). */
    double capacityBytes = 0.0;
    /** Tokens per KV block (paged granularity). */
    std::size_t blockTokens = 16;
    /**
     * Fraction of the capacity paged admission keeps free as growth
     * headroom while requests are running (vLLM's watermark): a
     * waiting request is only admitted if its blocks fit within
     * capacity x (1 - lowWatermark). Growth of already-running
     * requests and admission into an idle engine ignore it.
     */
    double lowWatermark = 0.05;
};

/**
 * The full-footprint bytes a request holds at its largest, under
 * @p kv's policy: 0 for decodeLen == 0 (no KV is ever retained),
 * exact bytes under Reserve, block-rounded bytes under Paged.
 */
double kvFootprintBytes(const KvOptions &kv, double bytesPerToken,
                        std::size_t promptLen, std::size_t decodeLen);

/**
 * Block-granular KV pool ledger (deterministic; internally
 * synchronized so shard views and monitors may read it concurrently
 * with the owning event core — the clang thread-safety lane checks
 * every ledger access is made under the annotated mutex).
 *
 * Capacity decisions (fits()) read only the allocated-bytes ledger,
 * which changes solely at block boundaries, admissions, preemptions
 * and completions — the discrete events the serving core's coalesced
 * stepping breaks its windows at. The needed-bytes ledger is
 * statistics-only (fragmentation/utilization), so advancing it in a
 * closed-form lump between boundaries can never flip a decision.
 */
class KvBlockManager
{
  public:
    explicit KvBlockManager(const KvOptions &opts);

    bool unbounded() const { return kvUnbounded(opts_.capacityBytes); }
    const KvOptions &options() const { return opts_; }

    /**
     * Bytes a request with @p bytesPerToken per-token KV holds when
     * @p tokens tokens are resident, rounded up to whole blocks.
     */
    double allocatedBytes(double bytesPerToken, std::size_t tokens) const;

    /**
     * Would growing the pool by @p extraBytes fit? @p admission
     * additionally reserves the low-watermark headroom (only applied
     * by admission while other requests are running). Always true
     * when unbounded.
     */
    bool fits(double extraBytes, bool admission) const;

    /** Charge @p allocated block bytes covering @p needed exact bytes. */
    void add(double allocated, double needed);

    /** Release bytes previously charged with add(). */
    void remove(double allocated, double needed);

    /**
     * Clear the floating-point residue of an empty pool (an idle
     * engine holds no KV); panic() if more than residue remains —
     * that would be a leaked allocation.
     */
    void clearIdleResidual();

    double usedBytes() const;
    double neededBytes() const;
    double peakUsedBytes() const;
    /** Peak internal fragmentation (allocated - needed) in bytes. */
    double peakFragmentationBytes() const;

  private:
    KvOptions opts_;
    mutable Mutex mutex_;
    /** Allocated (block-rounded) bytes. */
    double used_ MCBP_GUARDED_BY(mutex_) = 0.0;
    /** Exact bytes the resident tokens need. */
    double needed_ MCBP_GUARDED_BY(mutex_) = 0.0;
    double peakUsed_ MCBP_GUARDED_BY(mutex_) = 0.0;
    double peakFrag_ MCBP_GUARDED_BY(mutex_) = 0.0;
};

} // namespace mcbp::engine
