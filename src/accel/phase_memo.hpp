/**
 * @file
 * Per-costing memo of MCBP phase prices.
 *
 * A shape's price is two phases (phase_plan.hpp), and neither depends
 * on the whole shape. Prefill reads only the prompt length (plus the
 * attention bucket it falls in). Decode's per-step layer cost reads
 * only the average context promptLen + decodeLen/2, exact for every
 * shape with the same 2*promptLen + decodeLen, and that bucket;
 * decodeLen = steps only multiplies. So McbpAccelerator splits a phase
 * into a steps-independent PhaseStep (everything through the composed
 * layer) and a tail that multiplies it by the layers and steps, and a
 * trace costing memoizes per phase instead of per shape, the way
 * intgemm's PrepareB prepares the fixed operand once and applies it
 * many times.
 *
 * The memo holds three tables, each keyed by a PhaseMemo::Key:
 *  - the weight and attention profiles, resolved once per (chip,
 *    model, concentration, batch, bucket): no ProfileCache lock or
 *    string key per shape;
 *  - finished prefill PhaseMetrics, keyed by the prompt length;
 *  - decode PhaseSteps, keyed by 2*promptLen + decodeLen; each shape
 *    still runs its own tail, so every `x * layers * steps` product
 *    and every integer energy count is the one a direct run() makes.
 *
 * Entries are exact, so a memoized plan is bit-identical to an
 * unmemoized one. The memo is single-threaded (one per costing
 * thread) and keys on addresses: the chip and the models it prices
 * must outlive it unchanged. Each table is an open-addressing hash
 * over one entry vector. Costing walks shapes in promptLen order, so
 * a prefill below the current prompt length, or a decode context
 * below twice it, can never be asked for again: a full table drops
 * those before it grows. A costing's memo therefore holds a window of
 * about the trace's decode-length spread, stays in cache and
 * allocates a few times, however long the trace (trace costing has a
 * heap budget; see test_pricing_allocations).
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "accel/report.hpp"
#include "sim/pe_cluster.hpp"
#include "sim/pipeline.hpp"

namespace mcbp::model {
struct LlmConfig;
} // namespace mcbp::model

namespace mcbp::accel {

struct WeightStats;
struct AttentionStats;

/**
 * The steps-independent part of one MCBP phase: per layer, per step
 * and per processor, everything the tail multiplies out.
 */
struct PhaseStep
{
    double layers = 0.0;
    double procs = 1.0;
    bool weightResident = false;
    sim::StageCycles stages;
    sim::LayerLatency latency;
    sim::BrcrWork linearWork;
    double denseMacs = 0.0;    ///< Linear plus attention dense MACs.
    double executedAdds = 0.0; ///< Linear, attention and prediction ops.
    double linearAdds = 0.0;
    double attentionAdds = 0.0;
    double predictionBitMacs = 0.0;
    double weightBytes = 0.0;    ///< Compressed weight stream.
    double weightBytesRaw = 0.0; ///< Decompressed weights.
    double predictionBytes = 0.0;
    double kvBytes = 0.0;
    double actBytes = 0.0;
    double sfuOps = 0.0;
    double decodeSymbols = 0.0;
};

/** Phase prices of one trace costing; see the file comment. */
class PhaseMemo
{
  public:
    /** What a phase depends on besides the chip's own options. */
    struct Key
    {
        const void *chip = nullptr;
        const model::LlmConfig *model = nullptr;
        double concentration = 0.0;
        std::size_t batch = 0;
        std::size_t bucket = 0; ///< Attention context bucket.
        /** 0 for profiles, promptLen for prefill,
         *  2*promptLen + decodeLen for decode. */
        std::size_t length = 0;
        bool operator==(const Key &) const = default;
    };

    /** The profiles a chip prices one (model, bucket) with. */
    struct Profiles
    {
        const WeightStats *weights = nullptr;
        const AttentionStats *attention = nullptr;
    };

    /** The profiles of @p key, from @p resolve on first use. */
    template <typename Fn>
    Profiles
    profiles(const Key &key, Fn &&resolve)
    {
        return profiles_.get(key, 0, resolve);
    }

    /** The prefill of @p key (length = promptLen), from @p evaluate on
     *  first use. The reference is valid until the next call. */
    template <typename Fn>
    const PhaseMetrics &
    prefill(const Key &key, Fn &&evaluate)
    {
        return prefill_.get(key, key.length, evaluate);
    }

    /** The decode step of @p key (length = 2*promptLen + decodeLen)
     *  for a shape of @p promptLen, from @p evaluate on first use. The
     *  reference is valid until the next call. */
    template <typename Fn>
    const PhaseStep &
    decodeStep(const Key &key, std::size_t promptLen, Fn &&evaluate)
    {
        return decode_.get(key, 2 * promptLen, evaluate);
    }

    /** Phase evaluations made so far: prefill and decode misses. */
    std::size_t
    evaluations() const
    {
        return prefill_.evaluations() + decode_.evaluations();
    }

  private:
    template <typename Value> class Table
    {
      public:
        /**
         * The value of @p key, computed on a miss. A caller walking
         * shapes in promptLen order never again asks for a length
         * below @p floor, so when the table fills, those entries are
         * dropped before it grows: it holds the walk's live window,
         * not the trace. Out of order, a dropped entry is only
         * computed again.
         */
        template <typename Fn>
        const Value &
        get(const Key &key, std::size_t floor, Fn &&compute)
        {
            if (2 * (entries_.size() + 1) > slots_.size()) {
                std::erase_if(entries_, [&](const auto &e) {
                    return e.first.length < floor;
                });
                rehash(4 * (entries_.size() + 1) > slots_.size()
                           ? std::max<std::size_t>(256, 4 * slots_.size())
                           : slots_.size());
            }
            const std::size_t mask = slots_.size() - 1;
            std::size_t i = hash(key) & mask;
            for (; slots_[i] != 0; i = (i + 1) & mask)
                if (entries_[slots_[i] - 1].first == key)
                    return entries_[slots_[i] - 1].second;
            // compute() may throw: nothing is inserted before it returns.
            entries_.emplace_back(key, compute());
            slots_[i] = static_cast<std::uint32_t>(entries_.size());
            ++evaluations_;
            return entries_.back().second;
        }

        /** Misses so far, dropped entries included. */
        std::size_t evaluations() const { return evaluations_; }

      private:
        static std::size_t
        hash(const Key &k)
        {
            std::uint64_t h = 0;
            // + 0.0 maps -0.0 to 0.0, which compare equal.
            for (const std::uint64_t v :
                 {std::uint64_t{reinterpret_cast<std::uintptr_t>(k.chip)},
                  std::uint64_t{reinterpret_cast<std::uintptr_t>(k.model)},
                  std::bit_cast<std::uint64_t>(k.concentration + 0.0),
                  std::uint64_t{k.batch}, std::uint64_t{k.bucket},
                  std::uint64_t{k.length}})
                h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
            return static_cast<std::size_t>(h ^ (h >> 32));
        }

        /** Slots for @p capacity (a power of two), refilled in entry
         *  order, and room for the entries they can hold. */
        void
        rehash(std::size_t capacity)
        {
            entries_.reserve(capacity / 2);
            slots_.assign(capacity, 0);
            for (std::size_t e = 0; e < entries_.size(); ++e) {
                std::size_t i = hash(entries_[e].first) & (capacity - 1);
                while (slots_[i] != 0)
                    i = (i + 1) & (capacity - 1);
                slots_[i] = static_cast<std::uint32_t>(e + 1);
            }
        }

        std::vector<std::pair<Key, Value>> entries_;
        std::vector<std::uint32_t> slots_; ///< Entry index + 1; 0 = free.
        std::size_t evaluations_ = 0;
    };

    Table<Profiles> profiles_;
    Table<PhaseMetrics> prefill_;
    Table<PhaseStep> decode_;
};

} // namespace mcbp::accel
