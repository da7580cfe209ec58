#include "engine/scheduler.hpp"

#include "common/logging.hpp"

namespace mcbp::engine {

namespace {

/** Strict FIFO: the queue head or nobody (head-of-line blocking). */
class FifoScheduler final : public Scheduler
{
  public:
    std::string name() const override { return "fifo"; }

    std::size_t
    pick(const std::vector<AdmissionCandidate> &waiting) const override
    {
        if (!waiting.empty() && waiting.front().admissible)
            return 0;
        return npos;
    }
};

/** Oldest admissible request; a blocked head no longer stalls peers. */
class SkipAheadScheduler final : public Scheduler
{
  public:
    std::string name() const override { return "skip-ahead"; }

    std::size_t
    pick(const std::vector<AdmissionCandidate> &waiting) const override
    {
        for (std::size_t i = 0; i < waiting.size(); ++i)
            if (waiting[i].admissible)
                return i;
        return npos;
    }
};

/**
 * Cheapest aged prefill (SJF on prefill cost, ties by queue order).
 * The aging credit — agingWeight cycles of key per cycle waited —
 * bounds starvation: a long prompt outranks every fresh short arrival
 * once it has waited the prefill-cost difference, so its queue time
 * under a sustained short-prompt flood is bounded by its own prefill
 * cost over the aging weight (plus one service interval), instead of
 * by the flood's length.
 */
class ShortestPromptScheduler final : public Scheduler
{
  public:
    explicit ShortestPromptScheduler(double agingWeight)
        : agingWeight_(agingWeight)
    {
        fatalIf(agingWeight_ < 0.0, "SJF aging weight must be >= 0");
    }

    std::string name() const override { return "shortest-prompt"; }

    std::size_t
    pick(const std::vector<AdmissionCandidate> &waiting) const override
    {
        std::size_t best = npos;
        double best_key = 0.0;
        for (std::size_t i = 0; i < waiting.size(); ++i) {
            if (!waiting[i].admissible)
                continue;
            const double key = waiting[i].prefillCycles -
                               agingWeight_ * waiting[i].waitCycles;
            if (best == npos || key < best_key) {
                best = i;
                best_key = key;
            }
        }
        return best;
    }

  private:
    double agingWeight_;
};

} // namespace

std::string
toString(SchedulerPolicy policy)
{
    switch (policy) {
    case SchedulerPolicy::Fifo:
        return "fifo";
    case SchedulerPolicy::SkipAhead:
        return "skip-ahead";
    case SchedulerPolicy::ShortestPromptFirst:
        return "shortest-prompt";
    }
    panic("unhandled scheduler policy");
}

SchedulerPolicy
schedulerPolicyFromString(const std::string &name)
{
    for (SchedulerPolicy p : allSchedulerPolicies())
        if (name == toString(p))
            return p;
    fatal("unknown scheduler policy '" + name +
          "' (expected fifo, skip-ahead or shortest-prompt)");
}

const std::vector<SchedulerPolicy> &
allSchedulerPolicies()
{
    static const std::vector<SchedulerPolicy> all = {
        SchedulerPolicy::Fifo, SchedulerPolicy::SkipAhead,
        SchedulerPolicy::ShortestPromptFirst};
    return all;
}

std::unique_ptr<Scheduler>
makeScheduler(SchedulerPolicy policy, double sjfAgingWeight)
{
    switch (policy) {
    case SchedulerPolicy::Fifo:
        return std::make_unique<FifoScheduler>();
    case SchedulerPolicy::SkipAhead:
        return std::make_unique<SkipAheadScheduler>();
    case SchedulerPolicy::ShortestPromptFirst:
        return std::make_unique<ShortestPromptScheduler>(sjfAgingWeight);
    }
    panic("unhandled scheduler policy");
}

} // namespace mcbp::engine
