#include "engine/scheduler.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "engine/waiting_queue.hpp"

namespace mcbp::engine {

namespace {

/** Strict FIFO: the queue head or nobody (head-of-line blocking). */
class FifoScheduler final : public Scheduler
{
  public:
    std::string name() const override { return "fifo"; }

    AdmissionPick pick(const WaitingQueue &queue,
                       const AdmissionPass &pass) const override
    {
        const WaitingEntry &head = queue.head();
        if (pass.accepts(head.request->req->model) &&
            pass.fits(head.admitBytes))
            return {&head, false};
        // A blocked head defers when anything behind it is admissible.
        return {nullptr, queue.anyFits(pass)};
    }
};

/** Oldest admissible request; a blocked head no longer stalls peers. */
class SkipAheadScheduler final : public Scheduler
{
  public:
    std::string name() const override { return "skip-ahead"; }

    AdmissionPick pick(const WaitingQueue &queue,
                       const AdmissionPass &pass) const override
    {
        return {queue.firstFit(WaitOrder::Arrival, pass), false};
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
        // The queue orders requests by a key built from the weight: a
        // NaN key, or inf x 0 for a request arriving at t = 0, would
        // break that order.
        if (!std::isfinite(agingWeight_) || agingWeight_ < 0.0)
            fatal("sjfAgingWeight must be finite and >= 0, got " +
                  std::to_string(agingWeight_));
    }

    std::string name() const override { return "shortest-prompt"; }

    std::optional<double> prefillAging() const override
    {
        return agingWeight_;
    }

    AdmissionPick pick(const WaitingQueue &queue,
                       const AdmissionPass &pass) const override
    {
        return {queue.firstFit(WaitOrder::Prefill, pass), false};
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
