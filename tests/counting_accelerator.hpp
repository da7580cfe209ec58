/**
 * @file
 * Test decorator that counts the batch-1 runs an accelerator prices.
 * Accelerator::run() is a non-virtual shim over plan(), so counting
 * plan() calls counts every run() the serving layer makes.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

#include "engine/accelerator.hpp"

namespace mcbp::engine {

/** Forwards everything to @p inner and counts plan() calls. */
class CountingAccelerator : public Accelerator
{
  public:
    explicit CountingAccelerator(std::unique_ptr<Accelerator> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    std::string runName() const override { return inner_->runName(); }
    Capabilities capabilities() const override
    {
        return inner_->capabilities();
    }
    std::string configSummary() const override
    {
        return inner_->configSummary();
    }
    accel::ExecutionPlan plan(const model::LlmConfig &model,
                              const model::Workload &task,
                              accel::PhaseMemo *memo = nullptr) const override
    {
        ++runs_;
        return inner_->plan(model, task, memo);
    }
    void
    profileRequests(const model::LlmConfig &model,
                    const model::Workload &task,
                    std::vector<accel::ProfileRequest> &out) const override
    {
        inner_->profileRequests(model, task, out);
    }
    std::shared_ptr<accel::ProfileCache> profileCache() const override
    {
        return inner_->profileCache();
    }

    /** plan() (and therefore run()) calls so far. */
    std::size_t runs() const { return runs_.load(); }

  private:
    std::unique_ptr<Accelerator> inner_;
    mutable std::atomic<std::size_t> runs_{0};
};

} // namespace mcbp::engine
