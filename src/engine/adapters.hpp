/**
 * @file
 * Adapters bridging the concrete accelerator models in src/accel/ onto
 * the unified engine::Accelerator interface.
 *
 * The SOTA baselines need measured workload profiles to instantiate
 * their traits (e.g. Spatten's pruning fractions come from the attention
 * profile), so BaselineAdapter resolves its traits lazily per (model,
 * task) through a shared accel::ProfileCache — the same cache the MCBP
 * and GPU adapters draw from, so one fleet profiles each workload once.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "accel/baselines.hpp"
#include "accel/gpu_model.hpp"
#include "accel/mcbp_accelerator.hpp"
#include "accel/profile_cache.hpp"
#include "engine/accelerator.hpp"

namespace mcbp::engine {

/** engine::Accelerator view of accel::McbpAccelerator. */
class McbpAdapter : public Accelerator
{
  public:
    explicit McbpAdapter(accel::McbpAccelerator impl);

    std::string name() const override { return impl_.name(); }
    Capabilities capabilities() const override;
    std::string configSummary() const override;
    accel::ExecutionPlan plan(const model::LlmConfig &model,
                              const model::Workload &task,
                              accel::PhaseMemo *memo = nullptr) const override;
    void profileRequests(
        const model::LlmConfig &model, const model::Workload &task,
        std::vector<accel::ProfileRequest> &out) const override;
    std::shared_ptr<accel::ProfileCache> profileCache() const override
    {
        return impl_.profileCache();
    }

    /** The wrapped model (for parity tests and profile inspection). */
    const accel::McbpAccelerator &underlying() const { return impl_; }

  private:
    accel::McbpAccelerator impl_;
};

/**
 * engine::Accelerator view of one SOTA baseline. Traits are derived
 * from the measured profiles of each (model, task) through @p maker;
 * @p needs declares which profiles the (opaque) maker demands, so
 * profileRequests() can announce them without invoking it.
 */
class BaselineAdapter : public Accelerator
{
  public:
    /** Builds traits from the profiles of one (model, task). */
    using TraitsMaker = std::function<accel::BaselineTraits(
        accel::ProfileCache &, const model::LlmConfig &,
        const model::Workload &)>;

    BaselineAdapter(std::string name, TraitsMaker maker, Capabilities caps,
                    std::shared_ptr<accel::ProfileCache> profiles,
                    sim::McbpConfig hw = sim::defaultConfig(),
                    accel::ProfileNeeds needs = {});

    std::string name() const override { return name_; }
    Capabilities capabilities() const override { return caps_; }
    std::string configSummary() const override;
    accel::ExecutionPlan plan(const model::LlmConfig &model,
                              const model::Workload &task,
                              accel::PhaseMemo *memo = nullptr) const override;
    void profileRequests(
        const model::LlmConfig &model, const model::Workload &task,
        std::vector<accel::ProfileRequest> &out) const override;
    std::shared_ptr<accel::ProfileCache> profileCache() const override
    {
        return profiles_;
    }

    /** The traits this adapter resolves for one (model, task). */
    accel::BaselineTraits traitsFor(const model::LlmConfig &model,
                                    const model::Workload &task) const;

  private:
    std::string name_;
    TraitsMaker maker_;
    Capabilities caps_;
    std::shared_ptr<accel::ProfileCache> profiles_;
    sim::McbpConfig hw_;
    accel::ProfileNeeds needs_;
};

/** engine::Accelerator view of the A100 roofline model. */
class GpuAdapter : public Accelerator
{
  public:
    GpuAdapter(accel::GpuParams params, accel::GpuSoftwareOptions sw,
               std::shared_ptr<accel::ProfileCache> profiles,
               double alpha = 0.6, std::uint64_t seed = 1);

    std::string name() const override { return impl_.name(); }
    Capabilities capabilities() const override;
    std::string configSummary() const override;
    accel::ExecutionPlan plan(const model::LlmConfig &model,
                              const model::Workload &task,
                              accel::PhaseMemo *memo = nullptr) const override;
    void profileRequests(
        const model::LlmConfig &model, const model::Workload &task,
        std::vector<accel::ProfileRequest> &out) const override;
    std::shared_ptr<accel::ProfileCache> profileCache() const override
    {
        return profiles_;
    }

    const accel::GpuA100Model &underlying() const { return impl_; }

  private:
    accel::GpuA100Model impl_;
    std::shared_ptr<accel::ProfileCache> profiles_;
    double alpha_;
    std::uint64_t seed_;
};

} // namespace mcbp::engine
