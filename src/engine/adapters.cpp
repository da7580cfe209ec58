#include "engine/adapters.hpp"

#include <sstream>
#include <utility>

#include "common/logging.hpp"

namespace mcbp::engine {

// ---- McbpAdapter -----------------------------------------------------------

McbpAdapter::McbpAdapter(accel::McbpAccelerator impl)
    : impl_(std::move(impl))
{
}

Capabilities
McbpAdapter::capabilities() const
{
    const accel::McbpOptions &o = impl_.options();
    Capabilities c;
    // Even the ablation baseline optimizes every path (value-level
    // compression / top-k); the toggles choose bit- vs value-level.
    c.gemmOptimized = true;
    c.attentionOptimized = true;
    c.weightTrafficOptimized = true;
    c.kvTrafficOptimized = true;
    c.decodeOptimized = true;
    c.bitLevel = o.enableBrcr || o.enableBstc || o.enableBgpp;
    c.processors = o.processors;
    c.clockGhz = impl_.hardware().clockGhz;
    c.hbmCapacityBytes = impl_.hardware().hbmCapacityGb * 1e9 *
                         static_cast<double>(o.processors);
    return c;
}

std::string
McbpAdapter::configSummary() const
{
    const accel::McbpOptions &o = impl_.options();
    std::ostringstream os;
    os << name() << ": alpha=" << o.alpha << ", processors="
       << o.processors << ", BRCR=" << (o.enableBrcr ? "on" : "off")
       << ", BSTC=" << (o.enableBstc ? "on" : "off")
       << ", BGPP=" << (o.enableBgpp ? "on" : "off") << "\n"
       << impl_.hardware().toString();
    return os.str();
}

accel::ExecutionPlan
McbpAdapter::plan(const model::LlmConfig &model,
                  const model::Workload &task, accel::PhaseMemo *memo) const
{
    return impl_.plan(model, task, memo);
}

void
McbpAdapter::profileRequests(const model::LlmConfig &model,
                             const model::Workload &task,
                             std::vector<accel::ProfileRequest> &out) const
{
    // run() always consults both profiles (even the ablation baseline
    // derives its value-level traits from them).
    const accel::McbpOptions &o = impl_.options();
    accel::announce(out, model, task,
                    {.weights = true, .attention = true, .alpha = o.alpha,
                     .seed = o.seed, .bitWidth = o.bitWidth});
}

// ---- BaselineAdapter -------------------------------------------------------

BaselineAdapter::BaselineAdapter(
    std::string name, TraitsMaker maker, Capabilities caps,
    std::shared_ptr<accel::ProfileCache> profiles, sim::McbpConfig hw,
    accel::ProfileNeeds needs)
    : name_(std::move(name)), maker_(std::move(maker)), caps_(caps),
      profiles_(std::move(profiles)), hw_(hw), needs_(needs)
{
    fatalIf(!maker_, "baseline adapter needs a traits maker");
    fatalIf(!profiles_, "baseline adapter needs a profile cache");
    caps_.clockGhz = hw_.clockGhz;
    caps_.hbmCapacityBytes = hw_.hbmCapacityGb * 1e9;
}

std::string
BaselineAdapter::configSummary() const
{
    std::ostringstream os;
    os << name_ << ": trait-based SOTA baseline on the shared platform ("
       << hw_.clockGhz << " GHz, " << hw_.totalSramKb() << " kB SRAM, "
       << hw_.hbmBitsPerCoreCycle << " bit/cycle HBM); traits derive "
       << "from the measured profile of each (model, task)";
    return os.str();
}

accel::BaselineTraits
BaselineAdapter::traitsFor(const model::LlmConfig &model,
                           const model::Workload &task) const
{
    return maker_(*profiles_, model, task);
}

accel::ExecutionPlan
BaselineAdapter::plan(const model::LlmConfig &model,
                      const model::Workload &task,
                      accel::PhaseMemo *memo) const
{
    (void)memo; // The trait model has no phase split to memoize.
    return accel::BaselineAccelerator(traitsFor(model, task), hw_)
        .plan(model, task);
}

void
BaselineAdapter::profileRequests(
    const model::LlmConfig &model, const model::Workload &task,
    std::vector<accel::ProfileRequest> &out) const
{
    accel::announce(out, model, task, needs_);
}

// ---- GpuAdapter ------------------------------------------------------------

GpuAdapter::GpuAdapter(accel::GpuParams params,
                       accel::GpuSoftwareOptions sw,
                       std::shared_ptr<accel::ProfileCache> profiles,
                       double alpha, std::uint64_t seed)
    : impl_(params, sw), profiles_(std::move(profiles)), alpha_(alpha),
      seed_(seed)
{
    fatalIf(!profiles_, "GPU adapter needs a profile cache");
}

Capabilities
GpuAdapter::capabilities() const
{
    const accel::GpuSoftwareOptions &sw = impl_.software();
    Capabilities c;
    c.gemmOptimized = sw.brcr;
    c.attentionOptimized = sw.bgpp;
    c.weightTrafficOptimized = sw.bstc;
    c.kvTrafficOptimized = sw.bgpp;
    c.decodeOptimized = true; // batching works in both stages.
    c.bitLevel = false;       // SIMT lanes stay value-level.
    c.processors = 1;
    c.clockGhz = impl_.params().clockGhz;
    c.hbmCapacityBytes = impl_.params().hbmCapacityBytes;
    return c;
}

std::string
GpuAdapter::configSummary() const
{
    const accel::GpuParams &p = impl_.params();
    std::ostringstream os;
    os << name() << ": " << p.int8Tops << " peak INT8 TOPS @ "
       << p.computeUtilization * 100.0 << "% util, "
       << p.hbmBytesPerSec / 1e12 << " TB/s HBM @ "
       << p.decodeBwUtilization * 100.0 << "% util, "
       << p.dynamicWatts << " W dynamic";
    return os.str();
}

accel::ExecutionPlan
GpuAdapter::plan(const model::LlmConfig &model,
                 const model::Workload &task,
                 accel::PhaseMemo *memo) const
{
    (void)memo; // The roofline has no phase split to memoize.
    const accel::WeightStats &ws =
        profiles_->weights(model, quant::BitWidth::Int8, seed_);
    const accel::AttentionStats &as =
        profiles_->attention(model, task, alpha_, seed_);
    return impl_.plan(model, task, ws, as);
}

void
GpuAdapter::profileRequests(const model::LlmConfig &model,
                            const model::Workload &task,
                            std::vector<accel::ProfileRequest> &out) const
{
    accel::announce(out, model, task,
                    {.weights = true, .attention = true, .alpha = alpha_,
                     .seed = seed_, .bitWidth = quant::BitWidth::Int8});
}

} // namespace mcbp::engine
