/**
 * @file
 * NVIDIA A100 roofline model (section 5.1 "GPU comparison") and the
 * "software-only on GPU" variants of Fig 21 (MCBP's algorithms deployed
 * on the GPU without hardware support).
 *
 * Stands in for the paper's TensorRT-LLM measurements: per phase, latency
 * is max(compute, memory) with published peak numbers (624 TOPS INT8,
 * 2 TB/s HBM2e) derated by measured utilization factors; dynamic power is
 * the active-minus-idle figure the paper's nvidia-smi methodology yields.
 *
 * The software variants apply each MCBP algorithm's *logical* savings but
 * charge the GPU's published inefficiencies for fine-grained bit
 * operations (irregular gather/merge, value->bit reorder, poor SM
 * utilization) — reproducing the paper's observation that the algorithms
 * alone yield only ~1.0-1.4x on a GPU.
 */
#pragma once

#include "accel/execution_plan.hpp"
#include "accel/profiles.hpp"
#include "accel/report.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"

namespace mcbp::accel {

/** A100 platform constants and derating factors. */
struct GpuParams
{
    double int8Tops = 624.0;        ///< Peak INT8 tensor-core TOPS.
    double hbmBytesPerSec = 2.0e12; ///< HBM2e bandwidth.
    double hbmCapacityBytes = 80e9; ///< HBM2e capacity (A100 80GB SXM).
    double computeUtilization = 0.40; ///< Large-GEMM tensor-core util.
    double decodeBwUtilization = 0.72;///< Achievable decode bandwidth.
    double dynamicWatts = 350.0;    ///< Active-minus-idle power.
    double clockGhz = 1.41;
    /** GPU-side efficiency of MCBP's algorithms (Fig 21 discussion). */
    double bitMergeEfficiency = 0.21;  ///< BRCR merging on SIMT.
    double bitDecodeEfficiency = 0.35; ///< BSTC decode on SIMT.
    double progPredEfficiency = 0.40;  ///< BGPP rounds on SIMT.
};

/** Which MCBP algorithms run (in software) on the GPU. */
struct GpuSoftwareOptions
{
    bool brcr = false;
    bool bstc = false;
    bool bgpp = false;
};

/** A100 model. */
class GpuA100Model
{
  public:
    explicit GpuA100Model(GpuParams params = {},
                          GpuSoftwareOptions sw = {});

    std::string name() const;

    const GpuParams &params() const { return p_; }
    const GpuSoftwareOptions &software() const { return sw_; }

    RunMetrics run(const model::LlmConfig &model,
                   const model::Workload &task,
                   const WeightStats &ws, const AttentionStats &as) const;

    /** Convenience overload that profiles internally (alpha 0.6). */
    RunMetrics run(const model::LlmConfig &model,
                   const model::Workload &task) const;

    /**
     * The execution-plan view (execution_plan.hpp). The roofline
     * composes whole phases (it does not price layers individually),
     * so the plan is unstaged, one uniform stage costing the totals;
     * fold(name()) returns the run bit-for-bit.
     */
    ExecutionPlan plan(const model::LlmConfig &model,
                       const model::Workload &task,
                       const WeightStats &ws,
                       const AttentionStats &as) const;

  private:
    GpuParams p_;
    GpuSoftwareOptions sw_;
};

} // namespace mcbp::accel
