/**
 * @file
 * Fig 17: normalized computation (prefill stage) and normalized memory
 * access (decoding stage) of LLM inference across accelerators and the
 * five models.
 *
 * Paper shape: SOFA (value-level, attention-only) is the computation
 * baseline; Bitwave improves ~32%, FuseKNA ~49%, MCBP up to ~72.4%.
 * For memory, FuseKNA (value RLE) is the baseline and MCBP averages
 * ~75.8% reduction.
 */
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "engine/registry.hpp"

using namespace mcbp;

int
main()
{
    bench::banner("Fig 17: normalized prefill computation and decode "
                  "memory access across accelerators");

    const model::Workload task = model::findTask("Wikilingua");

    // One fleet, one shared profile cache, every design on equal data.
    // Results are indexed by spec order, like fig23 — not by display
    // name, which would couple the bench to the name() heuristics.
    engine::Registry registry;
    enum { kSofa, kSpatten, kFact, kBitwave, kFusekna, kEnergon, kMcbp };
    auto fleet = registry.fleet({"sofa", "spatten", "fact", "bitwave",
                                 "fusekna", "energon", "mcbp"});
    // Profile the whole working set on all cores before the serial
    // figure loop (bit-identical stats either way).
    registry.warmFleet(fleet, model::modelZoo(), {task});

    Table comp({"Model", "SOFA", "Spatten", "FACT", "Bitwave", "FuseKNA",
                "MCBP"});
    Table mem({"Model", "FuseKNA", "FACT", "Spatten", "Energon", "Bitwave",
               "MCBP"});

    for (const auto &m : model::modelZoo()) {
        std::vector<accel::RunMetrics> runs;
        for (const auto &accel : fleet)
            runs.push_back(accel->run(m, task));

        // Computation: effective datapath ops in prefill, normalized to
        // SOFA (the paper's computation baseline).
        const double base_c = runs[kSofa].prefill.executedAdds;
        auto c = [&](std::size_t i) {
            return fmt(runs[i].prefill.executedAdds / base_c);
        };
        comp.addRow({m.name, fmt(1.0), c(kSpatten), c(kFact),
                     c(kBitwave), c(kFusekna), c(kMcbp)});

        // Memory: total decode-stage traffic, normalized to FuseKNA.
        const double base_m = runs[kFusekna].decode.traffic.total();
        auto d = [&](std::size_t i) {
            return fmt(runs[i].decode.traffic.total() / base_m);
        };
        mem.addRow({m.name, fmt(1.0), d(kFact), d(kSpatten),
                    d(kEnergon), d(kBitwave), d(kMcbp)});
    }

    std::cout << "\nNormalized computation (prefill, lower is better):\n";
    comp.print(std::cout);
    std::cout << "\nNormalized memory access (decoding, lower is better):\n";
    mem.print(std::cout);
    std::cout << "\nPaper reference: MCBP reduces computation up to 72.4% "
                 "vs the value-level baseline and memory access 75.8% on "
                 "average.\n";

    // Where the cycles live, per layer segment: the execution plan's
    // decomposition (Accelerator::plan) sliced into quarters of the
    // decoder stack — the unit a pipeline stage would own. The decode
    // weight-stream vs compute split is the quantity pp= (per-stage
    // HBM) and continuous batching (shared stream) both exploit.
    bench::banner("Plan decomposition: decode weight stream vs compute "
                  "per quarter of the stack (Llama7B, Wikilingua)");
    {
        const model::LlmConfig &m7 = model::findModel("Llama7B");
        Table seg({"Accel", "Segment", "Decode cycles",
                   "Weight stream", "Linear work", "Weight bytes"});
        for (std::size_t idx : {std::size_t(kMcbp), std::size_t(kSofa)}) {
            const accel::ExecutionPlan plan =
                fleet[idx]->plan(m7, task);
            const std::size_t quarter = plan.modelLayers / 4;
            for (std::size_t q = 0; q < 4; ++q) {
                const accel::PlanSegment s =
                    plan.slice(q * quarter, quarter);
                seg.addRow({fleet[idx]->name(), s.label(),
                            fmt(s.decode.cycles, 0),
                            fmt(s.decode.weightStreamCycles, 0),
                            fmt(s.decode.linearWorkCycles, 0),
                            fmt(s.decode.traffic.weightBytes, 0)});
            }
        }
        seg.print(std::cout);
        std::cout << "Homogeneous stacks decompose uniformly — each "
                     "quarter carries 1/4 of the stream and compute — "
                     "which is exactly what lets pp= stages divide "
                     "layer segments instead of rescaling whole runs.\n";
    }
    return 0;
}
