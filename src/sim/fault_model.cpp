#include "sim/fault_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace mcbp::sim {

namespace {

/** Exponential inter-arrival draw with the given mean. uniform() is
 *  in [0, 1), so the argument of log stays in (0, 1]. */
double
exponential(Rng &rng, double meanSeconds)
{
    return -meanSeconds * std::log(1.0 - rng.uniform());
}

void
validateKnobs(const FaultSpec &spec)
{
    fatalIf(spec.mtbfSeconds < 0.0, "mtbfSeconds must be >= 0");
    fatalIf(spec.mtbfSeconds > 0.0 && spec.repairSeconds <= 0.0,
            "repairSeconds must be positive when chip failures are on");
    fatalIf(spec.permanentFraction < 0.0 || spec.permanentFraction > 1.0,
            "permanentFraction must be in [0, 1]");
    fatalIf(spec.linkDegradeRate < 0.0, "linkDegradeRate must be >= 0");
    fatalIf(spec.linkDegradeRate > 0.0 &&
                (spec.linkDegradeFactor <= 0.0 ||
                 spec.linkDegradeFactor > 1.0),
            "linkDegradeFactor must be in (0, 1]");
    fatalIf(spec.linkDegradeRate > 0.0 && spec.linkDegradeSeconds <= 0.0,
            "linkDegradeSeconds must be positive");
    fatalIf(spec.stragglerRate < 0.0, "stragglerRate must be >= 0");
    fatalIf(spec.stragglerRate > 0.0 && spec.stragglerSlowdown < 1.0,
            "stragglerSlowdown must be >= 1");
    fatalIf(spec.stragglerRate > 0.0 && spec.stragglerSeconds <= 0.0,
            "stragglerSeconds must be positive");
    fatalIf(spec.enabled() && spec.events.empty() &&
                spec.horizonSeconds <= 0.0,
            "fault injection needs horizonSeconds > 0 to sample the "
            "failure processes");
}

/** Poisson windows of one fleet-wide process: a (start, end) event
 *  pair per arrival, carried factor on both ends. */
void
emitWindows(Rng &rng, double rate, double duration, double factor,
            double horizon, FaultKind start, FaultKind end,
            std::vector<FaultEvent> &out)
{
    if (rate <= 0.0)
        return;
    double t = 0.0;
    while (true) {
        t += exponential(rng, 1.0 / rate);
        if (t >= horizon)
            break;
        FaultEvent open;
        open.at = t;
        open.kind = start;
        open.factor = factor;
        out.push_back(open);
        FaultEvent close = open;
        close.at = t + duration;
        close.kind = end;
        out.push_back(close);
    }
}

void
validateEvent(const FaultEvent &e, std::size_t chips)
{
    fatalIf(e.at < 0.0, "fault event time must be >= 0");
    switch (e.kind) {
    case FaultKind::ChipFail:
        if (e.chip >= chips)
            fatal("fault event names chip " + std::to_string(e.chip) +
                  " but the fleet has " + std::to_string(chips) +
                  " fault domains");
        fatalIf(!e.permanent && e.repairAt <= e.at,
                "transient chip failure needs repairAt > at");
        break;
    case FaultKind::ChipRepair:
        fatalIf(e.chip >= chips, "repair names an out-of-range chip");
        break;
    case FaultKind::LinkDegrade:
        fatalIf(e.factor <= 0.0 || e.factor > 1.0,
                "link degradation factor must be in (0, 1]");
        break;
    case FaultKind::StragglerStart:
        fatalIf(e.factor < 1.0, "straggler slowdown must be >= 1");
        break;
    case FaultKind::LinkRestore:
    case FaultKind::StragglerEnd:
        break;
    }
}

} // namespace

std::string
toString(FaultKind kind)
{
    switch (kind) {
    case FaultKind::ChipFail:
        return "chip-fail";
    case FaultKind::ChipRepair:
        return "chip-repair";
    case FaultKind::LinkDegrade:
        return "link-degrade";
    case FaultKind::LinkRestore:
        return "link-restore";
    case FaultKind::StragglerStart:
        return "straggler-start";
    case FaultKind::StragglerEnd:
        return "straggler-end";
    }
    return "unknown";
}

std::vector<FaultEvent>
buildFaultTimeline(const FaultSpec &spec, std::size_t chips)
{
    fatalIf(chips == 0, "a fleet has at least one fault domain");
    validateKnobs(spec);

    std::vector<FaultEvent> out;
    if (!spec.events.empty()) {
        // Hand-authored timeline. A transient chip failure implies its
        // repair, so emit the matching ChipRepair exactly as the
        // generated renewal process would — authors write one event
        // per failure and the healing is never forgotten.
        for (const FaultEvent &e : spec.events) {
            out.push_back(e);
            if (e.kind == FaultKind::ChipFail && !e.permanent) {
                FaultEvent repair;
                repair.at = e.repairAt;
                repair.kind = FaultKind::ChipRepair;
                repair.chip = e.chip;
                out.push_back(repair);
            }
        }
    } else if (spec.enabled()) {
        // One master stream per timeline, split per process so the
        // chip count never re-phases an individual chip's draws
        // against its own history. Stream-separated from trace
        // synthesis by construction (kFaultStream).
        Rng master(spec.seed ^ kFaultStream);

        // Per-chip renewal process: exponential time-to-failure at
        // the MTBF, fixed repair, permanent with the configured
        // probability (a permanent failure ends the chip's process).
        for (std::size_t chip = 0; chip < chips; ++chip) {
            Rng rng = master.split();
            if (spec.mtbfSeconds <= 0.0)
                continue;
            double t = 0.0;
            while (true) {
                t += exponential(rng, spec.mtbfSeconds);
                if (t >= spec.horizonSeconds)
                    break;
                FaultEvent fail;
                fail.at = t;
                fail.kind = FaultKind::ChipFail;
                fail.chip = chip;
                fail.permanent = rng.bernoulli(spec.permanentFraction);
                fail.repairAt = t + spec.repairSeconds;
                out.push_back(fail);
                if (fail.permanent)
                    break;
                FaultEvent repair;
                repair.at = fail.repairAt;
                repair.kind = FaultKind::ChipRepair;
                repair.chip = chip;
                out.push_back(repair);
                t = fail.repairAt;
            }
        }

        Rng link = master.split();
        emitWindows(link, spec.linkDegradeRate, spec.linkDegradeSeconds,
                    spec.linkDegradeFactor, spec.horizonSeconds,
                    FaultKind::LinkDegrade, FaultKind::LinkRestore, out);
        Rng straggler = master.split();
        emitWindows(straggler, spec.stragglerRate, spec.stragglerSeconds,
                    spec.stragglerSlowdown, spec.horizonSeconds,
                    FaultKind::StragglerStart, FaultKind::StragglerEnd,
                    out);
    }

    for (const FaultEvent &e : out)
        validateEvent(e, chips);
    // Stable: simultaneous events keep their emission order, so the
    // timeline is deterministic down to ties.
    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].id = i;
    return out;
}

} // namespace mcbp::sim
