#include "engine/registry.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "engine/adapters.hpp"
#include "engine/cluster.hpp"
#include "engine/fleet.hpp"
#include "engine/health.hpp"
#include "engine/pipeline.hpp"

namespace mcbp::engine {

namespace {

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Parsed `name[:key=value,...]` spec: lower-cased keys, spec order. */
struct ParsedSpec
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> options;
};

ParsedSpec
parseSpec(const std::string &spec)
{
    ParsedSpec p;
    const std::size_t colon = spec.find(':');
    p.name = toLower(spec.substr(0, colon));
    fatalIf(p.name.empty(), "empty accelerator spec");
    if (colon == std::string::npos)
        return p;
    std::string rest = spec.substr(colon + 1);
    std::size_t pos = 0;
    while (pos < rest.size()) {
        const std::size_t comma = rest.find(',', pos);
        const std::string kv =
            rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("malformed option '" + kv + "' in spec '" + spec + "'");
        std::string key = toLower(kv.substr(0, eq));
        // Keeping either copy would silently ignore the other.
        for (const auto &seen : p.options)
            if (seen.first == key)
                fatal("option '" + key + "' repeated in spec '" + spec +
                      "'");
        p.options.emplace_back(std::move(key), kv.substr(eq + 1));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return p;
}

const std::string *
findOption(const ParsedSpec &p, const std::string &key)
{
    for (const auto &kv : p.options)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

double
toDouble(const std::string &key, const std::string &value)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(value, &used);
        fatalIf(used != value.size(), "trailing characters");
        // NaN would slip through every later `v < min` range check.
        fatalIf(std::isnan(v), "not a number");
        return v;
    } catch (const std::exception &) {
        fatal("bad numeric value '" + value + "' for option '" + key +
              "'");
    }
}

bool
toBool(const std::string &key, const std::string &value)
{
    const std::string v = toLower(value); // grammar is case-insensitive.
    if (v == "0" || v == "off" || v == "false")
        return false;
    if (v == "1" || v == "on" || v == "true")
        return true;
    fatal("bad boolean value '" + value + "' for option '" + key + "'");
}

/** The one integer grammar: any number that is a whole value >= 0. */
std::size_t
toCount(const std::string &key, const std::string &value)
{
    const double v = toDouble(key, value);
    if (v < 0.0 || v != std::floor(v) || v > 1e18)
        fatal("option '" + key + "' needs a non-negative integer, got '" +
              value + "'");
    return static_cast<std::size_t>(v);
}

ReplicaPolicy
toPolicy(const std::string &, const std::string &value)
{
    return replicaPolicyFromString(toLower(value));
}

/**
 * Consume option @p key: std::nullopt when absent, else its value
 * read by @p parse (toCount, toDouble, toBool or toPolicy). Whatever
 * no take() consumed is reported by rejectUnknown().
 */
template <typename Parse>
std::optional<std::invoke_result_t<Parse, std::string, std::string>>
take(ParsedSpec &p, const std::string &key, Parse parse)
{
    for (auto it = p.options.begin(); it != p.options.end(); ++it)
        if (it->first == key) {
            auto v = parse(key, it->second);
            p.options.erase(it);
            return v;
        }
    return std::nullopt;
}

Capabilities
baselineCaps(bool gemm, bool attn, bool weight, bool kv, bool decode,
             bool bit)
{
    Capabilities c;
    c.gemmOptimized = gemm;
    c.attentionOptimized = attn;
    c.weightTrafficOptimized = weight;
    c.kvTrafficOptimized = kv;
    c.decodeOptimized = decode;
    c.bitLevel = bit;
    return c;
}

/**
 * One SOTA baseline design: the single source of truth for its spec
 * name, display name, trait derivation (and therefore which options
 * apply), and capability flags. knownSpecs(), spec lookup and option
 * validation all derive from this table, so adding a design is one
 * entry here.
 *
 * Capability flags follow paper Table 1 (Sanger and FACT reduce
 * attention compute but not formal KV-cache traffic there; the 'low'
 * entries for Energon/SpAtten map to yes).
 */
struct BaselineDef
{
    const char *spec;
    const char *display;
    /** Exactly one of these is set (none for the dense reference). */
    accel::BaselineTraits (*fromAttention)(const accel::AttentionStats &);
    accel::BaselineTraits (*fromWeights)(const accel::WeightStats &);
    Capabilities caps;
};

const std::vector<BaselineDef> &
baselineDefs()
{
    static const std::vector<BaselineDef> defs = {
        {"systolic", "Systolic", nullptr, nullptr,
         baselineCaps(false, false, false, false, false, false)},
        {"sanger", "Sanger", accel::makeSanger, nullptr,
         baselineCaps(false, true, false, false, false, false)},
        {"spatten", "Spatten", accel::makeSpatten, nullptr,
         baselineCaps(true, true, false, true, true, false)},
        {"fact", "FACT", accel::makeFact, nullptr,
         baselineCaps(true, true, true, false, false, false)},
        {"sofa", "SOFA", accel::makeSofa, nullptr,
         baselineCaps(false, true, false, true, false, false)},
        {"energon", "Energon", accel::makeEnergon, nullptr,
         baselineCaps(false, true, false, true, false, false)},
        {"bitwave", "Bitwave", nullptr, accel::makeBitwave,
         baselineCaps(true, false, true, false, true, true)},
        {"fusekna", "FuseKNA", nullptr, accel::makeFuseKna,
         baselineCaps(true, false, true, false, true, true)},
        {"cambricon-c", "Cambricon-C", nullptr, accel::makeCambriconC,
         baselineCaps(true, false, true, false, true, false)},
    };
    return defs;
}

const BaselineDef *
findBaseline(std::string name)
{
    if (name == "cambricon") // alias
        name = "cambricon-c";
    for (const BaselineDef &d : baselineDefs())
        if (name == d.spec)
            return &d;
    return nullptr;
}

/** The parallel axes; an absent axis has degree 1. */
enum Axis : std::size_t { kTp, kTp2, kPp, kDp, kAxisCount };
constexpr std::array<const char *, kAxisCount> kAxisKeys = {"tp", "tp2",
                                                            "pp", "dp"};
using Axes = std::array<std::size_t, kAxisCount>;

std::size_t
axisOf(const ParsedSpec &p, Axis a)
{
    const std::string *v = findOption(p, kAxisKeys[a]);
    return v != nullptr ? toCount(kAxisKeys[a], *v) : 1;
}

enum class KnobValue { Count, Real, Policy };

/**
 * One topology knob: every design accepts it, README "Topology" lists
 * it. It applies when any axis in `needs` is >= 2 (always when
 * `needs` is empty). make() rejects a present knob that does not
 * apply, since it would be a silent no-op; degradedSpec() drops the
 * knobs the halved topology no longer applies.
 */
struct TopologyKnob
{
    const char *key;
    KnobValue value;
    double min; ///< Smallest accepted value (numeric knobs).
    std::vector<Axis> needs;
};

const std::vector<TopologyKnob> &
topologyKnobs()
{
    // Tier 1 is the intra-group all-reduce ring. Tier 2 is the
    // boundary fabric the tp2= outer ring and the pp= stage handoffs
    // share; it inherits the tier-1 values unless the *2 knobs
    // override them. Only a link bandwidth is a divisor: zero link
    // energy or hop latency are meaningful ideal-fabric points.
    static const std::vector<TopologyKnob> knobs = {
        {"tp", KnobValue::Count, 1, {}},
        {"tp2", KnobValue::Count, 1, {kTp}},
        {"pp", KnobValue::Count, 1, {}},
        {"mb", KnobValue::Count, 1, {kPp}},
        {"dp", KnobValue::Count, 1, {}},
        {"route", KnobValue::Policy, 0, {kDp}},
        {"linkgbs", KnobValue::Real, 1e-12, {kTp, kPp}},
        {"linkpj", KnobValue::Real, 0, {kTp, kPp}},
        {"hops", KnobValue::Real, 0, {kTp, kPp}},
        {"linkgbs2", KnobValue::Real, 1e-12, {kTp2, kPp}},
        {"linkpj2", KnobValue::Real, 0, {kTp2, kPp}},
        {"hops2", KnobValue::Real, 0, {kTp2, kPp}},
    };
    return knobs;
}

const TopologyKnob *
findKnob(const std::string &key)
{
    for (const TopologyKnob &knob : topologyKnobs())
        if (key == knob.key)
            return &knob;
    return nullptr;
}

bool
applies(const TopologyKnob &knob, const Axes &axes)
{
    return knob.needs.empty() ||
           std::any_of(knob.needs.begin(), knob.needs.end(),
                       [&](Axis a) { return axes[a] >= 2; });
}

/** fatal() unless every topology knob of @p p applies and is in range. */
void
checkTopology(const ParsedSpec &p, const std::string &spec)
{
    const Axes axes = {axisOf(p, kTp), axisOf(p, kTp2), axisOf(p, kPp),
                       axisOf(p, kDp)};
    for (const TopologyKnob &knob : topologyKnobs()) {
        const std::string *value = findOption(p, knob.key);
        if (value == nullptr)
            continue;
        if (!applies(knob, axes)) {
            std::string needs;
            for (Axis a : knob.needs)
                needs += (needs.empty() ? "" : " or ") +
                         std::string(kAxisKeys[a]) + ">=2";
            fatal("option '" + std::string(knob.key) + "' requires " +
                  needs + " in spec '" + spec + "'");
        }
        double v = 0.0;
        switch (knob.value) {
        case KnobValue::Count:
            v = static_cast<double>(toCount(knob.key, *value));
            break;
        case KnobValue::Real:
            v = toDouble(knob.key, *value);
            break;
        case KnobValue::Policy:
            continue; // make() reads it with toPolicy.
        }
        if (v < knob.min) {
            std::ostringstream msg;
            msg << "option '" << knob.key << "' must be >= " << knob.min
                << ", got '" << *value << "' in spec '" << spec << "'";
            fatal(msg.str());
        }
    }
}

/**
 * Consume recognized keys; whatever remains is a user error. ALL
 * leftover keys are reported in one message, together with the keys
 * this design does accept (its own plus the topology keys), so a
 * multi-typo spec is fixed in one round trip.
 */
void
rejectUnknown(const ParsedSpec &p, std::vector<std::string> accepted)
{
    if (p.options.empty())
        return;
    for (const TopologyKnob &knob : topologyKnobs())
        accepted.push_back(knob.key);
    std::sort(accepted.begin(), accepted.end());

    std::string unknown;
    for (const auto &kv : p.options)
        unknown += (unknown.empty() ? "'" : ", '") + kv.first + "'";
    std::string known;
    for (const std::string &key : accepted)
        known += (known.empty() ? "" : ", ") + key;
    fatal("unknown option" + std::string(p.options.size() > 1 ? "s " : " ") +
          unknown + " for accelerator '" + p.name +
          "'; accepted keys: " + known);
}

} // namespace

std::string
degradedSpec(const std::string &spec)
{
    const ParsedSpec p = parseSpec(spec);

    // Halve the widest redundant axis. The outer tensor tier goes
    // first: a chip failure excises its whole inner tp= group, so the
    // tp2= ring loses a member while the surviving groups keep their
    // shape (and tp2's tp>=2 requirement stays satisfiable). Then the
    // inner tensor group loses a shard pair, then the pipeline
    // re-partitions. dp= is NOT intra-replica redundancy — the fleet
    // reroutes around a dead replica instead of shrinking one — so a
    // spec whose only multi-chip axis is dp= has no degraded form, and
    // dp= and the route= it gates pass through unread.
    constexpr std::array<Axis, 3> redundant = {kTp2, kTp, kPp};
    Axes axes = {1, 1, 1, 1}; // dp stays unread.
    for (Axis a : redundant)
        axes[a] = axisOf(p, a);
    const auto failed =
        std::find_if(redundant.begin(), redundant.end(),
                     [&](Axis a) { return axes[a] >= 2; });
    if (failed == redundant.end())
        return "";
    axes[*failed] /= 2;

    std::string out = p.name;
    char sep = ':';
    for (const auto &[key, value] : p.options) {
        std::string kept = value;
        const auto axis =
            std::find_if(redundant.begin(), redundant.end(),
                         [&](Axis a) { return key == kAxisKeys[a]; });
        if (axis != redundant.end()) {
            if (axes[*axis] <= 1)
                continue; // Degree 1 is the registry's identity.
            kept = std::to_string(axes[*axis]);
        } else if (const TopologyKnob *knob = findKnob(key);
                   knob != nullptr && knob->needs != std::vector{kDp} &&
                   !applies(*knob, axes)) {
            continue; // No longer applies (a dp= gate cannot change).
        }
        out += sep;
        sep = ',';
        out += key;
        out += '=';
        out += kept;
    }
    return out;
}

Registry::Registry(sim::McbpConfig hw)
    : hw_(hw), profiles_(accel::makeProfileCache())
{
}

std::unique_ptr<Accelerator>
Registry::make(const std::string &spec) const
{
    ParsedSpec p = parseSpec(spec);

    // Topology options apply to every design: `tp=N` shards the chip
    // N-way (tensor parallel) behind a ClusterAccelerator, `tp2=M`
    // tiers M such groups over the boundary fabric (hierarchical
    // collectives — a nested cluster), `pp=N` splits the layers across
    // N stages behind a PipelineAccelerator over the cluster(s) (stage
    // partitioning divides layer segments, so the three compose),
    // `mb=` micro-batches the pipeline's prefill, `dp=N` replicates
    // the whole group N ways behind a FleetAccelerator with `route=`
    // replica selection, and the link knobs refine the two fabric
    // tiers. topologyKnobs() declares when each applies.
    checkTopology(p, spec);
    const std::optional<std::size_t> tp = take(p, "tp", toCount);
    const std::optional<std::size_t> tp2 = take(p, "tp2", toCount);
    const std::optional<std::size_t> pp = take(p, "pp", toCount);
    const std::optional<std::size_t> dp = take(p, "dp", toCount);
    ClusterOptions cluster;
    cluster.tensorParallel = tp.value_or(1);
    ClusterOptions outerCluster;
    outerCluster.tensorParallel = tp2.value_or(1);
    PipelineOptions pipe;
    pipe.pipelineParallel = pp.value_or(1);
    pipe.microBatches = take(p, "mb", toCount).value_or(pipe.microBatches);
    FleetOptions fleetOpts;
    fleetOpts.dataParallel = dp.value_or(1);
    fleetOpts.policy = take(p, "route", toPolicy).value_or(fleetOpts.policy);
    sim::InterconnectConfig link;
    link.linkGBs = take(p, "linkgbs", toDouble).value_or(link.linkGBs);
    link.pJPerBit = take(p, "linkpj", toDouble).value_or(link.pJPerBit);
    link.hopCycles = take(p, "hops", toDouble).value_or(link.hopCycles);
    sim::InterconnectConfig link2 = link;
    link2.linkGBs = take(p, "linkgbs2", toDouble).value_or(link2.linkGBs);
    link2.pJPerBit = take(p, "linkpj2", toDouble).value_or(link2.pJPerBit);
    link2.hopCycles = take(p, "hops2", toDouble).value_or(link2.hopCycles);
    cluster.interconnect = link;
    outerCluster.interconnect = link2;
    pipe.interconnect = link2;

    // A given tp=, pp= or dp= wraps even at degree 1 (a bit-identical
    // identity); tp2=1 is the flat single-tier ring and adds no tier.
    auto finish = [&](std::unique_ptr<Accelerator> chip)
        -> std::unique_ptr<Accelerator> {
        if (tp)
            chip = std::make_unique<ClusterAccelerator>(std::move(chip),
                                                        cluster);
        if (outerCluster.tensorParallel > 1)
            chip = std::make_unique<ClusterAccelerator>(std::move(chip),
                                                        outerCluster);
        if (pp)
            chip = std::make_unique<PipelineAccelerator>(std::move(chip),
                                                         pipe);
        if (dp)
            chip = std::make_unique<FleetAccelerator>(std::move(chip),
                                                      fleetOpts);
        return chip;
    };

    if (p.name == "mcbp" || p.name == "mcbp-standard" ||
        p.name == "mcbp-s" || p.name == "mcbp-aggressive" ||
        p.name == "mcbp-a" || p.name == "mcbp-baseline") {
        // Start from the canonical factory presets so the registry can
        // never drift from makeMcbp{Standard,Aggressive,Baseline}().
        accel::McbpOptions o =
            (p.name == "mcbp-aggressive" || p.name == "mcbp-a"
                 ? accel::makeMcbpAggressive()
             : p.name == "mcbp-baseline" ? accel::makeMcbpBaseline()
                                         : accel::makeMcbpStandard())
                .options();
        o.alpha = take(p, "alpha", toDouble).value_or(o.alpha);
        o.seed = take(p, "seed", toCount).value_or(o.seed);
        o.processors = take(p, "procs", toCount).value_or(o.processors);
        o.enableBrcr = take(p, "brcr", toBool).value_or(o.enableBrcr);
        o.enableBstc = take(p, "bstc", toBool).value_or(o.enableBstc);
        o.enableBgpp = take(p, "bgpp", toBool).value_or(o.enableBgpp);
        rejectUnknown(p, {"alpha", "seed", "procs", "brcr", "bstc",
                          "bgpp"});
        return finish(std::make_unique<McbpAdapter>(
            accel::McbpAccelerator(hw_, o, profiles_)));
    }

    if (p.name == "a100" || p.name == "a100-sw") {
        accel::GpuSoftwareOptions sw;
        if (p.name == "a100-sw")
            sw.brcr = sw.bstc = sw.bgpp = true;
        sw.brcr = take(p, "brcr", toBool).value_or(sw.brcr);
        sw.bstc = take(p, "bstc", toBool).value_or(sw.bstc);
        sw.bgpp = take(p, "bgpp", toBool).value_or(sw.bgpp);
        const double alpha = take(p, "alpha", toDouble).value_or(0.6);
        const std::uint64_t seed = take(p, "seed", toCount).value_or(1);
        rejectUnknown(p, {"brcr", "bstc", "bgpp", "alpha", "seed"});
        return finish(std::make_unique<GpuAdapter>(
            accel::GpuParams{}, sw, profiles_, alpha, seed));
    }

    if (const BaselineDef *def = findBaseline(p.name)) {
        // Only accept the options this design can react to; an alpha
        // sweep on a weight-profile design would otherwise be a silent
        // no-op.
        double alpha = 0.6;
        std::uint64_t seed = 1;
        std::vector<std::string> accepted;
        if (def->fromAttention != nullptr) {
            alpha = take(p, "alpha", toDouble).value_or(alpha);
            accepted.push_back("alpha");
        }
        if (def->fromAttention != nullptr ||
            def->fromWeights != nullptr) {
            seed = take(p, "seed", toCount).value_or(seed);
            accepted.push_back("seed");
        }
        rejectUnknown(p, std::move(accepted));
        BaselineAdapter::TraitsMaker maker;
        BaselineAdapter::ProfileNeeds needs;
        needs.alpha = alpha;
        needs.seed = seed;
        if (def->fromAttention != nullptr) {
            needs.attention = true;
            maker = [alpha, seed, make = def->fromAttention](
                        accel::ProfileCache &cache,
                        const model::LlmConfig &m,
                        const model::Workload &t) {
                return make(cache.attention(m, t, alpha, seed));
            };
        } else if (def->fromWeights != nullptr) {
            needs.weights = true;
            maker = [seed, make = def->fromWeights](
                        accel::ProfileCache &cache,
                        const model::LlmConfig &m,
                        const model::Workload &) {
                return make(cache.weights(m, quant::BitWidth::Int8, seed));
            };
        } else {
            maker = [](accel::ProfileCache &, const model::LlmConfig &,
                       const model::Workload &) {
                return accel::makeSystolic();
            };
        }
        return finish(std::make_unique<BaselineAdapter>(
            def->display, maker, def->caps, profiles_, hw_, needs));
    }

    fatal("unknown accelerator spec '" + spec + "'");
}

std::vector<std::unique_ptr<Accelerator>>
Registry::fleet(const std::vector<std::string> &specs) const
{
    std::vector<std::unique_ptr<Accelerator>> out;
    out.reserve(specs.size());
    for (const std::string &spec : specs)
        out.push_back(make(spec));
    return out;
}

void
Registry::warmFleet(
    const std::vector<std::unique_ptr<Accelerator>> &fleet,
    const std::vector<model::LlmConfig> &models,
    const std::vector<model::Workload> &tasks, std::size_t threads) const
{
    std::vector<accel::ProfileRequest> requests;
    for (const auto &accel : fleet)
        for (const model::LlmConfig &m : models)
            for (const model::Workload &t : tasks)
                accel->profileRequests(m, t, requests);
    // warm() deduplicates by final cache key, so overlapping needs
    // across the fleet (shared seeds/alphas) fan out exactly once.
    profiles_->warm(requests, threads);
}

void
Registry::warmFleet(
    const std::vector<std::unique_ptr<Accelerator>> &fleet,
    const std::vector<std::string> &models,
    const std::vector<std::string> &tasks, std::size_t threads) const
{
    std::vector<model::LlmConfig> ms;
    for (const std::string &name : models)
        ms.push_back(model::findModel(name));
    std::vector<model::Workload> ts;
    for (const std::string &name : tasks)
        ts.push_back(model::findTask(name));
    warmFleet(fleet, ms, ts, threads);
}

std::vector<std::string>
Registry::knownSpecs()
{
    std::vector<std::string> specs = {"mcbp", "mcbp-standard",
                                      "mcbp-aggressive",
                                      "mcbp-baseline"};
    for (const BaselineDef &d : baselineDefs())
        specs.push_back(d.spec);
    specs.push_back("a100");
    specs.push_back("a100-sw");
    return specs;
}

} // namespace mcbp::engine
