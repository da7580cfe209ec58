/**
 * @file
 * perfbench: the serving simulator's benchmark, one workload per
 * process (so its peak RSS belongs to that workload).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--requests R] [--commit SHA] [--source-digest HEX]
 *             [--trace-out PATH]
 *
 * Untraced (--trace 0): after one warm-up, until S seconds have passed
 * (at least 3 times), set the workload up from scratch (setup_s) and
 * call simulate() on a fresh ServingSimulator (sim_s); report the
 * end-to-end metrics. Both are process CPU seconds normalized to host
 * speed: a fixed reference task runs before, between and after the
 * two, and each step's CPU time is rescaled to a host on which that
 * task takes kReferenceSeconds. Each reports the first quartile over
 * the repetitions, peak_rss_mb the median of each repetition's peak.
 * A shared host whose speed drifts by tens of percent over minutes
 * then moves the metrics by a few. Traced (--trace 1): the same
 * measurement, then
 * one traced pass through the layers (traced.hpp); reports the
 * per-layer metrics and the tracing overhead, and writes the spans to
 * --trace-out.
 *
 * Every run checks its outputs: completed + dropped equals the trace,
 * every modeled metric is finite and positive, every repetition gives
 * the identical report, and the traced pass reproduces simulate(). The
 * last stdout line is the JSON result; the exit code is 1 when any
 * check failed.
 */
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd/simd.hpp"
#include "engine/kv_block_manager.hpp"
#include "model/llm_config.hpp"
#include "tracer.hpp"
#include "traced.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace mcbp;
using namespace perfbench;

namespace {

/** Timed repetitions (set-up, then simulate()) per run, at the
 *  least, whatever --seconds says. */
constexpr std::size_t kMinReps = 3;

/** CPU seconds of referenceTask() on the host normalized times are
 *  given for: its time on the quiet 4-vCPU VM of the README baseline. */
constexpr double kReferenceSeconds = 0.040;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t requests = 0;
    std::string commit = "none";
    std::string sourceDigest = "none";
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--requests R] [--commit SHA] "
                 "[--source-digest HEX] [--trace-out PATH]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[i + 1];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = parseCount(flag, v);
        } else if (flag == "--seconds") {
            char *end = nullptr;
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0.0))
                usage("--seconds needs a positive number, got '" + v + "'");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--requests") {
            a.requests = parseCount(flag, v);
        } else if (flag == "--commit") {
            a.commit = v;
        } else if (flag == "--source-digest") {
            a.sourceDigest = v;
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The first quartile (linear interpolation between order statistics).
 * On a shared host noise only ever adds time, so the fast quarter of
 * the repetitions is the steadiest figure of the code itself.
 */
double
lowerQuartile(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const double pos = 0.25 * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Took
{
    double cpu = 0.0;  ///< Process CPU seconds.
    double wall = 0.0; ///< Wall seconds.
};

template <typename Fn>
Took
took(Fn &&fn)
{
    const double c0 = cpuSeconds();
    Took t;
    t.wall = timed(fn);
    t.cpu = cpuSeconds() - c0;
    return t;
}

/**
 * A fixed task that is no part of the simulator, sized to about 0.05 s:
 * fill, sort and hash-index a vector of pseudo-random keys, the mix of
 * allocation, branchy compares and scattered loads the simulator does.
 * Its CPU time samples how fast the host runs at that moment.
 */
std::uint64_t
referenceTask()
{
    constexpr std::size_t kKeys = std::size_t{1} << 18;
    std::vector<std::uint64_t> keys(kKeys);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t &k : keys) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        k = x;
    }
    std::unordered_map<std::uint64_t, std::uint64_t> index;
    for (std::size_t i = 0; i < kKeys; ++i)
        index[keys[i] % (kKeys / 2)] += i;
    std::sort(keys.begin(), keys.end());
    std::uint64_t sum = 0;
    for (const std::uint64_t k : keys) {
        const auto it = index.find(k % (kKeys / 2));
        sum += it == index.end() ? 1 : it->second;
    }
    return sum;
}

/** CPU seconds of one referenceTask(). */
double
referenceSeconds()
{
    static volatile std::uint64_t sink = 0;
    const double c0 = cpuSeconds();
    sink = sink + referenceTask();
    return cpuSeconds() - c0;
}

/** Restart the kernel's peak-RSS count (VmHWM) from the current RSS;
 *  a no-op where /proc/self/clear_refs cannot be written. */
void
resetPeakRss()
{
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** Peak RSS in MiB since the last resetPeakRss(); the whole process's
 *  peak where /proc/self/status is missing. */
double
peakRssMb()
{
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long kib = 0;
        bool found = false;
        while (!found && std::fgets(line, sizeof line, f))
            found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
        std::fclose(f);
        if (found)
            return static_cast<double>(kib) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB.
}

/** The modeled metrics, which must all be finite and positive. */
std::vector<Metric>
modeledMetrics(const engine::ServingReport &r)
{
    return {{"sim_tok_s", r.tokensPerSecond, "tok/s"},
            {"sim_ttft_p50_s", r.p50FirstTokenSeconds, "s"},
            {"sim_ttft_p99_s", r.p99FirstTokenSeconds, "s"},
            {"sim_tpot_s", r.meanTpotSeconds, "s"},
            {"sim_j_per_tok", r.joulesPerToken, "J/tok"},
            {"sim_goodput_tok_s", r.goodputTokensPerSecond, "tok/s"}};
}

/** Why @p r fails the per-report checks, or "" when it passes. */
std::string
checkReport(const engine::ServingReport &r, std::size_t traceSize)
{
    if (r.requests.size() + r.droppedRequests != traceSize)
        return "completed + dropped != trace size";
    for (const Metric &m : modeledMetrics(r))
        if (!std::isfinite(m.value) || m.value <= 0.0)
            return m.name + " is not finite and positive";
    return "";
}

/**
 * Up-front check that every request's KV footprint fits one replica's
 * budget, so a bounded pool can never fail partway through a run.
 */
std::string
checkKvBudget(const Setup &s)
{
    if (engine::kvUnbounded(s.opts.kvCapacityBytes))
        return "";
    engine::KvOptions kv;
    kv.policy = s.opts.kvPolicy;
    kv.blockTokens = s.opts.kvBlockTokens;
    const double per_replica =
        s.opts.kvCapacityBytes /
        static_cast<double>(
            std::max<std::size_t>(1, s.accel->capabilities().replicas));
    for (const model::Request &r : s.trace) {
        const double bytes = engine::kvFootprintBytes(
            kv,
            static_cast<double>(model::findModel(r.model).kvBytesPerToken()),
            r.promptLen, r.decodeLen);
        if (bytes > per_replica)
            return "request " + std::to_string(r.id) +
                   " needs more KV than one replica's budget";
    }
    return "";
}

struct Measured
{
    /** Normalized seconds per timed repetition (see kReferenceSeconds). */
    std::vector<double> setupSeconds;
    std::vector<double> simSeconds;
    std::vector<Took> setupTook;
    std::vector<Took> simTook;
    /** Peak RSS (MiB) of each timed repetition: set-up, simulate() and
     *  the reference task between them. */
    std::vector<double> peakRss;
    /** Reference-task CPU seconds before the first timed set-up and
     *  after every timed set-up and simulate(). */
    std::vector<double> refSeconds;
    engine::ServingReport report; ///< The warm-up's report.
    std::unique_ptr<Setup> setup; ///< The last repetition's set-up.
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
};

/** @p t's CPU seconds at the host speed of kReferenceSeconds, given the
 *  reference samples @p before and @p after it. */
double
normalize(const Took &t, double before, double after)
{
    return t.cpu * kReferenceSeconds / (0.5 * (before + after));
}

/**
 * The untraced measurement shared by both modes. Repetition 0 warms the
 * process up and is checked but not timed. Each later one sets the
 * workload up from scratch, then calls simulate() on a fresh simulator,
 * so both figures sample the same stretch of host time.
 */
Measured
measure(const Workload &w, double budgetSeconds)
{
    Measured m;
    // Reserved up front, so the measurement's own vectors never
    // reallocate between repetitions and move the heap under the
    // simulator's data.
    constexpr std::size_t kReserve = 4096;
    for (std::vector<double> *v :
         {&m.setupSeconds, &m.simSeconds, &m.refSeconds, &m.peakRss})
        v->reserve(kReserve);
    m.setupTook.reserve(kReserve);
    m.simTook.reserve(kReserve);
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    std::uint64_t first = 0;
    for (std::size_t rep = 0; rep <= kMinReps || elapsed() < budgetSeconds;
         ++rep) {
        const bool timing = rep > 0;
        if (rep == 1)
            m.refSeconds.push_back(referenceSeconds());
        m.setup.reset();
        if (timing)
            resetPeakRss();
        m.setup = std::make_unique<Setup>();
        const Setup &s = *m.setup;
        const Took setup_took = took([&] { runSetup(w, *m.setup); });
        if (rep == 0) {
            if (std::string why = checkKvBudget(s); !why.empty()) {
                m.failures.push_back(std::move(why));
                return m;
            }
        }
        if (timing) {
            m.setupTook.push_back(setup_took);
            m.refSeconds.push_back(referenceSeconds());
        }

        auto sim = std::make_unique<engine::ServingSimulator>(*s.accel, s.opts);
        engine::ServingReport r;
        const Took sim_took = took([&] { r = sim->simulate(s.trace); });
        sim.reset();
        if (timing) {
            m.peakRss.push_back(peakRssMb());
            m.simTook.push_back(sim_took);
            m.refSeconds.push_back(referenceSeconds());
            const std::size_t k = m.refSeconds.size();
            m.setupSeconds.push_back(normalize(
                setup_took, m.refSeconds[k - 3], m.refSeconds[k - 2]));
            m.simSeconds.push_back(normalize(sim_took, m.refSeconds[k - 2],
                                             m.refSeconds[k - 1]));
        }
        ++m.attempted;
        std::string why = checkReport(r, s.trace.size());
        const std::uint64_t fp = fingerprint(r);
        if (rep == 0) {
            first = fp;
            m.report = std::move(r);
        } else if (why.empty() && fp != first) {
            why = "repetition " + std::to_string(rep) +
                  " differs from the warm-up";
        }
        if (!why.empty()) {
            ++m.failed;
            m.failures.push_back(why);
        }
    }
    return m;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        // Non-finite values cannot appear in JSON; checks fail on them.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        // The simulator's fan-out uses the whole pool, which MCBP_THREADS
        // sizes (run.py sets 1: see there).
        const std::size_t pool = parallel::hardwareThreads();
        const Workload w =
            makeWorkload(args.workload, args.seed, args.requests, pool);

        std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
                    "\"requests\": %zu, \"seconds\": %g, \"trace\": %d, "
                    "\"commit\": \"%s\", \"source_digest\": \"%s\", "
                    "\"hardware_threads\": %ld, \"pool_threads\": %zu, "
                    "\"simd_tier\": \"%s\", \"build_type\": \"%s\"}}\n",
                    w.name.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    w.trace.requests, args.seconds, args.trace ? 1 : 0,
                    args.commit.c_str(), args.sourceDigest.c_str(),
                    sysconf(_SC_NPROCESSORS_ONLN), pool,
                    simd::tierName(simd::activeTier()), PERFBENCH_BUILD_TYPE);

        Measured m = measure(w, args.seconds);
        const std::size_t n = m.setup->trace.size();
        auto wall_of = [](const std::vector<Took> &v) {
            std::vector<double> out;
            for (const Took &t : v)
                out.push_back(t.wall);
            return out;
        };
        std::vector<Metric> metrics;
        if (m.simSeconds.empty()) {
            // Failed before simulating (KV budget); no metric exists.
        } else if (!args.trace) {
            const double sim_s = lowerQuartile(m.simSeconds);
            metrics = {{"setup_s", lowerQuartile(m.setupSeconds), "s"},
                       {"sim_s", sim_s, "s"},
                       {"host_req_per_s", static_cast<double>(n) / sim_s,
                        "req/s"},
                       {"peak_rss_mb", median(m.peakRss), "MB"},
                       {"completed_share",
                        static_cast<double>(m.report.requests.size()) /
                            static_cast<double>(n),
                        "fraction"}};
            for (const Metric &x : modeledMetrics(m.report))
                metrics.push_back(x);
        } else {
            Tracer tracer(w.name);
            const TracedRun t = runTraced(w, m.report, tracer);
            ++m.attempted;
            if (!t.mismatch.empty()) {
                ++m.failed;
                m.failures.push_back(t.mismatch);
            }
            metrics = t.metrics;
            metrics.push_back(
                {"host.reference_s", median(m.refSeconds), "s"});
            // Spans are wall time, so the untraced side is too.
            const double untraced =
                median(wall_of(m.setupTook)) + median(wall_of(m.simTook));
            metrics.push_back(
                {"trace.overhead_s", t.tracedSeconds - untraced, "s"});
            if (!args.traceOut.empty()) {
                if (tracer.writeChromeTrace(args.traceOut))
                    std::printf("trace written to %s\n",
                                args.traceOut.c_str());
                else
                    m.failures.push_back("cannot write " + args.traceOut);
            }
        }

        std::printf("%s: %zu timed repetitions of %zu requests\n",
                    w.name.c_str(), m.simSeconds.size(), n);
        auto cpu_of = [](const std::vector<Took> &v) {
            std::vector<double> out;
            for (const Took &t : v)
                out.push_back(t.cpu);
            return out;
        };
        for (const auto &[label, reps] :
             {std::pair{"setup_s", m.setupSeconds},
              std::pair{"sim_s", m.simSeconds},
              std::pair{"setup cpu", cpu_of(m.setupTook)},
              std::pair{"simulate cpu", cpu_of(m.simTook)},
              std::pair{"setup wall", wall_of(m.setupTook)},
              std::pair{"simulate wall", wall_of(m.simTook)},
              std::pair{"reference", m.refSeconds},
              std::pair{"peak_rss_mb", m.peakRss}}) {
            std::printf("%s reps:", label);
            for (const double t : reps)
                std::printf(" %.4f", t);
            std::printf("\n");
        }
        for (const std::string &f : m.failures)
            std::printf("CHECK FAILED: %s\n", f.c_str());
        const bool correct = m.failures.empty();
        printResult(correct, std::max<std::size_t>(1, m.attempted),
                    correct ? 0 : std::max<std::size_t>(1, m.failed),
                    metrics);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        // A fatal partway through is a failed run, never a skipped one.
        std::printf("CHECK FAILED: %s\n", e.what());
        printResult(false, 1, 1, {});
        return 1;
    }
}
