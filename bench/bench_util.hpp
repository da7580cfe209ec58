/**
 * @file
 * Shared helpers for the figure/table reproduction benches: section
 * banners, normalization utilities, and the machine-readable result
 * archive every bench/example shares. Each bench binary prints the rows
 * or series of one paper table/figure (EXPERIMENTS.md records the
 * paper-vs-measured comparison); passing `--json <path>` additionally
 * writes the same rows as JSON so CI can archive and diff them.
 */
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "engine/serving.hpp"

namespace mcbp::bench {

/** Print a figure/table banner. */
inline void
banner(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n";
}

/** Normalize a series so its maximum is 1.0. */
inline std::vector<double>
normalizeToMax(const std::vector<double> &v)
{
    double mx = 0.0;
    for (double x : v)
        mx = std::max(mx, x);
    std::vector<double> out(v.size(), 0.0);
    if (mx > 0.0)
        for (std::size_t i = 0; i < v.size(); ++i)
            out[i] = v[i] / mx;
    return out;
}

/** Normalize a series to its first element. */
inline std::vector<double>
normalizeToFirst(const std::vector<double> &v)
{
    std::vector<double> out(v.size(), 0.0);
    if (!v.empty() && v[0] > 0.0)
        for (std::size_t i = 0; i < v.size(); ++i)
            out[i] = v[i] / v[0];
    return out;
}

/** The `--json <path>` flag's value, or "" when absent. */
inline std::string
jsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            fatalIf(i + 1 >= argc, "--json needs a file path");
            return argv[i + 1];
        }
    }
    return "";
}

/**
 * Fail fast on a malformed `--json` flag: call at the top of main so
 * a missing or unwritable path aborts before the bench spends its
 * runtime, not after. Returns the path ("" when absent).
 */
inline std::string
validatedJsonPathFromArgs(int argc, char **argv)
{
    const std::string path = jsonPathFromArgs(argc, argv);
    if (!path.empty()) {
        std::ofstream probe(path, std::ios::app); // no truncation
        if (!probe)
            fatal("cannot open '" + path + "' for writing");
    }
    return path;
}

/**
 * Machine-readable result archive: one bench = one JSON document of
 * flat records, the single schema every bench/example emits so CI can
 * collect serving/throughput results uniformly:
 *
 *   { "bench": "<name>",
 *     "records": [ {"key": <number|string>, ...}, ... ] }
 *
 * Typical use:
 * @code
 *   bench::JsonRecords json("serving");
 *   json.begin().field("accelerator", name).field("tok_s", tps);
 *   json.writeIfRequested(argc, argv);  // honors --json <path>
 * @endcode
 */
class JsonRecords
{
  public:
    explicit JsonRecords(std::string benchName)
        : bench_(std::move(benchName))
    {
    }

    /** Start a new record; subsequent field() calls populate it. */
    JsonRecords &
    begin()
    {
        records_.emplace_back();
        return *this;
    }

    JsonRecords &
    field(const std::string &key, const std::string &value)
    {
        append(key, quote(value));
        return *this;
    }

    JsonRecords &
    field(const std::string &key, const char *value)
    {
        return field(key, std::string(value));
    }

    JsonRecords &
    field(const std::string &key, double value)
    {
        if (!std::isfinite(value)) { // inf/nan are not legal JSON
            append(key, "null");
            return *this;
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        append(key, buf);
        return *this;
    }

    /** Any integer type (avoids double-vs-size_t overload ambiguity
     *  for plain int arguments). */
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T>>>
    JsonRecords &
    field(const std::string &key, T value)
    {
        return field(key, static_cast<double>(value));
    }

    /** Render the whole document. */
    std::string
    toString() const
    {
        std::ostringstream os;
        os << "{\"bench\": " << quote(bench_) << ", \"records\": [";
        for (std::size_t r = 0; r < records_.size(); ++r) {
            os << (r == 0 ? "\n" : ",\n") << "  {";
            const auto &rec = records_[r];
            for (std::size_t f = 0; f < rec.size(); ++f)
                os << (f == 0 ? "" : ", ") << quote(rec[f].first)
                   << ": " << rec[f].second;
            os << "}";
        }
        os << "\n]}\n";
        return os.str();
    }

    /** Write the document to @p path. */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot open '" + path + "' for writing");
        out << toString();
        if (!out.good())
            fatal("failed writing '" + path + "'");
    }

    /** Honor a `--json <path>` flag if the caller passed one. */
    void
    writeIfRequested(int argc, char **argv) const
    {
        const std::string path = jsonPathFromArgs(argc, argv);
        if (!path.empty()) {
            write(path);
            std::cout << "\n[json results written to " << path << "]\n";
        }
    }

  private:
    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (char ch : s) {
            const auto u = static_cast<unsigned char>(ch);
            if (ch == '"' || ch == '\\') {
                (out += '\\') += ch;
            } else if (u < 0x20) { // all control chars, per RFC 8259
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", u);
                out += buf;
            } else {
                out += ch;
            }
        }
        return out += '"';
    }

    void
    append(const std::string &key, std::string rendered)
    {
        fatalIf(records_.empty(), "field() before begin()");
        auto &record = records_.back();
        for (const auto &field : record)
            if (field.first == key)
                fatal("JSON record already has key '" + key + "'");
        record.emplace_back(key, std::move(rendered));
    }

    std::string bench_;
    std::vector<std::vector<std::pair<std::string, std::string>>>
        records_;
};

/**
 * Append the canonical ServingReport field set to the CURRENT record
 * (callers begin() a record and add their context fields — setting,
 * sweep point, budget — first). One schema for every bench/example
 * that archives a serving run, so the CI artifacts of fig20/fig23 and
 * example_serving all carry the same columns: the names and
 * aggregates below, every run counter under its
 * MCBP_SERVING_COUNTERS key, and the serial baseline.
 */
inline JsonRecords &
appendServingFields(JsonRecords &json, const engine::ServingReport &r)
{
    json.field("accelerator", r.accelerator)
        .field("scheduler", r.scheduler)
        .field("kv_policy", r.kvPolicy)
        .field("p50_latency_s", r.p50LatencySeconds)
        .field("p90_latency_s", r.p90LatencySeconds)
        .field("p99_latency_s", r.p99LatencySeconds)
        .field("mean_latency_s", r.meanLatencySeconds)
        .field("p50_queue_s", r.p50QueueSeconds)
        .field("p90_queue_s", r.p90QueueSeconds)
        .field("p99_queue_s", r.p99QueueSeconds)
        .field("p50_ttft_s", r.p50FirstTokenSeconds)
        .field("p90_ttft_s", r.p90FirstTokenSeconds)
        .field("p99_ttft_s", r.p99FirstTokenSeconds)
        .field("mean_tpot_s", r.meanTpotSeconds)
        .field("tokens_per_s", r.tokensPerSecond)
        .field("joules_per_token", r.joulesPerToken)
        .field("mean_batch", r.meanBatchOccupancy)
        .field("kv_utilization", r.kvUtilization)
        .field("kv_block_utilization", r.kvBlockUtilization)
        .field("batching_speedup", r.batchingSpeedup())
        .field("serial_s", r.serialSeconds)
        .field("serial_j", r.serialJoules)
        // Availability (fault injection).
        .field("goodput_tok_s", r.goodputTokensPerSecond)
        .field("slo_attainment", r.sloAttainment)
        .field("degraded_fraction", r.degradedFraction)
        .field("no_completions", r.noCompletions ? 1.0 : 0.0);
#define MCBP_JSON_COUNTER(type, stat, member, key, rule, unit)               \
    json.field(key, r.member);
    MCBP_SERVING_COUNTERS(MCBP_JSON_COUNTER)
#undef MCBP_JSON_COUNTER
    return json;
}

} // namespace mcbp::bench
