#include "tracer.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

/** @p s as a JSON string literal (span and workload names are ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)), origin_(std::chrono::steady_clock::now())
{
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::size_t
Tracer::begin(std::string name)
{
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? kNoParent : open_.back();
    span.startUs = nowUs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::end(std::size_t id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("perfbench: spans must close innermost first");
    spans_[id].endUs = nowUs();
    open_.pop_back();
}

double
Tracer::seconds(const std::string &name) const
{
    double us = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            us += s.endUs - s.startUs;
    return us * 1e-6;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.startUs,
                      s.endUs - s.startUs);
        out << "{\"name\":" << quoted(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
            << ",\"args\":{\"id\":" << i << ",\"parent\":"
            << (s.parent == kNoParent ? std::string("null")
                                      : std::to_string(s.parent))
            << ",\"workload\":" << quoted(workload_) << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
