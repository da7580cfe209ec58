/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * each layer's public entry point; nothing inside the simulator is
 * instrumented. Each span keeps its name, start, end and parent, and
 * the whole set is written once, after the run, as Chrome trace-event
 * JSON (opens in Perfetto or chrome://tracing).
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/** Host wall-clock seconds taken by @p fn. */
template <typename Fn>
double
timed(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

class Tracer
{
  public:
    explicit Tracer(std::string workload);

    /** Open a span under the innermost open one; returns its index. */
    std::size_t begin(std::string name);
    /** Close span @p id (must be the innermost open span). */
    void end(std::size_t id);

    /** Summed duration, in seconds, of the closed spans named @p name. */
    double seconds(const std::string &name) const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        std::size_t parent = kNoParent;
    };

    double nowUs() const;

    std::string workload_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** RAII span; a null tracer records nothing and reads no clock. */
class Scope
{
  public:
    Scope(Tracer *tracer, std::string name)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->begin(std::move(name)) : 0)
    {
    }
    ~Scope()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    std::size_t id_;
};

} // namespace perfbench
