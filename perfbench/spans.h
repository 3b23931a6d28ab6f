/**
 * @file
 * In-memory span recorder for the traced run. Every span has a name, start,
 * end, its own id and its parent's id; all spans of one run share the run
 * id. Spans are kept in memory and written once, at the end, as Chrome
 * trace-event JSON (open it in Perfetto or chrome://tracing).
 *
 * A disabled recorder records nothing, so the untraced run pays one branch
 * per span site.
 */
#ifndef MLGS_PERFBENCH_SPANS_H
#define MLGS_PERFBENCH_SPANS_H

#include <time.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace mlgs::perfbench
{

inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU seconds used by every thread of the process. Unlike wall time it
 * leaves out waiting for a CPU, and, in a virtual machine whose kernel has
 * steal-time accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING), time the host
 * gave to other guests.
 */
inline double
cpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        uint64_t parent = 0; ///< 0 = root
        double start = 0.0;  ///< seconds, steady clock
        double end = 0.0;
    };

    SpanRecorder(bool enabled, uint64_t run_id)
        : enabled_(enabled), run_id_(run_id)
    {
    }

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its id (0 if off). */
    uint64_t
    begin(const std::string &name)
    {
        if (!enabled_)
            return 0;
        Span s;
        s.name = name;
        s.id = spans_.size() + 1;
        s.parent = open_.empty() ? 0 : open_.back();
        s.start = nowSec();
        spans_.push_back(std::move(s));
        open_.push_back(spans_.back().id);
        return spans_.back().id;
    }

    void
    end(uint64_t id)
    {
        if (!enabled_ || id == 0)
            return;
        spans_[id - 1].end = nowSec();
        while (!open_.empty()) {
            const uint64_t top = open_.back();
            open_.pop_back();
            if (top == id)
                break;
        }
    }

    /** A closed span recorded after the fact (e.g. between two callbacks). */
    void
    add(const std::string &name, double start, double end)
    {
        if (!enabled_)
            return;
        Span s;
        s.name = name;
        s.id = spans_.size() + 1;
        s.parent = open_.empty() ? 0 : open_.back();
        s.start = start;
        s.end = end;
        spans_.push_back(std::move(s));
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    void
    writeChromeTrace(const std::string &path) const
    {
        std::ofstream os(path);
        const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
        os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
               << uint64_t((s.start - t0) * 1e6)
               << ", \"dur\": " << uint64_t((s.end - s.start) * 1e6)
               << ", \"args\": {\"run_id\": " << run_id_
               << ", \"span_id\": " << s.id << ", \"parent_id\": " << s.parent
               << "}}";
        }
        os << "\n]}\n";
    }

  private:
    bool enabled_;
    uint64_t run_id_;
    std::vector<Span> spans_;
    std::vector<uint64_t> open_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name)
        : rec_(rec), id_(rec.begin(name))
    {
    }
    ~ScopedSpan() { rec_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    uint64_t id_;
};

} // namespace mlgs::perfbench

#endif // MLGS_PERFBENCH_SPANS_H
