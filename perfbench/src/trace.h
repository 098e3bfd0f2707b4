/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span brackets one call from the harness into a library layer
 * (ir, encore, interp, fault, campaign) or one unit of the harness's
 * own work (layer "bench"). Spans are recorded only while the tracer
 * is enabled, kept in memory, and written out as a Chrome trace-event
 * file when the run ends. High-rate calls (one per fault-injection
 * trial) are folded into one aggregate span per campaign that carries
 * the call count and the summed busy time, so a traced run stays
 * bounded in memory.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

struct Span
{
    std::string name;      ///< "<layer>.<call>", e.g. "interp.golden".
    std::string id;        ///< Campaign / grid-point id.
    std::int64_t start_ns = 0; ///< Relative to the tracer epoch.
    std::int64_t end_ns = 0;
    /// Time inside the call(s); end - start unless aggregated.
    std::int64_t busy_ns = 0;
    std::uint64_t calls = 1;
    int parent = -1;       ///< Index of the causing span, -1 = root.
    std::uint32_t thread = 0;

    std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer
{
  public:
    Tracer();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /// Opens a span; returns its index (or -1 when disabled). The
    /// parent is the calling thread's innermost open span unless
    /// `parent` is given explicitly (>= 0), which is how spans on
    /// helper threads attach to the span that started the thread.
    int begin(const std::string &name, const std::string &id,
              int parent = -1);
    void end(int index);

    /// Records a span for many calls folded together.
    void aggregate(const std::string &name, const std::string &id,
                   Clock::time_point start, Clock::time_point end,
                   std::int64_t busy_ns, std::uint64_t calls);

    /// The calling thread's innermost open span (-1 if none).
    int current() const;

    std::size_t size() const;
    std::vector<Span> spans() const;

    /// Summed busy seconds of spans named `name` with index in
    /// [first, last).
    double total(const std::string &name, std::size_t first,
                 std::size_t last) const;

    /// Per-layer self time over spans [first, last): each span's busy
    /// time minus the busy time of its direct children.
    std::map<std::string, double> layerSelfSeconds(std::size_t first,
                                                   std::size_t last) const;

    /// Chrome trace-event JSON (viewable in Perfetto / about:tracing).
    bool write(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    bool enabled_ = false;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
};

Tracer &tracer();

/// RAII span around one call into a layer; a no-op when tracing is off.
class ScopedSpan
{
  public:
    ScopedSpan(const std::string &name, const std::string &id,
               int parent = -1)
        : index_(tracer().begin(name, id, parent))
    {
    }
    ~ScopedSpan() { tracer().end(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
