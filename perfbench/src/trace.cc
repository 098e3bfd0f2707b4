#include "trace.h"

#include <fstream>
#include <algorithm>
#include <thread>

#include "report.h"

namespace perfbench {

namespace {

thread_local std::vector<int> open_spans;

std::uint32_t
threadNumber()
{
    static std::mutex mutex;
    static std::map<std::thread::id, std::uint32_t> numbers;
    std::lock_guard<std::mutex> lock(mutex);
    const auto [it, inserted] = numbers.try_emplace(
        std::this_thread::get_id(),
        static_cast<std::uint32_t>(numbers.size() + 1));
    return it->second;
}

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int
Tracer::begin(const std::string &name, const std::string &id,
              int parent)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.id = id;
    span.parent = parent >= 0 ? parent : current();
    span.thread = threadNumber();
    span.start_ns = nowNs();
    int index = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = static_cast<int>(spans_.size());
        spans_.push_back(std::move(span));
    }
    open_spans.push_back(index);
    return index;
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    const std::int64_t now = nowNs();
    if (!open_spans.empty() && open_spans.back() == index)
        open_spans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now;
    span.busy_ns = now - span.start_ns;
}

void
Tracer::aggregate(const std::string &name, const std::string &id,
                  Clock::time_point start, Clock::time_point end,
                  std::int64_t busy_ns, std::uint64_t calls)
{
    if (!enabled_)
        return;
    Span span;
    span.name = name;
    span.id = id;
    span.parent = current();
    span.thread = threadNumber();
    span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        start - epoch_)
                        .count();
    span.end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
            .count();
    span.busy_ns = busy_ns;
    span.calls = calls;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

int
Tracer::current() const
{
    return open_spans.empty() ? -1 : open_spans.back();
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

double
Tracer::total(const std::string &name, std::size_t first,
              std::size_t last) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t sum = 0;
    for (std::size_t i = first; i < last && i < spans_.size(); ++i)
        if (spans_[i].name == name)
            sum += spans_[i].busy_ns;
    return static_cast<double>(sum) * 1e-9;
}

std::map<std::string, double>
Tracer::layerSelfSeconds(std::size_t first, std::size_t last) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    last = std::min(last, spans_.size());
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = first; i < last; ++i)
        self[i] = spans_[i].busy_ns;
    for (std::size_t i = first; i < last; ++i) {
        const int parent = spans_[i].parent;
        if (parent >= static_cast<int>(first) &&
            parent < static_cast<int>(last))
            self[static_cast<std::size_t>(parent)] -= spans_[i].busy_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = first; i < last; ++i)
        out[spans_[i].layer()] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        out << "{\"name\": " << jsonString(span.name)
            << ", \"cat\": " << jsonString(span.layer())
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
            << ", \"ts\": " << formatNumber(span.start_ns * 1e-3)
            << ", \"dur\": "
            << formatNumber((span.end_ns - span.start_ns) * 1e-3)
            << ", \"args\": {\"index\": " << i
            << ", \"parent\": " << span.parent
            << ", \"id\": " << jsonString(span.id)
            << ", \"calls\": " << span.calls << ", \"busy_us\": "
            << formatNumber(span.busy_ns * 1e-3) << "}}"
            << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

} // namespace perfbench
