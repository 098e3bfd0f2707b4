#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>

#include "support/checksum.h"

namespace perfbench {

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[64];
    const auto result =
        std::to_chars(buffer, buffer + sizeof buffer, value);
    return std::string(buffer, result.ptr);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

std::uint64_t
digest(const Counters &counters)
{
    std::uint64_t h = encore::fnv1a64("perfbench-counters");
    for (const auto &[name, value] : counters) {
        h = encore::fnv1a64(name, h);
        h = encore::fnv1a64Mix(value, h);
    }
    return h;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    std::cerr << "FAILED: " << why << "\n";
}

void
Report::print() const
{
    for (const Metric &m : metrics_)
        std::cout << "  " << m.name << " = " << formatNumber(m.value)
                  << " " << m.unit << "\n";
    const double failed_frac =
        attempted_ ? static_cast<double>(failed_) /
                         static_cast<double>(attempted_)
                   : 1.0;
    std::cout << "  failed_frac = " << formatNumber(failed_frac) << " ("
              << failed_ << " of " << attempted_ << " operations)\n";
    std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted_
              << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        std::cout << (i ? ", " : "") << jsonString(metrics_[i].name)
                  << ": {\"value\": " << formatNumber(metrics_[i].value)
                  << ", \"unit\": " << jsonString(metrics_[i].unit)
                  << "}";
    std::cout << "}}" << std::endl;
}

} // namespace perfbench
