/**
 * @file
 * What one benchmark run reports: named metrics with units, attempted
 * and failed operation counts, and the deterministic work counters the
 * exact self-check compares across passes and across runs.
 */
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Shortest round-trip rendering of a double (all its digits).
std::string formatNumber(double value);
std::string jsonString(const std::string &text);

/// Linear-interpolation percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Deterministic work counters, by name. Ordered so that digests and
/// files are stable.
using Counters = std::map<std::string, std::uint64_t>;

/// Stable digest of a counter set.
std::uint64_t digest(const Counters &counters);

class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /// Counts `n` attempted operations (trials, grid evaluations,
    /// oracle comparisons).
    void attempt(std::uint64_t n) { attempted_ += n; }

    /// Counts one failed operation and says why on stderr.
    void fail(const std::string &why);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /// Human-readable metric lines, then the one-line JSON result the
    /// benchmark contract reads from the last line of stdout.
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
