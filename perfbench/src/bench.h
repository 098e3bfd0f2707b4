/**
 * @file
 * The benchmark's workload interface and the measurement pieces the
 * three workloads share. main.cc owns the run: set-up repeats, timed
 * passes, the traced half, the checks, and the result line.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "program.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory for trial stores, sidecars and port files.
    std::string work_dir;
};

/// One timed pass: a fixed amount of work, identical on every pass.
struct PassResult
{
    double seconds = 0.0;
    std::uint64_t trials = 0; ///< Campaign trials accounted.
    std::uint64_t points = 0; ///< Campaigns / grid evaluations done.
    /// Latency of every point, in the same order on every pass.
    std::vector<double> point_ms;
    /// Deterministic work counters; every pass must repeat them.
    Counters counters;
};

/// Span ranges of the traced run (tracer indices [first, last)).
struct TraceWindow
{
    std::size_t setup_first = 0;
    std::size_t setup_last = 0;
    std::size_t passes_first = 0;
    std::size_t passes_last = 0;
    std::size_t passes = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /// Prepares everything the timed passes need, replacing what an
    /// earlier call prepared (set-up is repeated to time it).
    virtual void setup() = 0;
    /// Deterministic counters of the last set-up.
    virtual Counters setupCounters() const = 0;
    /// Runs one pass; `traced` switches to the per-call timed paths.
    virtual PassResult pass(bool traced) = 0;
    /// Oracles and self-checks, after the timed phase.
    virtual void check(Report &report) = 0;
    /// Per-layer metrics of the traced run. Returns the trial execution
    /// per pass, in seconds, that ran inside campaign spans with no span
    /// of its own (estimated by a probe; 0 when trials have their own
    /// spans), so it can be counted as fault self time.
    virtual double layerMetrics(Report &report,
                                const TraceWindow &window) = 0;
};

std::unique_ptr<Workload> makeSfiFixed(const Options &options);
std::unique_ptr<Workload> makeSfiServed(const Options &options);
std::unique_ptr<Workload> makeConfigSweep(const Options &options);

/// Per-call timings of fault-injection trials.
struct TrialStats
{
    std::vector<double> executed_us; ///< One per non-masked trial.
    double masked_ns = 0.0;          ///< Summed over masked trials.
    std::uint64_t masked = 0;
    double busy_s = 0.0;
    std::uint64_t trials = 0;

    void merge(const TrialStats &other);
};

/// A campaign run trial by trial through runCampaignTrial on one
/// pooled interpreter — exactly runCampaign's jobs=1 loop — with every
/// call timed. Recorded as one aggregate "fault.trial" span.
encore::fault::CampaignResult
runTimedTrials(const encore::fault::FaultInjector &injector,
               const encore::fault::CampaignConfig &config,
               const std::string &id, TrialStats &stats);

/// Sum of the snapshot tier's trial counters over some injectors.
struct SnapshotCounts
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t resyncs = 0;

    void add(const encore::fault::FaultInjector &injector);
    SnapshotCounts minus(const SnapshotCounts &before) const;
    void addCounters(Counters &counters) const;
};

/// Preparation work summed over programs.
struct PrepStats
{
    encore::AnalysisPhaseTimings phases;
    std::uint64_t region_evals = 0;
    std::uint64_t region_hits = 0;
    std::uint64_t golden_dyn_instrs = 0;
    std::uint64_t snapshot_count = 0;
    std::uint64_t snapshot_bytes = 0;

    void add(const Program &program);
    void merge(const PrepStats &other);
    void addCounters(Counters &counters) const;
};

/// The ir / encore / interp preparation metrics: span totals over
/// [first, last) plus `stats`, each divided by `per`.
void prepMetrics(Report &report, const PrepStats &stats,
                 std::size_t first, std::size_t last, double per);

/// The fault.* and snapshot hit/resync metrics. `stats` spans `per`
/// passes; the counts and `snap` are per pass.
void trialMetrics(Report &report, const TrialStats &stats,
                  std::uint64_t executed, std::uint64_t attempted,
                  std::uint64_t replay_cost, const SnapshotCounts &snap,
                  double per);

/// Zero-valued metrics for layers a workload never calls, so every
/// traced run prints the full per-layer set.
void plannerMetricsUnused(Report &report);
void serviceMetricsUnused(Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
