#include "bench.h"

#include "interp/interpreter.h"

namespace perfbench {

using namespace encore;

void
TrialStats::merge(const TrialStats &other)
{
    executed_us.insert(executed_us.end(), other.executed_us.begin(),
                       other.executed_us.end());
    masked_ns += other.masked_ns;
    masked += other.masked;
    busy_s += other.busy_s;
    trials += other.trials;
}

fault::CampaignResult
runTimedTrials(const fault::FaultInjector &injector,
               const fault::CampaignConfig &config, const std::string &id,
               TrialStats &stats)
{
    fault::validateCampaignConfig(config);
    fault::CampaignResult result;
    interp::Interpreter interp(injector.decodedModule());
    const Clock::time_point start = Clock::now();
    std::int64_t busy_ns = 0;
    for (std::uint64_t t = 0; t < config.trials; ++t) {
        std::uint32_t aux = 0;
        const Clock::time_point t0 = Clock::now();
        const fault::FaultOutcome outcome =
            injector.runCampaignTrial(t, config, interp, aux);
        const std::int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count();
        busy_ns += ns;
        if (outcome == fault::FaultOutcome::Masked) {
            stats.masked_ns += static_cast<double>(ns);
            ++stats.masked;
        } else {
            stats.executed_us.push_back(static_cast<double>(ns) * 1e-3);
        }
        ++result.counts[static_cast<int>(outcome)];
        ++result.trials;
        result.replay_cost += aux;
    }
    stats.busy_s += static_cast<double>(busy_ns) * 1e-9;
    stats.trials += config.trials;
    tracer().aggregate("fault.trial", id, start, Clock::now(), busy_ns,
                       config.trials);
    return result;
}

void
SnapshotCounts::add(const fault::FaultInjector &injector)
{
    const interp::SnapshotStats stats = injector.snapshotStats();
    hits += stats.hits;
    misses += stats.misses;
    resyncs += stats.resyncs;
}

SnapshotCounts
SnapshotCounts::minus(const SnapshotCounts &before) const
{
    return {hits - before.hits, misses - before.misses,
            resyncs - before.resyncs};
}

void
SnapshotCounts::addCounters(Counters &counters) const
{
    counters["interp.snapshot_hits"] += hits;
    counters["interp.snapshot_misses"] += misses;
    counters["interp.resyncs"] += resyncs;
}

void
PrepStats::add(const Program &program)
{
    phases.accumulate(program.phases);
    region_evals += program.cache.region_evals;
    region_hits += program.cache.region_hits;
    if (!program.golden_ok)
        return;
    golden_dyn_instrs += program.injector->golden().dyn_instrs;
    const interp::SnapshotStats snap = program.injector->snapshotStats();
    snapshot_count += snap.count;
    snapshot_bytes += snap.bytes;
}

void
PrepStats::merge(const PrepStats &other)
{
    phases.accumulate(other.phases);
    region_evals += other.region_evals;
    region_hits += other.region_hits;
    golden_dyn_instrs += other.golden_dyn_instrs;
    snapshot_count += other.snapshot_count;
    snapshot_bytes += other.snapshot_bytes;
}

void
PrepStats::addCounters(Counters &counters) const
{
    counters["encore.region_evals"] += region_evals;
    counters["encore.region_hits"] += region_hits;
    counters["interp.golden_dyn_instrs"] += golden_dyn_instrs;
    counters["interp.snapshot_count"] += snapshot_count;
    counters["interp.snapshot_bytes"] += snapshot_bytes;
}

void
prepMetrics(Report &report, const PrepStats &stats, std::size_t first,
            std::size_t last, double per)
{
    const Tracer &t = tracer();
    const double golden_s = t.total("interp.golden", first, last);
    report.metric("ir.build_ms", t.total("ir.build", first, last) * 1e3 / per,
                  "ms");
    report.metric("encore.profile_ms",
                  t.total("encore.profile", first, last) * 1e3 / per,
                  "ms");
    report.metric("encore.formation_ms",
                  stats.phases.formation * 1e3 / per, "ms");
    report.metric("encore.dataflow_ms", stats.phases.dataflow * 1e3 / per,
                  "ms");
    report.metric("encore.select_ms",
                  stats.phases.select_merge * 1e3 / per, "ms");
    report.metric("encore.instrument_ms",
                  stats.phases.instrument * 1e3 / per, "ms");
    report.metric("encore.region_evals",
                  static_cast<double>(stats.region_evals) / per, "count");
    report.metric("encore.region_hits",
                  static_cast<double>(stats.region_hits) / per, "count");
    report.metric("interp.decode_ms",
                  t.total("interp.decode", first, last) * 1e3 / per, "ms");
    report.metric("interp.golden_ms", golden_s * 1e3 / per, "ms");
    report.metric("interp.golden_minstr_per_s",
                  golden_s > 0.0
                      ? static_cast<double>(stats.golden_dyn_instrs) /
                            golden_s * 1e-6
                      : 0.0,
                  "Minstr/s");
    report.metric("interp.golden_dyn_instrs",
                  static_cast<double>(stats.golden_dyn_instrs) / per,
                  "count");
    report.metric("interp.snapshot_count",
                  static_cast<double>(stats.snapshot_count) / per, "count");
    report.metric("interp.snapshot_bytes",
                  static_cast<double>(stats.snapshot_bytes) / per, "B");
}

void
trialMetrics(Report &report, const TrialStats &stats,
             std::uint64_t executed, std::uint64_t attempted,
             std::uint64_t replay_cost, const SnapshotCounts &snap,
             double per)
{
    const std::uint64_t seeks = snap.hits + snap.misses;
    report.metric("interp.snapshot_hit_rate",
                  seeks ? static_cast<double>(snap.hits) /
                              static_cast<double>(seeks)
                        : 0.0,
                  "frac");
    report.metric("interp.resyncs", static_cast<double>(snap.resyncs),
                  "count");
    report.metric("fault.trial_us_p50", percentile(stats.executed_us, 0.5),
                  "us");
    report.metric("fault.trial_us_p99", percentile(stats.executed_us, 0.99),
                  "us");
    report.metric("fault.masked_trial_ns",
                  stats.masked ? stats.masked_ns /
                                     static_cast<double>(stats.masked)
                               : 0.0,
                  "ns");
    report.metric("fault.trial_busy_s", stats.busy_s / per, "s");
    report.metric("fault.executed_frac",
                  attempted ? static_cast<double>(executed) /
                                  static_cast<double>(attempted)
                            : 0.0,
                  "frac");
    report.metric("fault.replay_cost", static_cast<double>(replay_cost),
                  "count");
}

void
plannerMetricsUnused(Report &report)
{
    for (const char *name :
         {"campaign.planner.run_ms", "campaign.planner.executed",
          "campaign.planner.reused_trials", "campaign.planner.reuse_frac",
          "campaign.planner.groups", "campaign.planner.groups_reused",
          "campaign.planner.sidecar_bytes"}) {
        const std::string n = name;
        report.metric(n, 0.0,
                      n.ends_with("_ms")      ? "ms"
                      : n.ends_with("_frac")  ? "frac"
                      : n.ends_with("_bytes") ? "B"
                                              : "count");
    }
}

void
serviceMetricsUnused(Report &report)
{
    report.metric("campaign.store.bytes", 0.0, "B");
    report.metric("campaign.store.read_ms", 0.0, "ms");
    report.metric("campaign.service.serve_s", 0.0, "s");
    report.metric("campaign.service.worker_s", 0.0, "s");
    report.metric("campaign.service.handshake_ms", 0.0, "ms");
    report.metric("campaign.service.tail_ms", 0.0, "ms");
    report.metric("campaign.service.balance", 0.0, "frac");
    report.metric("campaign.service.leases", 0.0, "count");
    report.metric("campaign.service.duplicates", 0.0, "count");
    report.metric("campaign.service.leases_reissued", 0.0, "count");
}

} // namespace perfbench
