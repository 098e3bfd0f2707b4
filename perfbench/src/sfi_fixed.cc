/**
 * @file
 * Workload sfi-fixed: the paper's headline experiment (Fig. 8). All 23
 * programs × Dmax {1000, 100, 10}, single-bit register faults under
 * the analytical detector, masking 0.91, a fixed trial count per
 * campaign, run in memory through FaultInjector::runCampaign at
 * jobs=1. Almost all of the wall is trial execution; no work is
 * shared between campaigns.
 */
#include <cstdio>
#include <iostream>

#include "bench.h"
#include "support/rng.h"
#include "support/checksum.h"

namespace perfbench {

using namespace encore;

namespace {

constexpr std::uint64_t kTrials = 8000;
constexpr std::uint64_t kDmaxes[] = {1000, 100, 10};
/// Campaigns re-run with the snapshot tier off by the trial oracle.
constexpr std::size_t kOracleCampaigns = 8;

class SfiFixed : public Workload
{
  public:
    explicit SfiFixed(const Options &options) : options_(options) {}

    void
    setup() override
    {
        programs_.clear();
        for (const workloads::Workload &w : workloads::allWorkloads())
            programs_.push_back(prepareProgram(w, EncoreConfig{}, w.name));
    }

    Counters
    setupCounters() const override
    {
        Counters counters;
        PrepStats stats;
        for (const auto &program : programs_)
            stats.add(*program);
        stats.addCounters(counters);
        return counters;
    }

    PassResult
    pass(bool traced) override
    {
        PassResult out;
        SnapshotCounts before;
        for (const auto &program : programs_)
            if (program->golden_ok)
                before.add(*program->injector);
        std::vector<fault::CampaignResult> results;
        std::uint64_t campaign_digest = fnv1a64("sfi-fixed");
        const Clock::time_point start = Clock::now();
        for (const auto &program : programs_) {
            if (!program->golden_ok)
                continue;
            for (const std::uint64_t dmax : kDmaxes) {
                const fault::CampaignConfig config =
                    campaignConfig(*program, dmax, 1);
                const std::string id =
                    program->id + "/dmax" + std::to_string(dmax);
                ScopedSpan span("bench.campaign", id);
                const Clock::time_point t0 = Clock::now();
                const fault::CampaignResult result =
                    traced ? runTimedTrials(*program->injector, config, id,
                                            trial_stats_[program->id])
                           : program->injector->runCampaign(config);
                out.point_ms.push_back(secondsSince(t0) * 1e3);
                out.trials += result.trials;
                ++out.points;
                results.push_back(result);
                campaign_digest = mixResult(campaign_digest, result);
            }
        }
        out.seconds = secondsSince(start);
        SnapshotCounts after;
        for (const auto &program : programs_)
            if (program->golden_ok)
                after.add(*program->injector);
        fault::CampaignResult total;
        for (const fault::CampaignResult &r : results)
            addResult(total, r);
        addTallies(out.counters, "tally.", total);
        out.counters["campaign.digest"] = campaign_digest;
        after.minus(before).addCounters(out.counters);
        if (first_pass_.empty())
            first_pass_ = results;
        if (traced) {
            traced_snap_ = after.minus(before);
            traced_total_ = total;
        }
        return out;
    }

    void
    check(Report &report) override
    {
        for (const auto &program : programs_)
            report.attempt(checkGolden(*program, report));

        // The same campaigns at jobs=2 must reproduce every tally.
        std::size_t index = 0;
        for (const auto &program : programs_) {
            if (!program->golden_ok)
                continue;
            for (const std::uint64_t dmax : kDmaxes) {
                const fault::CampaignResult got =
                    program->injector->runCampaign(
                        campaignConfig(*program, dmax, 2));
                report.attempt(1);
                const std::string diff =
                    compareTallies(first_pass_.at(index++), got);
                if (!diff.empty())
                    report.fail("jobs=2 drift on " + program->id +
                                " dmax " + std::to_string(dmax) + ": " +
                                diff);
            }
        }

        // A seeded sample of campaigns, re-executed from program entry
        // with snapshots off, must reproduce the recorded tallies.
        Rng rng(campaignSeed(options_.seed, "sfi-fixed", "oracle"));
        const std::size_t campaigns = first_pass_.size();
        for (std::size_t k = 0; k < kOracleCampaigns && campaigns > 0;
             ++k) {
            const std::size_t pick = rng.below(campaigns);
            const Program &program = nthReadyProgram(pick / 3);
            const std::uint64_t dmax = kDmaxes[pick % 3];
            const auto full = fullRerunInjector(program);
            report.attempt(1);
            if (!full) {
                report.fail("snapshot-off golden run failed for " +
                            program.id);
                continue;
            }
            const std::string diff = compareTallies(
                first_pass_[pick],
                full->runCampaign(campaignConfig(program, dmax, 1)));
            if (!diff.empty())
                report.fail("snapshot-off re-execution of " + program.id +
                            " dmax " + std::to_string(dmax) +
                            " differs: " + diff);
        }
    }

    double
    layerMetrics(Report &report, const TraceWindow &window) override
    {
        PrepStats prep;
        for (const auto &program : programs_)
            prep.add(*program);
        prepMetrics(report, prep, window.setup_first, window.setup_last,
                    1.0);
        TrialStats all;
        for (const auto &[name, stats] : trial_stats_)
            all.merge(stats);
        trialMetrics(report, all,
                     traced_total_.trials -
                         traced_total_.count(fault::FaultOutcome::Masked),
                     traced_total_.trials, traced_total_.replay_cost,
                     traced_snap_, static_cast<double>(window.passes));
        plannerMetricsUnused(report);
        serviceMetricsUnused(report);
        printProgramRows(window);
        return 0.0;
    }

  private:
    fault::CampaignConfig
    campaignConfig(const Program &program, std::uint64_t dmax,
                   std::size_t jobs) const
    {
        fault::CampaignConfig config;
        config.trials = kTrials;
        config.seed = campaignSeed(options_.seed, program.id,
                                   "dmax" + std::to_string(dmax));
        config.jobs = jobs;
        config.trial.dmax = dmax;
        config.masking_rate = fault::MaskingModel::kArm926Rate;
        return config;
    }

    const Program &
    nthReadyProgram(std::size_t n) const
    {
        for (const auto &program : programs_)
            if (program->golden_ok && n-- == 0)
                return *program;
        return *programs_.front();
    }

    /// One row per program of the traced passes.
    void
    printProgramRows(const TraceWindow &window) const
    {
        const std::vector<Span> spans = tracer().spans();
        std::cout << "per-program rows (traced passes: " << window.passes
                  << "):\n  program        trials/s  exec%  "
                     "trial_us_p50  trial_us_p99  snapshots  snap_KiB  "
                     "hit%   golden_ms\n";
        for (const auto &program : programs_) {
            const auto it = trial_stats_.find(program->id);
            if (it == trial_stats_.end())
                continue;
            const TrialStats &stats = it->second;
            double golden_s = 0.0;
            for (std::size_t i = window.setup_first;
                 i < window.setup_last && i < spans.size(); ++i)
                if (spans[i].name == "interp.golden" &&
                    spans[i].id == program->id)
                    golden_s += static_cast<double>(spans[i].busy_ns) * 1e-9;
            const interp::SnapshotStats snap =
                program->injector->snapshotStats();
            char row[256];
            std::snprintf(
                row, sizeof row,
                "  %-13s %9.0f  %5.1f  %12.2f  %12.2f  %9llu  %8.1f  "
                "%5.1f  %9.3f\n",
                program->id.c_str(),
                static_cast<double>(stats.trials) / stats.busy_s,
                100.0 * static_cast<double>(stats.executed_us.size()) /
                    static_cast<double>(stats.trials),
                percentile(stats.executed_us, 0.5),
                percentile(stats.executed_us, 0.99),
                static_cast<unsigned long long>(snap.count),
                static_cast<double>(snap.bytes) / 1024.0,
                100.0 * snap.hitRate(), golden_s * 1e3);
            std::cout << row;
        }
    }

    Options options_;
    std::vector<std::unique_ptr<Program>> programs_;
    std::vector<fault::CampaignResult> first_pass_;
    std::map<std::string, TrialStats> trial_stats_;
    SnapshotCounts traced_snap_;
    fault::CampaignResult traced_total_;
};

} // namespace

std::unique_ptr<Workload>
makeSfiFixed(const Options &options)
{
    return std::make_unique<SfiFixed>(options);
}

} // namespace perfbench
