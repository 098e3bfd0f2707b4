/**
 * @file
 * Workload config-sweep: the compiler-side tuning loop. The 20-point
 * ablation grid (the same points as bench/ablation_heuristics.cc's
 * ablationGrid) × all 23 programs at Dmax 100. Each evaluation
 * prepares the program under the point's configuration (analysis +
 * instrumentation), constructs and prepares a FaultInjector, and runs
 * CampaignPlanner::run against a per-program sidecar that starts cold
 * every pass and persists across the pass's points. Most trials are
 * reused, so analysis, golden/snapshot preparation, planner
 * attribution and sidecar I/O dominate.
 */
#include <filesystem>

#include "bench.h"
#include "campaign/planner.h"
#include "support/checksum.h"
#include "support/rng.h"

namespace perfbench {

using namespace encore;

namespace {

constexpr std::uint64_t kTrials = 2000;
constexpr std::uint64_t kDmax = 100;
/// Grid evaluations re-checked against brute force by the oracle.
constexpr std::size_t kOraclePoints = 8;

std::vector<EncoreConfig>
ablationGrid()
{
    std::vector<EncoreConfig> grid;
    grid.push_back(EncoreConfig{});
    for (const double pmin : {-1.0, 0.0, 0.1, 0.25}) {
        EncoreConfig config;
        config.prune = pmin >= 0.0;
        config.pmin = std::max(pmin, 0.0);
        grid.push_back(config);
    }
    for (const double gamma : {5.0, 50.0, 500.0, 5000.0}) {
        EncoreConfig config;
        config.gamma = gamma;
        grid.push_back(config);
    }
    {
        EncoreConfig config;
        config.merge_regions = false;
        grid.push_back(config);
    }
    for (const double eta : {10.0, 100.0, 1000.0}) {
        EncoreConfig config;
        config.eta = eta;
        grid.push_back(config);
    }
    for (const double bytes : {64.0, 256.0, 1024.0, 8192.0}) {
        EncoreConfig config;
        config.max_storage_bytes = bytes;
        grid.push_back(config);
    }
    {
        EncoreConfig config;
        config.use_call_summaries = false;
        grid.push_back(config);
    }
    {
        EncoreConfig config;
        config.auto_tune = false;
        grid.push_back(config);
    }
    {
        EncoreConfig config;
        config.alias_mode = EncoreConfig::AliasMode::Optimistic;
        grid.push_back(config);
    }
    return grid;
}

/// "p<k>/<program>", the id of one grid evaluation.
std::string
pointId(std::size_t k, const workloads::Workload &w)
{
    std::string id = std::to_string(k);
    id.insert(0, 1, 'p');
    return id + "/" + w.name;
}

/// Planner work summed over a pass's evaluations.
struct PlannerTotals
{
    std::uint64_t executed = 0;
    /// `executed` split by program, in suite order.
    std::vector<std::uint64_t> executed_by_program;
    std::uint64_t reused = 0;
    std::uint64_t non_masked = 0;
    std::uint64_t groups = 0;
    std::uint64_t groups_reused = 0;
    std::uint64_t sidecar_bytes = 0;
};

class ConfigSweep : public Workload
{
  public:
    explicit ConfigSweep(const Options &options)
        : options_(options),
          dir_(std::filesystem::path(options.work_dir) / "sweep"),
          grid_(ablationGrid())
    {
    }

    /// Reference outputs of the uninstrumented programs: every grid
    /// evaluation's golden run must reproduce them.
    void
    setup() override
    {
        references_.clear();
        for (const workloads::Workload &w : workloads::allWorkloads()) {
            ScopedSpan span("interp.reference", w.name);
            references_.push_back(referenceOutput(w));
        }
    }

    Counters
    setupCounters() const override
    {
        Counters counters;
        for (const interp::RunResult &reference : references_)
            counters["interp.reference_dyn_instrs"] += reference.dyn_instrs;
        return counters;
    }

    PassResult
    pass(bool traced) override
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        const std::vector<workloads::Workload> &suite =
            workloads::allWorkloads();
        PassResult out;
        PrepStats prep;
        PlannerTotals planner;
        planner.executed_by_program.resize(suite.size());
        SnapshotCounts snap;
        fault::CampaignResult total;
        std::vector<fault::CampaignResult> results;
        std::uint64_t point_digest = fnv1a64("config-sweep");
        const Clock::time_point start = Clock::now();
        for (std::size_t k = 0; k < grid_.size(); ++k) {
            for (std::size_t i = 0; i < suite.size(); ++i) {
                const workloads::Workload &w = suite[i];
                const std::string id = pointId(k, w);
                ScopedSpan span("bench.point", id);
                const Clock::time_point t0 = Clock::now();
                const auto program = prepareProgram(w, grid_[k], id);
                prep.add(*program);
                if (!program->golden_ok ||
                    !sameProgramOutput(program->injector->golden(),
                                       references_[i])) {
                    failures_.push_back("golden output of " + id +
                                        " differs from the reference");
                    results.emplace_back();
                    out.point_ms.push_back(secondsSince(t0) * 1e3);
                    continue;
                }
                campaign::PlanSummary summary;
                {
                    ScopedSpan planner_span("campaign.planner", id);
                    campaign::CampaignPlanner run(
                        *program->injector, program->report,
                        campaignConfig(w), plannerOptions(w));
                    summary = run.run();
                }
                out.point_ms.push_back(secondsSince(t0) * 1e3);
                out.trials += summary.result.trials;
                ++out.points;
                snap.add(*program->injector);
                planner.executed += summary.executed;
                planner.executed_by_program[i] += summary.executed;
                planner.reused += summary.reused_trials;
                planner.non_masked +=
                    summary.universe - summary.masked_trials;
                planner.groups += summary.groups;
                planner.groups_reused += summary.groups_reused;
                addResult(total, summary.result);
                point_digest = mixResult(point_digest, summary.result);
                results.push_back(summary.result);
            }
        }
        out.seconds = secondsSince(start);
        for (const auto &entry : std::filesystem::directory_iterator(dir_))
            planner.sidecar_bytes += entry.file_size();

        addTallies(out.counters, "tally.", total);
        out.counters["campaign.digest"] = point_digest;
        out.counters["campaign.planner.executed"] = planner.executed;
        out.counters["campaign.planner.reused_trials"] = planner.reused;
        out.counters["campaign.planner.groups"] = planner.groups;
        out.counters["campaign.planner.groups_reused"] =
            planner.groups_reused;
        out.counters["campaign.planner.sidecar_bytes"] =
            planner.sidecar_bytes;
        prep.addCounters(out.counters);
        snap.addCounters(out.counters);
        if (first_pass_.empty())
            first_pass_ = results;
        if (traced) {
            traced_prep_.merge(prep);
            traced_planner_ = planner;
            traced_snap_ = snap;
            traced_trials_ = out.trials;
        }
        return out;
    }

    void
    check(Report &report) override
    {
        for (const std::string &why : failures_)
            report.fail(why);
        failures_.clear();
        const std::vector<workloads::Workload> &suite =
            workloads::allWorkloads();
        Rng rng(campaignSeed(options_.seed, "config-sweep", "oracle"));
        for (std::size_t n = 0; n < kOraclePoints; ++n) {
            const std::size_t pick = rng.below(first_pass_.size());
            const std::size_t k = pick / suite.size();
            const workloads::Workload &w = suite[pick % suite.size()];
            const std::string id = pointId(k, w);
            const auto program = prepareProgram(w, grid_[k], id);
            report.attempt(checkGolden(*program, report));
            if (!program->golden_ok)
                continue;

            // The memoizing analysis path must instrument exactly as
            // the single-config pipeline does.
            EncoreConfig config = grid_[k];
            for (const std::string &name : w.opaque)
                config.opaque_functions.insert(name);
            const std::unique_ptr<ir::Module> module = w.build();
            EncorePipeline pipeline(*module, config);
            const EncoreReport plain =
                pipeline.run({RunSpec{w.entry, w.train_args}});
            report.attempt(1);
            if (plain.serialized() != program->report.serialized() ||
                fault::FaultInjector(*module, plain).moduleHash() !=
                    program->injector->moduleHash())
                report.fail("analysis at " + id +
                            " differs from EncorePipeline");

            // Planner tallies (with sidecar reuse) equal brute force.
            report.attempt(1);
            const std::string diff = compareTallies(
                first_pass_[pick],
                program->injector->runCampaign(campaignConfig(w)));
            if (!diff.empty())
                report.fail("planner tallies at " + id +
                            " differ from brute force: " + diff);
        }
    }

    double
    layerMetrics(Report &report, const TraceWindow &window) override
    {
        const double per = static_cast<double>(window.passes);
        prepMetrics(report, traced_prep_, window.passes_first,
                    window.passes_last, per);

        // Trials inside CampaignPlanner::run cannot be timed from
        // outside. Instead each program's campaign is run trial by trial
        // at the default configuration; its mean executed-trial time
        // times the planner's executed count for that program stands for
        // the trial execution inside the traced planner spans.
        const std::vector<workloads::Workload> &suite =
            workloads::allWorkloads();
        TrialStats probe;
        double untimed_trial_s = 0.0;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const workloads::Workload &w = suite[i];
            const auto program = prepareProgram(w, grid_[0], w.name);
            if (!program->golden_ok)
                continue;
            TrialStats stats;
            runTimedTrials(*program->injector, campaignConfig(w), w.name,
                           stats);
            double executed_us = 0.0;
            for (const double us : stats.executed_us)
                executed_us += us;
            if (!stats.executed_us.empty())
                untimed_trial_s +=
                    executed_us * 1e-6 /
                    static_cast<double>(stats.executed_us.size()) *
                    static_cast<double>(
                        traced_planner_.executed_by_program[i]);
            probe.merge(stats);
        }
        trialMetrics(report, probe, traced_planner_.executed,
                     traced_trials_, 0, traced_snap_, 1.0);

        const Tracer &t = tracer();
        report.metric("campaign.planner.run_ms",
                      t.total("campaign.planner", window.passes_first,
                              window.passes_last) *
                          1e3 / per,
                      "ms");
        report.metric("campaign.planner.executed",
                      static_cast<double>(traced_planner_.executed), "count");
        report.metric("campaign.planner.reused_trials",
                      static_cast<double>(traced_planner_.reused), "count");
        report.metric("campaign.planner.reuse_frac",
                      traced_planner_.non_masked
                          ? static_cast<double>(traced_planner_.reused) /
                                static_cast<double>(
                                    traced_planner_.non_masked)
                          : 0.0,
                      "frac");
        report.metric("campaign.planner.groups",
                      static_cast<double>(traced_planner_.groups), "count");
        report.metric("campaign.planner.groups_reused",
                      static_cast<double>(traced_planner_.groups_reused),
                      "count");
        report.metric("campaign.planner.sidecar_bytes",
                      static_cast<double>(traced_planner_.sidecar_bytes),
                      "B");
        serviceMetricsUnused(report);
        return untimed_trial_s;
    }

  private:
    fault::CampaignConfig
    campaignConfig(const workloads::Workload &w) const
    {
        fault::CampaignConfig config;
        config.trials = kTrials;
        config.seed = campaignSeed(options_.seed, w.name, "sweep");
        config.jobs = 1;
        config.trial.dmax = kDmax;
        config.masking_rate = fault::MaskingModel::kArm926Rate;
        return config;
    }

    campaign::PlannerOptions
    plannerOptions(const workloads::Workload &w) const
    {
        campaign::PlannerOptions options;
        options.sidecar_path = (dir_ / (w.name + ".tally")).string();
        options.program_key = fnv1a64(w.name);
        return options;
    }

    Options options_;
    std::filesystem::path dir_;
    std::vector<EncoreConfig> grid_;
    std::vector<interp::RunResult> references_;
    std::vector<fault::CampaignResult> first_pass_;
    std::vector<std::string> failures_;
    std::uint64_t traced_trials_ = 0;
    PrepStats traced_prep_;
    PlannerTotals traced_planner_;
    SnapshotCounts traced_snap_;
};

} // namespace

std::unique_ptr<Workload>
makeConfigSweep(const Options &options)
{
    return std::make_unique<ConfigSweep>(options);
}

} // namespace perfbench
