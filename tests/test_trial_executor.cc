/**
 * @file
 * TrialExecutor tests: the one execution core under runCampaign, the
 * campaign runner, the planner and the serve worker loop.
 *
 *  - Positional outcomes and aux equal single-trial ground truth at
 *    jobs 1, 2 and 4, for a shuffled index list and for a range.
 *  - The sink runs exactly once per requested index, with the
 *    positional outcome and aux.
 *  - One executor reused across campaigns that differ in seed, Dmax
 *    and model x detector pair (planner rounds, worker leases) equals
 *    fresh executors and FaultInjector::runCampaign.
 *
 * Run under ThreadSanitizer and AddressSanitizer by scripts/ci.sh.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <random>

#include "encore/pipeline.h"
#include "fault/trial_executor.h"
#include "ir/parser.h"

namespace encore::fault {
namespace {

/// A histogram with an in-place running maximum: idempotent and
/// checkpointed regions, loads and stores for the memory-bus model.
const char *kProgram = R"(
module "m"
global @src 64
global @hist 16
global @peak 1
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = and r1, 63
    r3 = load [@src + r2]
    r4 = add r3, r1
    r5 = and r4, 15
    r6 = load [@hist + r5]
    r6 = add r6, 1
    store [@hist + r5], r6
    r7 = load [@peak + 0]
    r8 = cmplt r7, r6
    br r8, bump, next
  bb bump:
    store [@peak + 0], r6
    jmp next
  bb next:
    r1 = add r1, 1
    r9 = cmplt r1, r0
    br r9, loop, done
  bb done:
    r10 = load [@peak + 0]
    ret r10
}
)";

constexpr std::uint64_t kTrials = 120;

struct Harness
{
    std::unique_ptr<ir::Module> module;
    EncoreReport report;
    std::unique_ptr<FaultInjector> injector;
};

Harness
prepare()
{
    Harness setup;
    setup.module = ir::parseModule(kProgram);
    EncoreConfig config;
    config.gamma = 1.0;
    EncorePipeline pipeline(*setup.module, config);
    setup.report = pipeline.run({RunSpec{"main", {300}}});
    setup.injector =
        std::make_unique<FaultInjector>(*setup.module, setup.report);
    // A short stride so trials seek into snapshots and long replays
    // reach the shared, lazily built replay profiles.
    interp::SnapshotConfig snapshots;
    snapshots.stride = 256;
    setup.injector->configureSnapshots(snapshots);
    EXPECT_TRUE(setup.injector->prepare("main", {300}));
    return setup;
}

/// The two model x detector pairs: the paper's default, and one that
/// strikes memory and accrues replay cost (non-zero aux).
CampaignConfig
campaignConfig(int pair)
{
    CampaignConfig config;
    config.trials = kTrials;
    config.seed = pair == 0 ? 31 : 4242;
    config.trial.dmax = pair == 0 ? 40 : 120;
    config.masking_rate = 0.3;
    config.trial.model =
        models::findFaultModel(pair == 0 ? "reg-bit" : "mem-bus");
    config.trial.detector =
        models::findDetector(pair == 0 ? "analytic" : "replay");
    return config;
}

/// Ground truth: each trial alone on its own fresh interpreter.
TrialResults
singleTrials(const FaultInjector &injector, const CampaignConfig &config,
             const std::vector<std::uint64_t> &trials)
{
    TrialResults results;
    for (const std::uint64_t t : trials) {
        interp::Interpreter interp(injector.decodedModule());
        std::uint32_t aux = 0;
        results.outcomes.push_back(
            injector.runCampaignTrial(t, config, interp, aux));
        results.aux.push_back(aux);
    }
    return results;
}

std::vector<std::uint64_t>
shuffledIndices()
{
    std::vector<std::uint64_t> trials(kTrials);
    std::iota(trials.begin(), trials.end(), 0);
    std::shuffle(trials.begin(), trials.end(), std::mt19937_64(7));
    return trials;
}

TEST(TrialExecutor, PositionalResultsIdenticalAcrossJobs)
{
    Harness setup = prepare();
    const std::vector<std::uint64_t> list = shuffledIndices();
    constexpr std::uint64_t kFirst = 17;
    constexpr std::uint64_t kCount = 80;
    std::vector<std::uint64_t> range_list(kCount);
    std::iota(range_list.begin(), range_list.end(), kFirst);

    for (int pair = 0; pair < 2; ++pair) {
        const CampaignConfig config = campaignConfig(pair);
        const TrialResults want_list =
            singleTrials(*setup.injector, config, list);
        const TrialResults want_range =
            singleTrials(*setup.injector, config, range_list);
        if (pair == 1) {
            // The replay pair must actually exercise aux.
            EXPECT_GT(std::accumulate(want_list.aux.begin(),
                                      want_list.aux.end(), 0ull),
                      0u);
        }
        for (const std::size_t jobs : {1, 2, 4}) {
            TrialExecutor executor(*setup.injector, jobs);
            const TrialResults got_list = executor.run(config, list);
            EXPECT_EQ(got_list.outcomes, want_list.outcomes)
                << "pair " << pair << " jobs " << jobs;
            EXPECT_EQ(got_list.aux, want_list.aux)
                << "pair " << pair << " jobs " << jobs;
            const TrialResults got_range = executor.run(
                config, TrialIndices::range(kFirst, kCount));
            EXPECT_EQ(got_range.outcomes, want_range.outcomes)
                << "pair " << pair << " jobs " << jobs;
            EXPECT_EQ(got_range.aux, want_range.aux)
                << "pair " << pair << " jobs " << jobs;
        }
    }
}

TEST(TrialExecutor, SinkRunsExactlyOncePerIndex)
{
    Harness setup = prepare();
    const std::vector<std::uint64_t> list = shuffledIndices();
    const CampaignConfig config = campaignConfig(1);
    TrialExecutor executor(*setup.injector, 4);

    std::mutex mutex;
    std::vector<int> calls(kTrials, 0);
    std::vector<FaultOutcome> sunk_outcome(kTrials);
    std::vector<std::uint32_t> sunk_aux(kTrials, 0);
    const TrialResults results = executor.run(
        config, list,
        [&](std::uint64_t trial, FaultOutcome outcome, std::uint32_t aux) {
            std::lock_guard<std::mutex> lock(mutex);
            ++calls[trial];
            sunk_outcome[trial] = outcome;
            sunk_aux[trial] = aux;
        });
    ASSERT_EQ(results.outcomes.size(), list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
        const std::uint64_t trial = list[i];
        EXPECT_EQ(calls[trial], 1) << "trial " << trial;
        EXPECT_EQ(sunk_outcome[trial], results.outcomes[i]);
        EXPECT_EQ(sunk_aux[trial], results.aux[i]);
    }
}

TEST(TrialExecutor, ReusedExecutorEqualsFreshExecutorsAndRunCampaign)
{
    Harness setup = prepare();
    for (const std::size_t jobs : {1, 4}) {
        TrialExecutor reused(*setup.injector, jobs);
        for (int pair = 0; pair < 2; ++pair) {
            CampaignConfig config = campaignConfig(pair);
            config.jobs = jobs;
            const TrialIndices all = TrialIndices::range(0, kTrials);
            const TrialResults got = reused.run(config, all);
            const TrialResults fresh =
                TrialExecutor(*setup.injector, jobs).run(config, all);
            EXPECT_EQ(got.outcomes, fresh.outcomes)
                << "pair " << pair << " jobs " << jobs;
            EXPECT_EQ(got.aux, fresh.aux)
                << "pair " << pair << " jobs " << jobs;

            CampaignResult folded;
            got.addTo(folded);
            const CampaignResult campaign =
                setup.injector->runCampaign(config);
            EXPECT_EQ(folded.trials, campaign.trials);
            EXPECT_EQ(folded.replay_cost, campaign.replay_cost);
            for (int i = 0;
                 i < static_cast<int>(FaultOutcome::NumOutcomes); ++i)
                EXPECT_EQ(folded.counts[i], campaign.counts[i])
                    << outcomeName(static_cast<FaultOutcome>(i))
                    << " pair " << pair << " jobs " << jobs;
        }
    }
}

} // namespace
} // namespace encore::fault
