#include "fault/trial_executor.h"

namespace encore::fault {

void
TrialResults::addTo(CampaignResult &result) const
{
    for (const FaultOutcome outcome : outcomes)
        ++result.counts[static_cast<int>(outcome)];
    for (const std::uint32_t cost : aux)
        result.replay_cost += cost;
    result.trials += outcomes.size();
}

TrialExecutor::TrialExecutor(const FaultInjector &injector,
                             std::size_t jobs)
    : injector_(injector), pool_(jobs), interps_(pool_.slotCount())
{
}

TrialExecutor::~TrialExecutor() = default;

TrialResults
TrialExecutor::run(const CampaignConfig &config,
                   const TrialIndices &trials, const Sink &sink)
{
    // Results land slot-free at their request position: no shared
    // mutable state beyond whatever the sink synchronizes internally.
    TrialResults results;
    results.outcomes.assign(trials.size(), FaultOutcome::Masked);
    results.aux.assign(trials.size(), 0);
    pool_.parallelFor(
        trials.size(), [&](std::uint64_t i, std::size_t slot) {
            std::unique_ptr<interp::Interpreter> &interp = interps_[slot];
            if (!interp)
                interp = std::make_unique<interp::Interpreter>(
                    injector_.decodedModule());
            const std::uint64_t trial = trials[i];
            const FaultOutcome outcome = injector_.runCampaignTrial(
                trial, config, *interp, results.aux[i]);
            results.outcomes[i] = outcome;
            if (sink)
                sink(trial, outcome, results.aux[i]);
        });
    return results;
}

} // namespace encore::fault
