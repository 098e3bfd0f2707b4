/**
 * @file
 * The one execution core under every campaign loop.
 *
 * A TrialExecutor runs campaign trials of one prepared FaultInjector
 * through FaultInjector::runCampaignTrial. It owns a ThreadPool of
 * `jobs`-way parallelism and one lazily built Interpreter per pool
 * slot, both kept for the executor's lifetime, so a caller that runs
 * many trial sets (planner rounds, worker leases) pays for the
 * workers and the interpreters' pooled storage once. A one-job pool
 * runs every trial inline on the calling thread.
 *
 * Every trial is a pure function of (module, golden run, config.seed,
 * trial index), and results land at the position of their index in
 * the request, so a run's results are bit-identical at any job count
 * or schedule. FaultInjector::runCampaign, the durable CampaignRunner,
 * the CampaignPlanner and the serve worker loop all execute through
 * this class.
 */
#ifndef ENCORE_FAULT_TRIAL_EXECUTOR_H
#define ENCORE_FAULT_TRIAL_EXECUTOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/injector.h"
#include "support/thread_pool.h"

namespace encore::fault {

/// The trial indices of one run: an explicit list (borrowed; it must
/// outlive the run) or the contiguous range [first, first + count).
class TrialIndices
{
  public:
    TrialIndices(const std::vector<std::uint64_t> &list)
        : list_(&list), count_(list.size())
    {
    }

    static TrialIndices
    range(std::uint64_t first, std::uint64_t count)
    {
        return TrialIndices(first, count);
    }

    std::uint64_t size() const { return count_; }

    std::uint64_t
    operator[](std::uint64_t i) const
    {
        return list_ ? (*list_)[i] : first_ + i;
    }

  private:
    TrialIndices(std::uint64_t first, std::uint64_t count)
        : first_(first), count_(count)
    {
    }

    const std::vector<std::uint64_t> *list_ = nullptr;
    std::uint64_t first_ = 0;
    std::uint64_t count_ = 0;
};

/// Positional results of one run: entry i belongs to the i-th
/// requested trial index.
struct TrialResults
{
    std::vector<FaultOutcome> outcomes;
    /// Per-trial auxiliary cost counter (replay cost; see
    /// FaultInjector::runTrialPlanned).
    std::vector<std::uint32_t> aux;

    /// Adds every position to `result`'s counts, trials and replay
    /// cost.
    void addTo(CampaignResult &result) const;
};

class TrialExecutor
{
  public:
    /// Called once per executed trial with (trial index, outcome,
    /// aux), from whichever pool thread ran it: must be thread-safe.
    using Sink =
        std::function<void(std::uint64_t, FaultOutcome, std::uint32_t)>;

    /// `injector` must be prepare()d and outlive the executor. `jobs`
    /// is the parallelism (0 = all hardware threads).
    TrialExecutor(const FaultInjector &injector, std::size_t jobs);
    ~TrialExecutor();

    TrialExecutor(const TrialExecutor &) = delete;
    TrialExecutor &operator=(const TrialExecutor &) = delete;

    /// Runs campaign trial trials[i] of `config` for every position i
    /// (config.jobs is ignored: the executor's pool decides). Blocks
    /// until all are done; not reentrant.
    TrialResults run(const CampaignConfig &config,
                     const TrialIndices &trials, const Sink &sink = {});

  private:
    const FaultInjector &injector_;
    ThreadPool pool_;
    /// One per pool slot, built on the slot's first trial.
    std::vector<std::unique_ptr<interp::Interpreter>> interps_;
};

} // namespace encore::fault

#endif // ENCORE_FAULT_TRIAL_EXECUTOR_H
